"""Brute-force ground truth for the counting quantities: subgroup membership
counts over intervals, value-set intersections, shortest covering intervals,
power-sum solution counts, congruent pairs, and integer points in boxes.
"""

import functools
import itertools
import math
from collections import Counter, deque
from typing import NamedTuple

from .errors import (
    AllWindowsContainPoles,
    BudgetExceeded,
    FieldMismatch,
    OrderDoesNotDivide,
    PreconditionViolated,
    ZeroLambda,
)
from .factorization import _u_roots
from .fields import FieldCtx, check_prime, is_prime, prime_factors
from .polynomials import RationalFunc, UniPoly, _ustrip


@functools.lru_cache(maxsize=None)
def smallest_primitive_root(p: int) -> int:
    check_prime(p)
    if p == 2:
        return 1
    qs = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise AssertionError("no primitive root found (p not prime?)")


class Subgroup(NamedTuple):
    """The unique subgroup {y : y^order = 1} of F_p*."""

    p: int
    order: int
    generator: int

    def __contains__(self, y: int) -> bool:
        y %= self.p
        return y != 0 and pow(y, self.order, self.p) == 1

    def elements(self) -> tuple:
        out = set()
        cur = 1
        for _ in range(self.order):
            out.add(cur)
            cur = cur * self.generator % self.p
        return tuple(sorted(out))


def subgroup_of_order(p: int, T: int) -> Subgroup:
    """Subgroup of order T generated by g^((p-1)/T) for the smallest primitive root g."""
    check_prime(p)
    if T < 1 or (p - 1) % T != 0:
        raise OrderDoesNotDivide(f"{T} does not divide p - 1 = {p - 1}")
    g = smallest_primitive_root(p)
    gen = pow(g, (p - 1) // T, p)
    sub = Subgroup(p, T, gen)
    if pow(gen, T, p) != 1 or any(pow(gen, T // q, p) == 1 for q in prime_factors(T)):
        raise AssertionError
    return sub


class Interval(NamedTuple("Interval", [("u", int), ("H", int), ("wrap", bool)])):
    """The residues u+1, ..., u+H; with wrap=False they must stay below p."""

    __slots__ = ()

    def __new__(cls, u: int, H: int, wrap: bool = False):
        if H < 1:
            raise PreconditionViolated(f"interval length {H} < 1")
        return super().__new__(cls, u, H, wrap)

    @classmethod
    def _make(cls, iterable):
        # the tuple base's _make (and _replace through it) would skip __new__
        return cls(*iterable)

    def xs(self, p: int):
        """The residues, as a range when wrap is off; a window that leaves
        [0, p) without wrap is refused here, before any residue is read."""
        if self.wrap:
            return ((self.u + i) % p for i in range(1, self.H + 1))
        if self.u < 0 or self.u + self.H >= p:
            raise PreconditionViolated(
                f"interval {self.u}+1..{self.u}+{self.H} leaves [0, {p}) and wrap is off"
            )
        return range(self.u + 1, self.u + self.H + 1)


class SubgroupCount(NamedTuple):
    count: int
    witnesses: tuple


def count_values_in_subgroup(psi: RationalFunc, interval: Interval, G: Subgroup) -> SubgroupCount:
    """Number of x in the interval with g(x) != 0 and ψ(x) in G, plus the x's.

    Poles are skipped; this counts argument-side witnesses, not distinct values.
    """
    p = psi.ctx.p
    if psi.ctx.t != 1 or p != G.p:
        raise FieldMismatch("ψ and the subgroup live over different prime fields")
    return _count_values(((x, psi.eval_raw(x)) for x in interval.xs(p)), G)


def _count_values(points, G: Subgroup) -> SubgroupCount:
    """The x of the pairs (x, ψ(x)) with ψ(x) in G, read one pair at a time;
    ψ(x) is a raw element of F_p, or None at a pole."""
    p, T = G.p, G.order
    witnesses = tuple(x for x, v in points if v and pow(v, T, p) == 1)
    return SubgroupCount(len(witnesses), witnesses)


def _cover_length(values, p: int, wrap: bool) -> int:
    vs = sorted(set(values))
    if not wrap:
        return vs[-1] - vs[0] + 1
    # the widest gap between cyclically consecutive values, the one across 0 included
    return p - max(b - a for a, b in zip(vs, vs[1:] + [vs[0] + p])) + 1


def shortest_covering_interval(f, H: int, p: int, wrap: bool = False) -> int:
    """Length of the shortest interval containing H consecutive values of f.

    Reads f once per point, x = 1, ..., p - 1 and then, with wrap, x = 0, ...,
    H - 1, keeping the last H values; windows containing a pole are skipped.
    With wrap=False both the argument window and the value interval are
    ordinary integer ranges; with wrap=True both are cyclic mod p.
    """
    check_prime(p)
    if H < 1:
        raise PreconditionViolated("H must be >= 1")
    if H >= p:
        raise PreconditionViolated("H must be < p")
    if isinstance(f, UniPoly):
        f = RationalFunc(f, UniPoly.one(f.ctx))
    if f.ctx.p != p or f.ctx.t != 1:
        raise FieldMismatch("f lives over a different prime field")
    xs = itertools.chain(range(1, p), range(H)) if wrap else range(1, p)
    window = deque(maxlen=H)  # the values read since the last pole, at most H
    best = None
    for v in map(f.eval_raw, xs):
        if v is None:
            window.clear()
            continue
        window.append(v)
        if len(window) == H:
            k = _cover_length(window, p, wrap)
            if best is None or k < best:
                best = k
    if best is None:
        raise AllWindowsContainPoles(f"every length-{H} window meets a pole of {f.text()}")
    return best


def vinogradov_count(d: int, k: int, H: int, budget: int = 10**9) -> int:
    """Number of 2k-tuples in [1, H] with equal power sums up to exponent d.

    Counted by joining the k-tuple power-sum signatures of both sides; the
    budget guards the naive d*k*H^(2k) work metric.
    """
    if d < 1 or k < 1 or H < 1:
        raise PreconditionViolated("d, k, H must all be >= 1")
    if d * k * H ** (2 * k) > budget:
        raise BudgetExceeded(f"d*k*H^(2k) = {d * k * H ** (2 * k)} exceeds {budget}")
    sigs = Counter(
        tuple(sum(x**nu for x in xs) for nu in range(1, d + 1))
        for xs in itertools.product(range(1, H + 1), repeat=k)
    )
    return sum(c * c for c in sigs.values())


def congruent_pairs(psi: RationalFunc, lam: int, H: int, p: int) -> list:
    """All (x, y) in [1, H]^2, poles excluded, with ψ(x) = λ ψ(y) mod p."""
    if psi.ctx.p != p or psi.ctx.t != 1:
        raise FieldMismatch("ψ lives over a different prime field")
    lam = int(lam) % p
    if lam == 0:
        raise ZeroLambda("λ = 0 is excluded")
    if H >= p:
        raise PreconditionViolated("H must be < p")
    vals = {}
    by_value: dict = {}
    for x in range(1, H + 1):
        v = psi.eval_raw(x)
        if v is None:
            continue
        vals[x] = v
        by_value.setdefault(v, []).append(x)
    pairs = []
    for y in vals:
        target = lam * vals[y] % p
        for x in by_value.get(target, ()):
            pairs.append((x, y))
    pairs.sort()
    return pairs


class BoxPointCount(NamedTuple):
    count: int
    curve_degree: int
    h_root: float | None
    reference: float | None  # H^(1/n) * exp(12 sqrt(n log H log log H)); context only


def _int_terms(F) -> dict:
    if isinstance(F, dict):
        return {k: int(v) for k, v in F.items() if int(v) != 0}
    raise TypeError("expected a dict {(i, j): int coefficient}")


def _eval_int_bipoly(terms: dict, x: int, y: int) -> int:
    return sum(c * x**i * y**j for (i, j), c in terms.items())


def _int_column(terms: dict, x: int) -> list:
    """The integer coefficients over y of F(x, y), lowest degree first."""
    col = [0] * (max(j for _, j in terms) + 1)
    for (i, j), c in terms.items():
        col[j] += c * x**i
    return col


def _int_horner(col: list, y: int) -> int:
    acc = 0
    for c in reversed(col):
        acc = acc * y + c
    return acc


def _next_prime_above(n: int) -> int:
    c = n + 1
    while not is_prime(c):
        c += 1
    return c


def _roots_mod(coeffs: list, P: int) -> list:
    """Roots in F_P of an integer-coefficient polynomial, via the field
    factorization machinery; every residue when it vanishes mod P."""
    ctx = FieldCtx(P)
    f = _ustrip(ctx, [c % P for c in coeffs])
    if not f:
        return list(range(P))
    return _u_roots(ctx, f)


def integral_points_in_box(F, H: int) -> BoxPointCount:
    """Exact count of integer points (x, y) in [0, H]^2 with F(x, y) = 0.

    F is a dict {(i, j): integer coefficient}. Each column x is F(x, y) as a
    polynomial in y. Boxes with H < 400 try every y in [0, H]; larger ones,
    where that measured slower, try only the column's roots modulo a prime
    above 2H. Every candidate is verified in exact integer arithmetic. The
    attached reference magnitude is reported for context only, and is None for
    n < 2, for H < 3 and beyond the float range, where math.exp raises or the
    product rounds to inf.
    """
    terms = _int_terms(F)
    if not terms:
        raise PreconditionViolated("F must be nonzero")
    if H < 0 or H > 10**6:
        raise PreconditionViolated("H must be in 0..10^6")
    n = max(i + j for i, j in terms)

    small = H < 400
    P = None if small else _next_prime_above(2 * H + 1)
    count = 0
    for x in range(H + 1):
        col = _int_column(terms, x)
        ys = range(H + 1) if small else (y for y in _roots_mod(col, P) if y <= H)
        count += sum(1 for y in ys if _int_horner(col, y) == 0)

    h_root = None
    reference = None
    if n >= 2 and H >= 3:
        h_root = H ** (1.0 / n)
        try:
            reference = h_root * math.exp(12 * math.sqrt(n * math.log(H) * math.log(math.log(H))))
        except OverflowError:
            pass
        if reference == math.inf:
            reference = None
    return BoxPointCount(count, n, h_root, reference)
