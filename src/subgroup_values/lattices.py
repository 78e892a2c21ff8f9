"""Integer lattices: exact volumes, shortest vectors in the infinity norm, and
the small-residue multiplier construction built on them.

Shortest vectors come from a complete depth-first enumeration of the ball
guaranteed by the volume bound. The basis is first reduced by integral LLL,
purely as an accelerator, never as a correctness dependency; its exact integer
Gram-Schmidt state (Gram determinants d and lam = d * mu) is the only
Gram-Schmidt computation. Everything here is plain integer arithmetic: LLL
rounds lam / d by integer division, the enumeration prunes with (d, lam) and
visits one vector of each +-v pair, and the multiplier's bounds are checked
by cross-multiplying integer powers.

Every routine works on vectors alone: LLL keeps no unimodular transform, and
the enumeration's coefficients only set its centres. The small-residue
multiplier is read off the last coordinate of one shortest vector of an
integer basis built from the floored bounds W_i = floor(V_i); Minkowski's
theorem makes it valid whenever the bounds are (see
find_small_residue_multiplier), so there is no second search.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    MultiplierNotFound,
    PreconditionViolated,
    RankDeficient,
    SearchSpaceTooLarge,
)
from .fields import centered_residue, mod_inverse
from .surd import Surd, iroot

MAX_ENUM_DIM = 6  # lattice dimension cap; keeps the tracer at desk scale
NODE_BUDGET = 10**8


# --- exact Gram-Schmidt ---------------------------------------------------------


def _gram_schmidt(cols):
    """Integral Gram-Schmidt state (d, lam) of linearly independent cols.

    d[i] is the Gram determinant of the first i vectors (so |b*_i|^2 =
    d[i+1] / d[i]) and lam[i][j] = d[j+1] * mu[i][j] for j < i, all exact
    integers (Cohen, Alg. 2.6.7). Raises RankDeficient at the first dependent
    vector, before any division by its zero d.
    """
    n = len(cols)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(cols[k], cols[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
        if d[k + 1] == 0:
            raise RankDeficient("columns are linearly dependent")
    return d, lam


class LatticeBasis(NamedTuple("LatticeBasis", [("cols", tuple)])):
    """Columns are linearly independent integer vectors of equal length.

    Construction checks the shape and runs _gram_schmidt once for the rank.
    gso is their Gram-Schmidt state (d, lam) as tuples, computed from cols
    on each read, and gram_det is d[-1]. The routines here read the state
    that _lll_reduce returns instead, so they compute it once per basis.
    """

    __slots__ = ()

    def __new__(cls, cols):
        cols = tuple(tuple(int(x) for x in c) for c in cols)
        if not cols:
            raise RankDeficient("empty basis")
        dims = {len(c) for c in cols}
        if len(dims) != 1:
            raise ValueError("columns of unequal length")
        if len(cols) > len(cols[0]):
            raise RankDeficient("more columns than ambient dimensions")
        _gram_schmidt(cols)
        return super().__new__(cls, cols)

    @classmethod
    def _make(cls, iterable):
        # the tuple base's _make (and _replace through it) would skip __new__
        return cls(*iterable)

    @property
    def gso(self) -> tuple:
        d, lam = _gram_schmidt(self.cols)
        return tuple(d), tuple(map(tuple, lam))

    @property
    def gram_det(self) -> int:
        return self.gso[0][-1]

    @property
    def rank(self) -> int:
        return len(self.cols)


def lattice_volume(B: LatticeBasis):
    """Exact sqrt of the Gram determinant when it is a square, as it is for a
    square basis (|det|); its float sqrt otherwise."""
    gd = B.gram_det
    r = math.isqrt(gd)
    return r if r * r == gd else math.sqrt(gd)


# --- LLL (internal accelerator only) --------------------------------------------


def _round_div(n: int, d: int) -> int:
    """round(Fraction(n, d)) for d > 0: the nearest integer, ties to even."""
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    return q


def _lll_reduce(B: LatticeBasis):
    """Integral LLL with delta = 99/100 (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.6.7).

    Returns (reduced, d, lam): a basis of the same lattice and its
    Gram-Schmidt state. It computes the state (d, lam) of B's columns, which
    raises RankDeficient on a dependent column, and updates it in place on
    every size reduction and swap. No step changes d[n], the Gram
    determinant of the lattice.
    """
    n = B.rank
    b = [list(c) for c in B.cols]
    d, lam = _gram_schmidt(B.cols)
    k = 1
    steps = 0
    while k < n:
        steps += 1
        if steps > 10000:
            break  # fall back to the current (still correct) basis
        for j in range(k - 1, -1, -1):
            if 2 * abs(lam[k][j]) > d[j + 1]:  # |mu[k][j]| > 1/2
                m = _round_div(lam[k][j], d[j + 1])
                b[k] = [x - m * y for x, y in zip(b[k], b[j])]
                lam[k][j] -= m * d[j + 1]
                for i in range(j):
                    lam[k][i] -= m * lam[j][i]
        lk = lam[k][k - 1]
        # Lovasz: |b*_k|^2 >= (99/100 - mu[k][k-1]^2) |b*_{k-1}|^2
        if 100 * d[k + 1] * d[k - 1] >= 99 * d[k] * d[k] - 100 * lk * lk:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            dk = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (dk * t + lk * lam[i][k]) // d[k + 1]
            d[k] = dk
            k = max(k - 1, 1)
    return b, d, lam


# --- exact enumeration ------------------------------------------------------------


def _enumerate_ball(cols, d, lam, linf_bound: int):
    """One vector of each +-v pair of nonzero lattice vectors with infinity
    norm <= linf_bound, complete, as a list of tuples.

    Enumerates the L2 ball of radius sqrt(dim) * linf_bound with exact
    pruning, then filters by the infinity norm. The Gram-Schmidt data of cols
    is the (d, lam) state that _lll_reduce returns for them. At level i the
    centre is -N / d[i+1] for the integer N = sum_j lam[j][i] z_j, and a step
    adds (z d[i+1] + N)^2 / (d[i] d[i+1]) to the squared length, so every
    partial length is an integer multiple of 1/M with M = lcm_i d[i] d[i+1].

    Only coefficient vectors whose top nonzero coefficient is positive are
    visited: while every higher coefficient is 0 the centre is 0 and a level
    takes z >= 0, since -v has the negated coefficients. partial[i] holds
    sum_{j >= i} z_j cols[j], so a leaf vector is one add. The coefficients
    only set the centres; they are not returned.
    """
    r = len(cols)
    s = len(cols[0])
    M = math.lcm(*(d[i] * d[i + 1] for i in range(r)))
    R2M = s * linf_bound * linf_bound * M
    scale = [M // (d[i] * d[i + 1]) for i in range(r)]

    out = []
    coeffs = [0] * r
    partial = [None] * r + [[0] * s]
    nodes = 0

    def go(level, used, top):
        # top: every coefficient above this level is 0
        nonlocal nodes
        dl = d[level + 1]
        N = sum(lam[j][level] * coeffs[j] for j in range(level + 1, r))
        # exactly the z with (z dl + N)^2 * scale <= R2M - used
        a = math.isqrt((R2M - used) // scale[level])
        col, above = cols[level], partial[level + 1]
        for z in range(0 if top else -((a + N) // dl), (a - N) // dl + 1):
            nodes += 1
            if nodes > NODE_BUDGET:
                raise SearchSpaceTooLarge(f"enumeration exceeded {NODE_BUDGET} nodes")
            coeffs[level] = z
            vec = [x + z * c for x, c in zip(above, col)]
            if level == 0:
                if any(vec) and max(map(abs, vec)) <= linf_bound:
                    out.append(tuple(vec))
            else:
                partial[level] = vec
                go(level - 1, used + (z * dl + N) ** 2 * scale[level], top and z == 0)
        coeffs[level] = 0

    go(r - 1, 0, True)
    return out


def _canonical(vec):
    """The nonzero vec, negated if its last nonzero coordinate is negative."""
    last = next(x for x in reversed(vec) if x)
    return vec if last > 0 else tuple(-x for x in vec)


def shortest_vector_enum(B: LatticeBasis) -> tuple:
    """A nonzero lattice vector of minimal infinity norm, found by exact
    enumeration within the volume bound of the LLL-reduced basis.

    Ties are broken deterministically: smallest euclidean norm next, then the
    sign is fixed so the last nonzero coordinate is positive, and the
    lexicographically largest remaining vector is returned.
    """
    if B.rank > MAX_ENUM_DIM:
        raise SearchSpaceTooLarge(f"rank {B.rank} exceeds the enumeration cap {MAX_ENUM_DIM}")
    reduced, d, lam = _lll_reduce(B)
    bound = iroot(d[-1], 2 * B.rank)  # floor(vol^(1/rank))
    bound = max(bound, 1)
    bound = min(bound, min(max(abs(x) for x in col) for col in reduced))
    raw = _enumerate_ball(reduced, d, lam, bound)
    if not raw:
        raise AssertionError("volume bound excluded every vector (impossible)")
    return min(
        map(_canonical, raw),
        key=lambda v: (max(map(abs, v)), sum(x * x for x in v), tuple(-x for x in v)),
    )


# --- small-residue multipliers ------------------------------------------------------


def _as_root(v) -> tuple:
    """(a, b, k) with v = (a/b)^(1/k) and b > 0."""
    if isinstance(v, Surd):
        return v.radicand.numerator, v.radicand.denominator, v.index
    f = Fraction(v)
    return f.numerator, f.denominator, 1


def _floor_bound(v) -> int:
    a, b, k = _as_root(v)
    return iroot(a // b, k)


class SmallResidueInstance:
    """Inputs of the small-residue multiplier problem: find v coprime to p with
    centered_residue(b_i * v) <= V_i for every i.

    floors holds W_i = floor(V_i), computed once; residues are integers, so
    they meet V_i exactly when they meet W_i. It is derived from bounds, so
    equality, hash and repr read p, b and bounds alone. That is why this is a
    slotted class and not a NamedTuple: a tuple cannot hold a value that is
    left out of its equality and repr.
    """

    __slots__ = ("p", "b", "bounds", "floors")

    def __init__(self, p: int, b, bounds):
        b = tuple(int(x) for x in b)
        bounds = tuple(bounds)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "bounds", bounds)
        if len(b) != len(bounds) or not b:
            raise ValueError("b and bounds must be nonempty and of equal length")
        object.__setattr__(self, "floors", tuple(map(_floor_bound, bounds)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not SmallResidueInstance:
            return NotImplemented
        return (self.p, self.b, self.bounds) == (other.p, other.b, other.bounds)

    def __hash__(self):
        return hash((self.p, self.b, self.bounds))

    def __repr__(self):
        return f"SmallResidueInstance(p={self.p!r}, b={self.b!r}, bounds={self.bounds!r})"

    def __reduce__(self):
        return SmallResidueInstance, (self.p, self.b, self.bounds)

    @property
    def s(self) -> int:
        return len(self.b)

    def validate(self) -> None:
        """Check 1 <= V_i < p for all i and prod V_i > p^(s-1), exactly.

        With V_i = (a_i/b_i)^(1/k_i) and L = lcm k_i, the checks are the
        integer inequalities b_i <= a_i < b_i p^k_i and
        prod a_i^(L/k_i) > p^((s-1) L) prod b_i^(L/k_i).
        """
        p = self.p
        roots = []
        for i, v in enumerate(self.bounds):
            a, b, k = _as_root(v)
            if a < b:
                raise PreconditionViolated(f"V[{i}] = {v} violates V_i >= 1")
            if a >= b * p**k:
                raise PreconditionViolated(f"V[{i}] = {v} violates V_i < p = {p}")
            roots.append((a, b, k))
        L = math.lcm(*(k for _, _, k in roots))
        num = math.prod(a ** (L // k) for a, _, k in roots)
        den = math.prod(b ** (L // k) for _, b, k in roots)
        if num <= p ** ((self.s - 1) * L) * den:
            prod = Surd(Fraction(num, den), L)
            raise PreconditionViolated(
                f"prod V_i = {float(prod):.6g} violates prod > p^(s-1) = {p ** (self.s - 1)}"
            )

    def satisfied_by(self, v: int) -> bool:
        if math.gcd(v, self.p) != 1:
            return False
        return all(centered_residue(bi * v, self.p) <= wi for bi, wi in zip(self.b, self.floors))


def build_red_basis(inst: SmallResidueInstance) -> LatticeBasis:
    """The s x s matrix of the multiplier construction, with b_1 normalized to 1.

    With W_i = floor(V_i) and P = W_1 ... W_s, rows run b_s P/W_s, ...,
    b_2 P/W_2, P/W_1 down the first column; column j (j >= 2) holds p P/W_j
    in the row of index j. Every entry is an integer, and a lattice vector
    with first coefficient c has infinity norm <= P exactly when
    centered_residue(b_i c) <= W_i for every i, which for integer residues is
    the bound V_i itself.
    """
    inst.validate()
    p = inst.p
    if inst.b[0] % p == 0:
        raise PreconditionViolated("b[0] must be invertible mod p; reorder the system")
    inv1 = mod_inverse(inst.b[0], p)
    return _red_basis(p, [bi * inv1 % p for bi in inst.b], inst.floors)


def _red_basis(p: int, nb, W) -> LatticeBasis:
    """build_red_basis for normalized residues nb (nb[0] = 1) and floored
    bounds W, without validation. The columns are independent by
    construction, so the basis skips LatticeBasis's rank check; _lll_reduce
    still raises RankDeficient on a dependent one."""
    s = len(W)
    P = math.prod(W)
    cols = [[0] * s for _ in range(s)]
    for r in range(s):
        i = s - r  # index of the b entry carried by this row
        cols[0][r] = nb[i - 1] * P // W[i - 1]
        if i >= 2:
            cols[i - 1][r] = p * P // W[i - 1]
    return tuple.__new__(LatticeBasis, (tuple(map(tuple, cols)),))


def find_small_residue_multiplier(inst: SmallResidueInstance) -> int:
    """An integer v in [1, p) with gcd(v, p) = 1 and centered_residue(b_i v) <= V_i.

    The system is pivoted on its first b_i prime to p and normalized there;
    v is the first coefficient c of the shortest vector of its build_red_basis
    lattice, divided by that b_i mod p. c is read off the vector itself: the
    basis's last row holds a single entry, P/W_pivot in the first column, so
    the last coordinate of the lattice vector with first coefficient c is
    exactly c P/W_pivot, and dividing by the positive integer P/W_pivot
    leaves no remainder. Validation makes v valid: Minkowski's theorem on the
    real V_i gives a valid multiplier, whose lattice vector has infinity
    norm <= P, so the shortest vector meets every W_i too, and c is nonzero
    mod p, since c = 0 mod p would put p P/W_i > P in some row. Raises
    MultiplierNotFound if v still fails the check.
    """
    inst.validate()
    p = inst.p
    if inst.s > MAX_ENUM_DIM:
        raise SearchSpaceTooLarge(f"s = {inst.s} exceeds the dimension cap {MAX_ENUM_DIM}")
    pivot = next((i for i in range(inst.s) if inst.b[i] % p), None)
    if pivot is None:
        return 1
    perm = [pivot] + [i for i in range(inst.s) if i != pivot]
    binv = mod_inverse(inst.b[pivot], p)
    W = inst.floors
    basis = _red_basis(p, [inst.b[i] * binv % p for i in perm], [W[i] for i in perm])
    c = shortest_vector_enum(basis)[-1] // (math.prod(W) // W[pivot])
    v = c * binv % p
    # No instance that validate() accepts reaches this raise. Minkowski's
    # theorem gives a lattice vector of infinity norm <= P, the enumeration
    # is complete, so the shortest vector's norm is <= P too: every row says
    # centered_residue(b_i c) <= W_i, and c is a unit mod p. So v passes
    # satisfied_by. The raise guards the basis builder and the enumeration
    # against a regression; it is not a search that can come up empty.
    if not inst.satisfied_by(v):
        raise MultiplierNotFound(
            f"no multiplier found for {inst!r}; this contradicts the construction"
        )
    return v
