"""Factorization and irreducibility over finite fields.

Univariate factorization is squarefree decomposition + distinct-degree +
equal-degree splitting. Bivariate irreducibility finds one proper factor (or
proves there is none) by power-series lifting of a squarefree specialization
and subset recombination; when no usable specialization point exists in the
base field, the search ascends to an extension where one is guaranteed and
descends conjugate-orbit products. Absolute irreducibility is certified by a
smooth rational point, with a retest over an extension as the fallback.
Outputs are deterministically ordered so scans and reports reproduce byte for
byte.
"""

import functools
import itertools
import math
import operator
import random
from typing import NamedTuple

from .errors import (
    CharTooSmall,
    ConstantFunction,
    CtxMismatch,
    DegreeOutOfRange,
    DegreeTooLarge,
    PreconditionViolated,
    ZeroPolynomial,
)
from .fields import MAX_EXT_DEGREE, FieldCtx, FieldElem, ext_field_build, prime_factors
from .polynomials import (
    BiPoly,
    RationalFunc,
    UniPoly,
    _uadd,
    _uderiv,
    _udivmod,
    _ueval,
    _uextgcd,
    _ugcd,
    _ukey,
    _umonic,
    _umul,
    _upowmod,
    _urem,
    _uscale,
    _ustrip,
    _usub,
    _ytrim,
)

# --- univariate factorization over any ctx (raw-list internals) -----------------


def _u_pth_root(ctx, f):
    """f with f' = 0 is g(X^p); return g, mapping coefficients through the
    inverse Frobenius c -> c^(p^(t-1))."""
    e = ctx.p ** (ctx.t - 1)
    return _ustrip(ctx, [ctx.rpow(c, e) for c in f[:: ctx.p]])


def _u_sqfree(ctx, f):
    """Squarefree decomposition of a monic f: list of (monic squarefree, exponent)."""
    out = []
    mult = 1
    one = [ctx.one_raw]
    while len(f) - 1 >= 1:
        fp = _uderiv(ctx, f)
        if not fp:
            f = _u_pth_root(ctx, f)
            mult *= ctx.p
            continue
        c = _ugcd(ctx, f, fp)
        w = _udivmod(ctx, f, c)[0]
        i = 1
        while len(w) - 1 >= 1:
            y = _ugcd(ctx, w, c)
            z = _udivmod(ctx, w, y)[0]
            if len(z) - 1 >= 1:
                out.append((z, i * mult))
            i += 1
            w = y
            c = _udivmod(ctx, c, y)[0]
        f = c
    return out


def _u_ddf(ctx, f):
    """Distinct-degree split of a monic squarefree f: list of (product, degree)."""
    out = []
    x = [ctx.zero_raw, ctx.one_raw]
    h = list(x)
    k = 0
    fstar = list(f)
    q = ctx.q
    while len(fstar) - 1 >= 2 * (k + 1):
        k += 1
        h = _upowmod(ctx, h, q, fstar)
        g = _ugcd(ctx, _usub(ctx, h, x), fstar)
        if len(g) - 1 >= 1:
            out.append((g, k))
            fstar = _udivmod(ctx, fstar, g)[0]
            h = _urem(ctx, h, fstar)
    if len(fstar) - 1 >= 1:
        out.append((fstar, len(fstar) - 1))
    return out


def _u_random_poly(ctx, rng, deg):
    if ctx.t == 1:
        return _ustrip(ctx, [rng.randrange(ctx.p) for _ in range(deg + 1)])
    return _ustrip(
        ctx,
        [tuple(rng.randrange(ctx.p) for _ in range(ctx.t)) for _ in range(deg + 1)],
    )


def _u_edf(ctx, f, d, rng):
    """Equal-degree split of monic squarefree f (all factors of degree d)."""
    n = len(f) - 1
    if n == d:
        return [f]
    q = ctx.q
    while True:
        a = _u_random_poly(ctx, rng, n - 1)
        if ctx.p == 2:
            # trace map over F_{2^(t*d)}
            m = ctx.t * d
            tr = list(a)
            cur = list(a)
            for _ in range(m - 1):
                cur = _urem(ctx, _umul(ctx, cur, cur), f)
                tr = _uadd(ctx, tr, cur)
            g = _ugcd(ctx, tr, f)
        else:
            b = _upowmod(ctx, a, (q**d - 1) // 2, f)
            g = _ugcd(ctx, _usub(ctx, b, [ctx.one_raw]), f)
        if 0 < len(g) - 1 < n:
            rest = _udivmod(ctx, f, g)[0]
            return _u_edf(ctx, g, d, rng) + _u_edf(ctx, rest, d, rng)


def _u_factor_monic_squarefree(ctx, f, rng):
    out = []
    for g, d in _u_ddf(ctx, f):
        out.extend(_u_edf(ctx, g, d, rng))
    return out


def _u_factor(ctx, f):
    """(unit raw, sorted [(monic irreducible raw-list, multiplicity)])."""
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    unit = f[-1]
    fm = _umonic(ctx, f)
    rng = random.Random(0)
    pairs = []
    for part, mult in _u_sqfree(ctx, fm):
        for irr in _u_factor_monic_squarefree(ctx, part, rng):
            pairs.append((irr, mult))
    pairs.sort(key=lambda pm: (len(pm[0]), _ukey(ctx, pm[0])))
    return unit, pairs


def _u_roots(ctx, f):
    """Roots in ctx of a nonzero f, in ascending raw_key order."""
    _, pairs = _u_factor(ctx, f)
    roots = [ctx.rneg(g[0]) for g, _ in pairs if len(g) - 1 == 1]
    roots.sort(key=ctx.raw_key)
    return roots


class FactorMultiset(NamedTuple):
    """unit * prod(factor^multiplicity) reproduces the input exactly."""

    unit: FieldElem
    factors: tuple

    def expand(self) -> UniPoly:
        ctx = self.unit.ctx
        acc = UniPoly(ctx, (self.unit.raw,))
        for poly, mult in self.factors:
            acc = acc * poly**mult
        return acc


def factor_univariate(f: UniPoly) -> FactorMultiset:
    """Complete factorization into monic irreducibles, deterministically ordered."""
    ctx = f.ctx
    unit, pairs = _u_factor(ctx, list(f.coeffs))
    return FactorMultiset(
        unit=FieldElem(ctx, unit),
        factors=tuple((UniPoly(ctx, g), m) for g, m in pairs),
    )


# --- embeddings between extensions of the same prime field ----------------------


class Embedding:
    """F_{p^a} -> F_{p^b} with a | b, sending the source generator to the
    lexicographically smallest root of the source modulus."""

    __slots__ = ("src", "dst", "_root", "_identity", "_preimage")

    def __init__(self, src: FieldCtx, dst: FieldCtx):
        if src.p != dst.p or dst.t % src.t != 0:
            raise CtxMismatch(f"no embedding {src!r} -> {dst!r}")
        self.src = src
        self.dst = dst
        self._identity = src == dst
        self._preimage = self._root = None
        if not self._identity and src.t > 1:
            roots = _u_roots(dst, [dst.from_int(c) for c in src.modulus])
            if not roots:
                raise AssertionError("source modulus has no root in the target field")
            self._root = roots[0]

    def map_raw(self, a):
        """The image of a: its coefficient list evaluated at the chosen root."""
        if self._identity:
            return a
        dst = self.dst
        if self.src.t == 1:
            return dst.from_int(a)
        return _ueval(dst, [dst.from_int(c) for c in a], self._root)

    def descend_raw(self, a):
        """Preimage in the source field, or None when a is outside the image,
        read from a table of the whole source field built on first use.

        Its one caller, _factor_via_extension, runs only when _good_point
        found no good point among the first 2·deg_x·deg_y + 1 elements of a
        squarefree F, so the source field has at most 2·deg_x·deg_y ≤ 128
        elements.
        """
        if self._preimage is None:
            self._preimage = {self.map_raw(x): x for x in self.src.elements()}
        return self._preimage.get(a)


@functools.lru_cache(maxsize=None)
def get_embedding(src: FieldCtx, dst: FieldCtx) -> Embedding:
    return Embedding(src, dst)


def embed_unipoly(f: UniPoly, dst: FieldCtx) -> UniPoly:
    emb = get_embedding(f.ctx, dst)
    return UniPoly(dst, [emb.map_raw(c) for c in f.coeffs])


def embed_bipoly(F: BiPoly, dst: FieldCtx) -> BiPoly:
    emb = get_embedding(F.ctx, dst)
    return BiPoly._from_rows(dst, [[emb.map_raw(c) for c in row] for row in F.rows])


# --- bivariate machinery ----------------------------------------------------------


def _content_y(ctx, rows):
    """Monic gcd over F_q[X] of the rows of a Y-view; [] when all are zero."""
    acc = []
    for row in rows:
        if row:
            acc = _ugcd(ctx, acc, row)
            if len(acc) == 1:
                break
    return acc


def _primitive_y(ctx, rows):
    """Divide a Y-view, its last row nonzero, by its content; normalize the
    leading coefficient polynomial to be monic."""
    if not rows:
        return rows
    cont = _content_y(ctx, rows)
    if len(cont) > 1:
        rows = [_udivmod(ctx, r, cont)[0] for r in rows]
    lc = rows[-1][-1]
    if lc != ctx.one_raw:
        inv = ctx.rinv(lc)
        rows = [_uscale(ctx, r, inv) for r in rows]
    return rows


def _pseudo_rem_y(ctx, A, B):
    """Pseudo-remainder of Y-views A by B (deg_y A >= deg_y B >= 0)."""
    dB = len(B) - 1
    lcB = B[-1]
    R = list(A)
    while R and len(R) - 1 >= dB:
        lcR = R[-1]
        shift = len(R) - 1 - dB
        R = [_umul(ctx, c, lcB) for c in R]
        for i in range(dB + 1):
            R[shift + i] = _usub(ctx, R[shift + i], _umul(ctx, lcR, B[i]))
        _ytrim(R)
    return R


def _gcd_y(F: BiPoly, G: BiPoly) -> BiPoly:
    """Primitive gcd of nonzero F and G in (F_q[X])[Y] (content ignored).

    Precondition: deg_y F >= deg_y G, as for its one caller's F and F_Y.
    """
    ctx = F.ctx
    A, B = F.rows, G.rows
    while B:
        A, B = B, _primitive_y(ctx, _pseudo_rem_y(ctx, A, B))
    return BiPoly._from_rows(ctx, _primitive_y(ctx, A))


def _pad(ctx, lst, prec):
    out = list(lst[:prec])
    return out + [ctx.zero_raw] * (prec - len(out))


def _series_inv(ctx, f, prec):
    inv0 = ctx.rinv(f[0])
    z = ctx.zero_raw
    out = [inv0] + [z] * (prec - 1)
    for i in range(1, prec):
        acc = z
        top = min(i, len(f) - 1)
        for k in range(1, top + 1):
            if not ctx.is_zero_raw(f[k]):
                acc = ctx.radd(acc, ctx.rmul(f[k], out[i - k]))
        out[i] = ctx.rneg(ctx.rmul(acc, inv0))
    return out


def _spoly_coef(ctx, A, B, c):
    """The X^c coefficient of A*B, as a list over Y, for polynomials in Y
    whose coefficients are X-series of length > c."""
    if ctx.t == 1:
        out = [0] * (len(A) + len(B) - 1)
        for i, sa in enumerate(A):
            for j, sb in enumerate(B):
                out[i + j] += sum(map(operator.mul, sa, sb[c::-1]))
        p = ctx.p
        return [v % p for v in out]
    out = [ctx.zero_raw] * (len(A) + len(B) - 1)
    for i, sa in enumerate(A):
        for j, sb in enumerate(B):
            for x, y in zip(sa, sb[c::-1]):
                if not ctx.is_zero_raw(x) and not ctx.is_zero_raw(y):
                    out[i + j] = ctx.radd(out[i + j], ctx.rmul(x, y))
    return out


def _spoly_mul(ctx, A, B, prec):
    """Product of polynomials in Y whose coefficients are X-series mod X^prec,
    one _spoly_coef column per power of X."""
    A = [_pad(ctx, s, prec) for s in A]
    B = [_pad(ctx, s, prec) for s in B]
    cols = [_spoly_coef(ctx, A, B, c) for c in range(prec)]
    return [list(row) for row in zip(*cols)]


def _hensel_find_factor(F: BiPoly, x0):
    """One proper factor of a Y-primitive squarefree F using the specialization
    at x0 (lc_Y(x0) != 0, F(x0, Y) squarefree), or None when F is irreducible.

    Every truncated product is built from _spoly_coef columns: the monic
    target G/lc_Y and each recombination candidate (lc_Y times a subset's
    lifted factors) through _spoly_mul, and the running prefix products of
    the lifted factors one column per power of X.
    """
    ctx = F.ctx
    G = F.shift_x(x0)
    rows = G.rows
    n = len(rows) - 1
    prec = 2 * G.deg_x + 1
    z = ctx.zero_raw

    u0 = _ustrip(ctx, [(row[0] if row else z) for row in rows])
    if len(u0) - 1 != n:
        raise AssertionError("leading coefficient vanished at the chosen point")
    rng = random.Random(0)
    base_factors = _u_factor_monic_squarefree(ctx, _umonic(ctx, u0), rng)
    base_factors.sort(key=lambda g: (len(g), _ukey(ctx, g)))
    r = len(base_factors)
    if r == 1:
        return None

    lc_series = _pad(ctx, rows[n], prec)
    linv = _series_inv(ctx, lc_series, prec)
    gstar = _spoly_mul(ctx, rows, [linv], prec)

    # lifted factors: monic in Y, coefficients are X-series
    lifted = [[_pad(ctx, [c], prec) for c in g] for g in base_factors]

    # partial-fraction solvers for the correction step
    w = []
    for i, g in enumerate(base_factors):
        qi = [ctx.one_raw]
        for j, h in enumerate(base_factors):
            if j != i:
                qi = _urem(ctx, _umul(ctx, qi, h), g)
        _, u = _uextgcd(ctx, qi, g)
        w.append(_urem(ctx, u, g))

    # prefix[k] = lifted[0] * ... * lifted[k], extended by one X-coefficient
    # per step; at c = 0 the base factors multiply to the monic fiber, so
    # err is zero there
    prefix = [lifted[0]]
    for f in lifted[1:]:
        prefix.append([[z] * prec for _ in range(len(prefix[-1]) + len(f) - 1)])

    for c in range(prec):
        for k in range(1, r):
            for jj, v in enumerate(_spoly_coef(ctx, prefix[k - 1], lifted[k], c)):
                prefix[k][jj][c] = v
        P = prefix[-1]
        err = _ustrip(ctx, [ctx.rsub(gstar[j][c], P[j][c]) for j in range(n + 1)])
        if not err:
            continue
        deltas = [_urem(ctx, _umul(ctx, err, w[i]), g) for i, g in enumerate(base_factors)]
        for fi, delta in zip(lifted, deltas):
            for jj, dc in enumerate(delta):
                fi[jj][c] = ctx.radd(fi[jj][c], dc)
        # The corrections enter the prefixes: X^c of prefix[k] grows by
        # D_k = D_{k-1} * base_factors[k] + prefix[k-1](X=0) * deltas[k],
        # D_0 = deltas[0].
        D = deltas[0]
        for k in range(1, r):
            low = [row[0] for row in prefix[k - 1]]
            D = _uadd(ctx, _umul(ctx, D, base_factors[k]), _umul(ctx, low, deltas[k]))
            for jj, dc in enumerate(D):
                prefix[k][jj][c] = ctx.radd(prefix[k][jj][c], dc)

    # subset recombination; a true factor corresponds to a sub-product. No
    # candidate is constant: its top row is lc_series, nonzero as lc_Y(G)
    # has X-degree below prec, times the lifted factors' top rows, 1 as
    # they are monic of Y-degree >= 1; _primitive_y keeps that Y-degree.
    for size in range(1, r // 2 + 1):
        for S in itertools.combinations(range(r), size):
            cand = [lc_series]
            for i in S:
                cand = _spoly_mul(ctx, cand, lifted[i], prec)
            C = BiPoly._from_rows(ctx, _primitive_y(ctx, [_ustrip(ctx, s) for s in cand]))
            if G.try_divide(C) is not None:
                return C.shift_x(ctx.rneg(x0))
    return None


def _fibers(F: BiPoly):
    """(x0, F(x0, Y)) in elements() order, skipping each x0 where the
    Y-leading coefficient vanishes, so every fiber keeps degree deg_y."""
    ctx = F.ctx
    rows = F.rows
    lc = rows[-1]
    for x0 in ctx.elements():
        if not ctx.is_zero_raw(_ueval(ctx, lc, x0)):
            yield x0, _ustrip(ctx, [_ueval(ctx, row, x0) for row in rows])


def _good_point(F: BiPoly):
    """First x0 with nonvanishing Y-leading coefficient and squarefree
    specialization among the first 2·deg_x·deg_y + 1 elements, or None.

    When gcd(F, F_Y) has Y-degree 0, Res_Y(F, F_Y) is a nonzero polynomial
    of X-degree at most (2 deg_y - 1) deg_x, and an x0 where neither it nor
    the Y-leading coefficient vanishes is a good point; so at most
    2·deg_x·deg_y elements are bad, and the walk stops there.
    """
    ctx = F.ctx
    last = 2 * F.deg_x * F.deg_y
    for x0, fiber in _fibers(F):
        if ctx.raw_key(x0) > last:
            break
        d = _uderiv(ctx, fiber)
        if len(_ugcd(ctx, fiber, d)) == 1:
            return x0
    return None


def _origin_line(F: BiPoly):
    """Y - aX when deg_y F >= 2, F(0, 0) = 0 and F(X, aX) = 0 for the slope
    a = -F_X(0, 0)/F_Y(0, 0), else None. Precondition: F(0, Y) is a
    squarefree fiber of full degree, so F_Y(0, 0) != 0 once F(0, 0) = 0."""
    ctx = F.ctx
    rows = F.rows
    z = ctx.zero_raw
    f00, f10 = (rows[0] + [z, z])[:2]  # F(0, 0) and F_X(0, 0)
    if len(rows) < 3 or not ctx.is_zero_raw(f00):
        return None
    a = ctx.rneg(ctx.rmul(f10, ctx.rinv(rows[1][0])))
    on_line = [z] * (len(rows) + max(map(len, rows)))  # F(X, aX)
    aj = ctx.one_raw
    for j, row in enumerate(rows):
        for k, c in enumerate(row, j):
            on_line[k] = ctx.radd(on_line[k], ctx.rmul(c, aj))
        aj = ctx.rmul(aj, a)
    return None if _ustrip(ctx, on_line) else BiPoly(ctx, {(0, 1): 1, (1, 0): ctx.rneg(a)})


def _complete_squarefree_factorization(F: BiPoly):
    """All irreducible factors (grlex-monic) of a squarefree primitive F."""
    w = find_proper_factor(F)
    if w is None:
        return [F.grlex_monic()]
    q = F.try_divide(w)
    if q is None:
        raise AssertionError("reported factor does not divide")
    return _complete_squarefree_factorization(w) + _complete_squarefree_factorization(q)


def _factor_via_extension(F: BiPoly):
    """Fallback when no base-field specialization point is usable: factor over
    an extension where one is guaranteed, then return a conjugate-orbit product
    (a base-field factor), or None when the orbit covers everything."""
    ctx = F.ctx
    n, m = F.deg_y, F.deg_x
    bad_bound = m + m * (2 * n - 1)
    u = 2
    while ctx.q**u <= bad_bound:
        u += 1
    big_t = ctx.t * u
    if big_t > MAX_EXT_DEGREE:
        raise DegreeTooLarge(
            f"irreducibility test needs F_{{p^{big_t}}}, beyond the degree cap"
        )
    big = ext_field_build(ctx.p, big_t)
    emb = get_embedding(ctx, big)
    F_up = embed_bipoly(F, big)
    factors = _complete_squarefree_factorization(F_up)
    if len(factors) == 1:
        return None
    factors.sort(key=lambda h: h.key())
    orbit = [factors[0]]
    while True:
        # the Frobenius image c -> c^q of the last conjugate
        rows = [[big.rpow(c, ctx.q) for c in row] for row in orbit[-1].rows]
        cur = BiPoly._from_rows(big, rows).grlex_monic()
        if cur in orbit:
            break
        if cur not in factors:
            raise AssertionError("conjugate escaped the factor list")
        orbit.append(cur)
    if len(orbit) == len(factors):
        return None
    prod = functools.reduce(operator.mul, orbit).grlex_monic()
    down = [[emb.descend_raw(c) for c in row] for row in prod.rows]
    if any(None in row for row in down):
        raise AssertionError("orbit product not defined over the base field")
    return BiPoly._from_rows(ctx, down)


def find_proper_factor(F: BiPoly):
    """A nontrivial factor of F over its own field, or None when irreducible.

    Constants have no factorization. Precondition: p > total degree of F,
    which _validate_bivariate_input enforces for every caller in this
    package, and which factors and their extension-field images keep. Under
    it F_Y = 0 cannot happen once deg_y >= 1: F_Y = 0 puts every Y-exponent
    in pZ, so deg_y >= p. A direct caller that breaks the precondition that
    way gets CharTooSmall.

    After the contents, the good point is sought first: a squarefree fiber
    of full degree shows that gcd(F, F_Y) has Y-degree 0, since a common
    factor would divide the fiber and its derivative. `_gcd_y` runs only when
    no good point is found; if it then finds Y-degree 0, the field has fewer
    than 2·deg_x·deg_y + 1 elements (see `_good_point`) and the search moves
    to an extension.

    When the good point is x0 = 0, one rule names the lift's first candidate
    without lifting (`_origin_line`): if deg_y >= 2, F(0, 0) = 0 and
    F(X, aX) = 0 for a = -F_X(0, 0)/F_Y(0, 0), the answer is Y - aX, exactly
    what `_hensel_find_factor(F, 0)` returns. The proof:
    - the fiber F(0, Y) is squarefree and has the root 0, so F_Y(0, 0) != 0
      and a is defined;
    - its factor Y has sort key (2, (0, 1)), the smallest possible, so the
      lift tries it first, as the subset (0,);
    - Hensel lifts are unique, and Y - aX divides F (it is monic in Y and
      F(X, aX) = 0), so the lift of Y is the one factor of F over F_q[[X]]
      through (0, 0), Y - aX;
    - lc_Y(F)·(Y - aX) has X-degree at most deg_x + 1 < 2·deg_x + 1, the
      lift's precision, so `_primitive_y` gives back Y - aX, and it divides F;
    - deg_y >= 2 gives the fiber a second factor, so the lift recombines;
      with the one base factor Y, as for F = X - Y, it returns None.
    A λ-scan's λ = 1 meets the rule whenever x0 = 0 is its good point, as
    X - Y divides F_1.
    """
    ctx = F.ctx
    if F.is_zero():
        raise ZeroPolynomial("zero polynomial")
    if F.is_constant():
        return None

    if F.deg_y <= 0:
        _, pairs = _u_factor(ctx, F.rows[0])
        if len(pairs) == 1 and pairs[0][1] == 1:
            return None
        return BiPoly._from_rows(ctx, [pairs[0][0]])
    if F.deg_x <= 0:
        w = find_proper_factor(F.swap_vars())
        return w.swap_vars() if w is not None else None

    cy = _content_y(ctx, F.rows)
    if len(cy) > 1:
        return BiPoly._from_rows(ctx, [cy])
    cx = _content_y(ctx, F.swap_vars().rows)
    if len(cx) > 1:
        return BiPoly._from_rows(ctx, [cx]).swap_vars()

    FY = F.derivative_y()
    if FY.is_zero():
        raise CharTooSmall(
            f"need p > total degree, got p = {ctx.p}, degree {F.total_degree} (F_Y = 0)"
        )
    x0 = _good_point(F)
    if x0 is not None:
        line = _origin_line(F) if ctx.is_zero_raw(x0) else None
        return line if line is not None else _hensel_find_factor(F, x0)
    g = _gcd_y(F, FY)
    if g.deg_y >= 1:
        return g
    return _factor_via_extension(F)


def _validate_bivariate_input(F: BiPoly):
    if F.is_zero():
        raise ZeroPolynomial("zero polynomial")
    td = F.total_degree
    if not 1 <= td <= 8:
        raise DegreeOutOfRange(f"total degree must be in 1..8, got {td}")
    if F.ctx.p <= td:
        raise CharTooSmall(f"need p > total degree, got p = {F.ctx.p}, degree {td}")


def is_irreducible_bivariate(F: BiPoly) -> bool:
    """True iff F has no nontrivial factorization over its own field."""
    _validate_bivariate_input(F)
    return find_proper_factor(F) is None


class IrreducibilityVerdict(NamedTuple("IrreducibilityVerdict", [
    ("over_base", bool), ("absolutely", bool), ("witness", BiPoly | None),
    ("witness_ext", int | None),
])):
    """witness_ext: extension degree over F_p of the witness's field."""

    __slots__ = ()

    def __new__(cls, over_base: bool, absolutely: bool, witness: BiPoly | None,
                witness_ext: int | None):
        # raised, not asserted, so the checks hold under python -O too
        if absolutely and not over_base or (witness is not None) == absolutely:
            raise AssertionError
        return super().__new__(cls, over_base, absolutely, witness, witness_ext)

    @classmethod
    def _make(cls, iterable):
        # the tuple base's _make (and _replace through it) would skip __new__
        return cls(*iterable)


# Fibers X = x0 the rational-point certificate tries, per unit of total degree.
# A bound keeps a curve without such a point from costing q fibers; past it
# the extension retest decides, so the bound never changes a verdict.
_CERT_FIBERS_PER_DEGREE = 4


def _has_smooth_rational_point(F: BiPoly) -> bool:
    """True when F = 0 has an F_q-rational point (x0, y0) with F_Y(x0, y0) != 0.

    On each fiber f(Y) = F(x0, Y) with nonvanishing Y-leading coefficient,
    h = gcd(f, Y^q - Y) collects the rational roots; one of them is simple
    exactly when gcd(h, f') is a proper divisor of h.
    """
    ctx = F.ctx
    y = [ctx.zero_raw, ctx.one_raw]
    tries = _CERT_FIBERS_PER_DEGREE * F.total_degree
    for _, fiber in itertools.islice(_fibers(F), tries):
        fiber = _umonic(ctx, fiber)
        h = _ugcd(ctx, fiber, _usub(ctx, _upowmod(ctx, y, ctx.q, fiber), y))
        if len(_ugcd(ctx, h, _uderiv(ctx, fiber))) < len(h):
            return True
    return False


def is_absolutely_irreducible(F: BiPoly) -> IrreducibilityVerdict:
    """Absolute-irreducibility verdict with a verified witness factor.

    A factor over the base field F_q is the witness of reducibility. Once F is
    irreducible over F_q, any factorization over the closure splits F into
    distinct Frobenius-conjugate factors of equal bidegree, all defined over
    F_{q^r} with r dividing g = gcd(deg_x, deg_y, total degree). So g = 1
    settles it, and so does a certificate: an F_q-rational point of F = 0 with
    F_Y != 0. Frobenius fixes such a point, so it would lie on every conjugate
    factor and be singular if there were two or more.

    Without a certificate (searched over a bounded number of fibers), the
    fallback retests over F_{q^ell} for the primes ell of g, which either finds
    a witness upstairs or proves absolute irreducibility.
    """
    ctx = F.ctx
    _validate_bivariate_input(F)
    w = find_proper_factor(F)
    if w is not None:
        return IrreducibilityVerdict(False, False, w, ctx.t)
    g = math.gcd(F.deg_x, F.deg_y, F.total_degree)
    if g == 1 or _has_smooth_rational_point(F):
        return IrreducibilityVerdict(True, True, None, None)
    for ell in prime_factors(g):
        big_t = ctx.t * ell
        if big_t > MAX_EXT_DEGREE:
            raise DegreeTooLarge(
                f"absolute test needs F_{{p^{big_t}}}, beyond the degree cap"
            )
        big = ext_field_build(ctx.p, big_t)
        F_up = embed_bipoly(F, big)
        w = find_proper_factor(F_up)
        if w is not None:
            return IrreducibilityVerdict(True, False, w, big.t)
    return IrreducibilityVerdict(True, True, None, None)


# --- perfect powers -----------------------------------------------------------------


def perfect_power_exponent(psi: RationalFunc) -> int:
    """Largest n with psi = phi^n for some rational phi over the closure.

    Over the closure the multiplicity profile of psi is exactly the multiset of
    squarefree-decomposition exponents of numerator and denominator (scalars
    are always n-th powers there), so n is their gcd; n = 1 means psi is not a
    perfect power.
    """
    if psi.is_constant():
        raise ConstantFunction("constant functions have no power exponent")
    ctx = psi.ctx
    return math.gcd(*(mult for poly in (psi.num, psi.den)
                      for _, mult in _u_sqfree(ctx, _umonic(ctx, list(poly.coeffs)))))


def extract_power_root(psi: RationalFunc, n: int) -> RationalFunc:
    """A rational phi with phi^n = psi; coefficients may need a field extension
    when the leading coefficient is not an n-th power in the base field.
    Refuses, with PreconditionViolated, an n < 1 or one that does not divide
    the multiplicity of every factor of psi."""
    if n < 1:
        raise PreconditionViolated(f"the root degree n must be >= 1, got {n}")
    ctx = psi.ctx
    roots = []
    for poly in (psi.num, psi.den):
        parts = _u_sqfree(ctx, _umonic(ctx, list(poly.coeffs)))
        # the squarefree parts g^mult make up the whole degree
        if sum(mult * (len(g) - 1) for g, mult in parts) != poly.degree:
            raise AssertionError
        root = [ctx.one_raw]
        for g, mult in parts:
            if mult % n:
                raise PreconditionViolated(
                    f"n = {n} does not divide the multiplicity {mult} of a factor of ψ"
                )
            for _ in range(mult // n):
                root = _umul(ctx, root, g)
        roots.append(root)
    num_root, den_root = roots
    a = psi.num.lc
    for u in range(1, MAX_EXT_DEGREE // ctx.t + 1):
        # a != 0 has an n-th root in F_Q, Q = q^u, iff a^((Q-1)/gcd(n, Q-1)) = 1
        Q = ctx.q**u
        if ctx.rpow(a, (Q - 1) // math.gcd(n, Q - 1)) != ctx.one_raw:
            continue
        target = ext_field_build(ctx.p, ctx.t * u) if u > 1 else ctx
        emb = get_embedding(ctx, target)
        a_up = emb.map_raw(a)
        # the first root of Z^n - a in the target field, which has one
        zpoly = [target.rneg(a_up)] + [target.zero_raw] * (n - 1) + [target.one_raw]
        b = _u_roots(target, zpoly)[0]
        num = UniPoly(target, _uscale(target, [emb.map_raw(c) for c in num_root], b))
        den = UniPoly(target, [emb.map_raw(c) for c in den_root])
        return RationalFunc(num, den)
    raise DegreeTooLarge(
        f"no degree-{n} root of the leading coefficient within the extension cap"
    )


def reduce_perfect_power(psi: RationalFunc, T: int):
    """Rewrite a perfect power ψ = φ^n as (φ, n T): membership of ψ(x) in a
    subgroup of order T forces φ(x) into one of order at most n T."""
    if psi.is_constant():
        return psi, T
    n = perfect_power_exponent(psi)
    if n == 1:
        return psi, T
    return extract_power_root(psi, n), n * T
