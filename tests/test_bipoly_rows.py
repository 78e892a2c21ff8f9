"""BiPoly on its Y-view rows against the sparse-dict arithmetic it replaced.

The _ref_* functions are the term-map loops that BiPoly ran when it stored a
map (i, j) -> nonzero raw coefficient of X^i Y^j, kept verbatim up to taking
and returning that map: the product, sum and difference, the grlex division
of try_divide, swap_vars, derivative_y, shift_x through the row rebuild,
grlex_lead, and the term loop of lambda_scan.build_sym_poly. They are
compared over F_101, F_{5^2} and F_{3^3} on seeded random polynomials, the
zero polynomial and divisors whose leading row is not constant in X.
"""

import random

import pytest

from subgroup_values.fields import FieldCtx, ext_field_build
from subgroup_values.lambda_scan import build_sym_poly
from subgroup_values.polynomials import BiPoly, UniPoly, _ushift, rational_normalize

FIELDS = [(101, 1), (5, 2), (3, 3)]


def _field(p, t):
    return FieldCtx(p) if t == 1 else ext_field_build(p, t)


# --- the replaced term-map loops, as the reference -------------------------------


def _ref_new(ctx, terms):
    """The old constructor's map: zero coefficients dropped."""
    return {k: c for k, c in terms.items() if not ctx.is_zero_raw(c)}


def _ref_add(ctx, a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = ctx.radd(out.get(k, ctx.zero_raw), c)
    return _ref_new(ctx, out)


def _ref_sub(ctx, a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = ctx.rsub(out.get(k, ctx.zero_raw), c)
    return _ref_new(ctx, out)


def _ref_mul(ctx, a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            v = ctx.rmul(c1, c2)
            if k in out:
                out[k] = ctx.radd(out[k], v)
            else:
                out[k] = v
    return _ref_new(ctx, out)


def _ref_grlex_lead(terms):
    k = max(terms, key=lambda ij: (ij[0] + ij[1], ij[0]))
    return k, terms[k]


def _ref_try_divide(ctx, terms, divisor):
    (di, dj), dc = _ref_grlex_lead(divisor)
    dc_inv = ctx.rinv(dc)
    rem = dict(terms)
    quo = {}
    while rem:
        k = max(rem, key=lambda ij: (ij[0] + ij[1], ij[0]))
        i, j = k
        if i < di or j < dj:
            return None
        qk = (i - di, j - dj)
        qc = ctx.rmul(rem[k], dc_inv)
        quo[qk] = qc
        for (ti, tj), tc in divisor.items():
            kk = (ti + qk[0], tj + qk[1])
            v = ctx.rsub(rem.get(kk, ctx.zero_raw), ctx.rmul(qc, tc))
            if ctx.is_zero_raw(v):
                rem.pop(kk, None)
            else:
                rem[kk] = v
    return _ref_new(ctx, quo)


def _ref_swap_vars(ctx, terms):
    return _ref_new(ctx, {(j, i): c for (i, j), c in terms.items()})


def _ref_derivative_y(ctx, terms):
    out = {}
    for (i, j), c in terms.items():
        if j >= 1:
            v = ctx.rmul(c, ctx.from_int(j))
            if not ctx.is_zero_raw(v):
                out[(i, j - 1)] = v
    return _ref_new(ctx, out)


def _ref_to_y_view(ctx, terms):
    ny = max((j for _, j in terms), default=0)
    rows = [[] for _ in range(ny + 1)]
    z = ctx.zero_raw
    for (i, j), c in terms.items():
        row = rows[j]
        while len(row) <= i:
            row.append(z)
        row[i] = c
    return rows


def _ref_from_y_view(ctx, rows):
    terms = {}
    for j, row in enumerate(rows):
        for i, c in enumerate(row):
            if not ctx.is_zero_raw(c):
                terms[(i, j)] = c
    return terms


def _ref_shift_x(ctx, terms, a):
    return _ref_from_y_view(ctx, [_ushift(ctx, r, a) for r in _ref_to_y_view(ctx, terms)])


def _ref_sym_terms(ctx, f, g, lam_raw):
    terms = {}
    for i, a in enumerate(f.coeffs):
        if ctx.is_zero_raw(a):
            continue
        for j, b in enumerate(g.coeffs):
            if ctx.is_zero_raw(b):
                continue
            v = ctx.rmul(a, b)
            # + a_i b_j X^i Y^j  (from f(X) g(Y))
            k = (i, j)
            terms[k] = ctx.radd(terms.get(k, ctx.zero_raw), v)
            # - λ a_i b_j X^j Y^i  (from λ f(Y) g(X))
            k = (j, i)
            terms[k] = ctx.rsub(terms.get(k, ctx.zero_raw), ctx.rmul(lam_raw, v))
    return _ref_new(ctx, terms)


# --- random inputs ----------------------------------------------------------------


def _raw(ctx, rng):
    if ctx.t == 1:
        return rng.randrange(ctx.p)
    return tuple(rng.randrange(ctx.p) for _ in range(ctx.t))


def _terms(ctx, rng, dx, dy, density=0.6):
    """A random term map of bidegree at most (dx, dy), zero coefficients kept."""
    return {
        (i, j): _raw(ctx, rng)
        for i in range(dx + 1)
        for j in range(dy + 1)
        if rng.random() < density
    }


def _poly(ctx, rng):
    return BiPoly(ctx, _terms(ctx, rng, rng.randrange(4), rng.randrange(4)))


def _polys(ctx, seed, n):
    rng = random.Random(seed)
    zero = BiPoly(ctx)
    # (X + 1)Y + 1: a divisor whose leading row is not constant in X
    lead_x = BiPoly(ctx, {(1, 1): 1, (0, 1): 1, (0, 0): 1})
    return [zero, lead_x] + [_poly(ctx, rng) for _ in range(n)], rng


# --- tests --------------------------------------------------------------------------


@pytest.mark.parametrize("p, t", FIELDS)
def test_arithmetic_matches_the_term_map_loops(p, t):
    ctx = _field(p, t)
    polys, rng = _polys(ctx, 100 * p + t, 14)
    for A in polys:
        ta = A.terms
        assert A.is_constant() == all(i == 0 and j == 0 for i, j in ta)
        assert A.swap_vars().terms == _ref_swap_vars(ctx, ta)
        assert A.derivative_y().terms == _ref_derivative_y(ctx, ta)
        a = _raw(ctx, rng)
        assert A.shift_x(a).terms == _ref_shift_x(ctx, ta, a)
        c = _raw(ctx, rng)
        assert A.scale(c).terms == _ref_new(ctx, {k: ctx.rmul(v, c) for k, v in ta.items()})
        if ta:
            assert A.grlex_lead() == _ref_grlex_lead(ta)
            assert A.deg_x == max(i for i, _ in ta)
            assert A.deg_y == max(j for _, j in ta)
            assert A.total_degree == max(i + j for i, j in ta)
        for B in polys:
            tb = B.terms
            assert (A + B).terms == _ref_add(ctx, ta, tb)
            assert (A - B).terms == _ref_sub(ctx, ta, tb)
            assert (A * B).terms == _ref_mul(ctx, ta, tb)


@pytest.mark.parametrize("p, t", FIELDS)
def test_try_divide_matches_the_grlex_division(p, t):
    ctx = _field(p, t)
    polys, _ = _polys(ctx, 200 * p + t, 12)
    divisors = [B for B in polys if not B.is_zero()]
    hits = misses = 0
    for A in polys:
        for B in divisors:
            for N in (A * B, A * B + A, A + B):
                q = N.try_divide(B)
                ref = _ref_try_divide(ctx, N.terms, B.terms)
                assert (q.terms if q is not None else None) == ref
                hits += q is not None
                misses += q is None
    assert hits and misses


def test_try_divide_refuses_a_remainder_in_a_row():
    # XY + 1 over (X + 1)Y + 1: the top rows X and X + 1 leave a remainder,
    # and ignoring it would cancel the rest and return 1
    ctx = FieldCtx(101)
    N = BiPoly(ctx, {(1, 1): 1, (0, 0): 1})
    D = BiPoly(ctx, {(1, 1): 1, (0, 1): 1, (0, 0): 1})
    assert N.try_divide(D) is None
    assert _ref_try_divide(ctx, N.terms, D.terms) is None
    assert (N * D).try_divide(D) == N


@pytest.mark.parametrize("p, t", FIELDS)
def test_build_sym_poly_matches_the_term_loop(p, t):
    ctx = _field(p, t)
    rng = random.Random(300 * p + t)
    done = 0
    while done < 25:
        f = UniPoly(ctx, [_raw(ctx, rng) for _ in range(rng.randrange(1, 5))])
        g = UniPoly(ctx, [_raw(ctx, rng) for _ in range(rng.randrange(1, 5))])
        if f.is_zero() or g.is_zero():
            continue
        psi = rational_normalize(f, g)
        lam = _raw(ctx, rng)
        if ctx.is_zero_raw(lam):
            continue
        sym = build_sym_poly(psi, ctx.el(lam))
        assert sym.terms == _ref_sym_terms(ctx, psi.num, psi.den, lam)
        done += 1


@pytest.mark.parametrize("p, t", FIELDS)
def test_terms_and_rows_give_one_polynomial(p, t):
    ctx = _field(p, t)
    polys, rng = _polys(ctx, 400 * p + t, 14)
    z = ctx.zero_raw
    for A in polys:
        rows = _ref_to_y_view(ctx, A.terms)
        assert A.to_y_view() == rows
        # zero coefficients and rows padded anywhere, the rows' tails included
        padded = [row + [z] * rng.randrange(3) for row in rows] + [[z] * rng.randrange(3)]
        for B in (BiPoly.from_y_view(ctx, padded), BiPoly(ctx, A.terms)):
            assert B == A
            assert hash(B) == hash(A)
            assert B.key() == A.key()
            assert B.terms == A.terms
            assert repr(B) == repr(A)
