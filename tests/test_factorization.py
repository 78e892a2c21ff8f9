import hashlib
import math
import random

import pytest
from test_lambda_scan import ORACLE_MAPS

from subgroup_values import factorization
from subgroup_values.errors import (
    CharTooSmall,
    ConstantFunction,
    DegreeOutOfRange,
    DegreeTooLarge,
    PreconditionViolated,
    ZeroPolynomial,
)
from subgroup_values.factorization import (
    _has_smooth_rational_point,
    embed_bipoly,
    embed_unipoly,
    _factor_via_extension,
    factor_univariate,
    find_proper_factor,
    get_embedding,
    is_absolutely_irreducible,
    is_irreducible_bivariate,
    perfect_power_exponent,
    extract_power_root,
)
from subgroup_values.fields import FieldCtx, FieldElem, ext_field_build, is_prime, prime_factors
from subgroup_values.lambda_scan import build_sym_poly
from subgroup_values.parsing import parse_rational_expr
from subgroup_values.polynomials import BiPoly, UniPoly, poly_gcd, rational_normalize

F2 = FieldCtx(2)
F3 = FieldCtx(3)
F5 = FieldCtx(5)
F7 = FieldCtx(7)


def P(ctx, *ints):
    return UniPoly.from_ints(ctx, ints)


def B(ctx, terms):
    return BiPoly(ctx, terms)


# --- univariate --------------------------------------------------------------


def test_factor_univariate_examples():
    fm = factor_univariate(P(F7, -1, 0, 1))  # X^2 - 1 = (X+1)(X+6)
    polys = [f for f, _ in fm.factors]
    assert polys == [P(F7, 1, 1), P(F7, 6, 1)]
    assert all(m == 1 for _, m in fm.factors)

    fm = factor_univariate(P(F3, 1, 0, 1))  # irreducible: 1, 2, 2 has no zero
    assert [x * x % 3 + 1 for x in range(3)] == [1, 2, 2] and 0 not in [(x * x + 1) % 3 for x in range(3)]
    assert len(fm.factors) == 1 and fm.factors[0][1] == 1
    assert fm.factors[0][0] == P(F3, 1, 0, 1)

    fm = factor_univariate(P(F5, 0, 0, 0, 0, 1))  # X^4
    assert fm.factors == ((P(F5, 0, 1), 4),)

    # two cubics: equal-degree splitting by the trace map in characteristic 2
    fm = factor_univariate(P(F2, 1, 1, 0, 1) * P(F2, 1, 0, 1, 1))
    assert fm.factors == ((P(F2, 1, 0, 1, 1), 1), (P(F2, 1, 1, 0, 1), 1))


def test_factor_univariate_zero_raises():
    with pytest.raises(ZeroPolynomial):
        factor_univariate(UniPoly.zero(F7))


def test_factor_univariate_roundtrip_200():
    rng = random.Random(1234)
    done = 0
    for p in (3, 5, 7, 11):
        ctx = FieldCtx(p)
        for _ in range(55):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 7))]
            f = UniPoly.from_ints(ctx, coeffs)
            if f.is_zero():
                continue
            fm = factor_univariate(f)
            assert fm.expand() == f
            for g, _ in fm.factors:
                assert g.is_monic()
            done += 1
    assert done >= 200


def test_factor_univariate_deterministic_ordering():
    f = P(F7, 0, 1) * P(F7, 1, 1) * P(F7, 3, 1) * P(F7, 1, 0, 1)
    a = factor_univariate(f)
    b = factor_univariate(f)
    assert a == b
    degs = [g.degree for g, _ in a.factors]
    assert degs == sorted(degs)


def test_factor_univariate_over_extension():
    f25 = ext_field_build(5, 2)
    # X^2 - 3 splits over F_25 (3 is a non-residue mod 5)
    f = UniPoly(f25, [f25.from_int(-3 % 5), f25.zero_raw, f25.one_raw])
    fm = factor_univariate(f)
    assert len(fm.factors) == 2
    assert fm.expand() == f


# --- univariate divisors of bivariate polynomials ------------------------------


def test_find_proper_factor_returns_univariate_content():
    assert find_proper_factor(B(F7, {(1, 1): 1, (1, 0): 1})) == B(F7, {(1, 0): 1})  # XY + X -> X
    assert find_proper_factor(B(F7, {(1, 0): 1, (0, 1): -1})) is None  # X - Y
    G = B(F2, {(1, 0): 1, (0, 0): 1}) * B(F2, {(0, 2): 1, (0, 1): 1, (0, 0): 1})
    assert find_proper_factor(G) == B(F2, {(1, 0): 1, (0, 0): 1})


@pytest.mark.parametrize("ctx, coeffs", [(F7, (-1, 0, 1)), (F7, (1, 0, 1)), (F5, (0, 0, 1))])
def test_find_proper_factor_pure_y_mirrors_pure_x(ctx, coeffs):
    # Y^2 - 1 and Y^2 + 1 over F_7, Y^2 over F_5, against the same polynomials in X
    fx = B(ctx, {(i, 0): c for i, c in enumerate(coeffs)})
    fy = B(ctx, {(0, j): c for j, c in enumerate(coeffs)})
    wx, wy = find_proper_factor(fx), find_proper_factor(fy)
    assert (wx is None) == (wy is None)
    if wx is not None:
        assert wy == wx.swap_vars() and wy.deg_x == 0 and 1 <= wy.deg_y < fy.deg_y
    assert (wy is None) == (coeffs == (1, 0, 1))


def test_cross_combination_has_no_univariate_factor():
    rng = random.Random(99)
    ctx = F7
    trials = 0
    for _ in range(400):
        if trials >= 150:
            break

        def rand_coprime_pair():
            while True:
                a = UniPoly.from_ints(ctx, [rng.randrange(7) for _ in range(rng.randint(1, 4))])
                b = UniPoly.from_ints(ctx, [rng.randrange(7) for _ in range(rng.randint(1, 4))])
                if a.is_zero() or b.is_zero():
                    continue
                g = poly_gcd(a, b)
                while g.degree >= 1:
                    a = a // g
                    if a.is_zero():
                        break
                    g = poly_gcd(a, b)
                if not a.is_zero() and max(a.degree, b.degree) >= 1:
                    return a, b

        p1, q1 = rand_coprime_pair()
        p2, q2 = rand_coprime_pair()
        r = rng.randrange(1, 7)
        s = rng.randrange(1, 7)
        # r * P1(X) Q2(Y) - s * Q1(X) P2(Y)
        term1 = BiPoly(ctx, {(i, j): ctx.rmul(ctx.from_int(r), ctx.rmul(a, b))
                             for i, a in enumerate(p1.coeffs)
                             for j, b in enumerate(q2.coeffs)})
        term2 = BiPoly(ctx, {(i, j): ctx.rmul(ctx.from_int(s), ctx.rmul(a, b))
                             for i, a in enumerate(q1.coeffs)
                             for j, b in enumerate(p2.coeffs)})
        F = term1 - term2
        if F.is_zero():
            continue
        # the content branch of find_proper_factor runs first, so a proper
        # factor depending on one variable alone would be returned here
        assert F.deg_x >= 1 and F.deg_y >= 1
        w = find_proper_factor(F)
        assert w is None or (w.deg_x >= 1 and w.deg_y >= 1)
        trials += 1
    assert trials >= 150


# --- bivariate irreducibility ----------------------------------------------------


def test_is_irreducible_bivariate_examples():
    assert is_irreducible_bivariate(B(F7, {(1, 0): 1, (0, 1): -1}))  # X - Y

    F = B(F7, {(2, 0): 1, (1, 0): 1, (0, 2): -1, (0, 1): -1})
    assert not is_irreducible_bivariate(F)
    a = B(F7, {(1, 0): 1, (0, 1): -1})
    b = B(F7, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
    assert a * b == F  # witness identity

    # X^2 - 3Y^2 over F_5: 3 is not among the squares {0, 1, 4}
    assert {x * x % 5 for x in range(5)} == {0, 1, 4}
    assert is_irreducible_bivariate(B(F5, {(2, 0): 1, (0, 2): -3}))


def test_is_irreducible_bivariate_validation():
    with pytest.raises(DegreeOutOfRange):
        is_irreducible_bivariate(B(F7, {(0, 0): 1}))
    with pytest.raises(DegreeOutOfRange):
        is_irreducible_bivariate(B(F7, {(9, 0): 1}))
    with pytest.raises(CharTooSmall):
        is_irreducible_bivariate(B(F5, {(5, 0): 1, (0, 1): 1}))


def test_bivariate_refusals():
    with pytest.raises(ZeroPolynomial):
        find_proper_factor(B(F7, {}))
    assert find_proper_factor(B(F7, {(0, 0): 3})) is None
    with pytest.raises(ZeroPolynomial):
        is_absolutely_irreducible(B(F7, {}))
    # X^2 - 2Y^2 over F_{3^7}: 2 = -1 is not a square there, so the curve is
    # irreducible over the field with no smooth rational point, and its
    # conjugate lines need F_{3^14}
    ctx = ext_field_build(3, 7)
    assert ctx.rpow(ctx.from_int(2), (ctx.q - 1) // 2) != ctx.one_raw
    with pytest.raises(DegreeTooLarge, match=r"absolute test needs F_\{p\^14\}, beyond the degree cap"):
        is_absolutely_irreducible(B(ctx, {(2, 0): 1, (0, 2): -2}))


def test_find_proper_factor_refuses_vanishing_f_y():
    # F_Y = 0 with deg_y >= 1 needs deg_y >= p, outside the p > total degree
    # precondition: X^2 + Y^2 = (X + Y)^2 and X + Y^2 over F_2
    for terms in ({(2, 0): 1, (0, 2): 1}, {(1, 0): 1, (0, 2): 1}):
        with pytest.raises(CharTooSmall):
            find_proper_factor(B(F2, terms))


def _naive_divides(num, den, p):
    """Independent dict-based exact division over F_p (oracle helper)."""
    rem = dict(num)
    (di, dj) = max(den, key=lambda ij: (ij[0] + ij[1], ij[0]))
    dinv = pow(den[(di, dj)], -1, p)
    while rem:
        (i, j) = max(rem, key=lambda ij: (ij[0] + ij[1], ij[0]))
        if i < di or j < dj:
            return False
        q = rem[(i, j)] * dinv % p
        for (ti, tj), tc in den.items():
            k = (ti + i - di, tj + j - dj)
            v = (rem.get(k, 0) - q * tc) % p
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return True


def _oracle_reducible(F, p):
    """Bounded trial division by every candidate of total degree <= total/2."""
    terms = {k: v.raw if hasattr(v, "raw") else v for k, v in F.terms.items()}
    terms = {k: int(c) for k, c in F.terms.items()}
    total = F.total_degree
    dx, dy = F.deg_x, F.deg_y
    fzeros = [[F.eval_raw(x, y) == 0 for y in range(p)] for x in range(p)]
    half = total // 2
    monos = [(i, j) for i in range(dx + 1) for j in range(dy + 1) if 1 <= i + j <= half]
    monos.sort(key=lambda ij: (ij[0] + ij[1], ij[0]))
    for lead_idx, lead in enumerate(monos):
        smaller = [(0, 0)] + monos[:lead_idx]
        for code in range(p ** len(smaller)):
            cand = {lead: 1}
            c = code
            for mono in smaller:
                digit = c % p
                c //= p
                if digit:
                    cand[mono] = digit
            # quick zero-set prefilter before exact division
            ok = True
            for x in range(p):
                for y in range(p):
                    gv = 0
                    for (i, j), cc in cand.items():
                        gv = (gv + cc * pow(x, i, p) * pow(y, j, p)) % p
                    if gv == 0 and not fzeros[x][y]:
                        ok = False
                        break
                if not ok:
                    break
            if ok and _naive_divides(terms, cand, p):
                return True
    return False


def test_bivariate_oracle_agreement_sample():
    rng = random.Random(2718)
    done = 0
    for p, ctx in ((5, F5), (7, F7)):
        for _ in range(40):
            terms = {}
            for _t in range(rng.randint(2, 6)):
                i = rng.randint(0, 4)
                j = rng.randint(0, 4 - i)
                terms[(i, j)] = rng.randrange(p)
            F = BiPoly(ctx, terms)
            if F.is_zero() or F.is_constant() or F.total_degree > 4 or F.total_degree < 1:
                continue
            got = is_irreducible_bivariate(F)
            want = not _oracle_reducible(F, p)
            assert got == want, f"disagreement on {F!r}"
            done += 1
    assert done >= 40


def test_is_absolutely_irreducible_examples():
    v = is_absolutely_irreducible(B(F5, {(2, 0): 1, (0, 2): -3}))
    assert v.over_base and not v.absolutely
    assert v.witness_ext == 2
    # witness divides the embedded polynomial
    big = ext_field_build(5, 2)
    up = embed_bipoly(B(F5, {(2, 0): 1, (0, 2): -3}), big)
    assert up.try_divide(v.witness) is not None

    v = is_absolutely_irreducible(B(F7, {(1, 0): 1, (0, 1): -1}))
    assert v.over_base and v.absolutely and v.witness is None

    # X^2 + X - 2(Y^2 + Y) over F_7: the conic determinant 2*(1-2)/4 != 0
    lam = 2
    det = lam * (1 - lam) * pow(4, -1, 7) % 7
    assert det != 0
    F = B(F7, {(2, 0): 1, (1, 0): 1, (0, 2): -lam, (0, 1): -lam})
    v = is_absolutely_irreducible(F)
    assert v.over_base and v.absolutely


def test_reducible_witness_has_base_extension_degree():
    F = B(F7, {(2, 0): 1, (1, 0): 1, (0, 2): -1, (0, 1): -1})
    v = is_absolutely_irreducible(F)
    assert not v.over_base and not v.absolutely
    assert v.witness_ext == 1
    assert F.try_divide(v.witness) is not None


def test_degenerate_specializations_fall_back_to_extension():
    # u(X) Y^2 + w(X) with u*w vanishing on all of F_7: every base point is
    # unusable, yet the polynomial is absolutely irreducible.
    u = P(F7, 0, 1) * P(F7, -1, 1) * P(F7, -2, 1) * P(F7, -3, 1)
    w = P(F7, -4, 1) * P(F7, -5, 1) * P(F7, -6, 1)
    terms = {}
    for i, c in enumerate(u.coeffs):
        terms[(i, 2)] = c
    for i, c in enumerate(w.coeffs):
        terms[(i, 0)] = F7.radd(terms.get((i, 0), 0), c)
    F = BiPoly(F7, terms)
    assert F.total_degree == 6
    assert is_irreducible_bivariate(F)


def test_extension_fallback_helper_direct():
    # irreducible over the base: single conjugate orbit upstairs
    F = B(F5, {(2, 0): 1, (0, 2): -3})
    assert _factor_via_extension(F) is None
    # two orbits upstairs descend to a proper base factor
    G = F * B(F5, {(2, 0): 1, (0, 2): -2})
    w = _factor_via_extension(G)
    assert w is not None
    assert G.try_divide(w) is not None


# --- rational-point certificate ----------------------------------------------------


def test_certificate_agrees_with_extension_retest():
    # The extension retest stays the oracle: whenever a smooth rational point
    # certifies an F_p-irreducible symmetrized polynomial, no extension of
    # prime degree ell | g may split it.
    certified = 0
    for p in filter(is_prime, range(7, 62)):
        for expr in ("x^2+x", "x^3+x", "x^4+x", "(x^2+1)/(x^2+3)"):
            psi = parse_rational_expr(expr, p)
            for lam in range(1, p):
                F = build_sym_poly(psi, lam)
                if find_proper_factor(F) is not None or not _has_smooth_rational_point(F):
                    continue
                g = math.gcd(F.deg_x, F.deg_y, F.total_degree)
                for ell in prime_factors(g):
                    up = embed_bipoly(F, ext_field_build(p, ell))
                    assert find_proper_factor(up) is None, (expr, p, lam)
                certified += 1
    assert certified >= 1500


def test_certificate_declines_on_cubic_norm_form():
    # X^3 + a2 X^2 Y + a1 X Y^2 + a0 Y^3 = Y^3 m(X/Y) with m irreducible of
    # degree 3: three conjugate lines over F_{p^3} whose only rational point
    # is the singular origin, so only the F_{p^3} retest can decide.
    for p in (7, 31, 211):
        ctx = FieldCtx(p)
        a0 = next(a for a in range(1, p)
                  if len(factor_univariate(P(ctx, a, 1, 0, 1)).factors) == 1)
        F = B(ctx, {(3, 0): 1, (1, 2): 1, (0, 3): a0})  # m(T) = T^3 + T + a0
        assert find_proper_factor(F) is None
        assert not _has_smooth_rational_point(F)
        v = is_absolutely_irreducible(F)
        assert v.over_base and not v.absolutely
        assert v.witness_ext == 3
        up = embed_bipoly(F, ext_field_build(p, 3))
        assert up.try_divide(v.witness) is not None


def test_find_proper_factor_completeness_on_products():
    # reducible inputs must always yield a genuine divisor (the risky direction
    # of the lifting recombination), across bidegrees up to total degree 8
    rng = random.Random(404)
    shapes = [((1, 1), (1, 1)), ((2, 1), (1, 2)), ((2, 2), (1, 1)), ((2, 2), (2, 2)),
              ((3, 1), (1, 3)), ((2, 0), (0, 2)), ((3, 3), (1, 1))]
    done = 0
    while done < 60:
        p = rng.choice((11, 13))
        ctx = FieldCtx(p)
        (ax, ay), (bx, by) = rng.choice(shapes)
        if ax + ay + bx + by >= p:
            continue

        def rand_bipoly(dx, dy):
            terms = {(dx, dy): rng.randrange(1, p)}
            for _ in range(rng.randint(1, 4)):
                terms[(rng.randint(0, dx), rng.randint(0, dy))] = rng.randrange(p)
            return BiPoly(ctx, terms)

        A = rand_bipoly(ax, ay)
        B_ = rand_bipoly(bx, by)
        F = A * B_
        if F.is_zero() or F.is_constant() or A.is_constant() or B_.is_constant():
            continue
        w = find_proper_factor(F)
        assert w is not None, f"missed a factor of {F!r}"
        q = F.try_divide(w)
        assert q is not None and q * w == F
        assert not w.is_constant() and not q.is_constant()
        done += 1


_PIN_FIELDS = [FieldCtx(p) for p in (3, 5, 7, 11, 13)] + [ext_field_build(3, 2), ext_field_build(5, 2)]


def _pin_cases():
    """200 seeded bivariate polynomials of total degree <= 6 over F_p and
    F_{p^2}: random ones, products A*B, A^2*B and c(X)*A, and (for q <= 5)
    ones whose Y-leading coefficient X^q - X vanishes at every base point."""
    rng = random.Random(20261018)

    def rand_bipoly(ctx, deg, x_only=False):
        elems = [c for c in ctx.elements() if not ctx.is_zero_raw(c)]
        terms = {}
        for _ in range(rng.randint(2, 5)):
            i = rng.randint(0, deg)
            terms[(i, 0 if x_only else rng.randint(0, deg - i))] = rng.choice(elems)
        return BiPoly(ctx, terms)

    out = []
    for k in range(200):
        ctx = _PIN_FIELDS[k % len(_PIN_FIELDS)]
        kind = k % 5
        if kind <= 1:
            F = rand_bipoly(ctx, 6)
        elif kind == 2:
            F = rand_bipoly(ctx, 3) * rand_bipoly(ctx, 3)
        elif kind == 3:
            A = rand_bipoly(ctx, 2)
            F = A * A * rand_bipoly(ctx, 2)
        elif ctx.q <= 5:
            F = B(ctx, {(ctx.q, 1): 1, (1, 1): -1}) + rand_bipoly(ctx, 2, x_only=True)
            if ctx.q == 3:
                F = F * rand_bipoly(ctx, 2)
        else:
            F = rand_bipoly(ctx, 2, x_only=True) * rand_bipoly(ctx, 4)
        out.append(F)
    return out


def _pin_outcome(fn, F):
    try:
        r = fn(F)
    except Exception as ex:
        return type(ex).__name__
    if r is None:
        return None
    if isinstance(r, BiPoly):
        return r.key()
    return (r.over_base, r.absolutely, None if r.witness is None else r.witness.key(), r.witness_ext)


def _pin_digest(fn):
    record = [(F.ctx.t, F.key(), _pin_outcome(fn, F)) for F in _pin_cases()]
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def test_find_proper_factor_reproduces_pinned_outputs():
    # recorded before the Y-rows of the bivariate engine became raw lists
    assert _pin_digest(find_proper_factor) == "c23b51eee0f1a08a"


def test_absolute_verdicts_reproduce_pinned_outputs():
    assert _pin_digest(is_absolutely_irreducible) == "6e33be27bbe4879a"


def test_pinned_cases_reach_every_engine_branch(monkeypatch):
    taken = {
        "_content_y": lambda r: len(r) > 1,
        "_gcd_y": lambda r: r.deg_y >= 1,
        "_hensel_find_factor": lambda r: True,
        "_factor_via_extension": lambda r: True,
    }
    hits = dict.fromkeys(taken, 0)
    for name in taken:
        def counted(*args, _name=name, _orig=getattr(factorization, name)):
            r = _orig(*args)
            hits[_name] += taken[_name](r)
            return r
        monkeypatch.setattr(factorization, name, counted)
    for F in _pin_cases():
        find_proper_factor(F)
    assert all(hits.values()), hits


def test_repeated_factor_comes_from_the_y_gcd_when_no_fiber_is_squarefree(monkeypatch):
    # F = A^2 B: A(x0, Y)^2 divides every fiber, so the walk for a good point
    # stops after 2·deg_x·deg_y + 1 = 25 of the 101 elements, and the Y-gcd
    # of F and F_Y returns A.
    ctx = FieldCtx(101)
    A = B(ctx, {(0, 1): 1, (1, 0): 1, (0, 0): 2})
    F = A * A * B(ctx, {(0, 1): 1, (2, 0): 1, (0, 0): 1})
    gcds = []
    gcd_y = factorization._gcd_y

    def counting(F, G):
        gcds.append(gcd_y(F, G))
        return gcds[-1]

    monkeypatch.setattr(factorization, "_gcd_y", counting)
    assert factorization._good_point(F) is None
    w = find_proper_factor(F)
    assert len(gcds) == 1 and w == gcds[0]
    assert w.grlex_monic() == A.grlex_monic()
    assert F.try_divide(w) is not None


def _with_and_without_origin_line(monkeypatch, polys):
    """find_proper_factor and is_absolutely_irreducible outcomes with the
    origin-line rule and with the rule returning None, for each poly whose
    outcomes the rule answered somewhere (where it returned None every time,
    the two runs are the same run), and the set of polys it answered itself."""
    answered, fired = [], set()
    line = factorization._origin_line

    def counted(F):
        w = line(F)
        if w is not None:
            answered.append(F)
        return w

    def outcomes(F):
        return _pin_outcome(find_proper_factor, F), _pin_outcome(is_absolutely_irreducible, F)

    on = {}
    with monkeypatch.context() as m:
        m.setattr(factorization, "_origin_line", counted)
        for F in polys:
            answered.clear()
            got = outcomes(F)
            if answered:
                on[F] = got
            if F in answered:
                fired.add(F)
    with monkeypatch.context() as m:
        m.setattr(factorization, "_origin_line", lambda F: None)
        return on, {F: outcomes(F) for F in on}, fired


def test_origin_line_names_the_factor_the_lift_would_find(monkeypatch):
    # every F_λ of the oracle maps over F_p and F_{p^2}; the rule answers
    # λ = 1 whenever f(0)g(Y) - g(0)f(Y) is squarefree of full degree
    polys = []
    for p in filter(is_prime, range(7, 62)):
        for expr in ORACLE_MAPS:
            psi = parse_rational_expr(expr, p)
            polys += [build_sym_poly(psi, lam) for lam in range(1, p)]
    for p in (5, 7):
        ctx = ext_field_build(p, 2)
        for expr in ORACLE_MAPS:
            psi = parse_rational_expr(expr, p)
            if p > psi.num.degree + psi.den.degree:
                polys += [build_sym_poly(psi, FieldElem(ctx, raw))
                          for raw in ctx.elements() if not ctx.is_zero_raw(raw)]
    on, off, fired = _with_and_without_origin_line(monkeypatch, polys)
    assert on == off
    assert len(fired) == 134

    # seeded products (Y - aX)·B with B(0, 0) = 1: the rule answers only
    # those whose good point is X = 0, all 164 of them without a content
    rng = random.Random(23)
    polys = []
    for ctx in (F7, FieldCtx(11), FieldCtx(13), ext_field_build(5, 2), ext_field_build(7, 2)):
        elems = list(ctx.elements())
        for _ in range(40):
            terms = {(rng.randint(0, 2), rng.randint(0, 1)): rng.choice(elems) for _ in range(4)}
            terms[(0, 1)] = terms[(0, 0)] = ctx.one_raw
            line = B(ctx, {(0, 1): 1, (1, 0): ctx.rneg(rng.choice(elems))})
            polys.append(line * B(ctx, terms))
    on, off, fired = _with_and_without_origin_line(monkeypatch, polys)
    assert on == off
    at_origin = {F for F in polys if factorization._good_point(F) == F.ctx.zero_raw}
    assert fired <= at_origin and len(fired) == 164


def test_origin_line_leaves_other_curves_to_the_lift(monkeypatch):
    lifts = []
    hensel = factorization._hensel_find_factor

    def counting(F, x0):
        lifts.append(x0)
        return hensel(F, x0)

    monkeypatch.setattr(factorization, "_hensel_find_factor", counting)
    # X - Y is its own branch through the origin, and irreducible
    assert find_proper_factor(B(F7, {(1, 0): 1, (0, 1): -1})) is None
    assert lifts == [0]
    # (Y - X^2)(Y + X + 1): the branch through the origin is tangent to
    # Y = 0 but is not that line
    A = B(F7, {(0, 1): 1, (2, 0): -1})
    F = A * B(F7, {(0, 1): 1, (1, 0): 1, (0, 0): 1})
    assert factorization._good_point(F) == 0 and factorization._origin_line(F) is None
    assert find_proper_factor(F) == A
    assert lifts == [0, 0]
    # (x^2+1)/(x^2+3): F_1 = 2(X - Y)(X + Y) has the fiber -2Y^2 at X = 0
    F = build_sym_poly(parse_rational_expr("(x^2+1)/(x^2+3)", 101), 1)
    w = find_proper_factor(F)
    assert F.try_divide(w) is not None
    assert lifts == [0, 0, 1]


def test_embedding_roundtrip():
    src = ext_field_build(3, 2)
    dst = ext_field_build(3, 4)
    emb = get_embedding(src, dst)
    for raw in src.elements():
        up = emb.map_raw(raw)
        assert emb.descend_raw(up) == raw
    # homomorphism spot check
    a, b = src.from_int(2), (1, 2)
    assert emb.map_raw(src.rmul(a, b)) == dst.rmul(emb.map_raw(a), emb.map_raw(b))


def test_descend_raw_returns_none_outside_the_image():
    # F_9 sits in F_81 as the 9 roots of Z^9 - Z; a generator of F_81 over
    # F_9, and every element off that subfield, has no preimage
    src = ext_field_build(3, 2)
    dst = ext_field_build(3, 4)
    emb = get_embedding(src, dst)
    gen = (0, 1, 0, 0)
    assert dst.rpow(gen, 9) != gen
    assert emb.descend_raw(gen) is None
    image = {emb.map_raw(raw) for raw in src.elements()}
    outside = [a for a in dst.elements() if a not in image]
    assert len(image) == 9 and len(outside) == 72
    assert all(emb.descend_raw(a) is None for a in outside)
    assert all(dst.rpow(a, 9) != a for a in outside)


def test_embed_unipoly_preserves_evaluation():
    src = FieldCtx(5)
    dst = ext_field_build(5, 2)
    f = P(src, 1, 2, 3)
    fu = embed_unipoly(f, dst)
    emb = get_embedding(src, dst)
    for x in range(5):
        assert fu.eval_raw(dst.from_int(x)) == emb.map_raw(f.eval_raw(x))


# --- perfect powers -----------------------------------------------------------------


def R(ctx, num, den):
    return rational_normalize(num, den)


def test_perfect_power_exponent_examples():
    assert perfect_power_exponent(R(F7, P(F7, 0, 0, 1), P(F7, 1))) == 2  # X^2
    psi = R(F7, P(F7, 1, 1) ** 3, P(F7, 0, 1) ** 3)
    assert perfect_power_exponent(psi) == 3
    psi = R(F7, P(F7, 0, 0, 1), P(F7, 1, 1))
    assert perfect_power_exponent(psi) == 1
    assert extract_power_root(psi, 1) == psi
    with pytest.raises(ConstantFunction):
        perfect_power_exponent(R(F7, P(F7, 3), P(F7, 1)))


def test_perfect_power_reconstruction_property():
    rng = random.Random(31337)
    ctx = FieldCtx(101)
    done = 0
    while done < 60:
        degn = rng.randint(1, 3)
        n = rng.randint(2, 4)
        num = UniPoly.from_ints(ctx, [rng.randrange(101) for _ in range(degn + 1)])
        den = UniPoly.from_ints(ctx, [rng.randrange(101) for _ in range(rng.randint(1, degn + 1))])
        if num.is_zero() or den.is_zero():
            continue
        try:
            phi = rational_normalize(num, den)
        except ZeroPolynomial:
            continue
        if phi.is_constant() or n * phi.D >= 101:
            continue
        psi = rational_normalize(phi.num**n, phi.den**n)
        n_hat = perfect_power_exponent(psi)
        assert n_hat % n == 0
        root = extract_power_root(psi, n_hat)
        lhs = rational_normalize(root.num**n_hat, root.den**n_hat)
        # compare in the root's (possibly extended) field
        psi_up_num = embed_unipoly(psi.num, root.ctx)
        psi_up_den = embed_unipoly(psi.den, root.ctx)
        assert lhs == rational_normalize(psi_up_num, psi_up_den)
        done += 1


def test_char_p_multiplicity_profile():
    # f = (X + 1)^p has zero derivative; the p-th power is still detected
    ctx = FieldCtx(5)
    psi = R(ctx, P(ctx, 1, 1) ** 5, P(ctx, 1))
    assert perfect_power_exponent(psi) == 5


def test_extract_power_root_refuses_past_the_cap_over_an_extension():
    # g generates F_9*, of order 8; a 16th root of g needs an element of
    # order 128, which F_{3^n}* has only for 32 | n, past the degree cap
    F9 = ext_field_build(3, 2)
    g = next(a for a in F9.elements() if a != F9.zero_raw and F9.rpow(a, 4) != F9.one_raw)
    psi = rational_normalize(UniPoly(F9, [F9.zero_raw] * 16 + [g]), UniPoly.one(F9))
    with pytest.raises(DegreeTooLarge) as refusal:
        extract_power_root(psi, 16)
    assert str(refusal.value) == "no degree-16 root of the leading coefficient within the extension cap"


def test_extract_power_root_refuses_within_a_budget(budget):
    # The refusal of g·x^16 over F_{3^2}, g a generator of F_9*, reads
    # g^((Q-1)/gcd(16, Q-1)) once per field F_Q of the cap instead of
    # finding the roots of Z^16 - g in each.
    F9 = ext_field_build(3, 2)
    g = next(a for a in F9.elements() if a != F9.zero_raw and F9.rpow(a, 4) != F9.one_raw)
    psi = rational_normalize(UniPoly(F9, [F9.zero_raw] * 16 + [g]), UniPoly.one(F9))
    with budget(0.5), pytest.raises(DegreeTooLarge):
        extract_power_root(psi, 16)


@pytest.mark.parametrize("n, message", [
    (-2, "the root degree n must be >= 1, got -2"),
    (0, "the root degree n must be >= 1, got 0"),
    (3, "n = 3 does not divide the multiplicity 2 of a factor of ψ"),
])
def test_extract_power_root_refuses_a_degree_that_does_not_divide(n, message):
    psi = parse_rational_expr("x^2", 7)
    with pytest.raises(PreconditionViolated) as exc:
        extract_power_root(psi, n)
    assert str(exc.value) == message
    assert extract_power_root(psi, 2) == parse_rational_expr("x", 7)
