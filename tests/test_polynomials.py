import random

import pytest

from subgroup_values.errors import (
    BothZero,
    PoleAt,
    ZeroDenominator,
)
from subgroup_values.fields import NEG_INF, FieldCtx, ext_field_build
from subgroup_values.polynomials import (
    BiPoly,
    UniPoly,
    RationalFunc,
    poly_gcd,
    rational_normalize,
)

F7 = FieldCtx(7)
F5 = FieldCtx(5)
F2 = FieldCtx(2)


def P(ctx, *ints):
    return UniPoly.from_ints(ctx, ints)


def test_zero_poly_degree_sentinel():
    assert UniPoly.zero(F7).degree == NEG_INF
    assert max(UniPoly.zero(F7).degree, P(F7, 1).degree) == 0


def test_poly_gcd_examples():
    # (X^2 - 1, X - 1) over F_7
    g = poly_gcd(P(F7, -1, 0, 1), P(F7, -1, 1))
    assert g == P(F7, 6, 1).monic() == P(F7, 6, 1)
    # (X^2 + 1, X + 1) over F_2: X^2 + 1 = (X + 1)^2
    g = poly_gcd(P(F2, 1, 0, 1), P(F2, 1, 1))
    assert g == P(F2, 1, 1)
    # gcd with zero gives the monic scaling
    g = poly_gcd(P(F7, 2, 4), UniPoly.zero(F7))
    assert g == P(F7, 2, 4).monic()
    assert g.is_monic()
    with pytest.raises(BothZero):
        poly_gcd(UniPoly.zero(F7), UniPoly.zero(F7))


def test_rational_normalize_examples():
    r = rational_normalize(P(F7, -1, 0, 1), P(F7, -1, 1))
    assert r.num == P(F7, 1, 1) and r.den == UniPoly.one(F7)
    assert (r.d, r.e) == (1, 0)

    # (2X + 2, 4) over F_7: both scaled by 4^-1 = 2
    r = rational_normalize(P(F7, 2, 2), P(F7, 4))
    assert r.num == P(F7, 4, 4) and r.den == UniPoly.one(F7)

    # already coprime with a monic denominator: unchanged
    r = rational_normalize(P(F7, 0, 0, 1), P(F7, 1, 1))
    assert r.num == P(F7, 0, 0, 1) and r.den == P(F7, 1, 1)
    assert r.D == 2

    with pytest.raises(ZeroDenominator):
        rational_normalize(P(F7, 1), UniPoly.zero(F7))


def test_rational_normalize_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        f = P(F7, *[rng.randrange(7) for _ in range(rng.randint(1, 5))])
        g = P(F7, *[rng.randrange(7) for _ in range(rng.randint(1, 5))])
        if g.is_zero():
            continue
        r1 = rational_normalize(f, g)
        r2 = rational_normalize(r1.num, r1.den)
        assert r1 == r2
        if not r1.num.is_zero():
            assert poly_gcd(r1.num, r1.den).degree == 0
        assert r1.den.is_monic()


def test_rational_eval_examples():
    psi = rational_normalize(P(F7, 0, 0, 1), P(F7, 1))
    assert psi.eval(3) == F7.el(2)

    inv = rational_normalize(P(F7, 1), P(F7, 0, 1))
    with pytest.raises(PoleAt):
        inv.eval(0)

    f5psi = rational_normalize(P(F5, 1, 1), P(F5, -1, 1))
    with pytest.raises(PoleAt):
        f5psi.eval(1)


def test_bipoly_eval_examples():
    ctx = F7
    xy = BiPoly(ctx, {(1, 0): 1, (0, 1): -1})  # X - Y
    assert xy.eval(2, 2).is_zero()

    F = BiPoly(ctx, {(2, 0): 1, (1, 0): 1, (0, 2): -1, (0, 1): -1})
    assert F.eval(3, 4) == ctx.el(6)

    # anything with the factor (X - Y) vanishes on the diagonal
    G = xy * BiPoly(ctx, {(1, 1): 3, (0, 0): 5})
    for v in range(7):
        assert G.eval(v, v).is_zero()


def test_bipoly_try_divide():
    ctx = F7
    a = BiPoly(ctx, {(1, 0): 1, (0, 1): -1})           # X - Y
    b = BiPoly(ctx, {(1, 0): 1, (0, 1): 1, (0, 0): 1})  # X + Y + 1
    prod = a * b
    assert prod.try_divide(a) == b
    assert prod.try_divide(b) == a
    c = BiPoly(ctx, {(1, 0): 1, (0, 0): 1})
    assert prod.try_divide(c) is None


def test_bipoly_shift_and_swap():
    ctx = F7
    F = BiPoly(ctx, {(2, 1): 3, (0, 2): 1, (1, 0): 5})
    G = F.shift_x(2)
    for x in range(7):
        for y in range(7):
            assert G.eval_raw(x, y) == F.eval_raw((x + 2) % 7, y)
    S = F.swap_vars()
    for x in range(7):
        for y in range(7):
            assert S.eval_raw(x, y) == F.eval_raw(y, x)


def test_bipoly_y_view_roundtrip():
    F = BiPoly(F7, {(2, 0): 3, (0, 2): 1, (1, 3): 5})  # no Y^1 term
    rows = F.to_y_view()
    assert rows == [[0, 0, 3], [], [1], [0, 5]]
    assert BiPoly.from_y_view(F7, rows) == F
    assert BiPoly.from_y_view(F7, rows + [[], [0, 0]]) == F
    zero = BiPoly(F7)
    assert zero.to_y_view() == [[]]
    assert BiPoly.from_y_view(F7, zero.to_y_view()) == zero
    assert BiPoly.from_y_view(F7, []) == zero
    F25 = ext_field_build(5, 2)
    G = BiPoly(F25, {(1, 0): (2, 3), (0, 2): (0, 1)})
    assert G.to_y_view() == [[(0, 0), (2, 3)], [], [(0, 1)]]
    assert BiPoly.from_y_view(F25, G.to_y_view()) == G


def test_unipoly_text_roundtrip_basics():
    f = P(F7, 1, 3, 1)
    assert f.text() == "x^2+3*x+1"
    assert UniPoly.zero(F7).text() == "0"
    assert P(F7, 0, 1).text() == "x"



def test_rational_normalize_is_the_constructor():
    assert rational_normalize is RationalFunc


def test_extension_unipoly_repr_and_the_monic_zero():
    F25 = ext_field_build(5, 2)
    f = UniPoly(F25, [(0, 1), (3, 4)])
    assert repr(f) == "UniPoly([(0, 1), (3, 4)] over FieldCtx(F_5^2))"
    zero = UniPoly.zero(F25)
    assert zero.monic() == zero and zero.monic().is_zero()
    assert f.monic().is_monic()


def test_rational_func_repr_over_an_extension_field():
    from subgroup_values.factorization import extract_power_root
    from subgroup_values.parsing import parse_rational_expr

    root = extract_power_root(parse_rational_expr("3", 7), 2)  # 3 is no square mod 7
    assert repr(root) == ("RationalFunc(UniPoly([(0, 2)] over FieldCtx(F_7^2)), "
                          "UniPoly([(1, 0)] over FieldCtx(F_7^2)))")
    assert repr(parse_rational_expr("(x^2+1)/(x+2)", 7)) == "RationalFunc('(x^2+1)/(x+2)', p=7)"
