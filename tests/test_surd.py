from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subgroup_values.lattices import SmallResidueInstance
from subgroup_values.surd import Surd, iroot


def test_basic_comparisons():
    assert Surd(2, 2) < 2
    assert Surd(4, 2) == 2
    assert Surd(8, 3) == 2
    assert Surd(8, 3).as_fraction() == 2
    assert Surd(Fraction(7, 2), 1).as_fraction() == Fraction(7, 2)
    assert float(Surd(0, 2)) == 0.0
    assert Surd(9, 2) > Surd(8, 3)
    assert Surd(Fraction(1, 4), 2) == Fraction(1, 2)


def test_product_of_matching_roots_is_exact():
    # (2 p^3 H^2)^(1/4) * (2 p^3 H^-2)^(1/4) * ... patterns used by level selection
    p, H, s = 101, 3, 4
    parts = [Surd(Fraction(2 * p**3) * Fraction(H) ** e, s) for e in (2, 2, -2, -2)]
    prod = Surd(1)
    for x in parts:
        prod = prod * x
    assert prod.as_fraction() == 2 * p**3


def test_floor_values():
    assert Surd(132, 2).floor() == 11
    assert Surd(121, 2).floor() == 11
    assert Surd(Fraction(7, 2), 1).floor() == 3
    assert Surd(0, 5).floor() == 0


def test_huge_roots_return_quickly(budget):
    # radicands past the float range and roots past 2^53 need exact integer roots
    with budget(2.0):
        assert Surd(10**400).floor() == 10**400
        assert Surd(Fraction(10**330), 2).floor() == 10**165
        assert Surd(Fraction(10**330), 2).as_fraction() == 10**165
        a = iroot(3**200, 3)
        assert a**3 <= 3**200 < (a + 1) ** 3


@given(n=st.integers(0, 10**400), k=st.integers(1, 16))
def test_iroot_is_the_floor_root(n, k):
    a = iroot(n, k)
    assert a**k <= n < (a + 1) ** k


@pytest.mark.parametrize("x, y", [
    (Surd(4, 2), 2),
    (Surd(4, 2), Surd(2)),
    (Surd(8, 6), Surd(2, 2)),
    (Surd(Fraction(1, 4), 2), 0.5),
    (Surd(Fraction(27, 8), 6), Surd(Fraction(3, 2), 2)),
    (Surd(0, 3), 0),
    (SmallResidueInstance(11, (1, 5), (3, Surd(9, 2))),
     SmallResidueInstance(11, (1, 5), (Surd(27, 3), 3))),
])
def test_equal_values_hash_alike(x, y):
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1


@given(
    r=st.fractions(0, 10**4, max_denominator=100),
    n=st.integers(1, 5),
    m=st.integers(1, 4),
)
def test_hash_follows_the_value(r, n, m):
    x = Surd(r, n)
    assert hash(Surd(r**m, n * m)) == hash(x)
    assert hash(Surd(r**n, n)) == hash(r)


def test_irrational_as_fraction_raises():
    with pytest.raises(ValueError):
        Surd(2, 2).as_fraction()


@given(
    num=st.integers(0, 10**6),
    den=st.integers(1, 10**3),
    n=st.integers(1, 6),
)
def test_floor_is_exact(num, den, n):
    s = Surd(Fraction(num, den), n)
    k = s.floor()
    assert Fraction(k) ** n <= s.radicand
    assert Fraction(k + 1) ** n > s.radicand


@given(
    a=st.integers(1, 10**4),
    b=st.integers(1, 10**4),
    n=st.integers(1, 5),
    m=st.integers(1, 5),
)
def test_comparison_matches_floats(a, b, n, m):
    x, y = Surd(a, n), Surd(b, m)
    fx, fy = float(x), float(y)
    if abs(fx - fy) > 1e-9 * max(fx, fy, 1.0):
        assert (x < y) == (fx < fy)


@given(a=st.integers(1, 1000), b=st.integers(1, 1000), n=st.integers(1, 4))
def test_multiplication_matches_floats(a, b, n):
    x = Surd(a, n) * Surd(b, n)
    assert float(x) == pytest.approx(float(Surd(a, n)) * float(Surd(b, n)), rel=1e-9)


@given(
    num=st.integers(0, 10**6),
    den=st.integers(1, 10**3),
    n=st.integers(1, 5),
    m=st.integers(1, 3),
    other=st.one_of(
        st.integers(0, 100),
        st.fractions(0, 100, max_denominator=50),
        st.builds(Surd, st.fractions(0, 10**6, max_denominator=10**3), st.integers(1, 5)),
    ),
)
def test_comparison_matches_fraction_powers(num, den, n, m, other):
    # the reference compares r^k' with r'^k in Fractions; Surd(r^m, n m) == x
    x = Surd(Fraction(num, den), n)
    for y in (other, Surd(x.radicand**m, n * m)):
        r, k = (y.radicand, y.index) if isinstance(y, Surd) else (Fraction(y), 1)
        left, right = x.radicand**k, r**n
        want = (left > right) - (left < right)
        got = (x < y, x <= y, x == y, x >= y, x > y)
        assert got == (want < 0, want <= 0, want == 0, want >= 0, want > 0)


def test_surd_repr_and_float_equality():
    assert repr(Surd(3)) == "Surd(3)"
    assert repr(Surd(Fraction(2, 3), 2)) == "Surd(2/3)^(1/2)"
    assert Surd(4, 2) == 2.0
    assert Surd(2, 2) != 1.5
