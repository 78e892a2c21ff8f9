import random
import tracemalloc

import pytest

from subgroup_values.counting import (
    Interval,
    congruent_pairs,
    count_values_in_subgroup,
    integral_points_in_box,
    shortest_covering_interval,
    smallest_primitive_root,
    subgroup_of_order,
    vinogradov_count,
)
from subgroup_values.errors import (
    AllWindowsContainPoles,
    BudgetExceeded,
    FieldMismatch,
    OrderDoesNotDivide,
    PreconditionViolated,
    ZeroLambda,
)
from subgroup_values.fields import FieldCtx, ext_field_build, is_prime
from subgroup_values.parsing import parse_int_bipoly, parse_rational_expr
from subgroup_values.polynomials import RationalFunc, UniPoly, rational_normalize

F7 = FieldCtx(7)


def R(ctx, num_ints, den_ints=(1,)):
    return rational_normalize(UniPoly.from_ints(ctx, num_ints), UniPoly.from_ints(ctx, den_ints))


def test_subgroup_of_order_examples():
    g3 = subgroup_of_order(7, 3)
    assert g3.elements() == (1, 2, 4)
    g6 = subgroup_of_order(7, 6)
    assert g6.elements() == (1, 2, 3, 4, 5, 6)
    with pytest.raises(OrderDoesNotDivide):
        subgroup_of_order(7, 4)
    assert smallest_primitive_root(2) == 1


def test_subgroup_closure_property():
    rng = random.Random(0)
    for _ in range(20):
        p = rng.choice((7, 13, 31, 61, 101))
        divisors = [t for t in range(1, p) if (p - 1) % t == 0]
        T = rng.choice(divisors)
        G = subgroup_of_order(p, T)
        els = G.elements()
        assert len(els) == T
        for a in els:
            assert pow(a, -1, p) in G
            for b in els:
                assert (a * b) % p in G


def test_count_values_in_subgroup_examples():
    g3 = subgroup_of_order(7, 3)
    interval = Interval(0, 6)

    sq = R(F7, [0, 0, 1])
    n, wit = count_values_in_subgroup(sq, interval, g3)
    assert n == 6
    assert [x * x % 7 for x in range(1, 7)] == [1, 4, 2, 2, 4, 1]  # all in {1,2,4}

    cube = R(F7, [0, 0, 0, 1])
    n, wit = count_values_in_subgroup(cube, interval, g3)
    assert n == 3 and wit == (1, 2, 4)

    inv = R(F7, [1], [0, 1])
    n, wit = count_values_in_subgroup(inv, interval, g3)
    assert n == 3 and wit == (1, 2, 4)

    # a pole at x = 2 inside 1..5 is skipped
    assert count_values_in_subgroup(R(F7, [1], [-2, 1]), Interval(0, 5), g3) == (2, (3, 4))


def test_count_values_witness_recount():
    # independent second pass with raw modular arithmetic
    g3 = subgroup_of_order(7, 3)
    psi = R(F7, [0, 0, 1])
    n, wit = count_values_in_subgroup(psi, Interval(0, 6), g3)
    for x in wit:
        assert pow(x * x % 7, 3, 7) == 1
    assert n == len(wit)


def test_count_values_trivial_bound():
    # witness counts obey N <= min(H, D*T): at most T values, each hit by at
    # most D = deg psi arguments
    rng = random.Random(1)
    for _ in range(30):
        p = rng.choice((13, 31, 61))
        divisors = [t for t in range(2, 21) if (p - 1) % t == 0]
        T = rng.choice(divisors)
        H = rng.randint(1, p - 2)
        u = rng.randint(0, p - 1 - H)
        psi = R(FieldCtx(p), [rng.randrange(p) for _ in range(4)])
        if psi.num.is_zero() or psi.is_constant():
            continue
        n, _ = count_values_in_subgroup(psi, Interval(u, H), subgroup_of_order(p, T))
        assert n <= min(H, psi.D * T)


def test_count_values_wrap_interval():
    g3 = subgroup_of_order(7, 3)
    sq = R(F7, [0, 0, 1])
    # {6, 0, 1} wrapping through zero; 0 maps to 0 which is outside F_7*
    n, wit = count_values_in_subgroup(sq, Interval(5, 3, wrap=True), g3)
    assert wit == (6, 1)
    # the same window without wrap is rejected
    with pytest.raises(PreconditionViolated):
        list(Interval(5, 3, wrap=False).xs(7))


def test_witness_vs_value_set_semantics_differ():
    # the quadratic example: 6 witnesses, 3 distinct values
    g3 = subgroup_of_order(7, 3)
    sq = R(F7, [0, 0, 1])
    assert count_values_in_subgroup(sq, Interval(0, 6), g3).count == 6
    assert len({sq.eval_raw(x) for x in range(1, 7)} & set(g3.elements())) == 3


def test_shortest_covering_interval_examples():
    f17 = FieldCtx(17)
    sq17 = UniPoly.from_ints(f17, [0, 0, 1])
    assert (8 * 8) % 17 == (9 * 9) % 17 == 13
    assert shortest_covering_interval(sq17, 2, 17) == 1

    ident = UniPoly.from_ints(f17, [0, 1])
    assert shortest_covering_interval(ident, 3, 17) == 3

    sq7 = UniPoly.from_ints(F7, [0, 0, 1])
    assert (3 * 3) % 7 == (4 * 4) % 7 == 2
    assert shortest_covering_interval(sq7, 2, 7) == 1


def test_shortest_covering_interval_monotone_in_h():
    f13 = FieldCtx(13)
    f = UniPoly.from_ints(f13, [3, 1, 2])
    ks = [shortest_covering_interval(f, H, 13) for H in range(1, 9)]
    assert all(a <= b for a, b in zip(ks, ks[1:]))
    # wrap mode also monotone
    ks = [shortest_covering_interval(f, H, 13, wrap=True) for H in range(1, 9)]
    assert all(a <= b for a, b in zip(ks, ks[1:]))


def test_shortest_covering_interval_pole_handling():
    # 1/x has a pole at 0 only; non-wrap windows all avoid 0 except u = -1
    inv = R(F7, [1], [0, 1])
    k = shortest_covering_interval(inv, 2, 7)
    assert k >= 1
    # poles at 0, 1, 2, 3: every cyclic window of length 4 hits one
    den = UniPoly.from_ints(F7, [0, 1])
    for a in (1, 2, 3):
        den = den * UniPoly.from_ints(F7, [-a, 1])
    blocked = rational_normalize(UniPoly.from_ints(F7, [1]), den)
    with pytest.raises(AllWindowsContainPoles):
        shortest_covering_interval(blocked, 4, 7, wrap=True)


def test_cyclic_cover_length_matches_bruteforce():
    from subgroup_values.counting import _cover_length

    rng = random.Random(2)
    for _ in range(60):
        p = rng.choice((7, 11, 13))
        values = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
        got = _cover_length(values, p, wrap=True)
        vs = set(values)
        best = min(
            K
            for K in range(1, p + 1)
            for v in range(p)
            if all((x - v - 1) % p < K for x in vs)
        )
        assert got == best, (values, p, got, best)


def test_vinogradov_examples():
    for H in (1, 5, 37, 100):
        assert vinogradov_count(1, 1, H) == H
    assert vinogradov_count(2, 2, 2) == 6
    # brute-force oracle for J_{2,2}(2)
    count = 0
    for x1 in (1, 2):
        for x2 in (1, 2):
            for x3 in (1, 2):
                for x4 in (1, 2):
                    if x1 + x2 == x3 + x4 and x1**2 + x2**2 == x3**2 + x4**2:
                        count += 1
    assert count == 6
    for d, k in ((1, 1), (2, 2), (3, 2)):
        assert vinogradov_count(d, k, 1) == 1


def test_vinogradov_budget():
    with pytest.raises(BudgetExceeded):
        vinogradov_count(2, 3, 100)


def test_vinogradov_against_bruteforce():
    import itertools

    for d, k, H in ((2, 2, 3), (1, 2, 4), (3, 2, 3)):
        brute = 0
        for tup in itertools.product(range(1, H + 1), repeat=2 * k):
            if all(
                sum(x**nu for x in tup[:k]) == sum(x**nu for x in tup[k:])
                for nu in range(1, d + 1)
            ):
                brute += 1
        assert vinogradov_count(d, k, H) == brute


def test_congruent_pairs_examples():
    sq = R(F7, [0, 0, 1])
    pairs = congruent_pairs(sq, 4, 6, 7)
    assert len(pairs) == 12
    # independent brute force
    brute = [(x, y) for x in range(1, 7) for y in range(1, 7) if x * x % 7 == 4 * y * y % 7]
    assert sorted(pairs) == sorted(brute)

    diag = congruent_pairs(sq, 1, 6, 7)
    assert len(diag) >= 6  # includes the diagonal
    assert all((x, x) in diag for x in range(1, 7))

    assert congruent_pairs(sq, 3, 6, 7) == []
    with pytest.raises(ZeroLambda):
        congruent_pairs(sq, 0, 6, 7)


def test_congruent_pairs_symmetry():
    rng = random.Random(9)
    for _ in range(20):
        p = rng.choice((11, 13))
        psi = R(FieldCtx(p), [rng.randrange(p) for _ in range(3)], [rng.randrange(p) for _ in range(2)])
        if psi.num.is_zero() or psi.is_constant():
            continue
        lam = rng.randrange(1, p)
        lam_inv = pow(lam, -1, p)
        a = congruent_pairs(psi, lam, p - 1, p)
        b = congruent_pairs(psi, lam_inv, p - 1, p)
        assert sorted((y, x) for x, y in a) == sorted(b)


def test_integral_points_examples():
    r = integral_points_in_box({(0, 1): 1, (2, 0): -1}, 16)  # Y - X^2
    assert r.count == 5

    r = integral_points_in_box({(2, 0): 1, (0, 2): 1, (0, 0): -25}, 5)
    assert r.count == 4  # (0,5), (3,4), (4,3), (5,0)

    r = integral_points_in_box({(1, 1): 1, (0, 0): -6}, 6)
    assert r.count == 4  # (1,6), (2,3), (3,2), (6,1)


def test_integral_points_large_box_path():
    # exercise the per-column root-finding path with a known answer
    r = integral_points_in_box({(0, 1): 1, (2, 0): -1}, 1200)  # Y = X^2, x <= 34
    assert r.count == 35
    assert r.reference is not None
    # (X - 5)Y: the column x = 5 vanishes identically
    assert integral_points_in_box({(1, 1): 1, (0, 1): -5}, 1000).count == 2001


@pytest.mark.parametrize("poly", ["2003*y^2+y", "2003*y"])
def test_integral_points_columns_that_the_prime_divides(poly):
    # At H = 1000 the columns are solved mod P = 2003, which divides a
    # coefficient: 2003*y^2+y leaves y after the top coefficient is stripped,
    # and the column 2003*y vanishes mod P at every x.
    terms = parse_int_bipoly(poly)
    brute = sum(1 for x in range(1001) for y in range(1001)
                if sum(c * x**i * y**j for (i, j), c in terms.items()) == 0)
    assert integral_points_in_box(terms, 1000).count == brute == 1001


def test_congruent_pairs_and_counts_refuse_a_foreign_field_or_a_long_interval():
    sq = R(F7, [0, 0, 1])
    with pytest.raises(PreconditionViolated, match="^H must be < p$"):
        congruent_pairs(sq, 2, 7, 7)
    over_49 = R(ext_field_build(7, 2), [0, 0, 1])
    for psi, p in ((sq, 11), (over_49, 7)):
        with pytest.raises(FieldMismatch, match="^ψ lives over a different prime field$"):
            congruent_pairs(psi, 2, 3, p)
    for psi, G in ((sq, subgroup_of_order(11, 5)), (over_49, subgroup_of_order(7, 3))):
        with pytest.raises(FieldMismatch,
                           match="^ψ and the subgroup live over different prime fields$"):
            count_values_in_subgroup(psi, Interval(0, 3), G)


def test_integral_points_reference_magnitude():
    r = integral_points_in_box({(0, 1): 1, (2, 0): -1}, 16)
    assert r.curve_degree == 2
    assert r.h_root == pytest.approx(4.0)
    assert r.reference is not None and r.reference > r.h_root


def test_count_values_reads_a_long_interval_without_keeping_it():
    # `count --interval 1..2000000000` must run in constant memory: the
    # points are read one at a time and only the witnesses are kept
    p = 2**31 - 1
    psi = R(FieldCtx(p), [1, 1, 1])
    G = subgroup_of_order(p, 2)
    tracemalloc.start()
    try:
        n, wit = count_values_in_subgroup(psi, Interval(0, 100_000), G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == len(wit) and all(pow(x * x + x + 1, 2, p) == 1 for x in wit)
    assert peak < 200_000, peak


def _restarting_covering_interval(f, H, p, wrap):
    # the O(p*H) scan that rebuilt every window from its start u
    from subgroup_values.counting import _cover_length

    best = None
    for u in (range(p) if wrap else range(p - H)):
        values = [f.eval_raw((u + i) % p if wrap else u + i) for i in range(1, H + 1)]
        if None not in values:
            k = _cover_length(values, p, wrap)
            best = k if best is None else min(best, k)
    return best


def test_shortest_covering_interval_matches_the_restarting_scan():
    maps = ["(x^2+1)/(x+2)", "1/(x^2-1)", "x/(x^3+x+1)", "(x^3+2)/(x^2+3*x)"]
    for p in (q for q in range(2, 60) if is_prime(q)):
        for text in maps:
            f = parse_rational_expr(text, p)
            for H in range(1, p):
                for wrap in (False, True):
                    want = _restarting_covering_interval(f, H, p, wrap)
                    if want is None:
                        with pytest.raises(AllWindowsContainPoles):
                            shortest_covering_interval(f, H, p, wrap=wrap)
                    else:
                        assert shortest_covering_interval(f, H, p, wrap=wrap) == want, \
                            (text, p, H, wrap)


@pytest.mark.parametrize("wrap", [False, True])
def test_shortest_covering_interval_reads_each_point_once(monkeypatch, wrap):
    calls = []
    eval_raw = RationalFunc.eval_raw
    monkeypatch.setattr(RationalFunc, "eval_raw", lambda f, x: calls.append(x) or eval_raw(f, x))
    p, H = 101, 5
    for f in (parse_rational_expr("1/(x^2-1)", p), UniPoly.from_ints(FieldCtx(p), [3, 1, 2])):
        calls.clear()
        shortest_covering_interval(f, H, p, wrap=wrap)
        assert len(calls) == (p - 1 + H if wrap else p - 1)


def test_int_column_horner_matches_the_monomial_sum():
    from subgroup_values.counting import _eval_int_bipoly, _int_column, _int_horner

    rng = random.Random(30)
    for _ in range(300):
        terms = {(rng.randrange(5), rng.randrange(5)): rng.randint(-10**6, 10**6)
                 for _ in range(rng.randint(1, 8))}
        x, y = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
        assert _int_horner(_int_column(terms, x), y) == _eval_int_bipoly(terms, x, y)
