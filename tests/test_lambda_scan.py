import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_startup import _python

from subgroup_values import factorization, lambda_scan
from subgroup_values.errors import (
    BadRange,
    DegreeOutOfRange,
    DegreeTooSmall,
    PerfectPowerInput,
    SearchSpaceTooLarge,
    ZeroDenominator,
    ZeroLambda,
)
from subgroup_values.factorization import _u_ddf, embed_bipoly, embed_unipoly, is_absolutely_irreducible
from subgroup_values.fields import FieldCtx, FieldElem, ext_field_build, is_prime
from subgroup_values.lambda_scan import build_sym_poly, exceptional_lambdas
from subgroup_values.parsing import parse_rational_expr
from subgroup_values.polynomials import (
    BiPoly,
    UniPoly,
    _uderiv,
    _ueval,
    _uextgcd,
    _ugcd,
    _umonic,
    _umul,
    _uscale,
    _usub,
    rational_normalize,
)

F5 = FieldCtx(5)
F7 = FieldCtx(7)


def P(ctx, *ints):
    return UniPoly.from_ints(ctx, ints)


def R(ctx, num_ints, den_ints=(1,)):
    return rational_normalize(UniPoly.from_ints(ctx, num_ints), UniPoly.from_ints(ctx, den_ints))


def test_build_sym_poly_examples():
    psi = R(F7, [0, 0, 1])  # X^2
    assert build_sym_poly(psi, 3) == BiPoly(F7, {(2, 0): 1, (0, 2): -3})

    psi = R(F7, [0, 1, 1])  # X^2 + X
    assert build_sym_poly(psi, 1) == BiPoly(F7, {(2, 0): 1, (1, 0): 1, (0, 2): -1, (0, 1): -1})

    psi = R(F7, [0, 1], [1, 1])  # X/(X+1)
    assert build_sym_poly(psi, 2) == BiPoly(F7, {(1, 1): 6, (1, 0): 1, (0, 1): 5})

    with pytest.raises(ZeroLambda):
        build_sym_poly(psi, 0)


def test_sym_poly_evaluates_to_cross_difference():
    rng = random.Random(5)
    for _ in range(20):
        psi = R(F7, [rng.randrange(7) for _ in range(3)], [rng.randrange(7) for _ in range(2)])
        if psi.is_constant() or psi.num.is_zero():
            continue
        lam = rng.randrange(1, 7)
        F = build_sym_poly(psi, lam)
        for x in range(7):
            for y in range(7):
                fx = psi.num.eval_raw(x)
                gx = psi.den.eval_raw(x)
                fy = psi.num.eval_raw(y)
                gy = psi.den.eval_raw(y)
                assert F.eval_raw(x, y) == (fx * gy - lam * fy * gx) % 7


def test_exceptional_lambdas_quadratic_over_f7():
    psi = R(F7, [0, 1, 1])  # X^2 + X
    report = exceptional_lambdas(psi, 7)
    vals = sorted(int(w.lam) for w in report.exceptional)
    assert vals == [1]
    assert report.bound == 16
    # the degeneracy oracle: λ(1-λ)/4 vanishes only at λ = 1 among nonzero λ
    degenerate = [lam for lam in range(1, 7) if lam * (1 - lam) % 7 == 0]
    assert degenerate == [1]
    # the λ = 1 witness splits the polynomial as (X - Y)(X + Y + 1) up to order
    w = report.exceptional[0]
    sym = build_sym_poly(psi, 1)
    sym_w = sym if w.witness.ctx == F7 else embed_bipoly(sym, w.witness.ctx)
    assert sym_w.try_divide(w.witness) is not None


def test_exceptional_lambdas_x2_plus_1_over_f5():
    psi = R(F5, [1, 0, 1])  # X^2 + 1 = (X-2)(X-3), not a perfect power
    report = exceptional_lambdas(psi, 5)
    vals = sorted(int(w.lam) for w in report.exceptional)
    assert vals == [1]
    # determinant oracle -λ(1-λ) over F_5
    degenerate = [lam for lam in range(1, 5) if -lam * (1 - lam) % 5 == 0]
    assert degenerate == [1]


def test_exceptional_lambdas_rejects_perfect_power():
    psi = R(F7, [0, 0, 0, 1])  # X^3
    with pytest.raises(PerfectPowerInput):
        exceptional_lambdas(psi, 7)


def test_exceptional_lambdas_rejects_degree_one():
    psi = R(F7, [1, 1])
    with pytest.raises(DegreeTooSmall):
        exceptional_lambdas(psi, 7)


def test_exceptional_lambdas_rejects_a_p_other_than_psis_prime():
    psi = R(F7, [0, 1, 1])
    with pytest.raises(BadRange, match="disagrees with ψ's field"):
        exceptional_lambdas(psi, 5)


def test_lambda_one_is_always_exceptional():
    # f(X)g(Y) - f(Y)g(X) vanishes on the diagonal, so X - Y divides it
    rng = random.Random(17)
    for _ in range(10):
        num = [rng.randrange(7) for _ in range(rng.randint(3, 4))]
        den = [rng.randrange(7) for _ in range(rng.randint(1, 2))]
        try:
            psi = R(F7, num, den)
        except Exception:
            continue
        if not isinstance(psi.D, int) or psi.D < 2:
            continue
        try:
            report = exceptional_lambdas(psi, 7)
        except PerfectPowerInput:
            continue
        assert 1 in {int(w.lam) for w in report.exceptional}


@pytest.mark.parametrize("expr, p, max_ext", [
    ("(x^2+1)/(x+2)", 1009, 1), ("x^4+x", 101, 1), ("x^2+x", 11, 2),
])
def test_lambda_one_skips_the_sieve(monkeypatch, expr, p, max_ext):
    # Every fiber of F_1 has the root Y = x0, so the sieve could never settle
    # λ = 1; it goes straight to the bivariate test, and every other λ of
    # F_p* still meets the sieve once.
    sieved = []
    sieve = lambda_scan._sieve

    def recording(ctx, lams, *args):
        lams = list(lams)
        sieved.extend((ctx.t, lam) for lam in lams)
        return sieve(ctx, lams, *args)

    monkeypatch.setattr(lambda_scan, "_sieve", recording)
    report = exceptional_lambdas(parse_rational_expr(expr, p), p, max_ext=max_ext)
    assert int(report.exceptional[0].lam) == 1
    assert [lam for t, lam in sieved if t == 1] == list(range(2, p))


def test_scale_robustness():
    rng = random.Random(23)
    done = 0
    while done < 50:
        num = [rng.randrange(7) for _ in range(rng.randint(3, 4))]
        den = [rng.randrange(7) for _ in range(rng.randint(1, 2))]
        c = rng.randrange(2, 7)
        try:
            psi = R(F7, num, den)
        except Exception:
            continue
        if not isinstance(psi.D, int) or psi.D < 2:
            continue
        try:
            base = exceptional_lambdas(psi, 7)
            scaled = exceptional_lambdas(psi.scale(c), 7)
        except PerfectPowerInput:
            continue
        assert {int(w.lam) for w in base.exceptional} == {int(w.lam) for w in scaled.exceptional}
        done += 1


def test_extension_scan_finds_no_new_lambdas_for_x2_plus_1():
    psi = R(F5, [1, 0, 1])
    report = exceptional_lambdas(psi, 5, max_ext=2)
    assert report.count == 1
    assert int(report.exceptional[0].lam) == 1
    assert report.scanned_field.t == 2


def test_cubic_scan_needs_almost_no_extension_retest(monkeypatch):
    # The rational-point certificate settles nearly every F_p-irreducible λ,
    # so the F_{p^3} factor search runs for at most a couple of them.
    ext_calls = []
    base_search = factorization.find_proper_factor

    def counting(F):
        if F.ctx.t > 1:
            ext_calls.append(F)
        return base_search(F)

    monkeypatch.setattr(factorization, "find_proper_factor", counting)
    report = exceptional_lambdas(R(FieldCtx(211), [0, 1, 0, 1]), 211)
    assert sorted(int(w.lam) for w in report.exceptional) == [1, 210]
    assert len(ext_calls) <= 2


def test_fiber_sieve_carries_the_cubic_scan(monkeypatch):
    # Only the exceptional λ reach the bivariate absolute-irreducibility test.
    calls = []

    def counting(F):
        calls.append(F)
        return is_absolutely_irreducible(F)

    monkeypatch.setattr(lambda_scan, "is_absolutely_irreducible", counting)
    report = exceptional_lambdas(R(FieldCtx(211), [0, 1, 0, 1]), 211)
    assert sorted(int(w.lam) for w in report.exceptional) == [1, 210]
    assert len(calls) == 2


def _oracle_exceptional(psi, max_ext=1):
    """The reference scan: is_absolutely_irreducible on every λ of F_{p^t}*
    outside F_p for t = 2 (the only proper subfield there), in scan order."""
    out = []
    for t in range(1, max_ext + 1):
        ctx = ext_field_build(psi.ctx.p, t)
        for raw in ctx.elements():
            if ctx.is_zero_raw(raw) or (t == 2 and not any(raw[1:])):
                continue
            verdict = is_absolutely_irreducible(build_sym_poly(psi, FieldElem(ctx, raw)))
            if not verdict.absolutely:
                out.append((t, raw, verdict.witness, verdict.witness_ext))
    return out


def _scanned(report):
    return [(w.lam.ctx.t, w.lam.raw, w.witness, w.ext_degree) for w in report.exceptional]


# deg f > deg g, deg f = deg g and deg f < deg g. (x^3+2)/(x^3-2) has λ = -1
# irreducible over F_p and split over F_{p^3} whenever 2 is not a cube mod p.
ORACLE_MAPS = (
    "x^2+x", "x^3+x", "x^4+x", "(x^2+1)/(x+2)", "(x^2+1)/(x^2+3)", "(x^2+3)/(x^3+x)",
    "(x^3+2)/(x^3-2)",
)


def test_fiber_sieve_matches_per_lambda_oracle(monkeypatch):
    # The sieve settles a λ only when it is provably not exceptional, so the
    # scan must report exactly the oracle's λ, witnesses and extension degrees;
    # and on maps whose fibers do not always split, the sieve settles almost
    # every non-exceptional λ instead of passing it on.
    fallback = []

    def counting(F):
        fallback.append(F)
        return is_absolutely_irreducible(F)

    monkeypatch.setattr(lambda_scan, "is_absolutely_irreducible", counting)
    cases = [(expr, p, 1) for expr in ORACLE_MAPS for p in filter(is_prime, range(7, 102))]
    cases += [(expr, p, 2) for expr in ORACLE_MAPS[:6] for p in (5, 7, 11)]
    non_exceptional = settled = certificate_needed = 0
    for expr, p, max_ext in cases:
        psi = parse_rational_expr(expr, p)
        if not isinstance(psi.D, int) or psi.D < 2 or p <= psi.num.degree + psi.den.degree:
            continue
        fallback.clear()
        got = _scanned(exceptional_lambdas(psi, p, max_ext=max_ext))
        want = _oracle_exceptional(psi, max_ext)
        assert got == want, (expr, p, max_ext)
        certificate_needed += sum(1 for t, _, _, ext in want if ext > t)
        if expr in ORACLE_MAPS[:6]:
            tested = sum(p**t - p ** (t - 1) for t in range(1, max_ext + 1))
            non_exceptional += tested - len(want)
            settled += tested - len(fallback)
    assert certificate_needed >= 5
    assert settled >= 0.99 * non_exceptional


def _reference_fiber_table(ctx, f, g, n):
    """The fiber table with every entry's factor degrees from a distinct-degree
    factorization of P_μ, no root counting."""
    inner = (1 << n) - 2
    table = {}
    for mu in itertools.chain(ctx.elements(), [None]):
        P = f if mu is None else _usub(ctx, g, _uscale(ctx, f, mu))
        if len(P) != n + 1:
            continue
        P = _umonic(ctx, P)
        if len(_ugcd(ctx, P, _uderiv(ctx, P))) != 1:
            continue
        sums = 1
        linear = False
        for part, d in _u_ddf(ctx, P):
            for _ in range((len(part) - 1) // d):
                sums |= sums << d
            linear = linear or d == 1
        table[mu] = (sums & inner, linear)
    common = inner
    for mask, _ in table.values():
        common &= mask
    return {} if common else table


def _table_inputs(psi, t):
    ctx = ext_field_build(psi.ctx.p, t)
    f = list(embed_unipoly(psi.num, ctx).coeffs)
    g = list(embed_unipoly(psi.den, ctx).coeffs)
    ratios = []
    for x0 in ctx.elements():
        fx = _ueval(ctx, f, x0)
        ratios.append(None if ctx.is_zero_raw(fx) else ctx.rmul(_ueval(ctx, g, x0), ctx.rinv(fx)))
    return ctx, f, g, max(psi.num.degree, psi.den.degree), ratios


def _assert_table_matches_reference(psi, t):
    ctx, f, g, n, ratios = _table_inputs(psi, t)
    assert lambda_scan._fiber_table(ctx, f, g, n, ratios) == _reference_fiber_table(ctx, f, g, n)


# Beyond ORACLE_MAPS, two maps of degree 5 whose fibers can keep a rootless
# part of degree 4 or 5.
TABLE_MAPS = ORACLE_MAPS + ("x^5+x^2+1", "(x^5+2)/(x^3+x+1)")
# Maps of degree 6, 7 and 8, whose fibers can also keep a rootless part of
# degree 6 or more, the entries still factored. At n = 6 and 7 the
# discriminant's sign (-1)^(n(n-1)/2) is -1, and (x^7+x+1)/(x+2) at p = 7
# has p | n.
HIGH_DEGREE_MAPS = ("x^6+x^2+1", "(x^7+x+1)/(x+2)", "x^8+x^3+2")


def test_fiber_table_matches_factor_degree_reference():
    # Root counts from the ratios must give the masks and root flags that a
    # distinct-degree factorization of every P_μ gives.
    for expr in TABLE_MAPS:
        for p in filter(is_prime, range(7, 102)):
            _assert_table_matches_reference(parse_rational_expr(expr, p), 1)
        for p in (5, 7, 11):
            _assert_table_matches_reference(parse_rational_expr(expr, p), 2)


@pytest.mark.parametrize("expr", HIGH_DEGREE_MAPS)
def test_fiber_table_matches_reference_at_degrees_6_to_8(expr):
    # a smaller grid than TABLE_MAPS': the reference factors fibers of degree
    # up to 8 at every μ
    for p in filter(is_prime, range(7, 60)):
        _assert_table_matches_reference(parse_rational_expr(expr, p), 1)
    for p in (5, 7):
        _assert_table_matches_reference(parse_rational_expr(expr, p), 2)


@pytest.mark.parametrize("p, t, n", [
    # n(n-1)/2 odd, and -1 not a square in F_p as p = 3 mod 4
    (7, 1, 6), (11, 1, 7), (19, 1, 6), (7, 1, 3),
    # p | n: P' has degree below n - 1, and lc(P) enters the character
    (5, 1, 5), (7, 1, 7), (5, 2, 5),
    # even n(n-1)/2, and F_{p^2}
    (13, 1, 4), (11, 1, 5), (7, 2, 6),
])
def test_discriminant_character_gives_the_factor_count_parity(p, t, n):
    # Stickelberger: disc(P) is a square exactly when n - r is even, for r
    # the number of irreducible factors; r comes from a full factorization.
    ctx = ext_field_build(p, t)
    rng = random.Random(1000 * p + 10 * n + t)
    elems = list(ctx.elements())
    checked, parities = 0, set()
    while checked < 60:
        P = [rng.choice(elems) for _ in range(n)] + [rng.choice(elems[1:])]
        if len(_ugcd(ctx, P, _uderiv(ctx, P))) != 1:
            continue
        r = len(factorization._u_factor(ctx, P)[1])
        assert lambda_scan._disc_is_square(ctx, P) == ((n - r) % 2 == 0), P
        parities.add((n - r) % 2)
        checked += 1
    assert parities == {0, 1}


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from((5, 7, 11, 13)),
    num=st.lists(st.integers(0, 12), min_size=1, max_size=7),
    den=st.lists(st.integers(0, 12), min_size=1, max_size=7),
)
@example(p=5, num=[1], den=[0, 0, 0, 0, 0, 1])
def test_fiber_table_matches_reference_on_random_maps(p, num, den):
    ctx = FieldCtx(p)
    try:
        psi = rational_normalize(UniPoly.from_ints(ctx, num), UniPoly.from_ints(ctx, den))
    except ZeroDenominator:
        assume(False)
    assume(not psi.num.is_zero() and max(psi.num.degree, psi.den.degree) >= 2)
    # _fiber_table requires W = f g' - f' g != 0, which fails for 1/x^5 at p = 5
    f, g = list(psi.num.coeffs), list(psi.den.coeffs)
    assume(_usub(ctx, _umul(ctx, f, _uderiv(ctx, g)), _umul(ctx, _uderiv(ctx, f), g)))
    _assert_table_matches_reference(psi, 1)


@pytest.mark.parametrize("p", (1009, 4409))
def test_ratio_table_at_workload_sizes(p):
    # the scan benchmark's maps, against g(x)/f(x) from powers and Fermat inverses
    for expr in ("x^2+x", "x^3+x", "x^4+x", "(x^2+1)/(x+2)"):
        psi = parse_rational_expr(expr, p)
        f, g = list(psi.num.coeffs), list(psi.den.coeffs)
        want = []
        for x in range(p):
            fx = sum(c * pow(x, i, p) for i, c in enumerate(f)) % p
            gx = sum(c * pow(x, i, p) for i, c in enumerate(g)) % p
            want.append(gx * pow(fx, p - 2, p) % p if fx else None)
        assert lambda_scan._ratio_table(FieldCtx(p), f, g) == want, expr


def test_ratio_table_of_the_zero_polynomial():
    # not a scan input, but the F_p table still matches the generic loop
    ctx = FieldCtx(7)
    assert lambda_scan._ratio_table(ctx, [], [3, 1]) == [None] * 7
    assert lambda_scan._ratio_table(ctx, [1, 1], []) == [0] * 6 + [None]


@pytest.mark.parametrize("expr, p", [("(x^2+1)/(x+2)", 1009), ("x^4+x", 211)])
def test_fiber_table_matches_reference_at_workload_sizes(expr, p):
    _assert_table_matches_reference(parse_rational_expr(expr, p), 1)


def test_fiber_table_factors_only_fibers_with_a_large_rootless_part(monkeypatch):
    calls = []

    def counting(ctx, P):
        calls.append(P)
        return _u_ddf(ctx, P)

    monkeypatch.setattr(lambda_scan, "_u_ddf", counting)
    # n ≤ 3 leaves a rootless part of degree at most 3: no fiber is factored.
    for expr, p, want in (
        ("x^2+x", 401, [1]),
        ("x^3+x", 211, [1, 210]),
        ("x^3+x", 293, [1, 292]),
        ("(x^2+1)/(x+2)", 1009, [1]),
    ):
        report = exceptional_lambdas(parse_rational_expr(expr, p), p)
        assert sorted(int(w.lam) for w in report.exceptional) == want, (expr, p)
    assert calls == []
    # x^4+x at p = 101 has 37 rootless full-degree squarefree fibers, each
    # a quartic whose split the discriminant's character decides unfactored.
    psi = parse_rational_expr("x^4+x", 101)
    ctx, f, g, n, ratios = _table_inputs(psi, 1)
    table = lambda_scan._fiber_table(ctx, f, g, n, ratios)
    rootless = [mu for mu, (_, linear) in table.items() if not linear]
    assert not any(
        ctx.is_zero_raw(_ueval(ctx, f if mu is None else _usub(ctx, g, _uscale(ctx, f, mu)), y))
        for mu in rootless
        for y in ctx.elements()
    )
    assert len(rootless) == 37
    assert calls == []
    # x^2/(x^4+x^2+1) at p = 401: every fiber splits, and the table that
    # comes out empty is built without one factorization.
    psi = parse_rational_expr("x^2/(x^4+x^2+1)", 401)
    assert lambda_scan._fiber_table(*_table_inputs(psi, 1)) == {}
    assert calls == []
    # A sextic map factors exactly its entries with a rootless part of degree
    # m ≥ 6, which at n = 6 are the rootless fibers.
    psi = parse_rational_expr("x^6+x^2+1", 101)
    ctx, f, g, n, ratios = _table_inputs(psi, 1)
    table = lambda_scan._fiber_table(ctx, f, g, n, ratios)
    rootless = [mu for mu, (_, linear) in table.items() if not linear]
    assert len(calls) == len(rootless) == 66


SCAN_INSTANCES = (
    ("x^2+x", 211), ("x^2+x", 401), ("x^3+x", 211), ("x^3+x", 293), ("x^4+x", 101),
    ("(x^2+1)/(x+2)", 1009), ("(x^2+1)/(x+2)", 4409),
)


def test_scan_instances_test_their_exceptional_lambdas_without_a_y_gcd(monkeypatch):
    # The benchmark's scan instances: each F_λ left to the bivariate test has
    # a squarefree fiber among its first points, which shows F_λ squarefree.
    gcds = []
    gcd_y = factorization._gcd_y

    def counting(F, G):
        gcds.append(F)
        return gcd_y(F, G)

    monkeypatch.setattr(factorization, "_gcd_y", counting)
    found = []
    for expr, p in SCAN_INSTANCES:
        report = exceptional_lambdas(parse_rational_expr(expr, p), p)
        found += [int(w.lam) for w in report.exceptional]
    assert len(found) == 9
    assert gcds == []


def test_hensel_lift_extends_its_products_instead_of_rebuilding_them(monkeypatch):
    # The lift keeps running prefix products of its factors and extends them
    # by one X-coefficient per step; on these scans every recombination
    # subset is a single factor, so the full products are the monic target
    # and one candidate per lift. The benchmark's scan instances lift
    # nothing: each λ = 1 and each symmetry λ has the line through the
    # origin as its witness.
    calls = {"_spoly_mul": 0, "_hensel_find_factor": 0}
    for name in calls:
        fn = getattr(factorization, name)

        def counting(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(factorization, name, counting)
    for expr, p in SCAN_INSTANCES:
        exceptional_lambdas(parse_rational_expr(expr, p), p)
    assert calls == {"_spoly_mul": 0, "_hensel_find_factor": 0}
    for expr, p in (("(x^2+1)/(x^2+3)", 101), ("(x^3+2)/(x^3-2)", 31)):
        exceptional_lambdas(parse_rational_expr(expr, p), p)
    assert calls == {"_spoly_mul": 6, "_hensel_find_factor": 3}


def test_verdict_and_witness_checks_hold_under_python_O():
    # both checks raise explicitly, so -O, which strips assert statements,
    # keeps them
    r = _python("-O", "-c", (
        "from subgroup_values import lambda_scan\n"
        "from subgroup_values.factorization import IrreducibilityVerdict\n"
        "from subgroup_values.parsing import parse_rational_expr\n"
        "from subgroup_values.polynomials import BiPoly\n"
        "def refusal(fn, *args):\n"
        "    try:\n"
        "        fn(*args)\n"
        "    except AssertionError as ex:\n"
        "        return ex.args\n"
        "print(__debug__)\n"
        "print(refusal(IrreducibilityVerdict, False, True, None, None))\n"
        "print(refusal(IrreducibilityVerdict, False, False, None, None))\n"
        "lambda_scan.is_absolutely_irreducible = lambda F: IrreducibilityVerdict(\n"
        "    False, False, BiPoly(F.ctx, {(0, 1): 1, (1, 0): 2}), 1)\n"
        "print(refusal(lambda_scan.exceptional_lambdas, parse_rational_expr('x^2+x', 7), 7))\n"
    ))
    assert r.stdout.splitlines() == ["False", "()", "()", "('witness failed re-verification',)"]


def test_program_checks_hold_under_python_O():
    # one check per module, each broken by a monkeypatch: a generator that
    # is not primitive, a multiplicity that n does not divide, an empty
    # enumeration and a congruent pair dropped. Each raises explicitly, so
    # -O keeps it.
    r = _python("-O", "-c", (
        "from subgroup_values import counting, factorization, lattices, pipeline\n"
        "from subgroup_values.lattices import LatticeBasis\n"
        "from subgroup_values.parsing import parse_rational_expr\n"
        "def refusal(mod, name, broken, fn, *args):\n"
        "    kept = getattr(mod, name)\n"
        "    setattr(mod, name, broken(kept))\n"
        "    try:\n"
        "        fn(*args)\n"
        "    except AssertionError as ex:\n"
        "        return ex.args\n"
        "    finally:\n"
        "        setattr(mod, name, kept)\n"
        "print(__debug__)\n"
        "print(refusal(counting, 'smallest_primitive_root', lambda fn: lambda p: 1,\n"
        "              counting.subgroup_of_order, 13, 4))\n"
        "print(refusal(factorization, '_u_sqfree', lambda fn: lambda ctx, f: [([0, 1], 3)],\n"
        "              factorization.extract_power_root, parse_rational_expr('x^2', 7), 2))\n"
        "print(refusal(lattices, '_enumerate_ball', lambda fn: lambda *args: [],\n"
        "              lattices.shortest_vector_enum, LatticeBasis(((2, 0), (0, 2)))))\n"
        "print(refusal(pipeline, 'congruent_pairs', lambda fn: lambda *args: fn(*args)[1:],\n"
        "              pipeline.trace_proof, parse_rational_expr('x^2+x', 31), 31, 3, 5))\n"
    ))
    assert r.stdout.splitlines() == [
        "False",
        "()",
        "()",
        "('volume bound excluded every vector (impossible)',)",
        "('bucket count disagrees with the congruent pairs',)",
    ]


def _count_scan_work(monkeypatch, expr, p):
    """(exceptional λ, gcd calls in lambda_scan, λ given to build_sym_poly, λ
    that reached is_absolutely_irreducible) for one scan."""
    gcds, built, tested = [], [], []
    lam_of = {}

    def counting_gcd(ctx, a, b):
        gcds.append((a, b))
        return _uextgcd(ctx, a, b)

    def counting_build(psi, lam):
        built.append(int(lam))
        F = build_sym_poly(psi, lam)
        lam_of[id(F)] = int(lam)
        return F

    def counting_test(F):
        tested.append(lam_of[id(F)])
        return is_absolutely_irreducible(F)

    monkeypatch.setattr(lambda_scan, "_uextgcd", counting_gcd)
    monkeypatch.setattr(lambda_scan, "build_sym_poly", counting_build)
    monkeypatch.setattr(lambda_scan, "is_absolutely_irreducible", counting_test)
    report = exceptional_lambdas(parse_rational_expr(expr, p), p)
    return sorted(int(w.lam) for w in report.exceptional), len(gcds), built, tested


@pytest.mark.parametrize("expr, p, want, probes", [
    ("(x^2+1)/(x+2)", 1009, [1], [1]),
    ("(x^2+1)/(x+2)", 4409, [1], [1]),
    # deg f = deg g: λ = 1 has its own total degree, so λ = 2 is probed too
    ("(x^2+1)/(x^2+3)", 101, [1], [1, 2]),
])
def test_scan_work_does_not_grow_with_p(monkeypatch, expr, p, want, probes):
    # Squarefree fibers come from one factorization of the Wronskian, so the
    # gcd count is per field, not per μ: one per irreducible factor of W, of
    # degree at most 2n - 2 = 2. F_λ is built for the degree probes before
    # the scan, and after that only for the λ that reach the bivariate test;
    # the probe F_1 is the one tested at λ = 1.
    got, gcds, built, tested = _count_scan_work(monkeypatch, expr, p)
    assert got == want
    assert gcds <= 2
    assert tested[0] == 1
    assert built == probes + tested[1:]
    assert len(tested) <= 4


@pytest.mark.parametrize("expr, message, validated_degrees", [
    # λ = 1 passes with total degree 5 (F_1 = X^5 - Y^5), λ = 2 is refused
    ("(x^5+1)/(x^5+2)", "got 10", [5, 10]),
    # λ = 1 keeps the X^4 Y^5 and X^5 Y^4 terms and is refused itself
    ("(x^5+x^4+1)/(x^5+2)", "got 9", [9]),
    ("(x^6+x+1)/(x^3+2)", "got 9", [9]),
])
def test_scan_refuses_degree_beyond_range_at_the_same_lambda(monkeypatch, expr, message, validated_degrees):
    degrees = []
    validate = lambda_scan._validate_bivariate_input

    def recording(F):
        degrees.append(F.total_degree)
        return validate(F)

    monkeypatch.setattr(lambda_scan, "_validate_bivariate_input", recording)
    with pytest.raises(DegreeOutOfRange, match=f"^total degree must be in 1..8, {message}$"):
        exceptional_lambdas(parse_rational_expr(expr, 101), 101)
    assert degrees == validated_degrees


def test_scan_at_a_large_prime_returns_quickly(budget):
    # Both scans take about 2 s on one desktop core. With a squarefree gcd
    # per μ and an F_λ per λ they took about 10 s, so the budget catches a
    # return to per-μ or per-λ polynomial work.
    p = 100003
    with budget(5.0):
        for expr, want in (("(x^2+1)/(x^2+3)", [1]), ("x^3+x", [1, p - 1])):
            report = exceptional_lambdas(parse_rational_expr(expr, p), p)
            assert sorted(int(w.lam) for w in report.exceptional) == want, expr


@pytest.mark.parametrize("expr, p, max_ext, q", [
    ("x^2+x", 1048583, 1, 1048583),  # the first prime above 2^20
    ("x^3+x", 4294967291, 1, 4294967291),
    ("x^2+x", 1031, 2, 1031**2),  # F_{p^2} crosses the cap where F_p does not
])
def test_scan_refuses_a_field_above_the_cap_at_once(budget, expr, p, max_ext, q):
    # The refusal comes before any list of q entries is built; just below
    # the cap, x^2+x at p = 1000003 scans for seconds in over 200 MB.
    with budget(1.0):
        with pytest.raises(SearchSpaceTooLarge) as err:
            exceptional_lambdas(parse_rational_expr(expr, p), p, max_ext=max_ext)
    assert str(err.value) == f"q = p^{max_ext} = {q} exceeds the scan cap 2^20"


def test_quadratic_polynomial_scan_matches_conic_classifier():
    # for psi = a x^2 + b x + c with b^2 != 4ac, the symmetrized polynomial is
    # a conic in (X, Y) whose degeneracy determinant is
    # lambda (1 - lambda) a (b^2 - 4ac) / 4, so the exceptional set is exactly {1}
    rng = random.Random(101)
    for p in (7, 11, 13):
        ctx = FieldCtx(p)
        done = 0
        while done < 12:
            a = rng.randrange(1, p)
            b = rng.randrange(p)
            c = rng.randrange(p)
            if (b * b - 4 * a * c) % p == 0:
                continue
            psi = R(ctx, [c, b, a])
            report = exceptional_lambdas(psi, p)
            assert sorted(int(w.lam) for w in report.exceptional) == [1], (p, a, b, c)
            done += 1


def test_exceptional_count_cap_small_corpus():
    rng = random.Random(42)
    done = 0
    while done < 25:
        d = rng.randint(2, 3)
        num = [rng.randrange(7) for _ in range(d + 1)]
        den = [rng.randrange(7) for _ in range(rng.randint(1, d))]
        try:
            psi = R(F7, num, den)
        except Exception:
            continue
        if not isinstance(psi.D, int) or psi.D < 2 or psi.num.degree + psi.den.degree >= 7:
            continue
        try:
            report = exceptional_lambdas(psi, 7)
        except PerfectPowerInput:
            continue
        assert report.count <= 4 * psi.D**2
        done += 1
