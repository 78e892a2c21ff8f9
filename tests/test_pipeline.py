import itertools
import json
import math
import multiprocessing
import os
import random
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from test_lambda_scan import ORACLE_MAPS
from test_startup import _python

from subgroup_values import counting, pipeline
from subgroup_values.cli import cmd_dispatch
from subgroup_values.counting import (
    Interval,
    Subgroup,
    congruent_pairs,
    count_values_in_subgroup,
    subgroup_of_order,
)
from subgroup_values.errors import (
    BadRange,
    DegenerateDegrees,
    LambdaSetExhausted,
    OrderDoesNotDivide,
    ParseError,
    PerfectPowerInput,
    PreconditionViolated,
    SubgroupValuesError,
    WindowEmpty,
    ZeroLambda,
)
from subgroup_values.fields import FieldCtx, ext_field_build, is_prime, prime_factors
from subgroup_values.lambda_scan import exceptional_lambdas
from subgroup_values.parsing import parse_rational_expr
from subgroup_values.polynomials import RationalFunc, UniPoly, rational_normalize
from subgroup_values.reporting import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_PERFECT_POWER,
    STATUS_WINDOW_EMPTY,
    ReportRow,
)
from subgroup_values.pipeline import (
    exponent_set,
    reduce_perfect_power,
    run_sweep,
    select_test_levels,
    standard_sweep_cells,
    support_set,
    value_count_bound,
    trace_proof,
)
from subgroup_values.surd import Surd


def test_exponent_set_examples():
    e = exponent_set(2, 0)
    assert (e.ell, e.m, e.k, e.s) == (0, 2, 6, 4)
    assert (e.theta, e.rho, e.tau) == (Fraction(1, 8), Fraction(3, 4), Fraction(1, 4))

    e = exponent_set(1, 1)
    assert (e.k, e.s) == (4, 3)
    assert (e.theta, e.rho, e.tau) == (Fraction(1, 6), Fraction(2, 3), Fraction(1, 4))

    e = exponent_set(3, 2)
    assert (e.ell, e.m, e.k, e.s) == (2, 3, 42, 14)
    assert (e.theta, e.rho, e.tau) == (Fraction(1, 28), Fraction(3, 2), Fraction(1, 10))

    with pytest.raises(DegenerateDegrees):
        exponent_set(0, 0)


def test_polynomial_specialization_of_exponents():
    # for e = 0 the family collapses to (1/4d, (d+1)/4, 1/2d)
    for d in range(2, 7):
        e = exponent_set(d, 0)
        assert e.theta == Fraction(1, 4 * d)
        assert e.rho == Fraction(d + 1, 4)
        assert e.tau == Fraction(1, 2 * d)


def test_support_set_examples():
    s = support_set(0, 2)
    assert set(s.pairs) == {(1, 0), (2, 0), (0, 1), (0, 2)}
    assert len(s.pairs) == 4 and sum(i + j for i, j in s.pairs) == 6

    s = support_set(1, 1)
    assert set(s.pairs) == {(0, 1), (1, 0), (1, 1)}
    assert len(s.pairs) == 3 and sum(i + j for i, j in s.pairs) == 4

    s = support_set(0, 1)
    assert set(s.pairs) == {(1, 0), (0, 1)}

    with pytest.raises(BadRange):
        support_set(2, 1)


def test_support_identities_full_range():
    for m in range(1, 9):
        for ell in range(0, m + 1):
            s = support_set(ell, m)
            e = exponent_set(m, ell)
            assert len(s.pairs) == e.s
            assert sum(i + j for i, j in s.pairs) == e.k


def test_select_test_levels_worked_example():
    exp = exponent_set(2, 0)
    lv = select_test_levels(101, 2, exp)
    assert float(lv.U) == pytest.approx(107.16, abs=0.01)
    assert float(lv.levels[(1, 0)]) == pytest.approx(53.58, abs=0.01)
    assert float(lv.levels[(0, 1)]) == pytest.approx(53.58, abs=0.01)
    assert float(lv.levels[(2, 0)]) == pytest.approx(26.79, abs=0.01)
    assert lv.levels[(1, 0)] < 101
    assert lv.levels[(2, 0)] >= 1
    # exact product identity
    assert lv.product_check == 2 * 101**3


def test_select_test_levels_window_empty():
    exp = exponent_set(2, 0)
    with pytest.raises(WindowEmpty) as exc:
        select_test_levels(101, 50, exp)
    assert "max level" in str(exc.value)
    assert exc.value.effective_c is not None

    # the documented conflicting instance: V_max = 14.10 >= 13
    with pytest.raises(WindowEmpty):
        select_test_levels(13, 3, exp)


def test_select_test_levels_product_is_exact_everywhere():
    for p, H, d in ((31, 3, 2), (61, 4, 2), (101, 3, 3), (101, 7, 2)):
        exp = exponent_set(d, 0)
        try:
            lv = select_test_levels(p, H, exp)
        except WindowEmpty:
            continue
        assert lv.product_check == 2 * p ** (exp.s - 1)


def test_value_count_bound_examples():
    exp = exponent_set(2, 0)
    assert value_count_bound(exp, 101, 4, 10) == pytest.approx(11.58, abs=0.01)
    assert value_count_bound(exp, 101, 4, 0) == 0.0
    b = value_count_bound(exp, 101, 1, 9)
    assert b == pytest.approx((1 + 101 ** (-1 / 8)) * 3.0)


def test_reduce_perfect_power_examples():
    ctx = FieldCtx(101)

    def P(*ints):
        return UniPoly.from_ints(ctx, ints)

    x4 = rational_normalize(P(0, 1) ** 4, P(1))
    phi, T0 = reduce_perfect_power(x4, 3)
    assert T0 == 12 and phi.num == P(0, 1) and phi.den == P(1)

    sq = rational_normalize(P(1, 1) ** 2, P(0, 1) ** 2)
    phi, T0 = reduce_perfect_power(sq, 5)
    assert T0 == 10
    assert phi == rational_normalize(P(1, 1), P(0, 1))

    plain = rational_normalize(P(0, 1, 1), P(1))
    assert reduce_perfect_power(plain, 7) == (plain, 7)

    const = rational_normalize(P(5), P(1))
    assert reduce_perfect_power(const, 7) == (const, 7)


def test_trace_proof_complete_instance():
    psi = parse_rational_expr("x^2+x", 31)
    tr = trace_proof(psi, 31, 3, 5)
    assert tr.count == count_values_in_subgroup(psi, Interval(0, 3), subgroup_of_order(31, 5)).count
    assert math.gcd(tr.multiplier, 31) == 1
    # every coefficient is centered
    for c in list(tr.F_int.values()) + list(tr.G_int.values()):
        assert -31 // 2 <= c <= 31 // 2
    # the integer identity holds at every congruent pair
    for (x, y, z) in tr.pairs_z:
        F = sum(c * x**i * y**j for (i, j), c in tr.F_int.items())
        G = sum(c * x**i * y**j for (i, j), c in tr.G_int.items())
        assert F == G + z * 31
        assert abs(z) <= tr.z_max
    assert tr.rt_ok
    assert tr.ratio == pytest.approx(tr.count / tr.bound)


def test_trace_proof_multiplier_meets_levels():
    psi = parse_rational_expr("x^2+x", 61)
    tr = trace_proof(psi, 61, 4, 5)
    from subgroup_values.fields import centered_residue
    from subgroup_values.lambda_scan import build_sym_poly
    from subgroup_values.pipeline import support_set as ss

    sym = build_sym_poly(psi, tr.chosen_lambda)
    for pair in ss(tr.exponents.ell, tr.exponents.m).pairs:
        b = int(sym.terms.get(pair, 0))
        assert centered_residue(b * tr.multiplier, 61) <= tr.levels.levels[pair].floor()


def test_trace_proof_rejects_perfect_power():
    psi = parse_rational_expr("x^2", 31)
    with pytest.raises(PerfectPowerInput):
        trace_proof(psi, 31, 3, 5)


def test_trace_proof_rejects_psi_over_another_field():
    with pytest.raises(PreconditionViolated, match="must live over F_p"):
        trace_proof(parse_rational_expr("x^2+x", 29), 31, 3, 5)
    F49 = ext_field_build(7, 2)
    psi = RationalFunc(UniPoly(F49, ((0, 0), (1, 0), (1, 0))), UniPoly(F49, ((1, 0),)))
    with pytest.raises(PreconditionViolated, match="must live over F_p"):
        trace_proof(psi, 7, 3, 3)


def test_trace_proof_rejects_a_constant_psi():
    for text in ("5", "0"):
        with pytest.raises(DegenerateDegrees, match="nonconstant"):
            trace_proof(parse_rational_expr(text, 31), 31, 3, 5)


def test_trace_proof_window_empty_matches_level_check():
    psi = parse_rational_expr("x^2+x", 13)
    with pytest.raises(WindowEmpty):
        trace_proof(psi, 13, 3, 4)


def test_trace_proof_support_cap():
    psi = parse_rational_expr("(x^2+1)/(x+2)", 31)  # s = 7
    with pytest.raises(PreconditionViolated):
        trace_proof(psi, 31, 3, 5)


def test_trace_proof_lambda_exhaustion():
    # T = 2 subgroup of F_31* is {1, 30}; force both lambdas exceptional
    psi = parse_rational_expr("x^2+x", 31)
    with pytest.raises(LambdaSetExhausted):
        trace_proof(psi, 31, 3, 2, exceptional={1, 30})


def test_lambda_exhaustion_counts_only_the_exceptional_values_in_g():
    # 2 is outside {1, 30}, so {1, 2, 30} still leaves no λ in G
    psi = parse_rational_expr("x^2+x", 31)
    with pytest.raises(LambdaSetExhausted):
        trace_proof(psi, 31, 3, 2, exceptional={1, 2, 30})


def test_trace_integer_identity_holds_only_nonzero_terms():
    # the denominator x^2 + 1 has a zero coefficient, so F and G have two
    # terms each, not three
    tr = trace_proof(parse_rational_expr("1/(x^2+1)", 31), 31, 3, 5)
    assert sorted(tr.F_int) == [(0, 0), (0, 2)]
    assert sorted(tr.G_int) == [(0, 0), (2, 0)]
    assert all(tr.F_int.values()) and all(tr.G_int.values())


def test_standard_sweep_shape_and_determinism():
    cells = standard_sweep_cells()
    assert len(cells) == 360
    sub = [c for c in cells if c["p"] == 31 and c["H"] == 3 and c["psi"] == "x^2+x"]
    rows_a = run_sweep(sub)
    rows_b = run_sweep(sub)
    assert rows_a == rows_b
    assert [r.T for r in rows_a] == [2, 3, 5, 6, 10, 15]
    ok = [r for r in rows_a if r.status == "ok"]
    assert ok, "expected completed traces at p = 31, H = 3"
    for r in rows_a:
        assert r.N is not None and r.N <= min(r.H, r.T)


def test_sweep_records_errors_without_aborting():
    rows = run_sweep([
        {"p": 31, "psi": "x^2+x", "H": 3, "T": 5},
        {"p": 31, "psi": "x^2", "H": 3, "T": 5},
        {"p": 31, "psi": "x^2+x", "H": 30, "T": 5},
        {"p": 31, "psi": "(x^2+1)/(x+2)", "H": 3, "T": 5},
        {"p": 31, "psi": "(x^2+1)/(", "H": 3, "T": 5},
        {"p": 31, "psi": "(x^2+1)/(", "H": 4, "T": 5},
        {"p": 3, "psi": "x^3+x", "H": 2, "T": 2},
        {"p": 31, "psi": "x^2+x", "H": 3, "T": 5, "u": 2},
    ])
    assert len(rows) == 8
    statuses = {(r.d, r.e, r.H): r.status for r in rows if r.u == 0}
    assert statuses[(2, 0, 3)] == "ok"
    assert statuses[(2, 0, 30)] == "window-empty"
    assert statuses[(2, 1, 3)] == "error"
    perfect = [r for r in rows if r.status == "perfect-power"]
    assert len(perfect) == 1 and perfect[0].N is not None
    by_cell = {(r.p, r.d, r.e, r.H, r.u): r for r in rows}

    # a ψ that does not parse: one error row per cell, with the parser's message
    with pytest.raises(ParseError) as parse_error:
        parse_rational_expr("(x^2+1)/(", 31)
    for H in (3, 4):
        row = by_cell[(31, None, None, H, 0)]
        assert (row.status, row.error) == ("error", str(parse_error.value))
        assert row.N is None

    # a λ-scan refusal other than a perfect power: an error row that still counts N
    row = by_cell[(3, 3, 0, 2, 0)]
    assert (row.status, row.error) == ("error", "need p > deg f + deg g = 3, got p = 3")
    assert row.N == 2 and row.lambda_count is None

    # a shifted cell is traced on ψ(x + u); x^2+x on {3, 4, 5} misses the order-5 subgroup
    row = by_cell[(31, 2, 0, 3, 2)]
    assert row.status == "ok" and row.N == 0


def test_sweep_single_and_empty():
    rows = run_sweep([{"p": 13, "psi": "x^2+x", "H": 3, "T": 4}])
    assert len(rows) == 1
    assert rows[0].N == 1  # the hand-checked count
    assert rows[0].status == "window-empty"
    assert run_sweep([]) == []


def test_sweep_parallel_matches_serial():
    cells = [c for c in standard_sweep_cells() if c["p"] == 31][:40]
    assert run_sweep(cells, jobs=2) == run_sweep(cells, jobs=1)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_sweep_pool_matches_serial_under_each_start_method(method):
    # the pool tests above run under the platform default, fork on Linux
    r = _python("-c", (
        "import multiprocessing\n"
        "from subgroup_values.pipeline import run_sweep, standard_sweep_cells\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "cells = standard_sweep_cells()\n"
        "print(run_sweep(cells, jobs=2) == run_sweep(cells, jobs=1))\n"
    ))
    assert r.stdout == "True\n"


TWO_GROUPS = [
    {"p": 13, "psi": "x^2+x", "H": 3, "T": 4},
    {"p": 31, "psi": "x^2+x", "H": 3, "T": 5},
    {"p": 31, "psi": "x^2+x", "H": 3, "T": 6},
]


def test_sweep_starts_no_more_workers_than_groups(monkeypatch):
    started = []
    start = multiprocessing.Process.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.Process, "start", counted)
    serial = run_sweep(TWO_GROUPS, jobs=1)
    assert started == []
    assert run_sweep(TWO_GROUPS, jobs=16) == serial
    assert len(started) == 2
    # one group runs in this process, whatever jobs asks for
    assert run_sweep(TWO_GROUPS[1:], jobs=2) == serial[1:]
    assert len(started) == 2
    assert multiprocessing.active_children() == []


def _fail_at_p31(monkeypatch, fail):
    evaluate = pipeline._evaluate_group

    def failing(p, psi_text, cells):
        if p == 31:
            fail()
        return evaluate(p, psi_text, cells)

    monkeypatch.setattr(pipeline, "_evaluate_group", failing)


def test_sweep_raises_the_exception_a_worker_raised(monkeypatch, budget):
    def boom():
        raise ValueError("boom")

    _fail_at_p31(monkeypatch, boom)
    with budget(30), pytest.raises(ValueError, match="^boom$"):
        run_sweep(TWO_GROUPS, jobs=2)
    assert multiprocessing.active_children() == []


def test_sweep_names_the_exit_code_of_a_worker_that_died(monkeypatch, budget):
    _fail_at_p31(monkeypatch, lambda: os._exit(3))
    with budget(30), pytest.raises(RuntimeError, match="exited with code 3"):
        run_sweep(TWO_GROUPS, jobs=2)
    assert multiprocessing.active_children() == []


def _choose_lambda_by_walking_g(psi, H, G, exceptional):
    """The reference λ choice: count the congruent pairs of every admissible
    λ in G, in increasing order, and keep the first with the most."""
    best_lam = None
    best_pairs = None
    for lam in G.elements():
        if lam in exceptional:
            continue
        pairs = congruent_pairs(psi, lam, H, G.p)
        if best_pairs is None or len(pairs) > len(best_pairs):
            best_lam, best_pairs = lam, pairs
    if best_lam is None:
        raise LambdaSetExhausted("every λ in G is exceptional")
    return best_lam, len(best_pairs)


def _values(psi, H):
    return [psi.eval_raw(x) for x in range(1, H + 1)]


def _nonzero_ratios(psi, H, G):
    """Every ψ(x)/ψ(y) in G over nonzero values on [1, H]."""
    p = G.p
    vals = [v for v in map(psi.eval_raw, range(1, H + 1)) if v]
    return {v * pow(w, -1, p) % p for v in vals for w in vals} & set(G.elements())


def test_lambda_choice_matches_the_walk_over_g():
    # every prime below 200, the λ-scan oracle maps plus one with a pole and one
    # with a zero of ψ inside [1, H], shifted as sweep cells shift them, random
    # H and T, and exceptional sets that leave the bucket count, the fallback
    # to the smallest admissible element, or nothing at all
    rng = random.Random(20261018)
    maps = ORACLE_MAPS + ("(x^2+1)/(x-2)", "x^2-3*x")
    fallbacks = Counter()
    exhausted = 0
    for p in filter(is_prime, range(5, 200)):
        orders = [t for t in range(1, p) if (p - 1) % t == 0]
        for expr in maps:
            psi = parse_rational_expr(expr, p)
            u = rng.randrange(p) if rng.random() < 0.3 else 0
            cell = psi.shift(u) if u else psi
            H = rng.randint(2, min(p - 1, 24))
            G = subgroup_of_order(p, rng.choice(orders))
            elements = G.elements()
            ratios = _nonzero_ratios(cell, H, G)
            for exceptional in (
                set(),
                set(rng.sample(elements, rng.randint(0, len(elements)))) | {p + 1},
                ratios,
                set(elements),
            ):
                try:
                    want = _choose_lambda_by_walking_g(cell, H, G, exceptional)
                except LambdaSetExhausted:
                    with pytest.raises(LambdaSetExhausted):
                        pipeline._choose_lambda(cell, _values(cell, H), G, exceptional)
                    exhausted += 1
                    continue
                assert pipeline._choose_lambda(cell, _values(cell, H), G, exceptional) == want, (expr, p, u, H, G.order)
                if ratios <= exceptional:
                    fallbacks[G.order ** 2 <= p] += 1
    assert fallbacks[True] and fallbacks[False] and exhausted

    # ψ vanishes on all of [1, 2], so every λ has the same four pairs and the
    # fallback takes λ = 1
    psi = parse_rational_expr("x^2-3*x+2", 101)
    for T in (5, 100):
        G = subgroup_of_order(101, T)
        assert pipeline._choose_lambda(psi, _values(psi, 2), G, set()) == (1, 4)
        assert _choose_lambda_by_walking_g(psi, 2, G, set()) == (1, 4)


def test_sweep_validates_and_levels_each_group_once(monkeypatch):
    calls = Counter()
    levels_args = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def levels(p, H, exp):
        levels_args[(p, exp.d, exp.e, H)] += 1
        return select_test_levels(p, H, exp)

    monkeypatch.setattr(pipeline, "perfect_power_exponent",
                        counted("perfect_power_exponent", pipeline.perfect_power_exponent))
    monkeypatch.setattr(pipeline, "congruent_pairs", counted("congruent_pairs", pipeline.congruent_pairs))
    monkeypatch.setattr(pipeline, "select_test_levels", levels)
    rows = run_sweep(standard_sweep_cells())
    ok = sum(r.status == "ok" for r in rows)
    assert ok == 58
    assert calls["perfect_power_exponent"] == 0
    assert levels_args and max(levels_args.values()) == 1
    assert calls["congruent_pairs"] == ok


def test_sweep_finds_each_primitive_root_once(monkeypatch):
    calls = Counter()

    def factors(n):
        calls[n] += 1
        return prime_factors(n)

    monkeypatch.setattr(counting, "prime_factors", factors)
    counting.smallest_primitive_root.cache_clear()
    run_sweep(standard_sweep_cells())
    primes = {c["p"] for c in standard_sweep_cells()}
    assert {p - 1: calls[p - 1] for p in primes} == {p - 1: 1 for p in primes}


def test_sweep_builds_each_subgroup_once_per_group(monkeypatch):
    calls = Counter()

    def subgroup(p, T):
        calls[(p, T)] += 1
        return subgroup_of_order(p, T)

    # T = 7 does not divide 30: both of its cells get the same error row
    cells = [c for c in standard_sweep_cells() if c["p"] == 31]
    cells += [{"p": 31, "psi": "x^2+x", "H": H, "T": 7} for H in (3, 4)]
    alone = sorted((row for c in cells for row in run_sweep([c])), key=ReportRow.sort_key)
    monkeypatch.setattr(pipeline, "subgroup_of_order", subgroup)
    assert run_sweep(cells) == alone
    # one call per T ∈ {2, 3, 5, 6, 10, 15} in each of the three ψ groups, and one for T = 7
    assert sum(calls.values()) == 19
    assert calls[(31, 7)] == 1 and set(calls.values()) == {1, 3}
    with pytest.raises(OrderDoesNotDivide) as refusal:
        subgroup_of_order(31, 7)
    refused = [r for r in alone if r.T == 7]
    assert [(r.status, r.error, r.N) for r in refused] == [("error", str(refusal.value), None)] * 2


def test_trace_proof_reads_psi_once_for_its_values_and_count(monkeypatch):
    # ψ's values on [1, H] feed both the count and the λ choice;
    # congruent_pairs reads them again as the independent cross-check
    reads = Counter()
    eval_raw = RationalFunc.eval_raw

    def counting_eval_raw(psi, x):
        reads[sys._getframe(1).f_code.co_name] += 1
        return eval_raw(psi, x)

    monkeypatch.setattr(RationalFunc, "eval_raw", counting_eval_raw)
    # a plain case, a zero of ψ at x = 3 and a pole at x = 2
    for text, p, H, T in (("x^2+x", 31, 3, 5), ("x^2-3*x", 101, 5, 20), ("1/(x^2-4)", 61, 5, 12)):
        psi = parse_rational_expr(text, p)
        exceptional = {int(w.lam) for w in exceptional_lambdas(psi, p).exceptional}
        reads.clear()
        tr = trace_proof(psi, p, H, T, exceptional=exceptional)
        assert dict(reads) == {"trace_proof": H, "congruent_pairs": H}
        G = subgroup_of_order(p, T)
        assert (tr.count, tr.witnesses) == count_values_in_subgroup(psi, Interval(0, H), G)


def test_trace_proof_never_walks_a_large_subgroup(monkeypatch):
    p, H = 101, 3
    psi = parse_rational_expr("x^2+x", p)
    cases = []
    for T in (50, 100):
        G = subgroup_of_order(p, T)
        cases.append((T, None, _choose_lambda_by_walking_g(psi, H, G, {1})))
        ratios = _nonzero_ratios(psi, H, G)
        cases.append((T, ratios, _choose_lambda_by_walking_g(psi, H, G, ratios)))

    def walk(self):
        raise AssertionError(f"walked the order-{self.order} subgroup")

    monkeypatch.setattr(Subgroup, "elements", walk)
    for T, exceptional, want in cases:
        tr = trace_proof(psi, p, H, T, exceptional=exceptional)
        assert (tr.chosen_lambda, tr.pair_count) == want


def _rows_by_counting_each_cell(cells):
    """The reference sweep: each cell counts N with count_values_in_subgroup
    on u+1..u+H and traces ψ(x + u) with the public trace_proof."""
    groups: dict = {}
    for c in cells:
        groups.setdefault((c["p"], c["psi"]), []).append(c)
    rows = []
    for (p, text), grp in groups.items():
        psi = parse_rational_expr(text, p)
        report = exceptional_lambdas(psi, p)
        lam_set = {int(w.lam) for w in report.exceptional}
        exp = exponent_set(psi.d, psi.e)
        for c in grp:
            H, T, u = c["H"], c["T"], c["u"]
            N = bound = ratio = None
            status, error = STATUS_OK, ""
            try:
                G = subgroup_of_order(p, T)
                N = count_values_in_subgroup(psi, Interval(u, H), G).count
                bound = value_count_bound(exp, p, H, T)
                ratio = N / bound
                trace_proof(psi.shift(u) if u else psi, p, H, T, exceptional=lam_set)
            except WindowEmpty as ex:
                status, error = STATUS_WINDOW_EMPTY, str(ex)
            except SubgroupValuesError as ex:
                status, error = STATUS_ERROR, str(ex)
            rows.append(ReportRow(
                p=p, d=psi.num.degree, e=psi.den.degree, H=H, T=T, u=u, N=N, bound=bound,
                ratio=ratio, lambda_count=report.count, status=status, error=error,
            ))
    rows.sort(key=ReportRow.sort_key)
    return rows


def test_sweep_reads_each_window_once_and_matches_counting_each_cell(monkeypatch):
    # the standard cells, and shifts u = 0, 2 and p - H, the last refused
    # because u + H reaches p; H = 8 comes first, so shorter windows read
    # a prefix of the values already read
    shifted = [
        {"p": p, "psi": psi, "H": H, "T": T, "u": u}
        for p in (31, 61, 101)
        for psi in ("x^2+x", "x^3+x", "(x^2+1)/(x+2)")
        for H in (8, 3, 5)
        for T in (t for t in range(2, 21) if (p - 1) % t == 0)
        for u in (0, 2, p - H)
    ]
    want = {}
    for name, cells in (("standard", standard_sweep_cells()), ("shifted", shifted)):
        want[name] = _rows_by_counting_each_cell(cells)

    def recount(*args):
        raise AssertionError("the sweep recounted a window with count_values_in_subgroup")

    reads = Counter()
    eval_raw = RationalFunc.eval_raw

    def counting_eval_raw(psi, x):
        reads[sys._getframe(1).f_code.co_name] += 1
        return eval_raw(psi, x)

    shifts = Counter()
    shift = RationalFunc.shift

    def counting_shift(psi, a):
        shifts[(psi.ctx.p, psi.num.degree, psi.den.degree, a)] += 1
        return shift(psi, a)

    monkeypatch.setattr(counting, "count_values_in_subgroup", recount)
    monkeypatch.setattr(RationalFunc, "eval_raw", counting_eval_raw)
    assert run_sweep(standard_sweep_cells()) == want["standard"]
    monkeypatch.setattr(RationalFunc, "shift", counting_shift)
    rows = run_sweep(shifted)
    assert rows == want["shifted"]
    # ψ(x + u) is built once per (p, ψ, u) with a traced cell, and only then;
    # every trace of this grid completes, so the traced cells are the ok rows
    traced = {(r.p, r.d, r.e, r.u) for r in rows if r.u and r.status == STATUS_OK}
    assert traced and shifts == Counter(traced)
    # each sweep reads ψ once per point of each (p, ψ, u) window, which runs
    # over u+1..u+H for the largest H
    points = 0
    for cells in (standard_sweep_cells(), shifted):
        windows = Counter()
        for c in cells:
            if c["u"] + c["H"] < c["p"]:
                key = (c["p"], c["psi"], c["u"])
                windows[key] = max(windows[key], c["H"])
        points += sum(windows.values())
    assert reads["_evaluate_group"] == points
    assert reads["count_values_in_subgroup"] == 0
    by_u = Counter((r.u == 2, r.status) for r in rows if r.u != r.p - r.H)
    assert by_u[(True, STATUS_OK)] and by_u[(False, STATUS_OK)]
    refused = [r for r in rows if r.u == r.p - r.H]
    assert refused
    for r in refused:
        assert (r.status, r.N) == (STATUS_ERROR, None)
        assert r.error == f"interval {r.u}+1..{r.u}+{r.H} leaves [0, {r.p}) and wrap is off"


def test_sweep_keeps_the_bytes_of_every_kind_of_row(tmp_path, capsys):
    # one cell per way a row is made: an unparseable ψ, a p that is not prime,
    # a constant ψ, a perfect power, a degree above the scan's, p <= deg f +
    # deg g, the scan cap, a T not dividing p - 1, a window leaving [0, p),
    # H below 2, the support cap, an empty window, a repeated cell and shifted
    # cells, with cells that meet two refusals at once; the stdout was recorded
    # for each format and job count before the sweep kept each input as its
    # value or its refusal
    golden = json.loads((Path(__file__).parent / "data" / "sweep_rows.json").read_text())
    cells = golden["cells"]
    statuses = {r.status for r in run_sweep(cells)}
    assert statuses == {STATUS_OK, STATUS_ERROR, STATUS_WINDOW_EMPTY, STATUS_PERFECT_POWER}
    config = tmp_path / "cells.json"
    config.write_text(json.dumps(cells))
    assert [f"{fmt} --jobs {jobs}" for fmt in ("text", "csv", "json") for jobs in (1, 2)] == list(golden["stdout"])
    for key, want in golden["stdout"].items():
        fmt, jobs = key.split(" --jobs ")
        assert cmd_dispatch(["sweep", "--config", str(config), "--format", fmt, "--jobs", jobs]) == 0
        assert capsys.readouterr() == (want, ""), key


def test_a_kept_refusal_keeps_a_short_traceback(monkeypatch):
    # a refusal is kept once per group and raised again by every cell that
    # needs it; each raise must start a fresh traceback
    refusal = OrderDoesNotDivide("7 does not divide p - 1 = 30")

    def subgroup(p, T):
        if (p, T) == (31, 7):
            raise refusal
        return subgroup_of_order(p, T)

    monkeypatch.setattr(pipeline, "subgroup_of_order", subgroup)
    rows = run_sweep([{"p": 31, "psi": "x^2+x", "H": 3, "T": 7}] * 1000)
    assert len(rows) == 1000
    assert {(r.status, r.error, r.N) for r in rows} == {(STATUS_ERROR, str(refusal), None)}
    assert len(traceback.extract_tb(refusal.__traceback__)) < 5


def test_a_window_with_no_constant_names_none():
    # (d, e) = (1, 0) has rho = 1/2, so no constant c opens the window
    with pytest.raises(WindowEmpty) as exc:
        select_test_levels(2, 2, exponent_set(1, 0))
    assert exc.value.effective_c is None


def test_serial_sweep_reads_each_support_from_its_levels(monkeypatch):
    calls = Counter()
    support, floor = pipeline.support_set, Surd.floor

    def counted_support(ell, m):
        calls["support_set"] += 1
        return support(ell, m)

    def counted_floor(self):
        calls["floor"] += 1
        return floor(self)

    monkeypatch.setattr(pipeline, "support_set", counted_support)
    monkeypatch.setattr(Surd, "floor", counted_floor)
    run_sweep(standard_sweep_cells())
    # one support and one exact product check per level selection built
    assert calls == {"support_set": 9, "floor": 9}


def test_sweep_worker_answers_each_task_in_process():
    conn, child = multiprocessing.Pipe()
    task = (31, "x^2+x", TWO_GROUPS[1:])
    no_order = (31, "x^2+x", [{"p": 31, "psi": "x^2+x", "H": 3}])
    for message in (task, no_order, None):
        conn.send(message)
    pipeline._sweep_worker(child)
    assert conn.recv() == pipeline._evaluate_group(*task)
    error = conn.recv()
    assert type(error) is KeyError and error.args == ("T",)
    assert not conn.poll()
    conn.close()
    child.close()


def test_sweep_waits_on_the_worker_pipes_alone(monkeypatch, budget):
    waited = []
    wait = pipeline.wait

    def recorded(objects, timeout=None):
        waited.extend(objects)
        return wait(objects, timeout)

    monkeypatch.setattr(pipeline, "wait", recorded)
    with budget(30):
        assert run_sweep(TWO_GROUPS, jobs=2) == run_sweep(TWO_GROUPS, jobs=1)
    assert waited
    assert all(isinstance(o, multiprocessing.connection.Connection) for o in waited)


# Patched at module level, so that a worker started by spawn or forkserver,
# which imports this script as __mp_main__, kills itself as a forked one does.
_KILLED_WORKER_SCRIPT = """\
import multiprocessing, os, signal, sys
from subgroup_values import pipeline

evaluate = pipeline._evaluate_group


def dying(p, psi_text, cells):
    if p == 31:
        os.kill(os.getpid(), signal.SIGKILL)
    return evaluate(p, psi_text, cells)


pipeline._evaluate_group = dying

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    try:
        pipeline.run_sweep(pipeline.standard_sweep_cells(), jobs=2)
    except RuntimeError as ex:
        print(ex)
    print(multiprocessing.active_children())
"""


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_sweep_names_the_signal_that_killed_a_worker(tmp_path, budget, method):
    script = tmp_path / "killed_worker.py"
    script.write_text(_KILLED_WORKER_SCRIPT)
    with budget(60):
        r = _python(str(script), method)
    assert r.stdout == "a sweep worker exited with code -9\n[]\n"


def test_parallel_rows_that_tie_come_out_in_the_serial_order(monkeypatch, budget):
    # both maps have (d, e) = (2, 0), so their rows tie under the sort, and
    # their counts differ; x^2+x, sent first, finishes first here
    cells = [{"p": 31, "psi": psi, "H": 3, "T": 6} for psi in ("x^2+x", "x^2+2*x")]
    serial = run_sweep(cells)
    assert [r.N for r in serial] == [0, 1]  # "x^2+2*x" < "x^2+x": its group runs first
    evaluate = pipeline._evaluate_group

    def held_back(p, psi_text, cells):
        if psi_text == "x^2+2*x":
            time.sleep(0.3)
        return evaluate(p, psi_text, cells)

    monkeypatch.setattr(pipeline, "_evaluate_group", held_back)
    with budget(30):
        assert run_sweep(cells, jobs=2) == serial
    assert multiprocessing.active_children() == []


def test_trace_proof_takes_both_ends_of_its_window():
    # H = 2 is the smallest window a trace accepts, and H = p is refused
    psi = parse_rational_expr("x^2+x", 31)
    tr = trace_proof(psi, 31, 2, 5)
    assert (tr.chosen_lambda, tr.pair_count) == (2, 0)
    with pytest.raises(PreconditionViolated, match="need 2 <= H < p"):
        trace_proof(psi, 31, 31, 5)


def test_trace_with_no_pairs_meets_a_zero_lower_bound():
    # ψ = x^2+x takes 2, 6, 12 on [1, 3]; with 1, 2 and 16 exceptional the
    # order-5 subgroup {1, 2, 4, 8, 16} leaves no ratio, so the fallback takes
    # λ = 4, which has no pair: 0 pairs meet rt_lower = 0
    psi = parse_rational_expr("x^2+x", 31)
    tr = trace_proof(psi, 31, 3, 5, exceptional={1, 2, 16})
    assert (tr.chosen_lambda, tr.pair_count, tr.rt_lower) == (4, 0, 0)
    assert tr.rt_ok is True
    assert (tr.pairs_z, tr.z_max) == ((), 0)


def test_trace_second_pass_catches_a_wrong_column_value(monkeypatch):
    # the first pass evaluates F and G whole; a Horner that is off by one on
    # the F side alone must fail the second pass
    psi = parse_rational_expr("x^2+x", 31)
    assert trace_proof(psi, 31, 3, 5).pairs_z
    horner = pipeline._int_horner
    calls = itertools.count()
    monkeypatch.setattr(pipeline, "_int_horner", lambda col, y: horner(col, y) + (next(calls) % 2 == 0))
    with pytest.raises(AssertionError):
        trace_proof(psi, 31, 3, 5)


def test_trace_proof_reads_its_exceptional_set_mod_p():
    # 32 and -30 are λ = 1, which X - Y always makes exceptional; 0 and 31
    # are λ = 0, refused as congruent_pairs refuses it
    psi = parse_rational_expr("x^2+x", 31)
    want = trace_proof(psi, 31, 3, 5, exceptional={1})
    assert want.chosen_lambda != 1
    for exceptional in ({32}, {-30}, {1, 32}):
        assert trace_proof(psi, 31, 3, 5, exceptional=exceptional) == want
    for exceptional in ({0, 1}, {31}):
        with pytest.raises(ZeroLambda):
            trace_proof(psi, 31, 3, 5, exceptional=exceptional)


def test_select_test_levels_refuses_a_window_of_one():
    # at H = 1 every level would be U = (2 p^(s-1))^(1/s) < p, so only the
    # precondition refuses it
    with pytest.raises(PreconditionViolated, match="H must be >= 2, got 1"):
        select_test_levels(31, 1, exponent_set(2, 0))


def test_select_test_levels_checks_the_level_product(monkeypatch):
    # one pair (i, j) moved to (i + 1, j) divides the level product by H,
    # which the exact product check must refuse
    def shifted(ell, m):
        support = support_set(ell, m)
        (i, j), *rest = support.pairs
        return support._replace(pairs=((i + 1, j), *rest))

    monkeypatch.setattr(pipeline, "support_set", shifted)
    with pytest.raises(AssertionError):
        select_test_levels(101, 2, exponent_set(2, 0))


def test_trace_checks_the_bucket_count_against_the_pairs(monkeypatch):
    # x^2+x at p = 31, H = 3, T = 5 has one pair; congruent_pairs made to
    # lose it must fail the check against the bucket count
    monkeypatch.setattr(pipeline, "congruent_pairs", lambda *args: [])
    with pytest.raises(AssertionError, match="bucket count disagrees"):
        trace_proof(parse_rational_expr("x^2+x", 31), 31, 3, 5)


def test_trace_proof_refuses_a_perfect_power_without_the_scan():
    # with the exceptional set given, the scan's own refusal never runs
    with pytest.raises(PerfectPowerInput):
        trace_proof(parse_rational_expr("x^2", 31), 31, 3, 5, exceptional={1})


def test_trace_lower_bound_is_positive_past_four_m_cubed():
    # x^2+x (m = 2) at p = 10007, H = 70, T = (p - 1)/2 has N = 34 values in
    # G, past 4 m^3 = 32, so rt_lower = (N^2 - 4 m^3 N) / T = 68 / 5003
    tr = trace_proof(parse_rational_expr("x^2+x", 10007), 10007, 70, 5003)
    assert (tr.count, tr.rt_lower) == (34, Fraction(68, 5003))
    assert tr.rt_ok and tr.pair_count == 4


def test_trace_reads_a_missing_coefficient_as_zero():
    # F_λ = f(X) - λ f(Y) for f = x^2 + c has no X^0 Y^1 term, so row 1 is
    # empty and the support pair (0, 1) must read b = 0; the multiplier is
    # the one of the b read off F_λ's terms
    from subgroup_values.lambda_scan import build_sym_poly
    from subgroup_values.lattices import SmallResidueInstance, find_small_residue_multiplier

    for expr, p, H, T in (("x^2+1", 31, 3, 5), ("x^2+3", 61, 4, 5)):
        tr = trace_proof(parse_rational_expr(expr, p), p, H, T)
        terms = build_sym_poly(tr.psi, tr.chosen_lambda).terms
        assert (0, 1) in tr.levels.levels and (0, 1) not in terms
        b = [int(terms.get(pair, 0)) for pair in tr.levels.levels]
        inst = SmallResidueInstance(p, b, tuple(tr.levels.levels.values()))
        assert tr.multiplier == find_small_residue_multiplier(inst)


def test_trace_first_pass_catches_a_wrong_integer_value(monkeypatch):
    # F evaluated one too high makes F - G miss a multiple of p
    evaluate = pipeline._eval_int_bipoly
    calls = itertools.count()
    monkeypatch.setattr(pipeline, "_eval_int_bipoly", lambda terms, x, y: evaluate(terms, x, y) + (next(calls) % 2 == 0))
    with pytest.raises(AssertionError, match="congruent pair fails the integer congruence"):
        trace_proof(parse_rational_expr("x^2+x", 31), 31, 3, 5)
