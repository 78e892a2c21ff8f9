"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_percentile_leaves_ten_samples_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(99) == 50.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9
    for n in range(20, 3000, 7):
        q = stats.tail_percentile(n)
        beyond = n - math.ceil(q * n / 100 - 1e-9)
        assert beyond >= 10
        higher = [c for c in stats.TAIL_CANDIDATES if c > q]
        assert all(n - math.ceil(c * n / 100 - 1e-9) < 10 for c in higher)


def test_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.nearest_rank(values, 50) == 50
    assert stats.nearest_rank(values, 90) == 90
    assert stats.nearest_rank(values, 99.9) == 100
    assert stats.nearest_rank([3.0], 90) == 3.0


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 0, True)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0, 100, -1),
        _span("b", 10, 40, 0),
        _span("c", 15, 25, 1),
        _span("b", 50, 90, 0),
        _span("a", 200, 210, -1),
    ]
    assert tracing.self_times_ns(spans) == [30, 20, 10, 40, 10]
    summary = tracing.summarize(spans)
    assert summary["a"]["calls"] == 2
    assert math.isclose(summary["a"]["self_s"], 40e-9)
    assert math.isclose(summary["b"]["total_s"], 70e-9)
    # self times of a tree add up to the time of its roots
    assert sum(tracing.self_times_ns(spans)) == 110


def test_ext_time_counts_only_outermost_extension_calls():
    ext = "factorization.find_proper_factor.ext"
    spans = [
        tracing.Span("lambda_scan.exceptional_lambdas", 0, 1000, -1, 1, True),
        tracing.Span(ext, 100, 400, 0, 1, False),
        tracing.Span(ext, 150, 300, 1, 1, True),  # recursive: counted, not timed again
        tracing.Span(ext, 500, 600, -1, 2, False),
    ]
    out = tracing.ext_by_class(spans, ["cubic", "rational", "quartic"])
    assert out["cubic"]["calls"] == 2 and math.isclose(out["cubic"]["seconds"], 300e-9)
    assert out["rational"]["calls"] == 1 and math.isclose(out["rational"]["seconds"], 100e-9)
    assert out["quartic"] == {"calls": 0, "seconds": 0.0}


def test_tracer_records_nested_and_recursive_calls():
    import types

    mod = types.ModuleType("m")

    def fact(n):
        return 1 if n <= 1 else n * mod.fact(n - 1)

    mod.fact = fact
    tracer = tracing.Tracer()
    assert tracer.wrap_function([mod], fact, "fact", useful=lambda r: r > 2) == 1
    tracer.op = 7
    assert mod.fact(4) == 24
    spans = tracer.spans
    assert [s.parent for s in spans] == [-1, 0, 1, 2]
    assert [s.useful for s in spans] == [True, True, False, False]
    assert all(s.op == 7 for s in spans)
    assert all(x >= 0 for x in tracing.self_times_ns(spans))
    tracer.uninstall()
    assert mod.fact is fact


def test_program_tracer_wraps_every_binding_and_uninstalls():
    import subgroup_values
    from subgroup_values import fields, lambda_scan, pipeline

    before = (pipeline.exceptional_lambdas, lambda_scan.is_absolutely_irreducible, fields.FieldCtx.rinv)
    tracer = tracing.Tracer()
    tracing.install_program_tracer(tracer, subgroup_values)
    try:
        assert pipeline.exceptional_lambdas is lambda_scan.exceptional_lambdas
        assert pipeline.exceptional_lambdas is not before[0]
        assert lambda_scan.is_absolutely_irreducible is not before[1]
        report = workloads.scan_pass((("quadratic", "x^2+x", 13),), tracer)[1][0]["report"]
        assert sorted(int(w.lam) for w in report.exceptional) == [1]
    finally:
        tracer.uninstall()
    after = (pipeline.exceptional_lambdas, lambda_scan.is_absolutely_irreducible, fields.FieldCtx.rinv)
    assert after == before
    names = tracing.summarize(tracer.spans)
    assert names["lambda_scan.exceptional_lambdas"]["calls"] == 1
    assert names["factorization.is_absolutely_irreducible"]["calls"] == 12
    assert names["factorization.find_proper_factor.base"]["calls"] >= 12


def test_status_may_change_only_by_leaving_error():
    assert workloads.status_allowed("ok", "ok")
    assert workloads.status_allowed("error", "window-empty")
    assert workloads.status_allowed("error", "ok")
    assert not workloads.status_allowed("ok", "error")
    assert not workloads.status_allowed("window-empty", "ok")

    ref = {"p": 31, "d": 2, "e": 1, "H": 3, "T": 5, "u": 0, "N": 1, "bound": 2.5,
           "ratio": 0.4, "lambda_count": 1, "status": "error"}
    left = dict(ref, status="window-empty")
    assert workloads.check_corpus_row(ref, left, left) == {"failed": False, "correct": True, "problem": ""}
    stays = workloads.check_corpus_row(ref, ref, ref)
    assert stays["failed"] and stays["correct"]
    wrong_n = dict(ref, N=2)
    assert not workloads.check_corpus_row(ref, wrong_n, wrong_n)["correct"]
    assert not workloads.check_corpus_row(ref, left, ref)["correct"]  # jobs=2 disagrees


def test_multiplier_instances_are_deterministic_in_the_seed():
    a = workloads.multiplier_instances(5)
    assert a == workloads.multiplier_instances(5)
    assert a != workloads.multiplier_instances(6)
    per_stratum = {}
    for tier, p, b, V in a:
        per_stratum[tier, len(b)] = per_stratum.get((tier, len(b)), 0) + 1
        assert workloads.is_prime(p)
        assert len(V) == len(b) and all(1 <= v < p for v in V)
        assert p ** (len(b) - 1) < math.prod(V) <= 2 * p ** (len(b) - 1)
    for tier, lo, hi, per_s in workloads.MULTIPLIER_TIERS:
        for s in workloads.MULTIPLIER_S:
            assert per_stratum[tier, s] == per_s
    assert all(lo <= p <= hi for tier, p, _, _ in a for t, lo, hi, _ in workloads.MULTIPLIER_TIERS if t == tier)
    assert len(a) >= 100  # ten samples beyond the 90th percentile in one pass


def test_multiplier_deadline_is_a_failed_operation():
    from subgroup_values.lattices import SmallResidueInstance

    p = 4294967291  # the integer-root stepping in lattices does not finish here for s = 6
    inst = SmallResidueInstance(p, (1, 2, 3, 5, 7, 11), (2**27,) * 5 + (p - 1,))
    easy = SmallResidueInstance(11, (1, 5), (3, 4))
    _, outputs = workloads.multiplier_pass([("wide", inst), ("small", easy)], None)
    assert outputs[0]["error"] == "deadline"
    records = workloads.check_multiplier([("wide", inst), ("small", easy)], outputs)
    assert records[0] == {"failed": True, "correct": True, "problem": "deadline"}
    assert records[1]["correct"] and not records[1]["failed"]
    assert run.latency_ms({"seconds": 0.2, "failed": True}) == 1000.0 * workloads.DEADLINE_S


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
