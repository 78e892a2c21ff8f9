"""The repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads are listed in perfbench/README.md
and in BENCHMARK.json. Every pass runs in a fresh interpreter (worker.py), and
passes repeat until S seconds have gone and at least two have run. With
--trace 0 the passes are untraced and the last line of standard output holds
the end-to-end metrics; with --trace 1 passes alternate between untraced and
traced, and the last line holds the per-layer metrics, the tracing overhead
among them. The line before it holds the run's metadata. A full record of the
run, and the spans of the last traced pass, go to .perfbench_out/.

The benchmark exits with status 1, printing no result, when the program's
sources are missing or a pass does not complete.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 8  # set-up-only interpreters per run, besides one per pass
MIN_PASSES = 2
PASS_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit, better. Every per-layer metric is printed for every workload; a
# layer or part a workload never runs reads 0. The first group holds the
# parts of a pass, timed from the untraced passes.
PER_LAYER = (
    ("fail_ratio", "ratio", "lower"),
    ("wall_jobs2_s", "s", "lower"),
    ("scan_quadratic_s", "s", "lower"),
    ("scan_cubic_s", "s", "lower"),
    ("scan_quartic_s", "s", "lower"),
    ("scan_rational_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("op_samples", "count", "higher"),
    ("scan.quadratic.ext_calls", "count", "lower"),
    ("scan.quadratic.ext_share", "ratio", "lower"),
    ("scan.cubic.ext_calls", "count", "lower"),
    ("scan.cubic.ext_share", "ratio", "lower"),
    ("scan.quartic.ext_calls", "count", "lower"),
    ("scan.quartic.ext_share", "ratio", "lower"),
    ("scan.rational.ext_calls", "count", "lower"),
    ("scan.rational.ext_share", "ratio", "lower"),
    ("factorization.find_proper_factor.ext.calls", "count", "lower"),
    ("factorization.find_proper_factor.ext.self_s", "s", "lower"),
    ("factorization.find_proper_factor.ext.hit_ratio", "ratio", "higher"),
    ("factorization.find_proper_factor.base.calls", "count", "lower"),
    ("factorization.find_proper_factor.base.self_s", "s", "lower"),
    ("factorization.is_absolutely_irreducible.self_s", "s", "lower"),
    ("factorization.embed_bipoly.calls", "count", "lower"),
    ("factorization.embed_bipoly.self_s", "s", "lower"),
    ("factorization.perfect_power_exponent.calls", "count", "lower"),
    ("factorization.perfect_power_exponent.self_s", "s", "lower"),
    ("lambda_scan.exceptional_lambdas.calls", "count", "lower"),
    ("lambda_scan.exceptional_lambdas.self_s", "s", "lower"),
    ("lambda_scan.build_sym_poly.calls", "count", "lower"),
    ("lambda_scan.build_sym_poly.self_s", "s", "lower"),
    ("lambda_scan.lambdas_tested", "count", "lower"),
    ("lambda_scan.exceptional_ratio", "ratio", "higher"),
    ("fields.FieldCtx.rinv.calls", "count", "lower"),
    ("fields.FieldCtx.rinv.self_s", "s", "lower"),
    ("fields.ext_field_build.calls", "count", "lower"),
    ("fields.ext_field_build.self_s", "s", "lower"),
    ("polynomials.BiPoly.try_divide.calls", "count", "lower"),
    ("polynomials.BiPoly.try_divide.self_s", "s", "lower"),
    ("lattices.find_small_residue_multiplier.calls", "count", "lower"),
    ("lattices.find_small_residue_multiplier.self_s", "s", "lower"),
    ("lattices.find_small_residue_multiplier.deadline_hits", "count", "lower"),
    ("lattices.find_small_residue_multiplier.s2.p50_ms", "ms", "lower"),
    ("lattices.find_small_residue_multiplier.s3.p50_ms", "ms", "lower"),
    ("lattices.find_small_residue_multiplier.s4.p50_ms", "ms", "lower"),
    ("lattices.find_small_residue_multiplier.s5.p50_ms", "ms", "lower"),
    ("lattices.find_small_residue_multiplier.s6.p50_ms", "ms", "lower"),
    ("lattices.build_red_basis.self_s", "s", "lower"),
    ("surd.Surd.floor.calls", "count", "lower"),
    ("surd.Surd.floor.self_s", "s", "lower"),
    ("pipeline.select_test_levels.calls", "count", "lower"),
    ("pipeline.select_test_levels.self_s", "s", "lower"),
    ("counting.count_values_in_subgroup.calls", "count", "lower"),
    ("counting.count_values_in_subgroup.self_s", "s", "lower"),
    ("counting.congruent_pairs.calls", "count", "lower"),
    ("counting.congruent_pairs.self_s", "s", "lower"),
    ("counting.subgroup_of_order.calls", "count", "lower"),
    ("counting.subgroup_of_order.self_s", "s", "lower"),
    ("pipeline.trace_proof.calls", "count", "lower"),
    ("pipeline.trace_proof.self_s", "s", "lower"),
    ("pipeline.trace_proof.ok_ratio", "ratio", "higher"),
    ("pipeline.pairs_verified", "count", "higher"),
    ("pipeline.nonvacuous_traces", "count", "higher"),
    ("pipeline.run_sweep.speedup", "ratio", "higher"),
    ("pipeline.run_sweep.max_group_share", "ratio", "lower"),
    ("pipeline.run_sweep.idle_s", "s", "lower"),
    ("parsing.parse_rational_expr.self_s", "s", "lower"),
    ("reporting.emit_report.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def spawn(root: Path, workload: str, seed: int, mode: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(root), workload, str(seed), mode]
    spawned_at = time.perf_counter()
    proc = subprocess.run(
        cmd + [repr(spawned_at)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} of {workload} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: str, untraced: list, traced: list) -> dict:
    """Per-layer metrics: medians over the traced passes, except where a metric
    needs untraced timings (parallel sweep, operation latencies, overhead)."""

    def per_pass(p) -> dict:
        layers, counters = p["layers"], p["counters"]
        out = {}
        for name, _, _ in PER_LAYER:
            stem, _, field = name.rpartition(".")
            if field in ("calls", "self_s") and stem in layers:
                out[name] = layers[stem][field]
        fpf = layers.get("factorization.find_proper_factor.ext", {})
        out["factorization.find_proper_factor.ext.hit_ratio"] = ratio(fpf.get("useful", 0), fpf.get("calls", 0))
        absirr = layers.get("factorization.is_absolutely_irreducible", {})
        out["lambda_scan.lambdas_tested"] = absirr.get("calls", 0)
        out["lambda_scan.exceptional_ratio"] = ratio(absirr.get("useful", 0), absirr.get("calls", 0))
        tp = layers.get("pipeline.trace_proof", {})
        out["pipeline.trace_proof.ok_ratio"] = ratio(tp.get("useful", 0), tp.get("calls", 0))
        out["pipeline.pairs_verified"] = counters.get("pipeline.pairs_verified", 0)
        out["pipeline.nonvacuous_traces"] = counters.get("pipeline.nonvacuous_traces", 0)
        if workload == "corpus":
            out["pipeline.run_sweep.max_group_share"] = ratio(p["max_group_s"], p["parts"]["jobs1_s"])
            out["sweep_group_total_s"] = layers.get("pipeline.sweep_group", {}).get("total_s", 0.0)
        if workload == "scan":
            for cls, ext in p["ext_by_class"].items():
                out[f"scan.{cls}.ext_calls"] = ext["calls"]
                out[f"scan.{cls}.ext_share"] = ratio(ext["seconds"], p["parts"][f"{cls}_s"])
        if workload == "multiplier":
            ops = p["ops"]
            out["lattices.find_small_residue_multiplier.deadline_hits"] = sum(o["deadline"] for o in ops)
            for s in workloads.MULTIPLIER_S:
                out[f"lattices.find_small_residue_multiplier.s{s}.p50_ms"] = stats.median(
                    [latency_ms(o) for o in ops if o["s"] == s]
                )
        return out

    found = [per_pass(p) for p in traced]
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    for name in found[0]:
        if name in metrics:
            metrics[name] = stats.median([f.get(name, 0) for f in found])
    metrics["trace.overhead"] = stats.median([p["wall_s"] for p in traced]) / stats.median(
        [p["wall_s"] for p in untraced]
    )
    metrics["fail_ratio"] = ratio(sum(p["failed"] for p in untraced), sum(p["attempted"] for p in untraced))
    for part in untraced[0]["parts"]:
        if f"scan_{part}" in metrics:
            metrics[f"scan_{part}"] = stats.median([p["parts"][part] for p in untraced])
    if workload == "corpus":
        jobs1 = stats.median([p["parts"]["jobs1_s"] for p in untraced])
        jobs2 = stats.median([p["parts"]["jobs2_s"] for p in untraced])
        metrics["wall_jobs2_s"] = jobs2
        metrics["pipeline.run_sweep.speedup"] = jobs1 / jobs2
        groups = stats.median([f["sweep_group_total_s"] for f in found])
        metrics["pipeline.run_sweep.idle_s"] = 2 * jobs2 - groups
    if workload == "multiplier":
        lat = [latency_ms(o) for p in untraced for o in p["ops"]]
        metrics["op_p50_ms"] = stats.nearest_rank(lat, 50)
        if (stats.tail_percentile(len(lat)) or 0) >= 90:
            metrics["op_p90_ms"] = stats.nearest_rank(lat, 90)
        metrics["op_samples"] = len(lat)
    return metrics


def latency_ms(op) -> float:
    """A failed operation enters the latency sample as missing the deadline."""
    seconds = max(op["seconds"], workloads.DEADLINE_S) if op["failed"] else op["seconds"]
    return 1000.0 * seconds


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "subgroup_values" / "__init__.py").is_file():
        print(f"no program sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 1
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    spawn(root, args.workload, args.seed, "setup")  # compiles bytecode; not measured
    setups = [spawn(root, args.workload, args.seed, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    untraced, traced = [], []
    start = time.perf_counter()
    while len(untraced) + len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        with_trace = args.trace and len(untraced) > len(traced)
        result = spawn(root, args.workload, args.seed, "traced-pass" if with_trace else "pass")
        (traced if with_trace else untraced).append(result)
        setups.append(result["setup_s"])
    meta["loadavg_end"] = os.getloadavg()

    passes = untraced + traced
    if args.trace:
        metrics = layer_metrics(args.workload, untraced, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "setup_s": stats.median(setups),
            "wall_s": stats.median([p["wall_s"] for p in untraced]),
            "peak_rss_mb": stats.median([p["rss_mb"] for p in untraced]),
        }
        units = dict(END_TO_END)
    summary = {
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"meta": meta, "setups": setups, "untraced": untraced, "traced": traced, "summary": summary}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as ex:
        print(f"benchmark failed: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
