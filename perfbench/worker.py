"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py ROOT WORKLOAD SEED MODE SPAWNED_AT

MODE is "setup" (import and build the inputs, then stop), "pass" or
"traced-pass". SPAWNED_AT is the parent's time.perf_counter() just before it
started this interpreter; both clocks are the system's monotonic clock, so the
difference is the set-up time including interpreter start. The result is one
JSON object on the last line of standard output.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    root, workload, seed, mode, spawned_at = argv
    seed, spawned_at = int(seed), float(spawned_at)
    sys.path.insert(0, str(Path(root) / "src"))
    import subgroup_values
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    result = {"setup_s": time.perf_counter() - spawned_at}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "traced-pass":
        import tracing

        tracer = tracing.Tracer()
        tracing.install_program_tracer(tracer, subgroup_values)
    t0 = time.perf_counter()
    parts, outputs = workloads.run_pass(workload, inputs, tracer)
    result["wall_s"] = time.perf_counter() - t0
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    records = workloads.check(workload, inputs, outputs)
    result.update(
        parts=parts,
        attempted=len(records),
        failed=sum(r["failed"] for r in records),
        correct=all(r["correct"] for r in records),
        problems=[r["problem"] for r in records if r["problem"]][:20],
    )
    if workload == "multiplier":
        result["ops"] = [
            {"tier": o["tier"], "s": o["s"], "p": o["p"], "seconds": o["seconds"],
             "failed": r["failed"], "deadline": o.get("error") == "deadline"}
            for o, r in zip(outputs, records)
        ]
    if tracer:
        out_dir = Path(root) / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracing.write_spans(tracer.spans, out_dir / f"{workload}-spans.csv")
        result["layers"] = tracing.summarize(tracer.spans)
        result["counters"] = tracer.counters
        if workload == "corpus":
            groups = [s.end_ns - s.start_ns for s in tracer.spans if s.name == "pipeline.sweep_group"]
            result["max_group_s"] = max(groups, default=0) / 1e9
        if workload == "scan":
            result["ext_by_class"] = tracing.ext_by_class(tracer.spans, [cls for cls, _, _ in inputs])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
