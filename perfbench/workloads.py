"""The benchmark's workloads: their inputs, one pass of each, and the checks.

Every workload is a closed loop in one process: the next operation starts
when the previous one returns. A pass runs in a fresh interpreter (see
worker.py), so caches the program fills at run time, such as the extension
fields built by ``ext_field_build``, are paid by every pass as they are by
every command-line invocation.

Only ``multiplier`` takes its inputs from the seed; the corpus and the scan
instances are fixed by definition.
"""

import json
import math
import random
import signal
import time
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# λ-scan instances, one degree class at a time. Each polynomial class sends
# nearly every λ through an F_{p^2}/F_{p^3} retest; the (2,1) class never
# retests, so it is the control for work on the extension retest.
SCAN_INSTANCES = (
    ("quadratic", "x^2+x", 211),
    ("quadratic", "x^2+x", 401),
    ("cubic", "x^3+x", 211),  # p = 1 mod 3
    ("cubic", "x^3+x", 293),  # p = 2 mod 3
    ("quartic", "x^4+x", 101),
    ("rational", "(x^2+1)/(x+2)", 1009),
    ("rational", "(x^2+1)/(x+2)", 4409),
)
SCAN_CLASSES = ("quadratic", "cubic", "quartic", "rational")

WORKLOADS = ("corpus", "scan", "multiplier")

# Per-operation limit for the multiplier. It is a limit on the process's CPU
# time (ITIMER_PROF), so load from other processes on the machine does not
# turn a slow operation into a failure.
DEADLINE_S = 0.5

# (tier, lowest p, highest p, instances per s); s runs over 2..6 in each tier.
MULTIPLIER_TIERS = (
    ("small", 11, 2000, 20),
    ("mid", 2001, 200000, 3),
    ("wide", 2**20, 2**32 - 1, 1),
)
MULTIPLIER_S = (2, 3, 4, 5, 6)
SKELETON_SEED = 20260402
EXHAUSTIVE_P_MAX = 2000

CORPUS_FIELDS = ("p", "d", "e", "H", "T", "u", "N", "bound", "ratio", "lambda_count", "status")
STATUS_ERROR = "error"


# --- input generation ---------------------------------------------------------


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24. The benchmark
    keeps its own, so its inputs never depend on the program under test."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randint(lo, hi)
        if is_prime(n):
            return n


def _random_bounds(rng: random.Random, p: int, s: int):
    """V_1..V_s in [1, p) with p^(s-1) < prod V_i <= 2 p^(s-1), or None."""
    target = p ** (s - 1)
    side = max(2, int(target ** (1.0 / s)))
    for _ in range(50):
        V = [max(1, min(p - 1, int(side * math.exp(rng.uniform(-0.5, 0.5))))) for _ in range(s - 1)]
        rest = target // math.prod(V) + 1
        if not 1 <= rest <= p - 1:
            continue
        V.append(rest)
        rng.shuffle(V)
        if target < math.prod(V) <= 2 * target:
            return tuple(V)
    return None


def multiplier_instances(seed: int) -> list:
    """(tier, p, b, V) tuples, a fixed count per (tier, s).

    The primes and bounds are a fixed skeleton: the j-th of a stratum's n
    instances takes its prime from the j-th of n equal parts of the tier's
    range. The residues b, which shape the lattice and so the work of LLL and
    enumeration, and the order of the operations come from the seed. Whether
    the integer-root stepping in lattices hangs depends only on (p, V), so
    every seed meets the same deadline misses and the pass time depends
    little on the seed.
    """
    skeleton = random.Random(SKELETON_SEED)
    rng = random.Random(seed)
    out = []
    for tier, lo, hi, per_s in MULTIPLIER_TIERS:
        width = (hi - lo) / per_s
        for s in MULTIPLIER_S:
            for j in range(per_s):
                while True:
                    p = _random_prime(skeleton, lo + int(j * width), lo + int((j + 1) * width))
                    V = _random_bounds(skeleton, p, s)
                    if V is not None:
                        break
                b = tuple(rng.randrange(p) for _ in range(s))
                out.append((tier, p, b, V))
    rng.shuffle(out)
    return out


def make_inputs(workload: str, seed: int):
    if workload == "corpus":
        from subgroup_values.pipeline import standard_sweep_cells

        return standard_sweep_cells()
    if workload == "scan":
        return SCAN_INSTANCES
    if workload == "multiplier":
        from subgroup_values.lattices import SmallResidueInstance

        return [(tier, SmallResidueInstance(p, b, V)) for tier, p, b, V in multiplier_instances(seed)]
    raise ValueError(f"unknown workload {workload!r}")


# --- passes ----------------------------------------------------------------------
#
# A pass returns (parts, outputs): parts maps a timed part of the pass to its
# seconds, outputs is what the checks read afterwards, outside the timed region.


def corpus_pass(cells, tracer):
    from subgroup_values import pipeline, reporting

    if tracer:
        tracer.op = 1
    t0 = time.perf_counter()
    serial = pipeline.run_sweep(cells, jobs=1)
    t1 = time.perf_counter()
    if tracer:
        tracer.op = 2
    parallel = pipeline.run_sweep(cells, jobs=2)
    t2 = time.perf_counter()
    if tracer:
        tracer.op = 3
    reporting.emit_report(serial, "csv")
    t3 = time.perf_counter()
    parts = {"jobs1_s": t1 - t0, "jobs2_s": t2 - t1, "emit_s": t3 - t2}
    return parts, {"serial": serial, "parallel": parallel}


def scan_pass(instances, tracer):
    from subgroup_values import lambda_scan, parsing

    parts = {f"{c}_s": 0.0 for c in SCAN_CLASSES}
    reports = []
    for k, (cls, text, p) in enumerate(instances):
        if tracer:
            tracer.op = k + 1
        t0 = time.perf_counter()
        try:
            psi = parsing.parse_rational_expr(text, p)
            report = lambda_scan.exceptional_lambdas(psi, p)
            out = {"psi": psi, "report": report}
        except Exception as ex:  # a refusal is counted as a failed operation
            out = {"error": repr(ex)}
        parts[f"{cls}_s"] += time.perf_counter() - t0
        reports.append(out)
    return parts, reports


class DeadlineExceeded(Exception):
    pass


def _on_deadline(signum, frame):
    raise DeadlineExceeded()


def multiplier_pass(instances, tracer):
    from subgroup_values import lattices

    previous = signal.signal(signal.SIGPROF, _on_deadline)
    results = []
    try:
        for k, (tier, inst) in enumerate(instances):
            if tracer:
                tracer.op = k + 1
            outcome = {"tier": tier, "s": inst.s, "p": inst.p}
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_PROF, DEADLINE_S)
            try:
                try:
                    outcome["v"] = lattices.find_small_residue_multiplier(inst)
                finally:
                    signal.setitimer(signal.ITIMER_PROF, 0)
            except DeadlineExceeded:
                outcome["error"] = "deadline"
            except Exception as ex:  # a refusal is counted as a failed operation
                outcome["error"] = repr(ex)
            outcome["seconds"] = time.perf_counter() - t0
            results.append(outcome)
    finally:
        signal.signal(signal.SIGPROF, previous)
    return {}, results


def run_pass(workload, inputs, tracer):
    if workload == "corpus":
        return corpus_pass(inputs, tracer)
    if workload == "scan":
        return scan_pass(inputs, tracer)
    return multiplier_pass(inputs, tracer)


# --- checks ----------------------------------------------------------------------
#
# A check returns one record per operation: {"failed": bool, "correct": bool,
# ...}. An operation fails when it raises, misses its deadline, is refused by
# the program (a corpus row with status "error") or is wrong. "correct" is
# false only for a wrong output; a refusal is a failure, not a wrong answer.


def load_reference(workload: str):
    name = "corpus.json" if workload == "corpus" else "scan.json"
    return json.loads((REFERENCE_DIR / name).read_text())


def row_fields(row) -> dict:
    return {k: getattr(row, k) for k in CORPUS_FIELDS}


def status_allowed(ref_status: str, status: str) -> bool:
    """A cell keeps its recorded status, except that it may leave "error"."""
    return status == ref_status or ref_status == STATUS_ERROR


def check_corpus_row(ref: dict, row: dict, parallel_row: dict) -> dict:
    problems = [k for k in ("N", "bound", "ratio", "lambda_count") if row[k] != ref[k]]
    if not status_allowed(ref["status"], row["status"]):
        problems.append(f"status {ref['status']} -> {row['status']}")
    if parallel_row != row:
        problems.append("jobs=2 row differs from jobs=1 row")
    correct = not problems
    return {
        "failed": row["status"] == STATUS_ERROR or not correct,
        "correct": correct,
        "problem": "; ".join(problems),
    }


def check_corpus(outputs, reference) -> list:
    serial = [row_fields(r) for r in outputs["serial"]]
    parallel = [row_fields(r) for r in outputs["parallel"]]
    key = lambda r: (r["p"], r["d"], r["e"], r["H"], r["T"], r["u"])  # noqa: E731
    ref_by_key = {key(r): r for r in reference}
    par_by_key = {key(r): r for r in parallel}
    records = []
    for row in serial:
        ref = ref_by_key.pop(key(row), None)
        if ref is None:
            records.append({"failed": True, "correct": False, "problem": f"unexpected row {key(row)}"})
            continue
        records.append(check_corpus_row(ref, row, par_by_key.get(key(row))))
    for k in ref_by_key:
        records.append({"failed": True, "correct": False, "problem": f"missing row {k}"})
    return records


def check_scan(instances, outputs, reference) -> list:
    from subgroup_values.factorization import embed_bipoly
    from subgroup_values.lambda_scan import build_sym_poly

    records = []
    for (_, text, p), out in zip(instances, outputs):
        if "error" in out:
            records.append({"failed": True, "correct": True, "problem": out["error"]})
            continue
        report = out["report"]
        got = sorted(int(w.lam) for w in report.exceptional)
        want = reference[f"{text}@{p}"]
        problems = [] if got == want else [f"λ set {got} != {want}"]
        for w in report.exceptional:
            sym = build_sym_poly(out["psi"], w.lam)
            sym_up = sym if w.witness.ctx == sym.ctx else embed_bipoly(sym, w.witness.ctx)
            cof = sym_up.try_divide(w.witness)
            if cof is None or cof * w.witness != sym_up:
                problems.append(f"witness for λ = {int(w.lam)} does not divide")
        records.append({"failed": bool(problems), "correct": not problems, "problem": "; ".join(problems)})
    return records


def satisfies(p: int, b, V, v: int) -> bool:
    """v is a unit mod p and every b_i v has centered residue at most V_i;
    written here, not taken from the program, so the check is independent."""
    if math.gcd(v, p) != 1:
        return False
    return all(min(bi * v % p, p - bi * v % p) <= vi for bi, vi in zip(b, V))


def check_multiplier(instances, outputs) -> list:
    records = []
    for (tier, inst), out in zip(instances, outputs):
        if "error" in out:
            records.append({"failed": True, "correct": True, "problem": out["error"]})
            continue
        p, b, v = inst.p, inst.b, out["v"]
        V = tuple(int(x) for x in inst.bounds)
        problem = ""
        if not (1 <= v < p and satisfies(p, b, V, v)):
            problem = f"v = {v} does not satisfy the instance"
        elif p <= EXHAUSTIVE_P_MAX and v not in [w for w in range(1, p) if satisfies(p, b, V, w)]:
            problem = f"v = {v} is missing from the exhaustive scan"
        records.append({"failed": bool(problem), "correct": not problem, "problem": problem})
    return records


def check(workload, inputs, outputs) -> list:
    if workload == "corpus":
        return check_corpus(outputs, load_reference(workload))
    if workload == "scan":
        return check_scan(inputs, outputs, load_reference(workload))
    return check_multiplier(inputs, outputs)
