"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference/corpus.json (the checked fields of every standard
corpus row) and perfbench/reference/scan.json (the exceptional λ set of every
scan instance). The files in the repository were recorded at the commit that
introduced the benchmark; re-record only when a change of output is intended.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from subgroup_values.lambda_scan import exceptional_lambdas  # noqa: E402
from subgroup_values.parsing import parse_rational_expr  # noqa: E402
from subgroup_values.pipeline import run_sweep, standard_sweep_cells  # noqa: E402


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    rows = [workloads.row_fields(r) for r in run_sweep(standard_sweep_cells(), jobs=1)]
    text = "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n"
    (workloads.REFERENCE_DIR / "corpus.json").write_text(text)
    lambdas = {}
    for _, text, p in workloads.SCAN_INSTANCES:
        report = exceptional_lambdas(parse_rational_expr(text, p), p)
        lambdas[f"{text}@{p}"] = sorted(int(w.lam) for w in report.exceptional)
    (workloads.REFERENCE_DIR / "scan.json").write_text(json.dumps(lambdas, indent=1) + "\n")


if __name__ == "__main__":
    main()
