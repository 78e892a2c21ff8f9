#!/usr/bin/env python3
"""Timings of the F_{p^t} code that the perfbench workloads never run.

Each probe runs in a fresh interpreter, which times only its own work, after
the imports:

- `max-ext`: exceptional_lambdas of x^2+x at p = 211 with max_ext = 2, of
  x^3+x at p = 31 with max_ext = 3, and of x^4+x at p = 13 with max_ext = 4,
  the field builds included (seconds per scan);
- `rmul`: FieldCtx.rmul over F_{101^t} for t = 2, 4 and 6, on 2,000 seeded
  pairs of elements (microseconds per call);
- `sextic`: the F_p scan of x^6+x^2+1 at p = 4409, whose fibers of degree 6
  still run a distinct-degree factorization (seconds);
- `power-root`: extract_power_root's refusal of g·x^16 over F_{3^2}, g a
  generator of F_9*, which has no 16th root in any field of the extension
  cap (seconds).

    python3 scripts/extension_probe.py [--samples N] [--src DIR ...]

Each --src is the `src` directory of a checkout (default: this one's). With
several, every sample runs each probe on each checkout in turn, so a change
in host load reaches all of them alike. Prints the median and the quartiles
over the samples.
"""

import argparse
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCAN = (
    "import time\n"
    "from subgroup_values.lambda_scan import exceptional_lambdas\n"
    "from subgroup_values.parsing import parse_rational_expr\n"
    "psi = parse_rational_expr({expr!r}, {p})\n"
    "t0 = time.perf_counter()\n"
    "exceptional_lambdas(psi, {p}, max_ext={t})\n"
    "print(time.perf_counter() - t0)\n"
)

RMUL = (
    "import random, time\n"
    "from subgroup_values.fields import ext_field_build\n"
    "ctx = ext_field_build(101, {t})\n"
    "rng = random.Random({t})\n"
    "pairs = [tuple(tuple(rng.randrange(101) for _ in range({t})) for _ in 'ab')\n"
    "         for _ in range(2000)]\n"
    "mul = ctx.rmul\n"
    "t0 = time.perf_counter()\n"
    "for _ in range(5):\n"
    "    for a, b in pairs:\n"
    "        mul(a, b)\n"
    "print((time.perf_counter() - t0) / 10000 * 1e6)\n"
)

POWER_ROOT = (
    "import time\n"
    "from subgroup_values.errors import DegreeTooLarge\n"
    "from subgroup_values.factorization import extract_power_root\n"
    "from subgroup_values.fields import ext_field_build\n"
    "from subgroup_values.polynomials import UniPoly, rational_normalize\n"
    "F9 = ext_field_build(3, 2)\n"
    "g = next(a for a in F9.elements() if a != F9.zero_raw and F9.rpow(a, 4) != F9.one_raw)\n"
    "psi = rational_normalize(UniPoly(F9, [F9.zero_raw] * 16 + [g]), UniPoly.one(F9))\n"
    "t0 = time.perf_counter()\n"
    "try:\n"
    "    extract_power_root(psi, 16)\n"
    "except DegreeTooLarge:\n"
    "    print(time.perf_counter() - t0)\n"
)

PROBES = [
    ("max-ext x^2+x p=211 t=2 (s)", SCAN.format(expr="x^2+x", p=211, t=2)),
    ("max-ext x^3+x p=31 t=3 (s)", SCAN.format(expr="x^3+x", p=31, t=3)),
    ("max-ext x^4+x p=13 t=4 (s)", SCAN.format(expr="x^4+x", p=13, t=4)),
    ("rmul F_101^2 (us/call)", RMUL.format(t=2)),
    ("rmul F_101^4 (us/call)", RMUL.format(t=4)),
    ("rmul F_101^6 (us/call)", RMUL.format(t=6)),
    ("sextic x^6+x^2+1 p=4409 (s)", SCAN.format(expr="x^6+x^2+1", p=4409, t=1)),
    ("power-root g*x^16 over F_3^2 (s)", POWER_ROOT),
]


def run(src: str, code: str) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return float(out.stdout)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=5)
    ap.add_argument("--src", action="append", help="a checkout's src directory")
    args = ap.parse_args()
    if args.samples < 2:
        ap.error("--samples must be at least 2 for the quartiles")
    srcs = args.src or [str(ROOT / "src")]
    times = {(src, label): [] for src in srcs for label, _ in PROBES}
    for _ in range(args.samples):
        for label, code in PROBES:
            for src in srcs:
                times[(src, label)].append(run(src, code))
    print(f"median  [q1, q3]  probe  ({args.samples} samples)")
    for src in srcs:
        print(src)
        for label, _ in PROBES:
            q1, med, q3 = statistics.quantiles(times[(src, label)], n=4, method="inclusive")
            print(f"  {med:8.4g}  [{q1:.4g}, {q3:.4g}]  {label}")


if __name__ == "__main__":
    main()
