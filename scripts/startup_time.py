#!/usr/bin/env python3
"""Start-up cost of the package and of each command-line subcommand.

Prints, for `import subgroup_values` and for the first invocation of each
subcommand in record_cli_golden.INVOCATIONS, the median wall time of N fresh
interpreters, each timed from just before it is started until it exits:

    python3 scripts/startup_time.py [--samples N]

The commands take turns within each sample, so a change in host load reaches
all of them alike. Interpreters inherit the environment: where bytecode is
not cached (PYTHONDONTWRITEBYTECODE set, or a fresh checkout), every run also
compiles the modules it imports.
"""

import argparse
import os
import pathlib
import statistics
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from record_cli_golden import INVOCATIONS, ROOT


def commands():
    """(label, argv after the interpreter) pairs, the import first."""
    out = [("import subgroup_values", ["-c", "import subgroup_values"])]
    seen = set()
    for argv in INVOCATIONS:
        if argv[0] not in seen:
            seen.add(argv[0])
            out.append((" ".join(argv), ["-m", "subgroup_values", *argv]))
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=11)
    args = ap.parse_args()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cmds = commands()
    times = {label: [] for label, _ in cmds}
    for _ in range(args.samples):
        for label, argv in cmds:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
            times[label].append(time.perf_counter() - t0)
    print(f"median_ms  command  ({args.samples} samples)")
    for label, _ in cmds:
        print(f"{1000 * statistics.median(times[label]):9.1f}  {label}")


if __name__ == "__main__":
    main()
