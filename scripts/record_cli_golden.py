#!/usr/bin/env python3
"""Record the golden CLI outputs that tests/test_cli_golden.py compares against.

Run from the repository root:

    python3 scripts/record_cli_golden.py

Runs every invocation in INVOCATIONS through `python -m subgroup_values` and
overwrites tests/data/cli_golden.json with its exit code, stderr and stdout.
Short outputs are stored as text; outputs longer than INLINE_LIMIT characters
are stored as their sha256. Re-record only when a change to CLI output bytes
is intended, and name that change.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
INLINE_LIMIT = 2000

INVOCATIONS = [
    ["count", "--psi", "x^2+x", "-p", "13", "-T", "4", "--interval", "1..3"],
    ["count", "--psi", "(x^2+1)/(x+2)", "-p", "31", "-T", "5", "--interval", "4..20",
     "--wrap", "--format", "csv"],
    ["count", "--psi", "x^3+x", "-p", "101", "-T", "10", "--interval", "1..30",
     "--format", "json"],
    ["lambda-scan", "--psi", "x^2+x", "-p", "7", "--max-ext", "1"],
    ["lambda-scan", "--psi", "x^2+x", "-p", "7", "--max-ext", "2", "--format", "json"],
    ["lambda-scan", "--psi", "x^2+x", "-p", "7", "--max-ext", "3"],
    ["lambda-scan", "--psi", "x^3+x", "-p", "5", "--max-ext", "2", "--format", "csv"],
    ["lambda-scan", "--psi", "(x^3+2)/(x^3-2)", "-p", "11"],
    ["lambda-scan", "--psi", "x^3", "-p", "7"],
    ["lattice-find", "-p", "11", "--b", "1,5", "--V", "3,4"],
    ["lattice-find", "-p", "100003", "--b", "1,31415,92653,58979",
     "--V", "5000,5000,5000,8001", "--format", "json"],
    ["lattice-find", "-p", "101", "--b", "3,7,11", "--V", "25,30.5,41/2", "--format", "csv"],
    ["perfect-power", "--psi", "3*x^2", "-p", "7", "-T", "3"],
    ["perfect-power", "--psi", "(x^2+1)^2/(x+3)^2", "-p", "13", "--format", "json"],
    ["exponents", "-d", "2", "-e", "0", "--format", "json"],
    ["exponents", "-d", "3", "-e", "2"],
    ["trace", "--psi", "x^2+x", "-p", "31", "--H", "3", "-T", "5"],
    ["trace", "--psi", "x^2+x", "-p", "31", "--H", "3", "-T", "5", "--format", "json"],
    ["sweep", "--standard"],
    ["sweep", "--standard", "--jobs", "2", "--format", "json"],
    ["sweep", "--standard", "--format", "csv"],
    ["kshort", "--psi", "x^2", "-p", "17", "--H", "2"],
    ["kshort", "--psi", "(x+1)/(x+2)", "-p", "23", "--H", "3", "--wrap", "--format", "json"],
    ["vinogradov", "-d", "2", "-k", "2", "--H", "4", "--format", "csv"],
    ["points", "--poly", "x^2+y^2-25", "--H", "5"],
    ["points", "--poly", "x*y-12", "--H", "12", "--format", "json"],
    ["count", "--psi", "x^2", "-p", "6", "-T", "2", "--interval", "1..3"],
    ["count", "--psi", "x^2"],
    ["lattice-find", "-p", "7032383", "--b", "4270832,6429289,5459639",
     "--V", "101331/4,71241,81923/2"],
    ["lattice-find", "-p", "21", "--b", "1,8,5", "--V", "6,9,11"],
    ["perfect-power", "--psi", "3*x^16", "-p", "7", "-T", "3"],
    ["points", "--poly", "2003*y^2+y", "--H", "1000"],
    ["points", "--poly", "2003*y", "--H", "1000"],
    ["kshort", "--psi", "(x^2+1)/(x+2)", "-p", "1009", "--H", "6", "--wrap"],
    ["kshort", "--psi", "1/(x^2-1)", "-p", "101", "--H", "5"],
    ["points", "--poly", "x*y", "--H", "1000"],
    ["count", "--psi", "0", "-p", "7", "-T", "2", "--interval", "1..3", "--format", "json"],
    ["count", "--psi", "0", "-p", "7", "-T", "2", "--interval", "1..3", "--format", "csv"],
]


def run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["COLUMNS"] = "80"  # argparse wraps its usage message to the terminal width
    return subprocess.run(
        [sys.executable, "-m", "subgroup_values", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )


def stream_record(text: str) -> dict:
    if len(text) <= INLINE_LIMIT:
        return {"text": text}
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "chars": len(text)}


def record(argv) -> dict:
    r = run(argv)
    return {"argv": argv, "exit": r.returncode,
            "stdout": stream_record(r.stdout), "stderr": stream_record(r.stderr)}


def main() -> None:
    entries = [record(argv) for argv in INVOCATIONS]
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {GOLDEN} ({len(entries)} invocations)")


if __name__ == "__main__":
    main()
