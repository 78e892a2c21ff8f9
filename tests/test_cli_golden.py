"""Every recorded CLI invocation still gives the same exit code, stderr and stdout.

The golden file is written by scripts/record_cli_golden.py; see its docstring
for when to re-record it.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "record_cli_golden", ROOT / "scripts" / "record_cli_golden.py"
)
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)


def test_cli_output_matches_golden_file():
    golden = json.loads(recorder.GOLDEN.read_text())
    assert [e["argv"] for e in golden] == recorder.INVOCATIONS
    mismatched = [" ".join(e["argv"]) for e in golden if recorder.record(e["argv"]) != e]
    assert not mismatched, mismatched
