#!/usr/bin/env python3
"""List the lines of src/subgroup_values that the tests and the golden CLI
invocations never run.

Run from the repository root:

    python3 scripts/line_coverage.py

It needs nothing beyond the standard library and the test dependencies. A
sys.settrace line tracer records every line run in src/subgroup_values while
the tier-1 suite runs in this process under pytest, and then while every
invocation of scripts/record_cli_golden.py runs in-process through
cli.cmd_dispatch. Hypothesis replaces the trace function while it runs a
test, so the tracer is installed again before each test. Code run by child
processes (the `sweep --jobs 2` workers, tests that start the CLI as a
subprocess) is not seen; the in-process golden runs cover the CLI instead.
Tests with a wall-time budget may overrun it under the tracer; the failures
are counted in the summary line.

A function-body line is a line that carries bytecode in a function, method,
lambda or comprehension, other than its def line. The output names, for
each function, its body lines that never ran, and then the totals, with the
line count of src/subgroup_values (every line of its .py files).
"""

import contextlib
import importlib.util
import inspect
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "subgroup_values"

_hits: set = set()
# Lines of each code object not yet seen to run; a frame whose code has none
# left runs untraced, so hot loops stop paying for the tracer once covered.
_left: dict = {}


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
        _left[frame.f_code].discard(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    co = frame.f_code
    left = _left.get(co)
    if left is None:
        left = _left[co] = set()
        if co.co_filename.startswith(str(SRC)):
            left.update(n for _, _, n in co.co_lines() if n is not None and n != co.co_firstlineno)
    return _local if left else None


def body_lines(path: pathlib.Path) -> dict:
    """{line: outermost function qualname} over every function-like code
    object in the file; module and class bodies are skipped."""
    out = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        co = todo.pop()
        todo.extend(c for c in co.co_consts if inspect.iscode(c))
        if not co.co_flags & inspect.CO_NEWLOCALS:
            continue
        name = co.co_qualname.split(".<locals>")[0]
        for _, _, line in co.co_lines():
            if line is not None and line != co.co_firstlineno:
                out.setdefault(line, name)
    return out


def ranges(lines: list) -> str:
    parts, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            parts.append(str(n) if n == start else f"{start}-{n}")
            start = None
    return ",".join(parts)


class _Retrace:
    """pytest plugin: put the line tracer back before each test, and count outcomes."""

    def __init__(self):
        self.outcomes: dict = {}

    def pytest_runtest_setup(self, item):
        sys.settrace(_global)

    def pytest_runtest_call(self, item):
        sys.settrace(_global)

    def pytest_runtest_logreport(self, report):
        if report.when == "call" or report.outcome != "passed":
            self.outcomes[report.outcome] = self.outcomes.get(report.outcome, 0) + 1


def run_golden_cli() -> int:
    spec = importlib.util.spec_from_file_location(
        "record_cli_golden", ROOT / "scripts" / "record_cli_golden.py"
    )
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    from subgroup_values.cli import cmd_dispatch

    sys.settrace(_global)
    for argv in recorder.INVOCATIONS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cmd_dispatch(list(argv))
    sys.settrace(None)
    return len(recorder.INVOCATIONS)


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    plugin = _Retrace()
    sys.settrace(_global)
    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[plugin])
    sys.settrace(None)
    n_cli = run_golden_cli()

    total = missed = size = 0
    for path in sorted(SRC.glob("*.py")):
        size += len(path.read_text().splitlines())
        lines = body_lines(path)
        never = {}
        for line, name in lines.items():
            if (str(path), line) not in _hits:
                never.setdefault(name, []).append(line)
        total += len(lines)
        missed += sum(len(v) for v in never.values())
        if never:
            print(path.relative_to(ROOT))
            for name, ls in sorted(never.items(), key=lambda kv: min(kv[1])):
                print(f"  {name}: {ranges(sorted(ls))}")
    tests = ", ".join(f"{n} {k}" for k, n in sorted(plugin.outcomes.items()))
    print(f"{missed} of {total} function-body lines never ran "
          f"(tier-1: {tests}; {n_cli} golden CLI invocations); "
          f"src/subgroup_values has {size} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
