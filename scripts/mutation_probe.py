#!/usr/bin/env python3
"""Mutation probe of the verifier's checks: which small changes to them
would no test notice?

Run it as

    python3 scripts/mutation_probe.py

It needs nothing beyond the standard library and the test dependencies,
and takes no options. It copies src, tests, scripts and pyproject.toml to a
temporary directory and, there, changes one target function at a time by
one operator:

- compare   swaps one comparison: < and <=, > and >=, == and !=;
- constant  moves one integer constant by -1 or +1;
- boolop    swaps `and` and `or`;
- clause    deletes one operand of an `and` or `or` chain (a two-operand
            chain becomes its other operand);
- raise     removes a raise guarded by an if;
- true      makes a predicate (a function annotated -> bool) return True.

Integer constants, comparisons and `and`/`or` chains inside a raise
statement or an f-string are left alone: they only shape a message. Each
mutant runs first against its module's test subset (TARGETS), stopping at
the first failure, and one that passes there is run again against the
whole tier-1 suite, since a narrow subset misses checks that other files
make. A run that outlasts three times its unmutated time, plus a minute,
counts as a kill. The probe prints one line per mutant that survives both
runs, and then the totals; stderr shows each mutant's outcome as it runs.
Every run starts in its own process group, which is killed when the run
ends, and the temporary directory is removed, so nothing is left running
or written in the checkout.
"""

import ast
import copy
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path("src") / "subgroup_values"

# module: (the qualified names of its target functions, its test subset: files,
# and single tests of other files that kill a mutant the files let through)
TARGETS = {
    "pipeline": (
        ("select_test_levels", "_check_trace_size", "trace_proof", "_choose_lambda", "_trace"),
        ("test_pipeline.py", "test_cli_golden.py", "test_acceptance.py",
         "test_records.py::test_repr_is_unchanged[ProofTrace]"),
    ),
    "lattices": (
        ("shortest_vector_enum", "SmallResidueInstance.validate",
         "SmallResidueInstance.satisfied_by", "find_small_residue_multiplier"),
        ("test_lattices.py", "test_pipeline.py",
         "test_lambda_scan.py::test_program_checks_hold_under_python_O"),
    ),
    "lambda_scan": (
        ("_sieve", "exceptional_lambdas"),
        ("test_lambda_scan.py", "test_kernels.py",
         "test_pipeline.py::test_sweep_records_errors_without_aborting"),
    ),
    "factorization": (
        ("_validate_bivariate_input", "is_absolutely_irreducible", "_has_smooth_rational_point",
         "perfect_power_exponent"),
        ("test_factorization.py",),
    ),
    "counting": (
        ("_count_values", "congruent_pairs", "_cover_length"),
        ("test_counting.py", "test_pipeline.py"),
    ),
    "surd": (("Surd._cmp",), ("test_surd.py", "test_pipeline.py")),
    "fields": (("check_prime",), ("test_fields.py",)),
}

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
_BOOL_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}


class Mutant(NamedTuple):
    operator: str
    line: int
    change: str  # the mutated code, or what was removed
    source: str  # the whole mutated module


def _function(tree: ast.Module, qualname: str):
    scope = tree
    for name in qualname.split("."):
        scope = next(
            node for node in scope.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        )
    return scope


def _integer(node):
    """The int that node spells, as a literal or a negated literal, or None."""
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node, sign = node.operand, -1
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return sign * node.value
    return None


def mutants(source: str, qualnames) -> list:
    """Every mutant of the named functions of the module source, one change
    each, in source order. Positions are read as UTF-8 byte offsets, as the
    ast records them."""
    tree = ast.parse(source)
    data = source.encode()
    starts = [0]
    for row in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(row))

    def splice(start, end, text):
        a = starts[start[0] - 1] + start[1]
        b = starts[end[0] - 1] + end[1]
        return (data[:a] + text.encode() + data[b:]).decode()

    def replace(node, text, operator, change):
        new = splice((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset), text)
        return Mutant(operator, node.lineno, change, new)

    def rewritten(node, new, operator):
        text = ast.unparse(new)
        return replace(node, f"({text})", operator, text)

    out = []
    for qualname in qualnames:
        fn = _function(tree, qualname)
        quiet = {id(n) for top in ast.walk(fn) if isinstance(top, (ast.Raise, ast.JoinedStr))
                 for n in ast.walk(top)}
        for node in ast.walk(fn):
            if id(node) in quiet:
                continue
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in _SWAPS:
                        new = copy.copy(node)
                        new.ops = list(node.ops)
                        new.ops[i] = _SWAPS[type(op)]()
                        out.append(rewritten(node, new, "compare"))
            elif isinstance(node, ast.BoolOp):
                new = copy.copy(node)
                new.op = _BOOL_SWAPS[type(node.op)]()
                out.append(rewritten(node, new, "boolop"))
                for i in range(len(node.values)):
                    rest = node.values[:i] + node.values[i + 1:]
                    new = rest[0] if len(rest) == 1 else ast.BoolOp(node.op, rest)
                    out.append(rewritten(node, new, "clause"))
            elif _integer(node) is not None:
                quiet.update(map(id, ast.walk(node)))
                for value in (_integer(node) - 1, _integer(node) + 1):
                    out.append(replace(node, f"({value})", "constant", str(value)))
            elif isinstance(node, ast.If):
                for stmt in node.body + node.orelse:
                    if isinstance(stmt, ast.Raise):
                        out.append(replace(stmt, "pass", "raise", "raise removed"))
        if isinstance(fn.returns, ast.Name) and fn.returns.id == "bool":
            body = fn.body
            first = body[1] if ast.get_docstring(fn) is not None else body[0]
            indent = " " * first.col_offset
            new = splice((first.lineno, 0), (first.lineno, 0), f"{indent}return True\n")
            out.append(Mutant("true", first.lineno, "return True", new))
    out.sort(key=lambda m: m.line)
    return out


def all_mutants() -> list:
    """[(module, Mutant)] over every target of the checkout's package."""
    out = []
    for module, (qualnames, _) in TARGETS.items():
        source = (ROOT / PACKAGE / f"{module}.py").read_text()
        out.extend((module, m) for m in mutants(source, qualnames))
    return out


# A pytest plugin, loaded before the tests are collected: Hypothesis stops at
# the first failing example instead of shrinking it, which can take minutes
# and cannot turn a kill into a survival.
_NO_SHRINK = """\
from hypothesis import Phase, settings

settings.register_profile("probe", phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("probe")
"""


def _run(tree: pathlib.Path, tests, timeout) -> bool:
    """Whether pytest passes the tests, stopping at the first failure; a run
    past the timeout counts as failed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(tree / "src"), str(tree))),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-p", "probe_no_shrink",
         *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout) == 0
    except subprocess.TimeoutExpired:
        return False
    finally:
        # the group also holds whatever the tests started
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def _limit(tree: pathlib.Path, tests) -> float:
    """The timeout of a mutant's run of the tests, from one unmutated run."""
    start = time.perf_counter()
    if not _run(tree, tests, None):
        sys.exit(f"the unmutated copy fails {' '.join(tests) or 'the suite'}")
    return 3 * (time.perf_counter() - start) + 60


def main() -> int:
    # a terminated probe still kills its run and removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    found = all_mutants()
    with tempfile.TemporaryDirectory(prefix="mutation_probe_") as tmp:
        tree = pathlib.Path(tmp)
        for name in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        (tree / "probe_no_shrink.py").write_text(_NO_SHRINK)
        full_limit = _limit(tree, ())
        limits = {}
        by_subset = by_suite = 0
        survivors = []
        for n, (module, m) in enumerate(found, 1):
            tests = tuple(f"tests/{name}" for name in TARGETS[module][1])
            if tests not in limits:
                limits[tests] = _limit(tree, tests)
            path = tree / PACKAGE / f"{module}.py"
            original = path.read_text()
            path.write_text(m.source)
            try:
                if not _run(tree, tests, limits[tests]):
                    outcome = "killed"
                    by_subset += 1
                elif not _run(tree, (), full_limit):
                    outcome = "killed by the full suite"
                    by_suite += 1
                else:
                    outcome = "survived"
                    survivors.append((module, m))
            finally:
                path.write_text(original)
            print(f"[{n}/{len(found)}] {module}.py:{m.line} {m.operator} {m.change}: {outcome}",
                  file=sys.stderr, flush=True)
    for module, m in survivors:
        print(f"{module}.py:{m.line}  {m.operator}  {m.change}")
    functions = sum(len(q) for q, _ in TARGETS.values())
    print(f"{len(found)} mutants of {functions} functions: {by_subset} killed by their "
          f"subset, {by_suite} more by the full suite, {len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
