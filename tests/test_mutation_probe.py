"""The mutant generator of scripts/mutation_probe.py, run in-process on a
small fixed function; no mutant is run here."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutation_probe", ROOT / "scripts" / "mutation_probe.py")
probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe)

# λ puts two-byte characters before the nodes on its lines, so a character
# offset taken for a byte offset would cut the wrong text
SOURCE = '''\
def check(λ: int, y: int) -> bool:
    """λ and y must be small and equal."""
    if λ < -1 or y >= 3:
        raise ValueError(f"bad λ + 1 = {λ + 1}")
    return λ == y


def other(a):
    return a < 1 and a > -1
'''


def _differences(a, b) -> int:
    """Nodes at which two trees differ: a node of another type or other
    scalar fields, or a statement list of another length, counts once."""
    if type(a) is not type(b):
        return 1
    if isinstance(a, list):
        if len(a) != len(b):
            return 1
        return sum(_differences(x, y) for x, y in zip(a, b))
    if not isinstance(a, ast.AST):
        return int(a != b)
    fields = [(getattr(a, f, None), getattr(b, f, None)) for f in a._fields]
    if any(not isinstance(x, (ast.AST, list)) and x != y for x, y in fields):
        return 1
    return sum(_differences(x, y) for x, y in fields if isinstance(x, (ast.AST, list)))


def test_each_operator_makes_its_mutants_of_the_named_function_alone():
    found = probe.mutants(SOURCE, ("check",))
    # compare: <, >=, ==; constant: -1 and 3, each -1 and +1 (the 1 in the
    # raise is a message); boolop: or; clause: either operand of the or;
    # raise: the guarded one; true: check
    assert Counter(m.operator for m in found) == {
        "compare": 3, "constant": 4, "boolop": 1, "clause": 2, "raise": 1, "true": 1,
    }
    assert {m.change for m in found if m.operator != "constant"} == {
        "λ <= -1", "y > 3", "λ != y", "λ < -1 and y >= 3", "λ < -1", "y >= 3", "raise removed",
        "return True",
    }
    assert sorted(m.change for m in found if m.operator == "constant") == ["-2", "0", "2", "4"]
    assert [m.line for m in found] == sorted(m.line for m in found)
    original = ast.parse(SOURCE)
    for m in found:
        mutated = ast.parse(m.source)
        assert _differences(original, mutated) == 1, m
        # the untargeted function is left as it was
        assert ast.dump(mutated.body[1]) == ast.dump(original.body[1])


def test_clause_deletes_each_operand_of_a_longer_chain_once():
    found = probe.mutants("def f(a, b, c):\n    return a or b and c or not a\n", ("f",))
    # three operands of the or, two of the and
    assert sorted(m.change for m in found if m.operator == "clause") == [
        "a or (b and c)", "a or not a", "b", "b and c or not a", "c",
    ]


def test_every_target_is_found_and_generating_writes_nothing_under_src():
    src = ROOT / "src"

    def snapshot():
        return {p: p.stat().st_mtime_ns for p in src.rglob("*")}

    before = snapshot()
    found = probe.all_mutants()
    assert snapshot() == before
    modules = Counter(module for module, _ in found)
    assert set(modules) == set(probe.TARGETS)
    for module, m in found:
        assert m.source != (src / "subgroup_values" / f"{module}.py").read_text()
