"""What `import subgroup_values` and the command line load.

The package imports its algebra core eagerly and every other layer on first
use; these tests run fresh interpreters, so modules loaded by other tests in
this process do not hide an eager import.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subgroup_values

SRC = str(Path(__file__).resolve().parent.parent / "src")

DEFERRED_MODULES = ("pipeline", "counting", "lattices", "surd", "reporting")
HEAVY_STDLIB = ("concurrent.futures", "multiprocessing", "json", "csv", "fractions")

# the package's top-level API; each name must stay importable from the package
PUBLIC_NAMES = {
    "Interval", "Subgroup", "congruent_pairs", "count_values_in_subgroup",
    "integral_points_in_box", "shortest_covering_interval",
    "subgroup_of_order", "vinogradov_count",
    "FactorMultiset", "IrreducibilityVerdict", "embed_bipoly", "embed_unipoly",
    "extract_power_root", "factor_univariate", "find_proper_factor",
    "is_absolutely_irreducible", "is_irreducible_bivariate", "perfect_power_exponent",
    "FieldCtx", "FieldElem", "NEG_INF", "centered_residue", "ext_field_build", "is_prime",
    "mod_inverse", "signed_residue",
    "LambdaReport", "LambdaWitness", "build_sym_poly", "exceptional_lambdas",
    "LatticeBasis", "SmallResidueInstance", "build_red_basis",
    "find_small_residue_multiplier", "lattice_volume", "shortest_vector_enum",
    "parse_int_bipoly", "parse_poly_expr", "parse_rational_expr",
    "BiPoly", "RationalFunc", "UniPoly", "poly_gcd", "rational_normalize",
    "ReportRow", "emit_report", "Surd",
    "ExponentSet", "LevelSelection", "ProofTrace", "SupportSet", "exponent_set",
    "reduce_perfect_power", "run_sweep", "select_test_levels", "standard_sweep_cells",
    "support_set", "value_count_bound", "trace_proof",
    "__version__",
}


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    return r


def test_import_loads_only_the_algebra_core():
    watched = [f"subgroup_values.{m}" for m in DEFERRED_MODULES] + list(HEAVY_STDLIB)
    r = _python("-c", (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import subgroup_values\n"
        f"print(sorted(m for m in {watched!r} if m in set(sys.modules) - before))\n"
    ))
    assert r.stdout.strip() == "[]"


def test_no_layer_loads_dataclasses_or_inspect():
    # no record is a dataclass, so nothing imports dataclasses or inspect
    r = _python("-c", (
        "import importlib, sys\n"
        "import subgroup_values\n"
        f"for m in {DEFERRED_MODULES!r}:\n"
        "    importlib.import_module('subgroup_values.' + m)\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    ))
    assert r.stdout.strip() == "[]"


def _imported_by_cli(*argv):
    """Modules a `python -m subgroup_values` run imports, read off -X importtime."""
    r = _python("-X", "importtime", "-m", "subgroup_values", *argv)
    return {line.rsplit("|", 1)[1].strip() for line in r.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


@pytest.mark.parametrize("argv", [
    ("lambda-scan", "--psi", "x^2+x", "-p", "7"),
    ("lattice-find", "-p", "11", "--b", "1,5", "--V", "3,4"),
    ("perfect-power", "--psi", "3*x^16", "-p", "7", "-T", "3"),
])
def test_light_commands_leave_the_pipeline_and_process_pool_unloaded(argv):
    imported = _imported_by_cli(*argv)
    assert "subgroup_values.lambda_scan" in imported  # the log was read
    assert "subgroup_values.pipeline" not in imported
    assert "concurrent.futures" not in imported


def test_deferred_names_are_the_submodule_objects_and_listed():
    # in a fresh interpreter, so every name and module goes through __getattr__
    r = _python("-c", (
        "import sys, subgroup_values as pkg\n"
        "listed = dir(pkg)\n"
        "for module in sorted(set(pkg._DEFERRED.values())):\n"
        "    assert getattr(pkg, module) is sys.modules['subgroup_values.' + module], module\n"
        "for name, module in pkg._DEFERRED.items():\n"
        "    assert getattr(pkg, name) is getattr(sys.modules['subgroup_values.' + module], name), name\n"
        "    assert name in listed and module in listed, name\n"
        "print('ok')\n"
    ))
    assert r.stdout.strip() == "ok"
    assert set(subgroup_values._DEFERRED.values()) == set(DEFERRED_MODULES)


def test_public_names_all_resolve():
    assert PUBLIC_NAMES <= set(dir(subgroup_values))
    for name in PUBLIC_NAMES:
        value = getattr(subgroup_values, name)
        module = getattr(value, "__module__", None)
        if module and module.startswith("subgroup_values."):
            assert getattr(importlib.import_module(module), name) is value, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        subgroup_values.no_such_name
    with pytest.raises(ImportError):
        exec("from subgroup_values import no_such_name", {})


def test_a_deferred_module_is_an_attribute_of_the_package():
    r = _python("-c", (
        "import sys\n"
        "import subgroup_values\n"
        "m = subgroup_values.pipeline\n"
        "print(m is sys.modules['subgroup_values.pipeline'])\n"
    ))
    assert r.stdout == "True\n"
    # the same lookup in this process, where the import already bound it
    from subgroup_values import pipeline

    assert subgroup_values.__getattr__("pipeline") is pipeline
