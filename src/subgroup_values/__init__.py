"""Value sets of rational functions in multiplicative subgroups of F_p.

Exact machinery for counting how often consecutive values of a rational map
land in a multiplicative subgroup, together with every constructive ingredient
behind the bound: exceptional-multiplier scans, small-residue multipliers from
integer lattices, exponent identities, and the integer-identity reduction that
a full proof trace replays and verifies.

Importing the package loads only the algebra core (errors, fields,
polynomials, factorization, parsing, lambda_scan), which needs nothing beyond
math, itertools, functools, operator, random, collections and typing, so a
λ-scan pays only for what it runs. Its records are NamedTuples, each of
which compiles one small __new__ at import, except two slotted classes that
write out their frozen methods: FieldElem, which a tuple base would give +,
len and repetition, and SmallResidueInstance, whose derived floors a tuple
could not keep out of equality and repr. The other layers bring heavier
parts of the standard library: multiprocessing with pipeline, json and csv
with reporting, fractions and decimal with lattices and surd. They are
imported when one of their names in _DEFERRED, or the module itself, is
first read (PEP 562); each name is the same object as the submodule's
attribute.
"""

from .factorization import (
    FactorMultiset,
    IrreducibilityVerdict,
    embed_bipoly,
    embed_unipoly,
    extract_power_root,
    factor_univariate,
    find_proper_factor,
    is_absolutely_irreducible,
    is_irreducible_bivariate,
    perfect_power_exponent,
)
from .fields import (
    FieldCtx,
    FieldElem,
    NEG_INF,
    centered_residue,
    ext_field_build,
    is_prime,
    mod_inverse,
    signed_residue,
)
from .lambda_scan import LambdaReport, LambdaWitness, build_sym_poly, exceptional_lambdas
from .parsing import parse_int_bipoly, parse_poly_expr, parse_rational_expr
from .polynomials import (
    BiPoly,
    RationalFunc,
    UniPoly,
    poly_gcd,
    rational_normalize,
)

__version__ = "0.1.0"

# name -> the submodule that defines it, imported when the name is first read
_DEFERRED = {
    name: module
    for module, names in (
        ("counting", (
            "Interval", "Subgroup", "congruent_pairs", "count_values_in_subgroup",
            "integral_points_in_box", "shortest_covering_interval", "subgroup_of_order",
            "vinogradov_count",
        )),
        ("lattices", (
            "LatticeBasis", "SmallResidueInstance", "build_red_basis",
            "find_small_residue_multiplier", "lattice_volume", "shortest_vector_enum",
        )),
        ("reporting", ("ReportRow", "emit_report")),
        ("surd", ("Surd",)),
        ("pipeline", (
            "ExponentSet", "LevelSelection", "ProofTrace", "SupportSet", "exponent_set",
            "reduce_perfect_power", "run_sweep", "select_test_levels",
            "standard_sweep_cells", "support_set", "value_count_bound", "trace_proof",
        )),
    )
    for name in names
}


def __getattr__(name):
    import importlib

    if name in _DEFERRED.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_DEFERRED[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_DEFERRED, *_DEFERRED.values()})
