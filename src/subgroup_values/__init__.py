"""Value sets of rational functions in multiplicative subgroups of F_p.

Exact machinery for counting how often consecutive values of a rational map
land in a multiplicative subgroup, together with every constructive ingredient
behind the bound: exceptional-multiplier scans, small-residue multipliers from
integer lattices, exponent identities, and the integer-identity reduction that
a full proof trace replays and verifies.
"""

from .counting import (
    Interval,
    Subgroup,
    congruent_pairs,
    count_value_set_intersection,
    count_values_in_subgroup,
    integral_points_in_box,
    shortest_covering_interval,
    subgroup_of_order,
    vinogradov_count,
)
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
from .lattices import (
    LatticeBasis,
    SmallResidueInstance,
    build_red_basis,
    find_small_residue_multiplier,
    lattice_volume,
    shortest_vector_enum,
)
from .parsing import parse_int_bipoly, parse_poly_expr, parse_rational_expr
from .polynomials import (
    BiPoly,
    RationalFunc,
    UniPoly,
    poly_gcd,
    rational_normalize,
)
from .reporting import ReportRow, emit_report
from .surd import Surd
from .pipeline import (
    ExponentSet,
    LevelSelection,
    ProofTrace,
    SupportSet,
    exponent_set,
    reduce_perfect_power,
    run_sweep,
    select_test_levels,
    standard_sweep_cells,
    support_set,
    value_count_bound,
    trace_proof,
)

__version__ = "0.1.0"
