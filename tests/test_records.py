"""The contract of the package's 16 frozen records.

Each record constructs positionally and by keyword, compares and hashes by
its fields, prints the repr the command line and the error messages show,
refuses assignment, and survives pickle (ReportRow crosses the sweep's
process pool). Derived fields (LatticeBasis.gso, SmallResidueInstance.floors)
stay out of equality and repr.
"""

import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import subgroup_values
from subgroup_values.counting import (
    BoxPointCount,
    Interval,
    Subgroup,
    SubgroupCount,
    count_values_in_subgroup,
    integral_points_in_box,
    subgroup_of_order,
)
from subgroup_values.errors import PreconditionViolated, RankDeficient
from subgroup_values.factorization import (
    FactorMultiset,
    IrreducibilityVerdict,
    factor_univariate,
    is_absolutely_irreducible,
)
from subgroup_values.fields import FieldCtx, FieldElem
from subgroup_values.lambda_scan import LambdaReport, LambdaWitness, build_sym_poly, exceptional_lambdas
from subgroup_values.lattices import LatticeBasis, SmallResidueInstance
from subgroup_values.parsing import parse_poly_expr, parse_rational_expr
from subgroup_values.pipeline import (
    ExponentSet,
    LevelSelection,
    ProofTrace,
    SupportSet,
    exponent_set,
    select_test_levels,
    support_set,
    trace_proof,
)
from subgroup_values.polynomials import BiPoly
from subgroup_values.reporting import ReportRow
from subgroup_values.surd import Surd

F7 = FieldCtx(7)
PSI7 = parse_rational_expr("x^2+x", 7)
PSI31 = parse_rational_expr("x^2+x", 31)
Y_MINUS_X = BiPoly(F7, {(0, 1): 1, (1, 0): 6})
SCAN7 = exceptional_lambdas(PSI7, 7)

# class -> (field names in order, one instance, an unequal instance)
CASES = {
    FieldElem: (("ctx", "raw"), FieldElem(F7, 3), FieldElem(F7, 4)),
    FactorMultiset: (
        ("unit", "factors"),
        factor_univariate(parse_poly_expr("3*x^3+3*x", 7)),
        factor_univariate(parse_poly_expr("x^3+x", 7)),
    ),
    IrreducibilityVerdict: (
        ("over_base", "absolutely", "witness", "witness_ext"),
        is_absolutely_irreducible(build_sym_poly(PSI7, FieldElem(F7, 1))),
        is_absolutely_irreducible(build_sym_poly(PSI7, FieldElem(F7, 2))),
    ),
    LambdaWitness: (
        ("lam", "witness", "ext_degree"),
        SCAN7.exceptional[0],
        LambdaWitness(FieldElem(F7, 1), Y_MINUS_X, 2),
    ),
    LambdaReport: (
        ("psi", "scanned_field", "exceptional", "bound"),
        SCAN7,
        exceptional_lambdas(PSI31, 31),
    ),
    Subgroup: (("p", "order", "generator"), subgroup_of_order(7, 3), subgroup_of_order(7, 2)),
    Interval: (("u", "H", "wrap"), Interval(0, 3), Interval(0, 3, True)),
    SubgroupCount: (
        ("count", "witnesses"),
        count_values_in_subgroup(PSI7, Interval(0, 3), subgroup_of_order(7, 3)),
        count_values_in_subgroup(PSI7, Interval(0, 6), subgroup_of_order(7, 3)),
    ),
    BoxPointCount: (
        ("count", "curve_degree", "h_root", "reference"),
        integral_points_in_box({(1, 0): 1, (0, 1): -1}, 3),
        integral_points_in_box({(2, 0): 1, (0, 1): -1}, 3),
    ),
    ExponentSet: (
        ("d", "e", "ell", "m", "k", "s", "theta", "rho", "tau"),
        exponent_set(1, 2),
        exponent_set(2, 1),
    ),
    SupportSet: (("ell", "m", "pairs"), support_set(1, 2), support_set(0, 2)),
    LevelSelection: (
        ("p", "H", "U", "levels", "product_check"),
        select_test_levels(101, 3, exponent_set(0, 2)),
        select_test_levels(103, 3, exponent_set(0, 2)),
    ),
    ProofTrace: (
        (
            "p", "psi", "H", "T", "count", "witnesses", "lambda_count", "chosen_lambda",
            "pair_count", "rt_lower", "rt_ok", "exponents", "levels", "multiplier", "F_int",
            "G_int", "pairs_z", "z_max", "z_magnitude", "bound", "ratio",
        ),
        trace_proof(PSI31, 31, 3, 5),
        trace_proof(PSI31, 31, 3, 3),
    ),
    LatticeBasis: (("cols",), LatticeBasis([[2, 0], [1, 3]]), LatticeBasis([[2, 0], [1, 4]])),
    SmallResidueInstance: (
        ("p", "b", "bounds"),
        SmallResidueInstance(11, [1, 5], [3, Surd(17, 2)]),
        SmallResidueInstance(11, [1, 5], [3, 4]),
    ),
    ReportRow: (
        ("p", "d", "e", "H", "T", "u", "N", "bound", "ratio", "lambda_count", "status", "error"),
        ReportRow(31, 2, 0, 3, 5, 0, 1, 7.30985964688567, 0.13680153221902763, 1, "ok"),
        ReportRow(31, None, None, 3, 5, 0, None, None, None, None, "error", "bad ψ"),
    ),
}

# records whose fields hold dicts, so hashing them raises TypeError
UNHASHABLE = {LevelSelection, ProofTrace}

W7 = "BiPoly([((0, 1), 1), ((1, 0), 6)] over FieldCtx(F_7))"
LEVELS_31 = (
    "LevelSelection(p=31, H=3, U=Surd(43435278)^(1/4), levels={(0, 1): Surd(536238)^(1/4), "
    "(0, 2): Surd(59582/9)^(1/4), (1, 0): Surd(536238)^(1/4), (2, 0): Surd(59582/9)^(1/4)}, "
    "product_check=Fraction(59582, 1))"
)
LAMBDA_W7 = f"LambdaWitness(lam=FieldElem(1 in FieldCtx(F_7)), witness={W7}, ext_degree=1)"
# recorded from the frozen dataclasses these records used to be
REPRS = {
    FieldElem: "FieldElem(3 in FieldCtx(F_7))",
    FactorMultiset: (
        "FactorMultiset(unit=FieldElem(3 in FieldCtx(F_7)), "
        "factors=((UniPoly('x', p=7), 1), (UniPoly('x^2+1', p=7), 1)))"
    ),
    IrreducibilityVerdict: (
        f"IrreducibilityVerdict(over_base=False, absolutely=False, witness={W7}, witness_ext=1)"
    ),
    LambdaWitness: LAMBDA_W7,
    LambdaReport: (
        "LambdaReport(psi=RationalFunc('x^2+x', p=7), scanned_field=FieldCtx(F_7), "
        f"exceptional=({LAMBDA_W7},), bound=16)"
    ),
    Subgroup: "Subgroup(p=7, order=3, generator=2)",
    Interval: "Interval(u=0, H=3, wrap=False)",
    SubgroupCount: "SubgroupCount(count=1, witnesses=(1,))",
    BoxPointCount: "BoxPointCount(count=4, curve_degree=1, h_root=None, reference=None)",
    ExponentSet: (
        "ExponentSet(d=1, e=2, ell=1, m=2, k=14, s=7, theta=Fraction(1, 14), "
        "rho=Fraction(1, 1), tau=Fraction(1, 6))"
    ),
    SupportSet: (
        "SupportSet(ell=1, m=2, pairs=((0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)))"
    ),
    LevelSelection: (
        "LevelSelection(p=101, H=3, U=Surd(1502178858)^(1/4), "
        "levels={(0, 1): Surd(18545418)^(1/4), (0, 2): Surd(2060602/9)^(1/4), "
        "(1, 0): Surd(18545418)^(1/4), (2, 0): Surd(2060602/9)^(1/4)}, "
        "product_check=Fraction(2060602, 1))"
    ),
    ProofTrace: (
        "ProofTrace(p=31, psi=RationalFunc('x^2+x', p=31), H=3, T=5, count=1, witnesses=(1,), "
        "lambda_count=1, chosen_lambda=2, pair_count=1, rt_lower=Fraction(0, 1), rt_ok=True, "
        "exponents=ExponentSet(d=2, e=0, ell=0, m=2, k=6, s=4, theta=Fraction(1, 8), "
        f"rho=Fraction(3, 4), tau=Fraction(1, 4)), levels={LEVELS_31}, multiplier=30, "
        "F_int={(1, 0): -1, (2, 0): -1}, G_int={(0, 1): -2, (0, 2): -2}, pairs_z=((3, 2, 0),), "
        "z_max=0, z_magnitude=3.202122420466883, bound=7.30985964688567, "
        "ratio=0.13680153221902763)"
    ),
    LatticeBasis: "LatticeBasis(cols=((2, 0), (1, 3)))",
    SmallResidueInstance: "SmallResidueInstance(p=11, b=(1, 5), bounds=(3, Surd(17)^(1/2)))",
    ReportRow: (
        "ReportRow(p=31, d=2, e=0, H=3, T=5, u=0, N=1, bound=7.30985964688567, "
        "ratio=0.13680153221902763, lambda_count=1, status='ok', error='')"
    ),
}

CLASSES = list(CASES)
IDS = [cls.__name__ for cls in CLASSES]


def _values(cls, obj):
    return tuple(getattr(obj, f) for f in CASES[cls][0])


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    fields, obj, _ = CASES[cls]
    values = _values(cls, obj)
    assert cls(*values) == obj
    assert cls(**dict(zip(fields, values))) == obj
    assert type(cls(*values)) is cls


def test_defaults():
    row = CASES[ReportRow][1]
    assert row.error == ""
    assert ReportRow(**{f: getattr(row, f) for f in CASES[ReportRow][0][:-1]}) == row
    assert Interval(0, 3).wrap is False
    assert Interval(u=0, H=3) == Interval(0, 3, False) != Interval(0, 3, True)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls):
    _, obj, other = CASES[cls]
    copy = cls(*_values(cls, obj))
    assert copy == obj and not copy != obj
    assert obj != other and not obj == other
    assert obj != object()
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(copy) == hash(obj)
        assert len({obj, copy, other}) == 2


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_is_unchanged(cls):
    assert repr(CASES[cls][1]) == REPRS[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_are_read_only(cls):
    fields, obj, _ = CASES[cls]
    derived = {LatticeBasis: ("gso",), SmallResidueInstance: ("floors",)}.get(cls, ())
    for name in fields + derived:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_pickle_round_trip(cls):
    obj = CASES[cls][1]
    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is cls
    assert back == obj and repr(back) == repr(obj)


def test_derived_fields_survive_pickle_and_stay_out_of_eq():
    B = CASES[LatticeBasis][1]
    assert B.gso == ((1, 4, 36), ((0, 0), (2, 0)))
    assert pickle.loads(pickle.dumps(B)).gso == B.gso
    assert LatticeBasis(((2, 0), (1, 3))) == B
    inst = CASES[SmallResidueInstance][1]
    assert inst.floors == (3, 4)
    assert pickle.loads(pickle.dumps(inst)).floors == inst.floors
    assert SmallResidueInstance(11, (1, 5), (3, Surd(17, 2))) == inst


def test_validation_still_refuses():
    with pytest.raises(PreconditionViolated):
        Interval(5, 0)
    with pytest.raises(AssertionError):
        IrreducibilityVerdict(False, True, None, None)  # absolutely but not over the base
    with pytest.raises(AssertionError):
        IrreducibilityVerdict(True, True, Y_MINUS_X, 1)  # irreducible with a witness
    with pytest.raises(AssertionError):
        IrreducibilityVerdict(False, False, None, None)  # reducible without one
    with pytest.raises(RankDeficient):
        LatticeBasis(())
    with pytest.raises(ValueError):
        SmallResidueInstance(11, (1, 5), (3,))
    # _make, and _replace through it, go through the same checks
    with pytest.raises(PreconditionViolated):
        Interval(0, 3)._replace(H=0)
    with pytest.raises(AssertionError):
        IrreducibilityVerdict._make((False, True, None, None))
    with pytest.raises(RankDeficient):
        CASES[LatticeBasis][1]._replace(cols=((1, 2), (2, 4)))
    assert LatticeBasis([[2, 0], [1, 3]]).cols == ((2, 0), (1, 3))
    assert SmallResidueInstance(11, [1, 5], [Fraction(7, 2), 4]).b == (1, 5)


def _package_classes():
    for info in pkgutil.iter_modules(subgroup_values.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"subgroup_values.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


def test_every_record_is_covered():
    # a record is a tuple with _fields or a class that guards its own __setattr__
    records = {
        cls for cls in _package_classes()
        if (issubclass(cls, tuple) and hasattr(cls, "_fields")) or "__setattr__" in vars(cls)
    }
    assert records - set(CASES) == set()
    # only the two records that cannot be tuples write out their frozen methods
    written = {
        cls for cls in records if {"__setattr__", "__delattr__", "__reduce__"} & set(vars(cls))
    }
    assert written == {FieldElem, SmallResidueInstance}
