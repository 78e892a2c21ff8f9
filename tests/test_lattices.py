import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subgroup_values.errors import (
    MultiplierNotFound,
    PreconditionViolated,
    RankDeficient,
    SearchSpaceTooLarge,
)
from subgroup_values import lattices
from subgroup_values.fields import centered_residue, is_prime
from subgroup_values.lattices import (
    LatticeBasis,
    SmallResidueInstance,
    _lll_reduce,
    build_red_basis,
    find_small_residue_multiplier,
    lattice_volume,
    shortest_vector_enum,
)
from subgroup_values.surd import Surd, iroot


def test_lattice_volume_examples():
    assert lattice_volume(LatticeBasis(((2, 0), (0, 2)))) == 4
    assert lattice_volume(LatticeBasis(((3, 4),))) == 5
    assert lattice_volume(LatticeBasis(((15, 4), (33, 0)))) == 132


def test_lattice_volume_rank_deficient():
    with pytest.raises(RankDeficient):
        LatticeBasis(((1, 2), (2, 4)))


@pytest.mark.parametrize("cols", [
    ((0, 0, 0), (1, 2, 3), (4, 5, 7)),                     # zero first column
    ((1, 2, 3), (2, 4, 6), (0, 1, 5)),                     # dependent middle column
    ((1, 2, 3), (0, 1, 5), (3, 7, 14)),                    # dependent last column
    # the same three cases in 4 dimensions
    ((0, 0, 0, 0), (1, 0, 2, 0), (0, 3, 0, 1), (5, 1, 1, 1)),
    ((1, 2, 0, 1), (3, -1, 4, 2), (5, 3, 4, 4), (0, 0, 1, 9)),
    ((1, 2, 0, 1), (3, -1, 4, 2), (0, 0, 1, 9), (2, 4, -1, -7)),
])
def test_gram_schmidt_raises_on_first_dependent_column(cols):
    with pytest.raises(RankDeficient):
        LatticeBasis(cols)


def _fraction_det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def test_lattice_volume_is_abs_det_of_square_bases():
    rng = random.Random(20261018)
    done = 0
    while done < 100:
        r = rng.randint(1, 6)
        m = 10 ** rng.randint(0, 9)
        cols = tuple(tuple(rng.randint(-m, m) for _ in range(r)) for _ in range(r))
        det = _fraction_det(cols)
        if det == 0:
            with pytest.raises(RankDeficient):
                LatticeBasis(cols)
            continue
        assert lattice_volume(LatticeBasis(cols)) == abs(det)
        done += 1


def test_shortest_vector_examples():
    v = shortest_vector_enum(LatticeBasis(((2, 0), (0, 2))))
    assert v == (2, 0)
    assert max(abs(x) for x in v) == 2

    v = shortest_vector_enum(LatticeBasis(((1, 0), (0, 1))))
    assert max(abs(x) for x in v) == 1

    v = shortest_vector_enum(LatticeBasis(((15, 4), (33, 0))))
    assert v == (-3, 8)
    assert max(abs(x) for x in v) == 8
    assert 8 <= math.sqrt(132) + 1e-9


def test_shortest_vector_rank_cap():
    cols = tuple(tuple(2 if i == j else 0 for i in range(7)) for j in range(7))
    with pytest.raises(SearchSpaceTooLarge):
        shortest_vector_enum(LatticeBasis(cols))


def test_minkowski_bound_random_bases():
    rng = random.Random(20260810)
    done = 0
    while done < 120:
        r = rng.choice((2, 3, 4))
        cols = tuple(
            tuple(rng.randint(-50, 50) for _ in range(r)) for _ in range(r)
        )
        try:
            B = LatticeBasis(cols)
        except RankDeficient:
            continue
        v = shortest_vector_enum(B)
        norm = max(abs(x) for x in v)
        assert norm**r <= lattice_volume(B)
        done += 1


# --- LLL pinned to its recorded outputs -------------------------------------------


def _pin_instance(rng, lo, hi, s):
    while True:
        p = rng.randint(lo, hi)
        if not is_prime(p):
            continue
        target = p ** (s - 1)
        side = max(2, int(target ** (1.0 / s)))
        V = [max(1, min(p - 1, int(side * math.exp(rng.uniform(-0.5, 0.5))))) for _ in range(s - 1)]
        V.append(target // math.prod(V) + 1)
        if V[-1] < p and math.prod(V) <= 2 * target:
            b = (1,) + tuple(rng.randrange(p) for _ in range(s - 1))
            return SmallResidueInstance(p, b, tuple(V))


def _pinned_lattices():
    """200 bases in chunks of ten: build_red_basis for s = 2..6 over small,
    mid and wide primes, then random 2..6-dimensional bases, the last ten
    with a rounding tie in their first size reduction."""
    rng = random.Random(20261018)
    out = []
    for lo, hi in ((11, 2000), (2001, 200000), (2**20, 2**32 - 1)):
        for s in range(2, 7):
            for _ in range(10):
                out.append(build_red_basis(_pin_instance(rng, lo, hi, s)).cols)
    while len(out) < 200:
        r = rng.randint(2, 6)
        m = 10 ** rng.randint(1, 12)
        cols = [[rng.randint(-m, m) for _ in range(r)] for _ in range(r)]
        if len(out) >= 190:
            # mu[1][0] = k + 1/2 exactly: size reduction meets a rounding tie
            cols[0] = [2] + [0] * (r - 1)
            cols[1][0] = 2 * rng.randint(-m, m) + 1
        try:
            out.append(LatticeBasis(cols).cols)
        except RankDeficient:
            continue
    return out


def _lll_digest(outputs) -> str:
    flat = [(tuple(map(tuple, red)), tuple(map(tuple, U))) for red, U in outputs]
    return hashlib.sha256(repr(flat).encode()).hexdigest()[:16]


# sha256 prefixes of (reduced, U) for each chunk, recorded from the exact
# rational LLL that recomputed the whole Gram-Schmidt after every update
_PINNED_LLL_DIGESTS = (
    "7505e8e783d14d45",
    "29d9adc83c257613",
    "4aabce875cc253be",
    "d0646ecc95a77b28",
    "3d8631ef0aab04ab",
    "e0bdccf95f7f86fd",
    "b53fcd70e66cde78",
    "c6ae9b51873b094a",
    "256f8d9ebcf0a630",
    "8ae48b69f34c6838",
    "4d4cc11b051d1861",
    "40fad1e9728ccfbf",
    "6a0d730f95cace61",
    "26416e02e49ed3cd",
    "b24c3732e441f4af",
    "99b1f9dd3cea4fd6",
    "be59dfb38f8e0816",
    "e73f99eb1e9cd4e0",
    "0c885ffc9a59313e",
    "6277ff6367b7919f",
)


def _fraction_gso(rows):
    mu = [[Fraction(0)] * len(rows) for _ in rows]
    bstar, Bv = [], []
    for i, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(row, bstar[j])) / Bv[j]
            v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
        bstar.append(v)
        Bv.append(sum(x * x for x in v))
    return mu, Bv


def _coefficients(cols, vecs):
    """U with vecs[i] = sum_j U[i][j] * cols[j], by a Fraction Gauss-Jordan
    solve; cols is a square invertible basis."""
    n = len(cols)
    # row t of the system: sum_j U[i][j] cols[j][t] = vecs[i][t], for every i
    m = [[Fraction(c[t]) for c in cols] + [Fraction(v[t]) for v in vecs] for t in range(n)]
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k])
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            f = m[i][k]
            if i != k and f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [[m[j][n + i] for j in range(n)] for i in range(len(vecs))]


def test_lll_reproduces_pinned_outputs_and_invariants():
    lattices = _pinned_lattices()
    outputs = []
    for cols in lattices:
        red, d, lam = _lll_reduce(LatticeBasis(cols))
        # the unimodular transform, rebuilt exactly from the two bases
        U = _coefficients(cols, red)
        assert all(x.denominator == 1 for row in U for x in row)
        U = [[int(x) for x in row] for row in U]
        n = len(cols)
        outputs.append((red, U))
        for i in range(n):
            assert list(red[i]) == [sum(U[i][j] * cols[j][t] for j in range(n)) for t in range(len(cols[0]))]
        assert math.prod(_fraction_gso(U)[1]) == 1  # det(U)^2 = 1
        mu, Bv = _fraction_gso(red)
        for i in range(n):
            assert Fraction(d[i + 1], d[i]) == Bv[i]
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
                assert Fraction(lam[i][j], d[j + 1]) == mu[i][j]
        for k in range(1, n):
            assert Bv[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * Bv[k - 1]
    got = tuple(_lll_digest(outputs[i : i + 10]) for i in range(0, len(outputs), 10))
    assert got == _PINNED_LLL_DIGESTS


def test_build_red_basis_worked_example():
    inst = SmallResidueInstance(11, (1, 5), (3, 4))
    B = build_red_basis(inst)
    assert B.cols == ((15, 4), (33, 0))
    assert lattice_volume(B) == 132 == 11 * 12  # p^(s-1) V^(s-1)


def test_build_red_basis_volume_matches_closed_form():
    rng = random.Random(5)
    for _ in range(25):
        p = rng.choice((11, 13, 17, 101))
        s = rng.randint(2, 4)
        while True:
            V = [rng.randint(2, p - 1) for _ in range(s)]
            prod = math.prod(V)
            if p ** (s - 1) < prod <= 2 * p ** (s - 1):
                break
        b = [1] + [rng.randrange(p) for _ in range(s - 1)]
        inst = SmallResidueInstance(p, tuple(b), tuple(V))
        B = build_red_basis(inst)
        assert lattice_volume(B) == p ** (s - 1) * prod ** (s - 1)


def test_build_red_basis_fraction_bounds_give_the_basis_of_their_floors():
    # residues are integers, so floor(V_i) bounds them exactly as V_i does
    B = build_red_basis(SmallResidueInstance(11, (1, 5), (Fraction(7, 2), 4)))
    assert B.cols == build_red_basis(SmallResidueInstance(11, (1, 5), (3, 4))).cols
    B = build_red_basis(SmallResidueInstance(101, (1, 7, 11), (Fraction(61, 2), 25, Fraction(41, 2))))
    assert B.cols == build_red_basis(SmallResidueInstance(101, (1, 7, 11), (30, 25, 20))).cols


def test_find_small_residue_multiplier_worked_example():
    inst = SmallResidueInstance(11, (1, 5), (3, 4))
    v = find_small_residue_multiplier(inst)
    valid = {w for w in range(1, 11) if inst.satisfied_by(w)}
    assert v in valid
    assert centered_residue(v, 11) <= 3 and centered_residue(5 * v, 11) <= 4
    # deterministic
    assert find_small_residue_multiplier(inst) == v


def test_find_small_residue_multiplier_trivial_case():
    inst = SmallResidueInstance(11, (1, 3, 4), (5, 5, 5))
    assert 5**3 > 11**2
    assert inst.satisfied_by(1)  # v = 1 already meets every bound
    v = find_small_residue_multiplier(inst)
    assert inst.satisfied_by(v)
    assert find_small_residue_multiplier(inst) == v


def test_instance_with_full_range_bounds_is_well_formed():
    for p in (3, 11, 101):
        inst = SmallResidueInstance(p, (1, 1), (p - 1, p - 1))
        inst.validate()
        assert inst.satisfied_by(find_small_residue_multiplier(inst))


def test_find_small_residue_multiplier_precondition():
    inst = SmallResidueInstance(11, (1, 5), (3, 3))
    with pytest.raises(PreconditionViolated):
        find_small_residue_multiplier(inst)
    with pytest.raises(PreconditionViolated):
        SmallResidueInstance(11, (1, 5), (12, 4)).validate()
    with pytest.raises(PreconditionViolated):
        SmallResidueInstance(11, (1, 5), (Fraction(1, 2), 11 - 1)).validate()


def test_find_small_residue_multiplier_zero_entries():
    # b entries divisible by p impose no constraint; pivoting handles them
    inst = SmallResidueInstance(13, (0, 1, 5), (5, 5, 12))
    v = find_small_residue_multiplier(inst)
    assert inst.satisfied_by(v)
    inst = SmallResidueInstance(13, (0, 0), (13 - 1, 13 - 1))
    assert find_small_residue_multiplier(inst) == 1


def test_find_small_residue_multiplier_surd_bounds():
    # bounds that are exact cube roots: constraints use their floors
    b = (1, 4, 9)
    V = (Surd(Fraction(80), 2), Surd(Fraction(90), 2), Surd(Fraction(70), 2))
    inst = SmallResidueInstance(11, b, V)
    v = find_small_residue_multiplier(inst)
    assert inst.satisfied_by(v)


def test_soundness_random_instances():
    rng = random.Random(777)
    primes = [11, 13, 101, 997, 1009, 1999, 4999, 10007]
    done = 0
    while done < 120:
        p = rng.choice(primes)
        s = rng.randint(2, 5)
        target = p ** (s - 1)
        V = []
        for _ in range(s - 1):
            V.append(rng.randint(max(2, int(target ** (1 / s) * 0.5)), p - 1))
        rest = target // math.prod(V) + 1
        if not 1 <= rest < p:
            continue
        V.append(min(p - 1, max(1, rest)))
        prod = math.prod(V)
        if not (target < prod <= 2 * target):
            continue
        b = tuple(rng.randrange(p) for _ in range(s))
        inst = SmallResidueInstance(p, b, tuple(V))
        v = find_small_residue_multiplier(inst)
        assert math.gcd(v, p) == 1
        assert inst.satisfied_by(v)
        if p <= 2000:
            scan = [w for w in range(1, p) if inst.satisfied_by(w)]
            assert scan, "independent scan found no valid multiplier"
            assert v in scan
        done += 1


@pytest.mark.parametrize("p, b, V", [
    (7032383, (4270832, 6429289, 5459639), (Fraction(101331, 4), 71241, Fraction(81923, 2))),
    (2249411, (1807783, 1857285, 1808623, 645161, 1766826),
     (Fraction(411119, 3), Fraction(367473, 4), 242877, Fraction(438831, 4), Fraction(288662, 3))),
])
def test_multiplier_with_fraction_bounds_regressions(p, b, V):
    # a lattice scaled row by row to clear each Fraction's denominator
    # distorts the box of bounds, and its shortest vector missed both
    inst = SmallResidueInstance(p, b, V)
    assert inst.satisfied_by(find_small_residue_multiplier(inst))


_TIERS = ((11, 5000), (2**20, 2**24))


def _valid_instance(rng, lo, hi, s, kind):
    """A valid instance with prime p in [lo, hi] and prod V_i just above
    p^(s-1); kind 'int', 'fraction' (denominators 2..5) or 'surd' (square
    and cube roots of integers) picks the type of the bounds."""
    while True:
        p = rng.randint(lo, hi)
        if not is_prime(p):
            continue
        target = p ** (s - 1)
        side = target ** (1.0 / s)
        near = [side * math.exp(rng.uniform(-0.5, 0.5)) for _ in range(s - 1)]
        if kind == "surd":
            k = rng.randint(2, 3)
            R = [max(1, int(x**k)) for x in near]
            R.append(target**k // math.prod(R) + 1)
            V = [Surd(r, k) for r in R]
        else:
            den = 1 if kind == "int" else rng.randint(2, 5)
            V = [Fraction(max(den, int(x * den)), den) for x in near]
            V.append(Fraction(math.floor(Fraction(target) / math.prod(V) * den) + 1, den))
            if kind == "int":
                V = [int(x) for x in V]
        if all(1 <= x < p for x in V):
            return SmallResidueInstance(p, tuple(rng.randrange(p) for _ in range(s)), tuple(V))


def test_multiplier_is_valid_for_every_kind_of_bound():
    # the Fraction cases at the large tier fail a lattice scaled row by row
    rng = random.Random(20261019)
    for kind in ("int", "fraction", "surd"):
        for lo, hi in _TIERS:
            for s in range(2, 6):
                for _ in range(8):
                    inst = _valid_instance(rng, lo, hi, s, kind)
                    inst.validate()
                    assert inst.satisfied_by(find_small_residue_multiplier(inst)), inst


_PINNED_MULTIPLIER_DIGEST = "9a98ff14f5fb9969"


def test_multiplier_reproduces_pinned_outputs():
    # sha256 prefix of v over 200 integer- and Surd-bound instances, recorded
    # from the lattice scaled row by row with its fallback scan
    rng = random.Random(20261020)
    vs = []
    for n in range(200):
        lo, hi = _TIERS[n // 2 % 2]
        inst = _valid_instance(rng, lo, hi, 2 + n // 4 % 4, ("int", "surd")[n % 2])
        vs.append(find_small_residue_multiplier(inst))
    assert hashlib.sha256(repr(vs).encode()).hexdigest()[:16] == _PINNED_MULTIPLIER_DIGEST


def test_multiplier_never_not_found_on_valid_instances():
    # MultiplierNotFound must never fire when preconditions hold; spot-check
    rng = random.Random(3)
    for _ in range(40):
        p = 101
        s = 3
        while True:
            V = [rng.randint(2, 100) for _ in range(s)]
            if p ** (s - 1) < math.prod(V) <= 2 * p ** (s - 1):
                break
        inst = SmallResidueInstance(p, tuple(rng.randrange(p) for _ in range(s)), tuple(V))
        try:
            v = find_small_residue_multiplier(inst)
        except MultiplierNotFound:
            pytest.fail("construction failed on a valid instance")
        assert inst.satisfied_by(v)


def test_multiplier_at_a_million_returns_quickly(budget):
    # its volume bound, floor(gram_det^(1/10)), is about 2^80: past float precision
    inst = SmallResidueInstance(
        1000003, (1, 271828, 314159, 577215, 141421), (63000, 63000, 63000, 63000, 63481)
    )
    with budget(5.0):
        v = find_small_residue_multiplier(inst)
    assert inst.satisfied_by(v)


def test_multiplier_computes_the_gram_schmidt_state_once(monkeypatch):
    # The multiplier's basis skips the constructor's rank check, so LLL's own
    # Gram-Schmidt pass is the only one.
    calls = []
    gram_schmidt = lattices._gram_schmidt

    def counting(cols):
        calls.append(cols)
        return gram_schmidt(cols)

    monkeypatch.setattr(lattices, "_gram_schmidt", counting)
    inst = SmallResidueInstance(100003, (1, 31415, 92653, 58979), (5000, 5000, 5000, 8001))
    v = find_small_residue_multiplier(inst)
    assert inst.satisfied_by(v)
    assert len(calls) == 1


def test_multiplier_validates_once(monkeypatch):
    calls = []
    validate = SmallResidueInstance.validate

    def counting(inst):
        calls.append(inst)
        return validate(inst)

    monkeypatch.setattr(SmallResidueInstance, "validate", counting)
    inst = SmallResidueInstance(100003, (1, 31415, 92653, 58979), (5000, 5000, 5000, 8001))
    assert inst.satisfied_by(find_small_residue_multiplier(inst))
    assert calls == [inst]


@pytest.mark.parametrize("b, V, message", [
    # the bound is named by the caller's index, not the pivoted one
    ((0, 1), (5, 12), "V[1] = 12 violates V_i < p = 11"),
    # validation comes before the all-zero shortcut and the dimension cap
    ((0, 0), (3, 3), "prod V_i = 9 violates prod > p^(s-1) = 11"),
    ((1,) * 7, (10,) * 6 + (0,), "V[6] = 0 violates V_i >= 1"),
])
def test_multiplier_refusals_keep_their_order_and_message(b, V, message):
    with pytest.raises(PreconditionViolated) as err:
        find_small_residue_multiplier(SmallResidueInstance(11, b, V))
    assert str(err.value) == message


def test_multiplier_refuses_a_valid_instance_beyond_the_dimension_cap():
    # 10^7 > 11^6, so the instance passes validation and reaches the cap
    inst = SmallResidueInstance(11, (1,) * 7, (10,) * 7)
    inst.validate()
    with pytest.raises(SearchSpaceTooLarge) as err:
        find_small_residue_multiplier(inst)
    assert str(err.value) == "s = 7 exceeds the dimension cap 6"


# --- integer arithmetic against the Fraction and full-ball references --------------


def _full_ball(cols, d, lam, linf_bound):
    """The reference enumeration: every nonzero vector of the ball, v and -v
    both, each leaf vector summed from all the columns."""
    r = len(cols)
    s = len(cols[0])
    M = math.lcm(*(d[i] * d[i + 1] for i in range(r)))
    R2M = s * linf_bound * linf_bound * M
    scale = [M // (d[i] * d[i + 1]) for i in range(r)]
    out = []
    coeffs = [0] * r

    def go(level, used):
        dl = d[level + 1]
        N = sum(lam[j][level] * coeffs[j] for j in range(level + 1, r))
        a = math.isqrt((R2M - used) // scale[level])
        for z in range(-((a + N) // dl), (a - N) // dl + 1):
            coeffs[level] = z
            if level == 0:
                vec = tuple(sum(coeffs[i] * cols[i][t] for i in range(r)) for t in range(s))
                if any(vec) and max(abs(x) for x in vec) <= linf_bound:
                    out.append((vec, tuple(coeffs)))
            else:
                go(level - 1, used + (z * dl + N) ** 2 * scale[level])
        coeffs[level] = 0

    go(r - 1, 0)
    return out


def _reduced_and_bound(B):
    """_lll_reduce(B) and the infinity-norm bound shortest_vector_enum
    enumerates to."""
    reduced, d, lam = _lll_reduce(B)
    bound = max(iroot(B.gram_det, 2 * B.rank), 1)
    bound = min(bound, min(max(abs(x) for x in col) for col in reduced))
    return reduced, d, lam, bound


def _shortest_by_full_ball(B):
    reduced, d, lam, bound = _reduced_and_bound(B)
    return min(
        (lattices._canonical(v) for v, _ in _full_ball(reduced, d, lam, bound)),
        key=lambda v: (max(map(abs, v)), sum(x * x for x in v), tuple(-x for x in v)),
    )


def _check_half_ball(B):
    """shortest_vector_enum equals the full-ball reference, and
    _enumerate_ball returns exactly one vector of each +-v pair of the full
    ball; returns its (vector, coefficients) pairs, the coefficients in the
    reduced basis, looked up in the full ball."""
    assert shortest_vector_enum(B) == _shortest_by_full_ball(B)
    reduced, d, lam, bound = _reduced_and_bound(B)
    half = lattices._enumerate_ball(reduced, d, lam, bound)
    full = _full_ball(reduced, d, lam, bound)
    coeffs = dict(full)
    assert len(coeffs) == len(full)
    vecs = set(half)
    assert len(vecs) == len(half)
    assert not any(tuple(-x for x in v) in vecs for v in vecs)
    assert vecs | {tuple(-x for x in v) for v in vecs} == set(coeffs)
    for v in half:
        assert next(z for z in reversed(coeffs[v]) if z) > 0
    return [(v, coeffs[v]) for v in half]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), r=st.integers(1, 6), m=st.sampled_from((3, 50, 10**4, 10**9)))
def test_half_ball_matches_the_full_ball_on_random_bases(data, r, m):
    dim = data.draw(st.integers(r, 6))
    cols = data.draw(st.lists(st.lists(st.integers(-m, m), min_size=dim, max_size=dim),
                              min_size=r, max_size=r))
    try:
        B = LatticeBasis(cols)
    except RankDeficient:
        assume(False)
    _check_half_ball(B)


def _multiplier_instances():
    """120 instances with b[0] = 1, as the multiplier sees them: s = 2..6
    over small, mid and wide primes, 8 per (tier, s)."""
    rng = random.Random(20261019)
    for lo, hi in ((11, 2000), (2001, 200000), (2**20, 2**32 - 1)):
        for s in range(2, 7):
            for _ in range(8):
                yield _pin_instance(rng, lo, hi, s)


def test_half_ball_matches_the_full_ball_on_multiplier_bases():
    for inst in _multiplier_instances():
        _check_half_ball(build_red_basis(inst))
    # the worked example, whose ball holds a vector with a zero top coefficient
    half = _check_half_ball(build_red_basis(SmallResidueInstance(11, (1, 5), (3, 4))))
    assert any(c[-1] == 0 for _, c in half)


def test_multiplier_reads_its_coefficient_off_the_last_coordinate():
    # the last row of the basis holds only P/W_1, in the first column, so the
    # last coordinate of a lattice vector is c P/W_1 for its first
    # coefficient c; with b[0] = 1 the multiplier is c mod p
    count = 0
    for inst in _multiplier_instances():
        B = build_red_basis(inst)
        vec = shortest_vector_enum(B)
        (coeffs,) = _coefficients(B.cols, [vec])
        c = coeffs[0]
        assert c.denominator == 1
        W = inst.floors
        assert vec[-1] == c * math.prod(W) // W[0]
        assert find_small_residue_multiplier(inst) == c % inst.p
        count += 1
    assert count == 120


def test_instance_floors_each_bound_once(monkeypatch):
    calls = []
    floor_bound = lattices._floor_bound

    def counting(v):
        calls.append(v)
        return floor_bound(v)

    monkeypatch.setattr(lattices, "_floor_bound", counting)
    for V in ((5000, 5000, 5000, 8001),
              (Fraction(10001, 2), Surd(5000**2, 2), 5000, Surd(8001**3, 3))):
        calls.clear()
        inst = SmallResidueInstance(100003, (1, 31415, 92653, 58979), V)
        assert inst.floors == (5000, 5000, 5000, 8001)
        v = find_small_residue_multiplier(inst)
        build_red_basis(inst)
        assert inst.satisfied_by(v)
        assert calls == list(V)


def test_build_red_basis_refuses_a_first_residue_divisible_by_p():
    # each instance is valid, so the refusal is the pivot's, not validation's
    for b, V in (((0, 5), (4, 4)), ((11, 5), (Fraction(9, 2), 3)), ((22, 1, 3), (6, 6, Surd(17, 2)))):
        inst = SmallResidueInstance(11, b, V)
        inst.validate()
        with pytest.raises(PreconditionViolated) as err:
            build_red_basis(inst)
        assert str(err.value) == "b[0] must be invertible mod p; reorder the system"


def test_lll_rounding_is_round_half_even():
    rng = random.Random(20261021)
    for _ in range(3000):
        d = rng.randint(1, 10 ** rng.randint(1, 40))
        n = rng.randint(-(10 ** rng.randint(1, 60)), 10 ** rng.randint(1, 60))
        assert lattices._round_div(n, d) == round(Fraction(n, d))
    # exact ties n/d = k + 1/2, both signs and both parities of k
    for half in (1, 3, 10**20 + 7):
        for k in range(-6, 7):
            n, d = (2 * k + 1) * half, 2 * half
            assert lattices._round_div(n, d) == round(Fraction(n, d)) == k + (k & 1)


def _validate_by_surd_products(inst):
    """The reference validation: Fraction and Surd comparisons, and the
    product of the bounds as a Surd."""
    p = inst.p
    for i, v in enumerate(inst.bounds):
        ev = v if isinstance(v, Surd) else Fraction(v)
        if not ev >= 1:
            raise PreconditionViolated(f"V[{i}] = {v} violates V_i >= 1")
        if not ev < p:
            raise PreconditionViolated(f"V[{i}] = {v} violates V_i < p = {p}")
    prod = Surd(1)
    for v in inst.bounds:
        prod = prod * (v if isinstance(v, Surd) else Fraction(v))
    target = Fraction(p) ** (inst.s - 1)
    if not prod > target:
        raise PreconditionViolated(
            f"prod V_i = {float(prod):.6g} violates prod > p^(s-1) = {target}"
        )


def _refusal(check, inst):
    try:
        check(inst)
    except PreconditionViolated as err:
        return str(err)
    return None


def _bound_variants(rng, inst):
    """inst, and copies with one bound moved onto or across each boundary:
    V_i = 1, V_i = p, V_i below 1, and prod V_i = p^(s-1) exactly."""
    p, V = inst.p, list(inst.bounds)
    out = [V]
    i = rng.randrange(len(V))
    for w in (1, Surd(1, 3), p, Surd(p**2, 2), Fraction(3 * p, 3), p - Fraction(1, 7),
              Surd(p**3 - 1, 3), 0, Fraction(6, 7), Surd(Fraction(99, 100), 2)):
        out.append(V[:i] + [w] + V[i + 1:])
    # the last bound (a/b)^(1/6) with prod V_i = p^(s-1) exactly, then nudged
    # above and below it
    rest = Fraction(p) ** (6 * (len(V) - 1))
    for v in V[:-1]:
        rest /= (v.radicand ** (6 // v.index)) if isinstance(v, Surd) else Fraction(v) ** 6
    for nudge in (1, Fraction(10**12 + 1, 10**12), Fraction(10**12 - 1, 10**12)):
        out.append(V[:-1] + [Surd(rest * nudge, 6)])
    return [SmallResidueInstance(p, inst.b, tuple(w)) for w in out]


def test_integer_validation_matches_surd_products():
    rng = random.Random(20261022)
    seen = Counter()
    for kind in ("int", "fraction", "surd", "mixed"):
        for lo, hi in _TIERS:
            for s in range(2, 7):
                for _ in range(4):
                    if kind == "mixed":
                        inst = _valid_instance(rng, lo, hi, s, rng.choice(("int", "fraction")))
                        # square and cube roots next to ints and Fractions
                        V = []
                        for v in inst.bounds:
                            k = rng.choice((1, 2, 3))
                            V.append(v if k == 1 else Surd(Fraction(v) ** k, k))
                        inst = SmallResidueInstance(inst.p, inst.b, tuple(V))
                    else:
                        inst = _valid_instance(rng, lo, hi, s, kind)
                    for case in _bound_variants(rng, inst):
                        want = _refusal(_validate_by_surd_products, case)
                        assert _refusal(SmallResidueInstance.validate, case) == want, case
                        seen[want and want.split(" violates ")[1][:6]] += 1
    # each of the three refusals, and acceptance, was reached
    assert set(seen) == {None, "V_i >=", "V_i < ", "prod >"}
    # the exact boundaries are refused with the reference's message
    p = 11
    for V, message in (
        ((Fraction(11, 2), 2), "prod V_i = 11 violates prod > p^(s-1) = 11"),
        ((Surd(11, 2), Surd(11, 2)), "prod V_i = 11 violates prod > p^(s-1) = 11"),
        ((Surd(121, 3),) * 3, "prod V_i = 121 violates prod > p^(s-1) = 121"),
        ((11, 2), "V[0] = 11 violates V_i < p = 11"),
        ((3, Surd(121, 2)), "V[1] = Surd(121)^(1/2) violates V_i < p = 11"),
    ):
        inst = SmallResidueInstance(p, (1,) * len(V), V)
        assert _refusal(SmallResidueInstance.validate, inst) == message
        assert _refusal(_validate_by_surd_products, inst) == message


def test_a_multiplier_sharing_a_factor_with_p_satisfies_nothing():
    inst = SmallResidueInstance(11, (1, 5), (3, 4))
    assert inst.satisfied_by(2)  # |2| <= 3 and |10| = 1 <= 4 mod 11
    assert not inst.satisfied_by(11)
    assert not inst.satisfied_by(22)
