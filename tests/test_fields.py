import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgroup_values.errors import (
    CtxMismatch,
    DegreeTooLarge,
    NonInvertible,
    NotPrime,
    ParseError,
    PrimeTooLarge,
    ZeroInverse,
)
from subgroup_values.fields import (
    FieldCtx,
    centered_residue,
    check_prime,
    ext_field_build,
    is_prime,
    mod_inverse,
    signed_residue,
)
from subgroup_values.factorization import factor_univariate
from subgroup_values.parsing import parse_poly_expr
from subgroup_values.polynomials import UniPoly
from subgroup_values.surd import Surd, iroot

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_mod_inverse_examples():
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(1, 5) == 1
    assert mod_inverse(1, 101) == 1
    assert mod_inverse(2, 11) == 6


def test_mod_inverse_noninvertible():
    with pytest.raises(NonInvertible):
        mod_inverse(0, 7)
    with pytest.raises(NonInvertible):
        mod_inverse(14, 7)


def test_centered_residue_examples():
    assert centered_residue(10, 7) == 3
    assert centered_residue(4, 7) == 3
    assert centered_residue(7, 7) == 0


@given(a=st.integers(-(10**9), 10**9), p=st.sampled_from([2, 3, 5, 7, 11, 101, 10007]))
def test_centered_residue_properties(a, p):
    r = centered_residue(a, p)
    assert 0 <= r <= p / 2
    assert (a - r) % p == 0 or (a + r) % p == 0


@given(a=st.integers(-(10**6), 10**6), p=st.sampled_from([3, 5, 7, 13, 101]))
def test_signed_residue_matches_centered(a, p):
    s = signed_residue(a, p)
    assert -(p - 1) // 2 <= s <= p // 2
    assert (s - a) % p == 0
    assert abs(s) == centered_residue(a, p)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 10007, 4294967291}
    for n in primes:
        assert is_prime(n)
    for n in (0, 1, 4, 6, 9, 10006, 2**31 - 2):
        assert not is_prime(n)


def test_ext_field_build_examples():
    f4 = ext_field_build(2, 2)
    assert f4.modulus == (1, 1, 1)  # X^2 + X + 1

    f25 = ext_field_build(5, 2)
    assert f25.modulus == (2, 0, 1)  # X^2 + 2

    f3 = ext_field_build(3, 1)
    assert f3.modulus is None and f3.t == 1


def test_ext_field_build_picks_first_irreducible_over_f5():
    # independent oracle: walk candidates in (c1, c0) order checking for roots
    for c1 in range(5):
        for c0 in range(5):
            has_root = any((x * x + c1 * x + c0) % 5 == 0 for x in range(5))
            if not has_root:
                assert ext_field_build(5, 2).modulus == (c0, c1, 1)
                return
    raise AssertionError("no irreducible quadratic over F_5?")


def test_ext_field_build_errors():
    with pytest.raises(NotPrime):
        ext_field_build(6, 2)
    with pytest.raises(DegreeTooLarge):
        ext_field_build(5, 13)


def test_check_prime_refuses_a_float_equal_to_a_prime():
    # 7.0 % 7 == 0 and 7.0 == 7, so is_prime(7.0) is True: the type test refuses it
    with pytest.raises(NotPrime):
        check_prime(7.0)


def test_ext_field_build_deterministic():
    a = ext_field_build(7, 3)
    b = ext_field_build(7, 3)
    assert a == b and a.modulus == b.modulus


@pytest.mark.parametrize(
    "p,t", [(p, t) for p in (2, 3, 5, 7, 11) for t in (2, 3, 4)] + [(2, 5), (2, 6)]
)
def test_ext_field_build_picks_first_irreducible_candidate(p, t):
    # DDF/EDF factoring over F_p is the oracle, independent of the Rabin test;
    # candidates run in the documented order, by (c_{t-1}, ..., c_0)
    base = FieldCtx(p)
    for n in range(p**t):
        cand = tuple((n // p**i) % p for i in range(t)) + (1,)
        fm = factor_univariate(UniPoly.from_ints(base, cand))
        if len(fm.factors) == 1 and fm.factors[0][1] == 1:
            assert ext_field_build(p, t).modulus == cand
            return
    raise AssertionError(f"no irreducible modulus of degree {t} over F_{p}")


def test_field_ctx_rejects_bad_moduli():
    F2, F3 = FieldCtx(2), FieldCtx(3)
    assert FieldCtx(3, 2, (1, 0, 1)).modulus == (1, 0, 1)
    with pytest.raises(ValueError):
        FieldCtx(3, 2, (1, 0, 2))  # 2X^2 + 1 is not monic
    with pytest.raises(ValueError):
        FieldCtx(3, 2, (1, 0, 1, 0))  # wrong degree
    bad = [
        (3, UniPoly.from_ints(F3, (1, 0, 1)) ** 2),  # square of an irreducible
        # (X^2+1)(X^2+X+2): no root, factors of degree 2 | 4
        (3, UniPoly.from_ints(F3, (1, 0, 1)) * UniPoly.from_ints(F3, (2, 1, 1))),
        # X^5+X+1 = (X^2+X+1)(X^3+X^2+1): no root, and no factor degree divides 5
        (2, UniPoly.from_ints(F2, (1, 1, 1)) * UniPoly.from_ints(F2, (1, 0, 1, 1))),
    ]
    for p, m in bad:
        assert factor_univariate(m).factors != ((m, 1),)
        with pytest.raises(ValueError):
            FieldCtx(p, m.degree, m.coeffs)


@pytest.mark.parametrize("p,t", [(2, 2), (2, 8), (2, 12), (3, 5), (5, 4), (13, 2), (4409, 2)])
def test_extension_inverse(p, t):
    ctx = ext_field_build(p, t)
    rng = random.Random(p * 100 + t)
    units = [tuple(rng.randrange(p) for _ in range(t)) for _ in range(200)]
    # (c, 0, ..., 0) has trailing zeros that the inverse must strip
    units += [ctx.from_int(c) for c in range(1, p)]
    units += [(0,) * (t - 1) + (c,) for c in range(1, p)]
    for a in units:
        if ctx.is_zero_raw(a):
            continue
        assert ctx.rmul(a, ctx.rinv(a)) == ctx.one_raw, a


def test_f4_multiplication():
    f4 = ext_field_build(2, 2)
    x = f4.el((0, 1))
    assert (x * x).coeffs == (1, 1)  # x^2 = x + 1
    assert f4.one.inverse() == f4.one


def test_fermat_in_f7():
    f7 = FieldCtx(7)
    assert (f7.el(3) ** 6) == f7.one


@given(p=st.sampled_from([3, 5, 7]), t=st.sampled_from([1, 2, 3]), n=st.integers(0, 342))
@settings(max_examples=60, deadline=None)
def test_inverse_and_order_properties(p, t, n):
    ctx = ext_field_build(p, t)
    n %= ctx.q
    raw = ctx.from_int(0)
    for i, e in enumerate(ctx.elements()):
        if i == n:
            raw = e
            break
    a = ctx.el(raw) if t > 1 else ctx.el(n % p)
    if a.is_zero():
        with pytest.raises(ZeroInverse):
            a.inverse()
    else:
        assert a * a.inverse() == ctx.one
        assert a ** (ctx.q - 1) == ctx.one


def test_ctx_mismatch():
    a = FieldCtx(5).el(2)
    b = FieldCtx(7).el(2)
    with pytest.raises(CtxMismatch):
        _ = a * b


def test_elements_order_is_ascending_key():
    ctx = ext_field_build(3, 2)
    els = list(ctx.elements())
    keys = [ctx.raw_key(e) for e in els]
    assert keys == sorted(keys) == list(range(9))


@pytest.mark.parametrize("p", [2, 3, 101, 4294967291])
def test_prime_field_power_is_pow(p):
    ctx = FieldCtx(p)
    for e in (-3, -1, 0, 1, p - 2, 2**40):
        for a in {0, 1, 2 % p, p - 1, 12345 % p}:
            if a == 0 and e < 0:
                continue
            assert ctx.rpow(a, e) == pow(a, e, p), (a, e)
    with pytest.raises(ZeroInverse):
        ctx.rpow(0, -1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: parse_poly_expr("x^2+@", 31), ParseError, "unexpected character '@' (at offset 4)"),
    # 2^32 + 15, the first prime past the cap
    (lambda: check_prime(4294967311), PrimeTooLarge,
     "p = 4294967311 exceeds the 2^32 desk-scale cap"),
    (lambda: FieldCtx(7, 0), DegreeTooLarge, "extension degree must be in 1..12, got 0"),
    (lambda: FieldCtx(7, 13), DegreeTooLarge, "extension degree must be in 1..12, got 13"),
    (lambda: FieldCtx(7, 1, (1, 1)), ValueError, "a prime field takes no modulus"),
    (lambda: FieldCtx(7, 2), ValueError, "an extension field needs a modulus; use ext_field_build"),
    (lambda: Surd(-1), ValueError, "radicand must be nonnegative"),
    (lambda: Surd(2, 0), ValueError, "index must be >= 1"),
    (lambda: iroot(-8, 3), ValueError, "negative radicand"),
], ids=[
    "tokenize", "prime-cap", "degree-0", "degree-13", "prime-modulus", "no-modulus",
    "surd-radicand", "surd-index", "iroot-radicand",
])
def test_inputs_outside_the_limits_are_refused(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


# ext_field_build(p, t).modulus for every p^t <= 10^12 below, recorded before
# FieldCtx.elements and the modulus search shared one walk of base-p digits
PINNED_MODULI = {
    (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1), (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1), (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1), (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (7, 2): (1, 0, 1), (7, 3): (2, 0, 0, 1), (7, 4): (1, 1, 0, 0, 1),
    (7, 5): (3, 1, 0, 0, 0, 1), (7, 6): (2, 0, 0, 0, 0, 0, 1),
    (11, 2): (1, 0, 1), (11, 3): (4, 1, 0, 1), (11, 4): (2, 1, 0, 0, 1),
    (11, 5): (2, 0, 0, 0, 0, 1), (11, 6): (2, 1, 0, 0, 0, 0, 1),
    (13, 2): (2, 0, 1), (13, 3): (2, 0, 0, 1), (13, 4): (2, 0, 0, 0, 1),
    (13, 5): (2, 4, 0, 0, 0, 1), (13, 6): (2, 0, 0, 0, 0, 0, 1),
    (101, 2): (2, 0, 1), (101, 3): (1, 1, 0, 1), (101, 4): (2, 0, 0, 0, 1),
    (101, 5): (2, 0, 0, 0, 0, 1),
}


def test_ext_field_build_keeps_its_pinned_moduli():
    pairs = [(p, t) for p in (2, 3, 5, 7, 11, 13, 101) for t in range(2, 7) if p**t <= 10**12]
    assert pairs == list(PINNED_MODULI)
    for (p, t), modulus in PINNED_MODULI.items():
        assert ext_field_build(p, t).modulus == modulus, (p, t)


@pytest.mark.parametrize("p, t", [(7, 1), (2, 3), (5, 2), (3, 4)])
def test_field_constants_and_the_digit_walk(p, t):
    ctx = FieldCtx(p) if t == 1 else ext_field_build(p, t)
    assert ctx.zero_raw == ctx.from_int(0) and ctx.is_zero_raw(ctx.zero_raw)
    assert ctx.one_raw == ctx.from_int(1) and ctx.one.raw == ctx.one_raw
    assert ctx.rmul(ctx.one_raw, ctx.from_int(3)) == ctx.from_int(3)
    els = list(ctx.elements())
    assert [ctx.raw_key(e) for e in els] == list(range(p**t))
    assert len(set(els)) == p**t


def test_a_field_element_times_an_int_is_a_type_error():
    with pytest.raises(TypeError):
        FieldCtx(7).el(3) * 3


def _rabin_walk_modulus(p, t):
    # the search with a Rabin test for every candidate, binomials included
    from subgroup_values.fields import _is_irreducible

    base = FieldCtx(p)
    for n in itertools.count():
        cand = tuple((n // p**i) % p for i in range(t)) + (1,)
        if _is_irreducible(base, list(cand)):
            return cand


def test_ext_field_build_agrees_with_the_rabin_walk():
    for p in (q for q in range(2, 400) if is_prime(q)):
        for t in range(2, 7):
            if p**t <= 10**12:
                assert ext_field_build(p, t).modulus == _rabin_walk_modulus(p, t), (p, t)


@pytest.mark.parametrize("t, modulus", [(2, (1, 0, 1)), (3, (3, 1, 0, 1))])
def test_ext_field_build_near_the_prime_limit_stays_small(t, modulus):
    # the digit walk must not copy range(p): under a 1 GiB address-space
    # limit a copy of range(4294967291) raises MemoryError
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from subgroup_values.fields import ext_field_build\n"
        f"print(ext_field_build(4294967291, {t}).modulus)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       env=env, timeout=5)
    assert (r.returncode, r.stdout, r.stderr) == (0, f"{modulus}\n", "")
