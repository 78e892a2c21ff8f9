"""The F_p modular-power kernel of polynomials._upowmod against the generic
square-and-multiply loop it replaces at t = 1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import PRIMES, _outcome, _raw_lists, field_calls  # noqa: F401

from subgroup_values.fields import FieldCtx, ext_field_build
from subgroup_values.polynomials import _umul, _upowmod, _urem


def _ref_upowmod(ctx, base, e, m):
    result = [ctx.one_raw]
    b = _urem(ctx, base, m)
    while e:
        if e & 1:
            result = _urem(ctx, _umul(ctx, result, b), m)
        b = _urem(ctx, _umul(ctx, b, b), m)
        e >>= 1
    return result


@settings(max_examples=400, deadline=None)
@given(data=st.data(), p=st.sampled_from(PRIMES))
def test_upowmod_matches_the_generic_loop(data, p):
    # bases up to twice the modulus's length; moduli empty, constant, non-monic
    # or with a zero top coefficient
    ctx = FieldCtx(p)
    base = data.draw(_raw_lists(p, max_size=12))
    m = data.draw(_raw_lists(p, max_size=6))
    e = data.draw(st.one_of(st.integers(0, 3), st.just(p), st.integers(0, 2**40)))
    assert _outcome(_upowmod, ctx, base, e, m) == _outcome(_ref_upowmod, ctx, base, e, m)


@pytest.mark.parametrize("base, e, m", [
    ([0, 1], 101, [3, 5, 7, 11, 2]),  # a non-monic modulus
    ([4, 0, 9], 5, [7]),  # a constant modulus: every power reduces to []
    ([4, 0, 9], 0, [1, 2, 3]),  # e = 0: [1], after the base's reduction
    ([9, 8, 7, 6, 5, 4, 3, 2, 1], 77, [1, 0, 1]),  # a base longer than the modulus
    ([0, 0], 3, [1, 2, 3]),  # a zero-padded base shorter than the modulus
    ([5, 1], 0, [1, 2, 0]),  # ZeroInverse even at e = 0
    ([5, 1], 2, []),  # ZeroPolynomial
])
def test_upowmod_matches_the_generic_loop_on_pinned_inputs(base, e, m):
    ctx = FieldCtx(101)
    assert _outcome(_upowmod, ctx, base, e, m) == _outcome(_ref_upowmod, ctx, base, e, m)


def test_upowmod_makes_no_field_method_call_at_t1_and_keeps_the_generic_path_at_t2(field_calls):
    ctx = FieldCtx(101)
    got = [_upowmod(ctx, [0, 1], e, [3, 5, 7, 11, 2]) for e in (0, 1, 101, 10**6)]
    assert field_calls == {"radd": 0, "rmul": 0, "rinv": 0}
    assert got == [_ref_upowmod(ctx, [0, 1], e, [3, 5, 7, 11, 2]) for e in (0, 1, 101, 10**6)]
    for p in (3, 5):
        ctx = ext_field_build(p, 2)
        base = [ctx.from_int(2), ctx.el((1, 1)).raw, ctx.one_raw]
        m = [ctx.el((0, 1)).raw, ctx.zero_raw, ctx.from_int(2)]
        field_calls.update(radd=0, rmul=0, rinv=0)
        got = _upowmod(ctx, base, ctx.q, m)
        assert all(field_calls.values()), (p, field_calls)
        assert got == _ref_upowmod(ctx, base, ctx.q, m), p
