"""The F_p integer kernels against the generic loops they replace at t = 1.

The _ref_* functions are the field-generic loops of the polynomial, λ-scan
and series-lifting layers, kept verbatim as the reference: every kernel must
return the same list, element for element and stripped the same way, and
raise the same exception. The series layer has one product kernel,
_spoly_coef; _spoly_mul builds its columns, and a one-row _spoly_mul is the
truncated series product checked against _ref_series_mul.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgroup_values.errors import SubgroupValuesError, ZeroPolynomial
from subgroup_values.factorization import _spoly_coef, _spoly_mul, embed_unipoly
from subgroup_values.fields import FieldCtx, ext_field_build
from subgroup_values.lambda_scan import _fiber_table, _ratio_table, _sieve
from subgroup_values.parsing import parse_rational_expr
from subgroup_values.polynomials import _udivmod, _ueval, _umul, _ustrip

PRIMES = (2, 3, 101, 4294967291)


# --- the generic loops, as the reference ---------------------------------------


def _ref_umul(ctx, a, b):
    if not a or not b:
        return []
    z = ctx.zero_raw
    out = [z] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not ctx.is_zero_raw(x):
            for j, y in enumerate(b):
                out[i + j] = ctx.radd(out[i + j], ctx.rmul(x, y))
    return _ustrip(ctx, out)


def _ref_udivmod(ctx, a, b):
    if not b:
        raise ZeroPolynomial("division by the zero polynomial")
    rem = list(a)
    db = len(b) - 1
    inv = ctx.one_raw if b[-1] == ctx.one_raw else ctx.rinv(b[-1])
    z = ctx.zero_raw
    q = [z] * max(len(rem) - db, 0)
    while rem and len(rem) - 1 >= db:
        c = ctx.rmul(rem[-1], inv)
        shift = len(rem) - 1 - db
        q[shift] = c
        for i in range(db + 1):
            rem[shift + i] = ctx.rsub(rem[shift + i], ctx.rmul(c, b[i]))
        _ustrip(ctx, rem)
    return q, rem


def _ref_ueval(ctx, f, x):
    acc = ctx.zero_raw
    for c in reversed(f):
        acc = ctx.radd(ctx.rmul(acc, x), c)
    return acc


def _ref_series_mul(ctx, a, b, prec):
    z = ctx.zero_raw
    out = [z] * prec
    for i, x in enumerate(a):
        if i >= prec:
            break
        if not ctx.is_zero_raw(x):
            top = min(prec - i, len(b))
            for j in range(top):
                y = b[j]
                if not ctx.is_zero_raw(y):
                    out[i + j] = ctx.radd(out[i + j], ctx.rmul(x, y))
    return out


def _ref_spoly_mul(ctx, A, B, prec):
    z = ctx.zero_raw
    out = [[z] * prec for _ in range(len(A) + len(B) - 1)]
    for i, sa in enumerate(A):
        for j, sb in enumerate(B):
            row = out[i + j]
            for k, x in enumerate(sa):
                if not ctx.is_zero_raw(x):
                    top = min(prec - k, len(sb))
                    for l in range(top):
                        y = sb[l]
                        if not ctx.is_zero_raw(y):
                            row[k + l] = ctx.radd(row[k + l], ctx.rmul(x, y))
    return out


def _ref_ratio_table(ctx, f, g):
    ratios = []
    for x0 in ctx.elements():
        fx = _ref_ueval(ctx, f, x0)
        gx = _ref_ueval(ctx, g, x0)
        ratios.append(None if ctx.is_zero_raw(fx) else ctx.rmul(gx, ctx.rinv(fx)))
    return ratios


def _ref_sieve_settles(ctx, lam_raw, ratios, table, need_point):
    mask = -1
    for r in ratios:
        entry = table.get(None if r is None else ctx.rmul(lam_raw, r))
        if entry is None:
            continue
        mask &= entry[0]
        need_point = need_point and not entry[1]
        if not mask and not need_point:
            return True
    return False


def _ref_sieve(ctx, lams, ratios, table, need_point):
    return [lam for lam in lams if not _ref_sieve_settles(ctx, lam, ratios, table, need_point)]


def _series_mul(ctx, a, b, prec):
    """The one-row product: a truncated series product through _spoly_mul."""
    return _spoly_mul(ctx, [a], [b], prec)[0]


def _outcome(fn, *args):
    """fn's result, or the type of the package error it raised."""
    try:
        return fn(*args)
    except SubgroupValuesError as ex:
        return type(ex)


# --- the polynomial and series kernels over F_p ---------------------------------


@st.composite
def _raw_lists(draw, p, max_size=7):
    """Raw lists over F_p: empty, random, and zero-padded at the top."""
    elem = st.one_of(st.just(0), st.just(1), st.just(p - 1), st.integers(0, p - 1))
    body = draw(st.lists(elem, max_size=max_size))
    return body + [0] * draw(st.integers(0, 2))


def _assert_kernels_match(ctx, a, b, prec):
    p = ctx.p
    assert _umul(ctx, a, b) == _ref_umul(ctx, a, b)
    assert _outcome(_udivmod, ctx, a, b) == _outcome(_ref_udivmod, ctx, a, b)
    for x in {0, 1, p - 1, a[0] if a else 2 % p}:
        assert _ueval(ctx, a, x) == _ref_ueval(ctx, a, x)
    assert _series_mul(ctx, a, b, prec) == _ref_series_mul(ctx, a, b, prec)
    # rows of several lengths, some longer than prec
    A = [a[k:] for k in range(0, len(a), 3)]
    B = [b, b[1:]]
    assert _spoly_mul(ctx, A, B, prec) == _ref_spoly_mul(ctx, A, B, prec)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), p=st.sampled_from(PRIMES))
def test_kernels_match_the_generic_loops(data, p):
    ctx = FieldCtx(p)
    a, b = data.draw(_raw_lists(p)), data.draw(_raw_lists(p))
    _assert_kernels_match(ctx, a, b, data.draw(st.integers(1, 6)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), field=st.sampled_from(((101, 1), (4294967291, 1), (5, 2), (3, 3))),
       prec=st.integers(1, 6))
def test_series_coefficient_is_a_column_of_the_product(data, field, prec):
    # The Hensel lift extends its running products one X-coefficient at a
    # time: _spoly_coef(A, B, c) must be column c of the product mod X^prec.
    ctx = ext_field_build(*field)
    elem = st.integers(0, ctx.p - 1) if ctx.t == 1 else st.sampled_from(list(ctx.elements()))
    rows = st.lists(st.lists(elem, min_size=prec, max_size=prec), min_size=1, max_size=3)
    A, B = data.draw(rows), data.draw(rows)
    prod = _ref_spoly_mul(ctx, A, B, prec)
    for c in range(prec):
        assert _spoly_coef(ctx, A, B, c) == [row[c] for row in prod]


@pytest.mark.parametrize("a, b", [
    ([1, 0], [1]),  # a zero-padded product
    ([1, 2], [3, 0]),  # a divisor whose leading coefficient is zero: ZeroInverse
    ([5], []),  # an empty divisor: ZeroPolynomial
    ([100, 100, 100], [100, 99]),  # sums that exceed p
    ([], [1, 2]),
])
@pytest.mark.parametrize("prec", (1, 3))
def test_kernels_match_the_generic_loops_on_pinned_inputs(a, b, prec):
    _assert_kernels_match(FieldCtx(101), a, b, prec)


def test_division_by_a_non_monic_divisor_reconstructs_the_dividend():
    ctx = FieldCtx(4294967291)
    a = [3, 4294967290, 17, 0, 123456789, 99]
    b = [7, 0, 2**31]
    q, r = _udivmod(ctx, a, b)
    assert len(r) < len(b)
    back = _umul(ctx, q, b)
    back = back + [0] * (len(a) - len(back))
    for i, c in enumerate(r):
        back[i] = (back[i] + c) % ctx.p
    assert back == a


# --- the ratio table and the sieve ----------------------------------------------

MAPS = ("x^2+x", "x^3+x", "(x^2+1)/(x+2)", "x^2/(x^4+x^2+1)", "(x^3+2)/(x^3-2)")


def _inputs(expr, p, t):
    psi = parse_rational_expr(expr, p)
    ctx = ext_field_build(p, t)
    f = list(embed_unipoly(psi.num, ctx).coeffs)
    g = list(embed_unipoly(psi.den, ctx).coeffs)
    return ctx, f, g, max(psi.num.degree, psi.den.degree)


@pytest.mark.parametrize("p", (7, 11, 101))
def test_ratio_table_holds_g_over_f_at_every_point(p):
    for expr in MAPS:
        ctx, f, g, _ = _inputs(expr, p, 1)
        want = []
        for x in range(p):
            fx = sum(c * pow(x, i, p) for i, c in enumerate(f)) % p
            gx = sum(c * pow(x, i, p) for i, c in enumerate(g)) % p
            want.append(gx * pow(fx, p - 2, p) % p if fx else None)
        assert _ratio_table(ctx, f, g) == want, expr


@pytest.mark.parametrize("p, t", ((5, 2), (3, 3), (7, 2)))
def test_extension_ratio_table_inverts_once(p, t, monkeypatch):
    # the batch inversion gives the per-point rinv table, None where f has a
    # root, from one inversion in F_{p^t}
    rinv = FieldCtx.rinv
    inverted = []

    def counted(self, a):
        if self.t > 1:
            inverted.append(a)
        return rinv(self, a)

    for expr in MAPS:
        ctx, f, g, _ = _inputs(expr, p, t)
        want = _ref_ratio_table(ctx, f, g)
        with monkeypatch.context() as m:
            m.setattr(FieldCtx, "rinv", counted)
            inverted.clear()
            assert _ratio_table(ctx, f, g) == want, expr
        assert len(inverted) == 1, expr
        if expr == "x^2+x":
            assert want.count(None) == 2


@pytest.mark.parametrize("p", (7, 11, 31))
def test_sieve_matches_the_generic_loop_on_every_lambda(p):
    settled = 0
    for expr in MAPS:
        ctx, f, g, n = _inputs(expr, p, 1)
        ratios = _ratio_table(ctx, f, g)
        table = _fiber_table(ctx, f, g, n, ratios)
        for need_point in (False, True):
            got = _sieve(ctx, range(1, p), ratios, table, need_point)
            assert got == _ref_sieve(ctx, range(1, p), ratios, table, need_point), (expr, need_point)
            settled += p - 1 - len(got)
    assert settled > 0


@pytest.mark.parametrize("t", (1, 2))
def test_sieve_takes_only_a_root_as_the_point_certificate(t):
    # two rootless fibers of a quartic, one split 2 + 2 (mask bit 2) and one
    # irreducible (mask 0), rule out every Y-degree; without a root among
    # them the point certificate stays open
    ctx = ext_field_build(7, t)
    a, b = itertools.islice((x for x in ctx.elements() if not ctx.is_zero_raw(x)), 2)
    table = {a: (0b100, False), b: (0, False)}
    lams = [ctx.one_raw]
    assert _sieve(ctx, lams, [a, b], table, False) == []
    assert _sieve(ctx, lams, [a, b], table, True) == lams


# --- the dispatch: no field-method call at t = 1, the generic path at t = 2 -----


@pytest.fixture
def field_calls(monkeypatch):
    """Counts of FieldCtx.radd, rmul and rinv calls."""
    calls = {"radd": 0, "rmul": 0, "rinv": 0}
    for name in calls:
        method = getattr(FieldCtx, name)

        def counting(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(FieldCtx, name, counting)
    return calls


def _run_every_kernel(ctx, f, g, table, ratio_table, umul, udivmod, ueval, sieve, series_mul, spoly_mul):
    """One call of each kernel, or of its reference, on ψ = f/g's data."""
    ratios = ratio_table(ctx, f, g)
    series = [f + [ctx.zero_raw] * 3, g + [ctx.one_raw] * 2]
    return [
        umul(ctx, f, g),
        udivmod(ctx, f, [ctx.from_int(3), ctx.zero_raw, ctx.from_int(2)]),
        [ueval(ctx, f, x) for x in itertools.islice(ctx.elements(), 20)],
        ratios,
        sieve(ctx, [ctx.from_int(lam) for lam in (1, 2, 3)], ratios, table, True),
        series_mul(ctx, f, g, 4),
        spoly_mul(ctx, series, series[::-1], 4),
    ]


KERNELS = (_ratio_table, _umul, _udivmod, _ueval, _sieve, _series_mul, _spoly_mul)
REFERENCES = (
    _ref_ratio_table, _ref_umul, _ref_udivmod, _ref_ueval, _ref_sieve,
    _ref_series_mul, _ref_spoly_mul,
)


def _table(ctx, f, g, n):
    """The fiber table of ψ = f/g, or a stand-in when it is empty."""
    ratios = _ref_ratio_table(ctx, f, g)
    return _fiber_table(ctx, f, g, n, ratios) or {r: (0, True) for r in ratios}


def test_prime_field_kernels_make_no_field_method_call(field_calls):
    for expr in MAPS:
        ctx, f, g, n = _inputs(expr, 101, 1)
        table = _table(ctx, f, g, n)
        field_calls.update(radd=0, rmul=0, rinv=0)
        got = _run_every_kernel(ctx, f, g, table, *KERNELS)
        assert field_calls == {"radd": 0, "rmul": 0, "rinv": 0}, expr
        assert got == _run_every_kernel(ctx, f, g, table, *REFERENCES), expr


def test_extension_fields_keep_the_generic_path(field_calls):
    # At t = 2 every kernel runs the field-generic loop: it calls the FieldCtx
    # methods and returns what the reference loops return.
    for expr, p in (("(x^3+2)/(x^2+3)", 5), ("x^2+x", 3), ("(x^2+1)/(x+2)", 7)):
        ctx, f, g, n = _inputs(expr, p, 2)
        table = _table(ctx, f, g, n)
        field_calls.update(radd=0, rmul=0, rinv=0)
        got = _run_every_kernel(ctx, f, g, table, *KERNELS)
        assert all(field_calls.values()), (expr, field_calls)
        assert got == _run_every_kernel(ctx, f, g, table, *REFERENCES), (expr, p)
