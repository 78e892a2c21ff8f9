"""The shared arithmetic routines against the copies they replaced.

fields._power is the one square-and-multiply loop, fields._mulmod the one
F_p multiply-mod kernel, polynomials._ueval the one Horner scheme, and the
λ-scan reads subfield membership from factorization.Embedding. The _ref_*
functions below are the loops each of them replaced, kept verbatim as the
reference: FieldCtx.rmul and rpow over F_{p^t}, UniPoly.__pow__, both
branches of _upowmod, parsing's power of an integer bipoly, BiPoly.eval_raw,
Embedding.map_raw, the scan's Frobenius subfield test and lattices'
_floor_bound.
"""

import random
from fractions import Fraction

import pytest

from subgroup_values import lambda_scan
from subgroup_values.cli import cmd_dispatch
from subgroup_values.errors import PreconditionViolated
from subgroup_values.factorization import _u_roots, get_embedding
from subgroup_values.fields import FieldCtx, _mulmod, _power, ext_field_build
from subgroup_values.lambda_scan import _new_elements, exceptional_lambdas
from subgroup_values.lattices import _floor_bound
from subgroup_values.parsing import _ib_mul, parse_int_bipoly, parse_rational_expr
from subgroup_values.polynomials import BiPoly, UniPoly, _umul, _upowmod, _urem
from subgroup_values.surd import Surd

# F_{p^t} for p = 4294967291: ext_field_build searches its moduli in
# lexicographic order, which at this p is far too slow for t = 3 (no
# x^3 + c is irreducible when p = 2 mod 3), so the moduli are given.
BIG_P = 4294967291
BIG_MODULI = {
    2: (1, 1, 1),
    3: (3, 1, 0, 1),
    4: (1, 1, 0, 0, 1),
    5: (20, 1, 0, 0, 0, 1),
    6: (3, 1, 0, 0, 0, 0, 1),
}


def _field(p, t):
    return FieldCtx(p, t, BIG_MODULI[t]) if p == BIG_P else ext_field_build(p, t)


def _elements(ctx, rng, n):
    """zero, one, -1, and n random raws of ctx, t > 1."""
    fixed = [ctx.zero_raw, ctx.one_raw, ctx.rneg(ctx.one_raw)]
    return fixed + [tuple(rng.randrange(ctx.p) for _ in range(ctx.t)) for _ in range(n)]


# --- the replaced copies, as the reference --------------------------------------


def _ref_rmul(ctx, a, b):
    p = ctx.p
    t = ctx.t
    prod = [0] * (2 * t - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] = (prod[i + j] + x * y) % p
    red = tuple((p - c) % p for c in ctx.modulus[:-1])
    for i in range(2 * t - 2, t - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            base = i - t
            for j, rc in enumerate(red):
                if rc:
                    prod[base + j] = (prod[base + j] + c * rc) % p
    return tuple(prod[:t])


def _ref_rpow(ctx, a, e):
    result = ctx.one_raw
    base = a
    while e:
        if e & 1:
            result = _ref_rmul(ctx, result, base)
        base = _ref_rmul(ctx, base, base)
        e >>= 1
    return result


def _ref_unipoly_pow(f, e):
    result = UniPoly.one(f.ctx)
    base = f
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


def _ref_upowmod(ctx, base, e, m):
    if ctx.t == 1:
        b = _urem(ctx, base, m)
        p = ctx.p
        d = len(m) - 1
        c = pow(m[-1], -1, p)
        tail = [-x * c % p for x in m[:-1]]

        def mulmod(u, v):
            out = [0] * (len(u) + len(v) - 1)
            for i, x in enumerate(u):
                if x:
                    for j, y in enumerate(v, i):
                        out[j] += x * y
            for i in range(len(out) - 1 - d, -1, -1):
                x = out.pop() % p
                if x:
                    for j, y in enumerate(tail, i):
                        out[j] += x * y
            out = [x % p for x in out]
            while out and not out[-1]:
                out.pop()
            return out

        result = [1]
        while True:
            if e & 1:
                result = mulmod(result, b)
            e >>= 1
            if not e:
                return result
            b = mulmod(b, b)
    result = [ctx.one_raw]
    b = _urem(ctx, base, m)
    while e:
        if e & 1:
            result = _urem(ctx, _umul(ctx, result, b), m)
        b = _urem(ctx, _umul(ctx, b, b), m)
        e >>= 1
    return result


def _ref_ib_pow(a, e):
    acc = {(0, 0): 1}
    for _ in range(e):
        acc = _ib_mul(acc, a)
    return acc


def _ref_bipoly_eval_raw(F, x_raw, y_raw):
    ctx = F.ctx
    if not F.terms:
        return ctx.zero_raw
    nx = F.deg_x
    rows = [{} for _ in range(nx + 1)]
    for (i, j), c in F.terms.items():
        rows[i][j] = c
    acc = ctx.zero_raw
    for i in range(nx, -1, -1):
        row = rows[i]
        inner = ctx.zero_raw
        if row:
            ny = max(row)
            for j in range(ny, -1, -1):
                inner = ctx.rmul(inner, y_raw)
                if j in row:
                    inner = ctx.radd(inner, row[j])
        acc = ctx.radd(ctx.rmul(acc, x_raw), inner)
    return acc


class _RefEmbedding:
    def __init__(self, src, dst):
        self.src = src
        self.dst = dst
        mod = [dst.from_int(c) for c in src.modulus]
        roots = _u_roots(dst, mod)
        if not roots:
            raise AssertionError("source modulus has no root in the target field")
        root = roots[0]
        powers = [dst.one_raw]
        for _ in range(src.t - 1):
            powers.append(dst.rmul(powers[-1], root))
        self._powers = powers

    def map_raw(self, a):
        dst = self.dst
        acc = dst.zero_raw
        p = dst.p
        for c, pw in zip(a, self._powers):
            if c:
                acc = dst.radd(acc, tuple(x * c % p for x in pw))
        return acc


def _ref_in_proper_subfield(ctx, raw, t):
    for u in range(1, t):
        if t % u == 0 and _ref_rpow(ctx, raw, ctx.p**u) == raw:
            return True
    return False


def _ref_new_lambdas(p, t):
    ctx = ext_field_build(p, t)
    return [
        raw for raw in ctx.elements()
        if not (ctx.is_zero_raw(raw) or _ref_in_proper_subfield(ctx, raw, t))
    ]


def _ref_floor_bound(v):
    if isinstance(v, Surd):
        return v.floor()
    f = Fraction(v)
    return f.numerator // f.denominator


# --- the one power loop -------------------------------------------------------

EXPONENTS = sorted({0, 1, 2} | {2**k - 1 for k in range(2, 9)} | {2**k for k in range(2, 9)})


def test_power_multiplies_once_per_set_bit_and_squares_once_per_bit_after_the_top():
    for e in EXPONENTS:
        calls = []

        def mul(a, b):
            calls.append(a is b)  # a fresh list each time: only a square is b * b
            return [a[0] * b[0]]

        assert _power(mul, [1], [3], e) == [3**e]
        squarings = max(e.bit_length() - 1, 0)
        assert (calls.count(True), calls.count(False)) == (squarings, bin(e).count("1")), e


def test_a_negative_power_is_refused_at_once(budget):
    # e >>= 1 keeps -1 at -1, so a loop without the check never ends
    ctx = FieldCtx(7)
    with budget(5):
        with pytest.raises(PreconditionViolated, match="negative exponent -1"):
            UniPoly.x(ctx) ** -1
        with pytest.raises(PreconditionViolated, match="negative exponent -3"):
            _upowmod(ctx, [0, 1], -3, [1, 0, 1])
        with pytest.raises(PreconditionViolated):
            _upowmod(ext_field_build(3, 2), [(0, 1)], -1, [(1, 0), (0, 0), (1, 0)])
    # FieldCtx.rpow still inverts first for a negative exponent
    assert ctx.rpow(3, -1) == 5
    ctx = ext_field_build(5, 2)
    a = ctx.el((2, 3)).raw
    assert ctx.rmul(ctx.rpow(a, -3), ctx.rpow(a, 3)) == ctx.one_raw


@pytest.mark.parametrize("p, t", [(2, 6), (3, 4), (5, 2), (101, 3), (BIG_P, 5)])
def test_rpow_matches_the_replaced_loop(p, t):
    ctx = _field(p, t)
    for a in _elements(ctx, random.Random(p + t), 6):
        for e in EXPONENTS:
            assert ctx.rpow(a, e) == _ref_rpow(ctx, a, e), (a, e)


@pytest.mark.parametrize("p, t", [(7, 1), (101, 1), (3, 2)])
def test_unipoly_power_matches_the_replaced_loop(p, t):
    ctx = ext_field_build(p, t)
    rng = random.Random(p)
    polys = [UniPoly.zero(ctx), UniPoly.one(ctx), UniPoly.x(ctx)]
    for _ in range(2):
        coeffs = _elements(ctx, rng, 2)[1:] if t > 1 else [rng.randrange(p) for _ in range(4)]
        polys.append(UniPoly(ctx, coeffs))
    for f in polys:
        for e in [e for e in EXPONENTS if e <= 32]:
            assert f**e == _ref_unipoly_pow(f, e), (f, e)


@pytest.mark.parametrize("p", (2, 3, 101, BIG_P))
def test_upowmod_matches_the_replaced_fp_kernel(p):
    ctx = FieldCtx(p)
    rng = random.Random(p)
    for _ in range(20):
        m = [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [rng.randrange(1, p)]
        base = [rng.randrange(p) for _ in range(rng.randrange(0, 9))]
        for e in EXPONENTS + [p, p**2 - 1]:
            assert _upowmod(ctx, base, e, m) == _ref_upowmod(ctx, base, e, m), (base, e, m)


@pytest.mark.parametrize("p, t", [(3, 2), (5, 2), (2, 3)])
def test_upowmod_matches_the_replaced_generic_loop(p, t):
    ctx = ext_field_build(p, t)
    rng = random.Random(10 * p + t)
    elems = list(ctx.elements())
    for _ in range(10):
        m = [rng.choice(elems) for _ in range(3)] + [rng.choice(elems[1:])]
        base = [rng.choice(elems) for _ in range(5)]
        for e in EXPONENTS + [ctx.q]:
            assert _upowmod(ctx, base, e, m) == _ref_upowmod(ctx, base, e, m), (base, e, m)


def test_integer_bipoly_power_is_the_product_of_its_factors():
    base = parse_int_bipoly("x+2*y-1")
    want = {(0, 0): 1}
    for _ in range(9):
        want = _ib_mul(want, base)
    assert parse_int_bipoly("(x+2*y-1)^9") == want == _ref_ib_pow(base, 9)
    assert parse_int_bipoly("(x-y)^0") == {(0, 0): 1}
    for e in [e for e in EXPONENTS if e <= 16]:
        assert parse_int_bipoly(f"(3*x*y-x^2+5)^{e}") == _ref_ib_pow(parse_int_bipoly("3*x*y-x^2+5"), e)


# --- the one F_p multiply-mod kernel ----------------------------------------------


@pytest.mark.parametrize("p", (2, 3, 101, BIG_P))
@pytest.mark.parametrize("t", (2, 3, 4, 5, 6))
def test_rmul_matches_the_replaced_kernel(p, t):
    ctx = _field(p, t)
    elems = _elements(ctx, random.Random(100 * t + p % 1000), 40)
    for a in elems:
        for b in elems[:12]:
            got = ctx.rmul(a, b)
            assert got == _ref_rmul(ctx, a, b), (a, b)
            assert len(got) == t


def test_mulmod_keeps_trailing_zeros_and_folds_from_the_top():
    # X^3 = 1 + X mod X^3 - X - 1 over F_5
    assert _mulmod(5, [0, 0, 1], [0, 1, 0], [1, 1, 0]) == [1, 1, 0]
    assert _mulmod(5, [0, 0, 1], [0, 0, 1], [1, 1, 0]) == [0, 1, 1]  # X^4 = X + X^2
    assert _mulmod(5, [0, 0, 0], [4, 4, 4], [1, 1, 0]) == [0, 0, 0]
    assert _mulmod(5, [2], [3, 4], [1, 1, 0]) == [1, 3]  # below the modulus: no fold


# --- Horner through _ueval --------------------------------------------------------


@pytest.mark.parametrize("p, t", [(101, 1), (5, 2)])
def test_bipoly_eval_matches_the_replaced_horner_scheme(p, t):
    ctx = ext_field_build(p, t)
    rng = random.Random(p + t)
    elems = list(ctx.elements())
    polys = [BiPoly(ctx), BiPoly(ctx, {(0, 0): 3}), BiPoly(ctx, {(0, 4): 1, (3, 0): 2})]
    for _ in range(6):
        terms = {(rng.randrange(5), rng.randrange(5)): rng.choice(elems) for _ in range(6)}
        polys.append(BiPoly(ctx, terms))
    points = [rng.choice(elems) for _ in range(8)] + [ctx.zero_raw, ctx.one_raw]
    for F in polys:
        for x in points:
            for y in points:
                assert F.eval_raw(x, y) == _ref_bipoly_eval_raw(F, x, y), (F, x, y)


@pytest.mark.parametrize("p, a, b", [(3, 2, 4), (2, 2, 6), (2, 3, 6)])
def test_embedding_matches_the_replaced_power_table(p, a, b):
    src, dst = ext_field_build(p, a), ext_field_build(p, b)
    emb, ref = get_embedding(src, dst), _RefEmbedding(src, dst)
    images = [emb.map_raw(x) for x in src.elements()]
    assert images == [ref.map_raw(x) for x in src.elements()]
    assert len(set(images)) == src.q
    rng = random.Random(p * b)
    elems = list(src.elements())
    for _ in range(50):
        x, y = rng.choice(elems), rng.choice(elems)
        assert emb.map_raw(src.rmul(x, y)) == dst.rmul(emb.map_raw(x), emb.map_raw(y))
        assert emb.map_raw(src.radd(x, y)) == dst.radd(emb.map_raw(x), emb.map_raw(y))


# --- subfield membership from Embedding -----------------------------------------


@pytest.mark.parametrize("p, t", [(2, 4), (2, 6), (3, 4), (5, 3), (7, 2)])
def test_new_elements_match_the_frobenius_filter(p, t):
    got = list(_new_elements(p, t))
    assert got == _ref_new_lambdas(p, t)
    # the elements in no proper subfield: p^t minus the subfields' union
    assert len(got) == {(2, 4): 12, (2, 6): 54, (3, 4): 72, (5, 3): 120, (7, 2): 42}[(p, t)]


@pytest.mark.parametrize("expr, p, t", [("x^3+x", 5, 3), ("x^2+x", 7, 2), ("x^3+2*x", 7, 3)])
def test_scan_hands_the_sieve_the_frobenius_filtered_lambdas(monkeypatch, expr, p, t):
    handed = {}
    sieve = lambda_scan._sieve

    def recording(ctx, lams, *rest):
        lams = list(lams)
        handed[ctx.t] = lams
        return sieve(ctx, lams, *rest)

    monkeypatch.setattr(lambda_scan, "_sieve", recording)
    exceptional_lambdas(parse_rational_expr(expr, p), p, max_ext=t)
    for u in range(2, t + 1):
        assert handed[u] == _ref_new_lambdas(p, u)


# The stdout of each scan at the commit before these routines were shared.
MAX_EXT_GOLDEN = [
    (("x^2+x", "211", "2"), "p = 211\npsi = x^2+x\ndegree = 2\nbound = 16\ncount = 1\nlambdas = 1\n"),
    (("x^3+x", "31", "3"), "p = 31\npsi = x^3+x\ndegree = 3\nbound = 36\ncount = 2\nlambdas = 1;30\n"),
    (("x^4+x", "13", "4"), "p = 13\npsi = x^4+x\ndegree = 4\nbound = 64\ncount = 3\nlambdas = 1;3;9\n"),
]


@pytest.mark.parametrize("args, stdout", MAX_EXT_GOLDEN, ids=["-".join(a) for a, _ in MAX_EXT_GOLDEN])
def test_extension_scans_keep_their_output(capsys, args, stdout):
    psi, p, t = args
    assert cmd_dispatch(["lambda-scan", "--psi", psi, "-p", p, "--max-ext", t]) == 0
    assert capsys.readouterr() == (stdout, "")


# --- one Surd/Fraction dispatch in lattices ---------------------------------------


def test_floor_bound_matches_the_replaced_dispatch():
    values = [0, 1, 7, -3, Fraction(7, 2), Fraction(-7, 2), Fraction(10**30 + 1, 3)]
    values += [Surd(132, 2), Surd(121, 2), Surd(Fraction(7, 2), 1), Surd(0, 5), Surd(Fraction(59582, 9), 4)]
    for v in values:
        assert _floor_bound(v) == _ref_floor_bound(v), v
