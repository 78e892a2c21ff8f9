"""Univariate and bivariate polynomials over a FieldCtx, and rational functions.

Coefficients are stored in raw form (see fields); the module-private _u*
helpers work on plain lists of raws so factorization and lifting loops avoid
object overhead. They are the one polynomial layer: fields also builds and
inverts in F_{p^t} with them over F_p, and a BiPoly's Y-view is a list of
such raw lists, one per power of Y. UniPoly takes raw coefficients as given
(from_ints converts ints); BiPoly sends an int coefficient through
ctx.from_int and keeps any other value as a raw, which over F_p changes no
raw, an int in [0, p). Degree of the zero polynomial is the NEG_INF
sentinel, which keeps max/min degree formulas total.
"""

from .errors import (
    BothZero,
    CtxMismatch,
    PoleAt,
    ZeroDenominator,
    ZeroInverse,
    ZeroPolynomial,
)
from .fields import NEG_INF, FieldCtx, FieldElem, _mulmod, _power

# --- raw-list univariate helpers ----------------------------------------------
#
# Over F_p (ctx.t == 1) a raw is a plain int, so the inner-loop kernels
# _umul, _udivmod, _ueval and _upowmod branch once on ctx.t at the top and
# run plain int arithmetic mod p, returning lists equal element for element
# to the generic loop's, with its exceptions; the generic loop serves
# F_{p^t}, t > 1. Every power runs fields._power, every Horner scheme _ueval,
# and _upowmod's F_p product is fields._mulmod, the kernel of FieldCtx.rmul.


def _ustrip(ctx, f):
    while f and ctx.is_zero_raw(f[-1]):
        f.pop()
    return f


def _uadd(ctx, a, b):
    n = max(len(a), len(b))
    z = ctx.zero_raw
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else z
        y = b[i] if i < len(b) else z
        out.append(ctx.radd(x, y))
    return _ustrip(ctx, out)


def _usub(ctx, a, b):
    n = max(len(a), len(b))
    z = ctx.zero_raw
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else z
        y = b[i] if i < len(b) else z
        out.append(ctx.rsub(x, y))
    return _ustrip(ctx, out)


def _uneg(ctx, a):
    return [ctx.rneg(x) for x in a]


def _uscale(ctx, a, c):
    if ctx.is_zero_raw(c):
        return []
    return [ctx.rmul(x, c) for x in a]


def _umul(ctx, a, b):
    if not a or not b:
        return []
    if ctx.t == 1:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        p = ctx.p
        return _ustrip(ctx, [c % p for c in out])
    z = ctx.zero_raw
    out = [z] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not ctx.is_zero_raw(x):
            for j, y in enumerate(b):
                out[i + j] = ctx.radd(out[i + j], ctx.rmul(x, y))
    return _ustrip(ctx, out)


def _udivmod(ctx, a, b):
    if not b:
        raise ZeroPolynomial("division by the zero polynomial")
    rem = list(a)
    db = len(b) - 1
    if ctx.t == 1:
        p = ctx.p
        if not b[-1]:
            raise ZeroInverse("0 has no inverse")
        inv = pow(b[-1], -1, p)
        q = [0] * max(len(rem) - db, 0)
        while rem and len(rem) - 1 >= db:
            c = rem.pop() * inv % p
            shift = len(rem) - db
            q[shift] = c
            if c:
                for i in range(db):
                    rem[shift + i] = (rem[shift + i] - c * b[i]) % p
            while rem and not rem[-1]:
                rem.pop()
        return q, rem
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


def _urem(ctx, a, b):
    return _udivmod(ctx, a, b)[1]


def _umonic(ctx, a):
    if not a:
        return a
    lc = a[-1]
    if lc == ctx.one_raw:
        return list(a)
    return _uscale(ctx, a, ctx.rinv(lc))


def _ugcd(ctx, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _urem(ctx, a, b)
    return _umonic(ctx, a)


def _uextgcd(ctx, a, b):
    """(g, u) with g = gcd(a, b) monic and u*a = g mod b; a and b stripped."""
    r0, r1 = list(a), list(b)
    s0, s1 = [ctx.one_raw], []
    while r1:
        q, r = _udivmod(ctx, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _usub(ctx, s0, _umul(ctx, q, s1))
    if r0:
        inv = ctx.rinv(r0[-1])
        r0 = _uscale(ctx, r0, inv)
        s0 = _uscale(ctx, s0, inv)
    return r0, s0


def _ueval(ctx, f, x):
    if ctx.t == 1:
        p = ctx.p
        acc = 0
        for c in reversed(f):
            acc = (acc * x + c) % p
        return acc
    acc = ctx.zero_raw
    for c in reversed(f):
        acc = ctx.radd(ctx.rmul(acc, x), c)
    return acc


def _uderiv(ctx, f):
    out = []
    for i in range(1, len(f)):
        out.append(ctx.rmul(f[i], ctx.from_int(i)))
    return _ustrip(ctx, out)


def _upowmod(ctx, base, e, m):
    b = _urem(ctx, base, m)
    if ctx.t == 1:
        p = ctx.p
        c = pow(m[-1], -1, p)
        tail = [-x * c % p for x in m[:-1]]  # X^d = tail mod m, d = deg m

        def mul(u, v):
            out = _mulmod(p, u, v, tail)
            while out and not out[-1]:
                out.pop()
            return out

    else:

        def mul(u, v):
            return _urem(ctx, _umul(ctx, u, v), m)

    return _power(mul, [ctx.one_raw], b, e)


def _ushift(ctx, f, a):
    """f(X + a) by Horner: ((c_n (X+a) + c_{n-1})(X+a) + ...)."""
    if ctx.is_zero_raw(a):
        return list(f)
    out = []
    for c in reversed(f):
        # out = out * (X + a) + c
        z = ctx.zero_raw
        nxt = [z] * (len(out) + 1)
        for i, v in enumerate(out):
            nxt[i + 1] = ctx.radd(nxt[i + 1], v)
            nxt[i] = ctx.radd(nxt[i], ctx.rmul(v, a))
        nxt[0] = ctx.radd(nxt[0], c)
        out = _ustrip(ctx, nxt)
    return out


def _ukey(ctx, f):
    return tuple(ctx.raw_key(c) for c in f)


# --- UniPoly --------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial; trailing zeros stripped, immutable by use.

    coeffs are raw elements of ctx in ascending powers, as the _u* helpers
    take them; they are not converted or checked. from_ints is the entry
    point for integer coefficients.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        self.ctx = ctx
        self.coeffs = tuple(_ustrip(ctx, list(coeffs)))

    @classmethod
    def from_ints(cls, ctx, ints):
        return cls(ctx, [ctx.from_int(i) for i in ints])

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (ctx.one_raw,))

    @classmethod
    def x(cls, ctx):
        return cls(ctx, (ctx.zero_raw, ctx.one_raw))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    @property
    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one_raw

    def _check(self, other):
        if self.ctx != other.ctx:
            raise CtxMismatch("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        return UniPoly(self.ctx, _uadd(self.ctx, list(self.coeffs), list(other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return UniPoly(self.ctx, _usub(self.ctx, list(self.coeffs), list(other.coeffs)))

    def __neg__(self):
        return UniPoly(self.ctx, _uneg(self.ctx, list(self.coeffs)))

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            self._check(other)
            return UniPoly(self.ctx, _umul(self.ctx, list(self.coeffs), list(other.coeffs)))
        return UniPoly(self.ctx, _uscale(self.ctx, list(self.coeffs), self.ctx.from_int(other)))

    __rmul__ = __mul__

    def __divmod__(self, other):
        self._check(other)
        q, r = _udivmod(self.ctx, list(self.coeffs), list(other.coeffs))
        return UniPoly(self.ctx, q), UniPoly(self.ctx, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __pow__(self, e: int):
        return _power(UniPoly.__mul__, UniPoly.one(self.ctx), self, e)

    def monic(self):
        return UniPoly(self.ctx, _umonic(self.ctx, list(self.coeffs)))

    def eval_raw(self, x_raw):
        return _ueval(self.ctx, self.coeffs, x_raw)

    def shift(self, a) -> "UniPoly":
        a = self.ctx.el(a).raw
        return UniPoly(self.ctx, _ushift(self.ctx, list(self.coeffs), a))

    def text(self) -> str:
        """Canonical expression like "x^2+3*x+1"; parseable by the CLI grammar."""
        if not self.coeffs:
            return "0"
        if self.ctx.t != 1:
            raise ValueError("text form exists only over prime fields")
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return "+".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.t, self.coeffs))

    def __repr__(self):
        if self.ctx.t == 1:
            return f"UniPoly({self.text()!r}, p={self.ctx.p})"
        return f"UniPoly({list(self.coeffs)!r} over {self.ctx!r})"


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor."""
    if a.ctx != b.ctx:
        raise CtxMismatch("polynomials over different fields")
    if a.is_zero() and b.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    return UniPoly(a.ctx, _ugcd(a.ctx, list(a.coeffs), list(b.coeffs)))


# --- BiPoly ---------------------------------------------------------------------


class BiPoly:
    """Sparse bivariate polynomial as a map (i, j) -> nonzero raw coefficient.

    A coefficient given as an int goes through ctx.from_int, so -3 is
    accepted; any other value is taken as a raw element of ctx unchecked.
    Zero coefficients are dropped.
    """

    __slots__ = ("ctx", "terms", "deg_x", "deg_y", "total_degree")

    def __init__(self, ctx: FieldCtx, terms=None):
        self.ctx = ctx
        tm = {}
        if terms:
            for (i, j), c in terms.items():
                if isinstance(c, int):
                    c = ctx.from_int(c)
                if not ctx.is_zero_raw(c):
                    tm[(i, j)] = c
        self.terms = tm
        if tm:
            self.deg_x = max(i for i, _ in tm)
            self.deg_y = max(j for _, j in tm)
            self.total_degree = max(i + j for i, j in tm)
        else:
            self.deg_x = NEG_INF
            self.deg_y = NEG_INF
            self.total_degree = NEG_INF

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(i == 0 and j == 0 for i, j in self.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        ctx = self.ctx
        for k, c in other.terms.items():
            out[k] = ctx.radd(out.get(k, ctx.zero_raw), c)
        return BiPoly(ctx, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        ctx = self.ctx
        for k, c in other.terms.items():
            out[k] = ctx.rsub(out.get(k, ctx.zero_raw), c)
        return BiPoly(ctx, out)

    def __mul__(self, other: "BiPoly"):
        self._check(other)
        ctx = self.ctx
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                v = ctx.rmul(c1, c2)
                if k in out:
                    out[k] = ctx.radd(out[k], v)
                else:
                    out[k] = v
        return BiPoly(ctx, out)

    def scale(self, c):
        """Every coefficient times the raw element c."""
        ctx = self.ctx
        return BiPoly(ctx, {k: ctx.rmul(v, c) for k, v in self.terms.items()})

    def _check(self, other):
        if self.ctx != other.ctx:
            raise CtxMismatch("polynomials over different fields")

    def eval_raw(self, x_raw, y_raw):
        """Exact evaluation: Horner in Y over the Y-view rows' values at x."""
        ctx = self.ctx
        return _ueval(ctx, [_ueval(ctx, row, x_raw) for row in self.to_y_view()], y_raw)

    def eval(self, x, y) -> FieldElem:
        x = self.ctx.el(x)
        y = self.ctx.el(y)
        return FieldElem(self.ctx, self.eval_raw(x.raw, y.raw))

    def to_y_view(self) -> list:
        """Coefficients as polynomials in X, indexed by the power of Y: one
        stripped raw list of the _u* layer per row, [] for a zero row. The
        zero polynomial gives [[]]; any other ends in a nonzero row."""
        ny = 0 if self.is_zero() else self.deg_y
        rows = [[] for _ in range(ny + 1)]
        z = self.ctx.zero_raw
        for (i, j), c in self.terms.items():
            row = rows[j]
            while len(row) <= i:
                row.append(z)
            row[i] = c
        return rows

    @classmethod
    def from_y_view(cls, ctx, rows) -> "BiPoly":
        """Inverse of to_y_view; zero coefficients and rows may appear anywhere."""
        terms = {}
        for j, row in enumerate(rows):
            for i, c in enumerate(row):
                if not ctx.is_zero_raw(c):
                    terms[(i, j)] = c
        return cls(ctx, terms)

    def swap_vars(self) -> "BiPoly":
        return BiPoly(self.ctx, {(j, i): c for (i, j), c in self.terms.items()})

    def shift_x(self, a) -> "BiPoly":
        """Substitute X -> X + a for a raw element a."""
        ctx = self.ctx
        return BiPoly.from_y_view(ctx, [_ushift(ctx, r, a) for r in self.to_y_view()])

    def derivative_y(self) -> "BiPoly":
        ctx = self.ctx
        out = {}
        for (i, j), c in self.terms.items():
            if j >= 1:
                v = ctx.rmul(c, ctx.from_int(j))
                if not ctx.is_zero_raw(v):
                    out[(i, j - 1)] = v
        return BiPoly(ctx, out)

    def grlex_lead(self):
        """Leading (monomial, coeff) under graded lex with X > Y."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        k = max(self.terms, key=lambda ij: (ij[0] + ij[1], ij[0]))
        return k, self.terms[k]

    def grlex_monic(self) -> "BiPoly":
        _, c = self.grlex_lead()
        if c == self.ctx.one_raw:
            return self
        return self.scale(self.ctx.rinv(c))

    def try_divide(self, divisor: "BiPoly"):
        """Exact quotient self / divisor, or None when it does not divide."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroPolynomial("division by zero polynomial")
        ctx = self.ctx
        (di, dj), dc = divisor.grlex_lead()
        dc_inv = ctx.rinv(dc)
        rem = dict(self.terms)
        quo = {}
        while rem:
            k = max(rem, key=lambda ij: (ij[0] + ij[1], ij[0]))
            i, j = k
            if i < di or j < dj:
                return None
            qk = (i - di, j - dj)
            qc = ctx.rmul(rem[k], dc_inv)
            quo[qk] = qc
            for (ti, tj), tc in divisor.terms.items():
                kk = (ti + qk[0], tj + qk[1])
                v = ctx.rsub(rem.get(kk, ctx.zero_raw), ctx.rmul(qc, tc))
                if ctx.is_zero_raw(v):
                    rem.pop(kk, None)
                else:
                    rem[kk] = v
        return BiPoly(ctx, quo)

    def key(self):
        return tuple(sorted((i, j, self.ctx.raw_key(c)) for (i, j), c in self.terms.items()))

    def __eq__(self, other):
        return (
            isinstance(other, BiPoly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.t, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"BiPoly({sorted(self.terms.items())!r} over {self.ctx!r})"


# --- rational functions -----------------------------------------------------------


class RationalFunc:
    """Coprime pair f/g with a monic denominator; equal iff coefficients equal.

    The constructor strips the common factor of num and den and makes den
    monic; the zero function is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly):
        if num.ctx != den.ctx:
            raise CtxMismatch("numerator and denominator over different fields")
        if den.is_zero():
            raise ZeroDenominator("denominator is the zero polynomial")
        ctx = num.ctx
        if num.is_zero():
            den = UniPoly.one(ctx)
        else:
            h = poly_gcd(num, den)
            if h.degree >= 1:
                num = num // h
                den = den // h
            lc_inv = ctx.rinv(den.lc)
            num = UniPoly(ctx, _uscale(ctx, list(num.coeffs), lc_inv))
            den = UniPoly(ctx, _uscale(ctx, list(den.coeffs), lc_inv))
        self.num = num
        self.den = den

    @property
    def ctx(self):
        return self.num.ctx

    @property
    def d(self):
        return self.num.degree

    @property
    def e(self):
        return self.den.degree

    @property
    def D(self):
        return max(self.d, self.e)

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def eval_raw(self, x_raw):
        """Value as a raw element, or None at a pole."""
        gv = self.den.eval_raw(x_raw)
        if self.ctx.is_zero_raw(gv):
            return None
        fv = self.num.eval_raw(x_raw)
        return self.ctx.rmul(fv, self.ctx.rinv(gv))

    def eval(self, x) -> FieldElem:
        x = self.ctx.el(x)
        v = self.eval_raw(x.raw)
        if v is None:
            raise PoleAt(x.raw)
        return FieldElem(self.ctx, v)

    def scale(self, c) -> "RationalFunc":
        return rational_normalize(self.num * c, self.den)

    def shift(self, a) -> "RationalFunc":
        """Substitute X -> X + a."""
        return rational_normalize(self.num.shift(a), self.den.shift(a))

    def text(self) -> str:
        if self.den.degree == 0 and self.den.is_monic():
            return self.num.text()
        return f"({self.num.text()})/({self.den.text()})"

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunc({self.text()!r}, p={self.ctx.p})"


def rational_normalize(f: UniPoly, g: UniPoly) -> RationalFunc:
    """f/g with the common factor stripped and the denominator made monic."""
    return RationalFunc(f, g)

