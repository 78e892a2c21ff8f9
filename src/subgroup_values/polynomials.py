"""Univariate and bivariate polynomials over a FieldCtx, and rational functions.

Coefficients are stored in raw form (see fields); the module-private _u*
helpers work on plain lists of raws so factorization and lifting loops avoid
object overhead. They are the one polynomial layer: fields builds and
inverts in F_{p^t} with them over F_p, a UniPoly stores one such list, and
a BiPoly, a polynomial in F_q[X][Y], stores one per power of Y (its Y-view)
and runs its arithmetic on them row by row. UniPoly takes raw coefficients
as given (from_ints converts ints); BiPoly(ctx, terms) sends an int
coefficient through ctx.from_int and keeps any other value as a raw, which
over F_p changes no raw, an int in [0, p). Degree of the zero polynomial is
the NEG_INF sentinel, which keeps max/min degree formulas total.
RationalFunc(f, g) strips the common factor of f and g and makes g monic;
rational_normalize is another name for it.
"""

import itertools

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
# _uadd, _usub, _uscale, _umul, _udivmod, _ueval and _upowmod branch once on
# ctx.t at the top and run plain int arithmetic mod p, returning lists equal
# element for element to the generic loop's, with its exceptions; the
# generic loop serves F_{p^t}, t > 1. Every power runs fields._power, every
# Horner scheme _ueval, and _upowmod's F_p product is fields._mulmod, the
# kernel of FieldCtx.rmul.


def _ustrip(ctx, f):
    while f and ctx.is_zero_raw(f[-1]):
        f.pop()
    return f


def _uadd(ctx, a, b):
    if ctx.t == 1:
        p = ctx.p
        return _ustrip(ctx, [(x + y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])
    pairs = itertools.zip_longest(a, b, fillvalue=ctx.zero_raw)
    return _ustrip(ctx, [ctx.radd(x, y) for x, y in pairs])


def _usub(ctx, a, b):
    if ctx.t == 1:
        p = ctx.p
        return _ustrip(ctx, [(x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])
    pairs = itertools.zip_longest(a, b, fillvalue=ctx.zero_raw)
    return _ustrip(ctx, [ctx.rsub(x, y) for x, y in pairs])


def _uneg(ctx, a):
    return [ctx.rneg(x) for x in a]


def _uscale(ctx, a, c):
    if ctx.is_zero_raw(c):
        return []
    if ctx.t == 1:
        p = ctx.p
        return [x * c % p for x in a]
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


def _ytrim(rows):
    """rows without their trailing zero rows, popped in place."""
    while rows and not rows[-1]:
        rows.pop()
    return rows


class BiPoly:
    """Polynomial in F_q[X][Y], stored as its Y-view: rows[j], the coefficient
    of Y^j, is a stripped raw list of the _u* layer, and the last row is
    nonzero, so the zero polynomial has no rows. `terms`, the map (i, j) ->
    nonzero coefficient of X^i Y^j, is built from the rows on each read.

    BiPoly(ctx, terms) takes such a map. A coefficient given as an int goes
    through ctx.from_int, so -3 is accepted; any other value is taken as a
    raw element of ctx unchecked. Zero coefficients are dropped.
    """

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: FieldCtx, terms=None):
        rows = []
        for (i, j), c in (terms or {}).items():
            rows += [[] for _ in range(j + 1 - len(rows))]
            rows[j] += [ctx.zero_raw] * (i + 1 - len(rows[j]))
            rows[j][i] = ctx.from_int(c) if isinstance(c, int) else c
        self.ctx = ctx
        self.rows = _ytrim([_ustrip(ctx, row) for row in rows])

    @classmethod
    def _from_rows(cls, ctx, rows) -> "BiPoly":
        """The BiPoly on rows the _u* helpers have stripped, kept without a
        copy; trailing zero rows are dropped."""
        F = object.__new__(cls)
        F.ctx, F.rows = ctx, _ytrim(rows)
        return F

    @classmethod
    def from_y_view(cls, ctx, rows) -> "BiPoly":
        """Inverse of to_y_view; zero coefficients and rows may appear anywhere."""
        return cls._from_rows(ctx, [_ustrip(ctx, list(row)) for row in rows])

    def to_y_view(self) -> list:
        """A copy of the rows; the zero polynomial gives [[]]."""
        return [list(row) for row in self.rows] or [[]]

    @property
    def terms(self) -> dict:
        zero = self.ctx.is_zero_raw
        return {(i, j): c for j, row in enumerate(self.rows) for i, c in enumerate(row)
                if not zero(c)}

    @property
    def deg_x(self):
        return max(map(len, self.rows)) - 1 if self.rows else NEG_INF

    @property
    def deg_y(self):
        return len(self.rows) - 1 if self.rows else NEG_INF

    @property
    def total_degree(self):
        rows = self.rows
        return max([len(row) + j for j, row in enumerate(rows) if row]) - 1 if rows else NEG_INF

    def is_zero(self):
        return not self.rows

    def is_constant(self):
        return self.total_degree <= 0

    def _check(self, other):
        if self.ctx != other.ctx:
            raise CtxMismatch("polynomials over different fields")

    def _rowwise(self, other, op):
        self._check(other)
        ctx = self.ctx
        pairs = itertools.zip_longest(self.rows, other.rows, fillvalue=())
        return BiPoly._from_rows(ctx, [op(ctx, a, b) for a, b in pairs])

    def __add__(self, other):
        return self._rowwise(other, _uadd)

    def __sub__(self, other):
        return self._rowwise(other, _usub)

    def __mul__(self, other: "BiPoly"):
        """One _umul under Y -> X^w, w past the X-degree of the product."""
        self._check(other)
        ctx, z = self.ctx, self.ctx.zero_raw
        if not self.rows or not other.rows:
            return BiPoly(ctx)
        w = max(map(len, self.rows)) + max(map(len, other.rows)) - 1
        a, b = ([c for row in F.rows[:-1] for c in row + [z] * (w - len(row))] + F.rows[-1]
                for F in (self, other))
        prod = _umul(ctx, a, b)
        return BiPoly._from_rows(ctx, [_ustrip(ctx, prod[k:k + w]) for k in range(0, len(prod), w)])

    def scale(self, c):
        """Every coefficient times the raw element c."""
        ctx = self.ctx
        return BiPoly._from_rows(ctx, [_uscale(ctx, row, c) for row in self.rows])

    def eval_raw(self, x_raw, y_raw):
        """Exact evaluation: Horner in Y over the rows' values at x."""
        ctx = self.ctx
        return _ueval(ctx, [_ueval(ctx, row, x_raw) for row in self.rows], y_raw)

    def eval(self, x, y) -> FieldElem:
        el = self.ctx.el
        return FieldElem(self.ctx, self.eval_raw(el(x).raw, el(y).raw))

    def swap_vars(self) -> "BiPoly":
        ctx = self.ctx
        cols = itertools.zip_longest(*self.rows, fillvalue=ctx.zero_raw)
        return BiPoly._from_rows(ctx, [_ustrip(ctx, list(col)) for col in cols])

    def shift_x(self, a) -> "BiPoly":
        """Substitute X -> X + a for a raw element a."""
        ctx = self.ctx
        return BiPoly._from_rows(ctx, [_ushift(ctx, row, a) for row in self.rows])

    def derivative_y(self) -> "BiPoly":
        ctx, rows = self.ctx, self.rows
        dy = [_uscale(ctx, rows[j], ctx.from_int(j)) for j in range(1, len(rows))]
        return BiPoly._from_rows(ctx, dy)

    def grlex_lead(self):
        """Leading (monomial, coeff) under graded lex with X > Y: the top term
        of some row, since a row's top term leads the row on both keys."""
        if not self.rows:
            raise ZeroPolynomial("zero polynomial has no leading term")
        tops = ((len(row) - 1, j) for j, row in enumerate(self.rows) if row)
        i, j = max(tops, key=lambda ij: (ij[0] + ij[1], ij[0]))
        return (i, j), self.rows[j][i]

    def grlex_monic(self) -> "BiPoly":
        _, c = self.grlex_lead()
        return self if c == self.ctx.one_raw else self.scale(self.ctx.rinv(c))

    def try_divide(self, divisor: "BiPoly"):
        """Exact quotient self / divisor, or None when it does not divide: long
        division in Y over F_q[X], each quotient row the exact quotient of the
        remainder's top row by the divisor's last row."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroPolynomial("division by zero polynomial")
        ctx, b = self.ctx, divisor.rows
        db = len(b) - 1
        rem = list(self.rows)
        quo = [[] for _ in range(len(rem) - db)]
        while len(rem) > db:
            q, r = _udivmod(ctx, rem.pop(), b[-1])
            if r:
                return None
            shift = len(rem) - db
            quo[shift] = q
            for i in range(db):
                rem[shift + i] = _usub(ctx, rem[shift + i], _umul(ctx, q, b[i]))
            _ytrim(rem)
        return None if rem else BiPoly._from_rows(ctx, quo)

    def key(self):
        return tuple(sorted((i, j, self.ctx.raw_key(c)) for (i, j), c in self.terms.items()))

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.ctx == other.ctx and self.rows == other.rows

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.t, tuple(map(tuple, self.rows))))

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
        return RationalFunc(self.num * c, self.den)

    def shift(self, a) -> "RationalFunc":
        """Substitute X -> X + a."""
        return RationalFunc(self.num.shift(a), self.den.shift(a))

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
        if self.ctx.t == 1:
            return f"RationalFunc({self.text()!r}, p={self.ctx.p})"
        return f"RationalFunc({self.num!r}, {self.den!r})"


rational_normalize = RationalFunc  # the public name of the constructor

