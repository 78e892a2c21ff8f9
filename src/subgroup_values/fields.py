"""Exact arithmetic in F_p and its extensions F_{p^t} at desk scale.

Elements travel in a compact "raw" form: a plain int in [0, p) when t = 1,
or a length-t tuple of ints (ascending powers of the generator) when t > 1.
FieldElem wraps a raw value with its context for the public API; hot loops
call the context methods on raws directly. F_{p^t} multiplies through
_mulmod, and checks its modulus and inverts (_uextgcd) with the polynomials._u*
helpers over F_p, the one polynomial layer; _power is the one power loop.
A context sets its zero_raw and one_raw once, and _digit_tuples is the one
walk of base-p digits, in raw_key order: FieldCtx.elements over F_{p^t} and
ext_field_build's search for a modulus.
"""

import functools
import itertools

from .errors import (
    CtxMismatch,
    DegreeTooLarge,
    NonInvertible,
    NotPrime,
    PreconditionViolated,
    PrimeTooLarge,
    ZeroInverse,
)

NEG_INF = float("-inf")  # degree of the zero polynomial

PRIME_LIMIT = 1 << 32
MAX_EXT_DEGREE = 12

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the witness set is exact far beyond 2^32."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p >= PRIME_LIMIT:
        raise PrimeTooLarge(f"p = {p} exceeds the 2^32 desk-scale cap")


def mod_inverse(a: int, p: int) -> int:
    """Inverse of a modulo a prime p, in [1, p)."""
    a %= p
    if a == 0:
        raise NonInvertible(f"{p} divides the argument")
    return pow(a, -1, p)


def centered_residue(a: int, p: int) -> int:
    """Smallest absolute value of a residue class mod p; lands in [0, p/2]."""
    if p < 2:
        raise ValueError("modulus must be >= 2")
    r = a % p
    return min(r, p - r)


def signed_residue(a: int, p: int) -> int:
    """Representative of a mod p in [-(p-1)/2, p/2]."""
    r = a % p
    return r - p if r > p // 2 else r


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (n < 2^64 desk scale)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _power(mul, one, b, e: int):
    """b^e for e >= 0 by square-and-multiply under mul, one the empty
    product; the last squaring, which nothing would read, is skipped."""
    if e < 0:
        raise PreconditionViolated(f"negative exponent {e}")
    result = one
    while e:
        if e & 1:
            result = mul(result, b)
        e >>= 1
        if e:
            b = mul(b, b)
    return result


def _mulmod(p: int, u, v, tail) -> list:
    """u·v mod the monic X^d - tail over F_p, d = len(tail), for ascending int
    lists u and v: the products are summed unreduced, each coefficient of X^d
    and above folds onto the d below it from the top down, and the sums are
    reduced mod p last. Trailing zeros are kept."""
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v, i):
                out[j] += x * y
    d = len(tail)
    while len(out) > d:
        x = out.pop() % p
        if x:
            for j, y in enumerate(tail, len(out) - d):
                out[j] += x * y
    return [x % p for x in out]


def _is_irreducible(base, f):
    """Rabin's test for a monic f of degree t >= 2 over the prime field base:
    irreducible iff X^(p^t) = X mod f and gcd(X^(p^(t/l)) - X, f) = 1 for
    every prime l dividing t."""
    from .polynomials import _ugcd, _upowmod, _usub  # polynomials imports this module

    p, t, x = base.p, len(f) - 1, [0, 1]
    for ell in prime_factors(t):
        g = x
        for _ in range(t // ell):
            g = _upowmod(base, g, p, f)
        if len(_ugcd(base, _usub(base, g, x), f)) != 1:
            return False
    g = x
    for _ in range(t):
        g = _upowmod(base, g, p, f)
    return g == x


def _digit_tuples(p: int, t: int):
    """Every t-tuple of base-p digits, ascending place first, in increasing
    order of the integer the digits name: the raw_key order of F_{p^t}."""
    # lazy: each level puts the fastest place in front of the slower places,
    # so no level copies range(p)
    tuples = [()]
    for _ in range(t):
        tuples = ((c, *rest) for rest in tuples for c in range(p))
    return tuples


# --- field contexts -----------------------------------------------------------


class FieldCtx:
    """Immutable arithmetic context for F_{p^t}; every operation is pure."""

    __slots__ = ("p", "t", "modulus", "q", "zero_raw", "one_raw", "_tail", "_base")

    def __init__(self, p: int, t: int = 1, modulus=None):
        check_prime(p)
        if not isinstance(t, int) or t < 1 or t > MAX_EXT_DEGREE:
            raise DegreeTooLarge(f"extension degree must be in 1..{MAX_EXT_DEGREE}, got {t}")
        self.p = p
        self.t = t
        self.q = p**t
        self.zero_raw = self.from_int(0)
        self.one_raw = self.from_int(1)
        if t == 1:
            if modulus is not None:
                raise ValueError("a prime field takes no modulus")
            self.modulus = self._tail = self._base = None
        else:
            if modulus is None:
                raise ValueError("an extension field needs a modulus; use ext_field_build")
            m = tuple(int(c) % p for c in modulus)
            if len(m) != t + 1 or m[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {t}")
            base = FieldCtx(p)
            if not _is_irreducible(base, list(m)):
                raise ValueError("modulus is not irreducible over F_p")
            self.modulus = m
            self._tail = tuple(-c % p for c in m[:-1])  # X^t = tail mod m
            self._base = base

    # -- raw arithmetic (int for t == 1, tuple of ints otherwise) --

    def from_int(self, n: int):
        n %= self.p
        return n if self.t == 1 else (n,) + (0,) * (self.t - 1)

    def is_zero_raw(self, a) -> bool:
        return a == 0 if self.t == 1 else not any(a)

    def radd(self, a, b):
        if self.t == 1:
            return (a + b) % self.p
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def rsub(self, a, b):
        if self.t == 1:
            return (a - b) % self.p
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def rneg(self, a):
        if self.t == 1:
            return -a % self.p
        p = self.p
        return tuple(-x % p for x in a)

    def rmul(self, a, b):
        if self.t == 1:
            return a * b % self.p
        return tuple(_mulmod(self.p, a, b, self._tail))

    def rinv(self, a):
        if self.is_zero_raw(a):
            raise ZeroInverse("0 has no inverse")
        if self.t == 1:
            return pow(a, -1, self.p)
        from .polynomials import _uextgcd, _ustrip  # polynomials imports this module

        base = self._base
        # u*a = 1 mod m as m is irreducible; a must be stripped, as _uextgcd
        # divides by its leading coefficient
        _, u = _uextgcd(base, _ustrip(base, list(a)), list(self.modulus))
        return tuple(u) + (0,) * (self.t - len(u))

    def rpow(self, a, e: int):
        if e < 0:
            a = self.rinv(a)
            e = -e
        if self.t == 1:
            return pow(a, e, self.p)
        return _power(self.rmul, self.one_raw, a, e)

    def raw_key(self, a) -> int:
        """Total order on elements: the integer whose base-p digits are the coeffs."""
        if self.t == 1:
            return a
        n = 0
        for c in reversed(a):
            n = n * self.p + c
        return n

    def elements(self):
        """All field elements in ascending raw_key order: range(p) over F_p,
        so a whole-field walk there pays no generator step per element."""
        return range(self.p) if self.t == 1 else _digit_tuples(self.p, self.t)

    def el(self, x) -> "FieldElem":
        """The element named by an int, reduced mod p, or, when t > 1, by a
        tuple of t ints in ascending powers; anything else is a ValueError."""
        if isinstance(x, int):
            return FieldElem(self, self.from_int(x))
        if self.t == 1 or not isinstance(x, tuple) or len(x) != self.t:
            raise ValueError(f"expected an int or a tuple of {self.t} coefficients, got {x!r}")
        return FieldElem(self, tuple(int(c) % self.p for c in x))

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, self.one_raw)

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.t == other.t
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.t, self.modulus))

    def __repr__(self):
        if self.t == 1:
            return f"FieldCtx(F_{self.p})"
        return f"FieldCtx(F_{self.p}^{self.t})"


class FieldElem:
    """An element of the field ctx, held as its raw representation.

    A slotted class, not a NamedTuple: a tuple base would give it +, len and
    3 * e repetition.
    """

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx: FieldCtx, raw):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return FieldElem, (self.ctx, self.raw)

    @property
    def coeffs(self) -> tuple:
        return (self.raw,) if self.ctx.t == 1 else self.raw

    def is_zero(self) -> bool:
        return self.ctx.is_zero_raw(self.raw)

    def __mul__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        if other.ctx != self.ctx:
            raise CtxMismatch("operands belong to different fields")
        return FieldElem(self.ctx, self.ctx.rmul(self.raw, other.raw))

    def __pow__(self, e: int):
        return FieldElem(self.ctx, self.ctx.rpow(self.raw, e))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx.rinv(self.raw))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.ctx == other.ctx and self.raw == other.raw
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.t, self.raw))

    def __int__(self):
        if self.ctx.t != 1:
            raise ValueError("only prime-field elements convert to int")
        return self.raw

    def __repr__(self):
        return f"FieldElem({self.raw} in {self.ctx!r})"


@functools.lru_cache(maxsize=None)
def ext_field_build(p: int, t: int) -> FieldCtx:
    """Context for F_{p^t} with the lexicographically smallest monic modulus.

    Candidates x^t + c_{t-1} x^{t-1} + ... + c_0 are ordered by the tuple
    (c_{t-1}, ..., c_0), so repeated builds agree byte for byte. The first p,
    the binomials x^t - a with a = -c_0, are settled without a Rabin test:
    none is irreducible unless every prime l | t divides p - 1 and p = 1 mod 4
    when 4 | t; then x^t - a is irreducible exactly when a^((p-1)/l) != 1 for
    every such l (Lidl and Niederreiter, Finite Fields, Theorem 3.75).
    """
    base = FieldCtx(p)
    if not isinstance(t, int) or t < 1 or t > MAX_EXT_DEGREE:
        raise DegreeTooLarge(f"extension degree must be in 1..{MAX_EXT_DEGREE}, got {t}")
    if t == 1:
        return base
    ells = prime_factors(t)
    if all((p - 1) % ell == 0 for ell in ells) and (t % 4 or p % 4 == 1):
        for c0 in range(1, p):
            if all(pow(p - c0, (p - 1) // ell, p) != 1 for ell in ells):
                return FieldCtx(p, t, (c0, *[0] * (t - 1), 1))
    for rest in itertools.islice(_digit_tuples(p, t - 1), 1, None):
        for c0 in range(p):
            if _is_irreducible(base, [c0, *rest, 1]):
                return FieldCtx(p, t, (c0, *rest, 1))
    raise AssertionError("no irreducible modulus found (unreachable)")
