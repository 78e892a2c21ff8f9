"""Exact nonnegative real numbers of the form (rational)^(1/n).

Products with matching roots stay exact, which is what keeps level products
like V_1 * ... * V_s equal to their rational closed form with no rounding.
"""

import math
from fractions import Fraction


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for integers k >= 1 and n >= 0 (any n when k = 1), by
    integer Newton iteration from a power of two above the root; exact at
    any size."""
    if k == 1 or 0 <= n < 2:
        return n
    if n < 0:
        raise ValueError("negative radicand")
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class Surd:
    """radicand^(1/index) with an exact rational radicand >= 0."""

    __slots__ = ("radicand", "index")

    def __init__(self, radicand, index: int = 1):
        r = Fraction(radicand)
        if r < 0:
            raise ValueError("radicand must be nonnegative")
        if index < 1:
            raise ValueError("index must be >= 1")
        self.radicand = r
        self.index = index

    @staticmethod
    def _lift(value) -> "Surd":
        if isinstance(value, Surd):
            return value
        return Surd(Fraction(value), 1)

    def __mul__(self, other):
        o = Surd._lift(other)
        n = math.lcm(self.index, o.index)
        rad = self.radicand ** (n // self.index) * o.radicand ** (n // o.index)
        return Surd(rad, n)

    __rmul__ = __mul__

    def _cmp(self, other) -> int:
        # (a/b)^(1/k) against (c/d)^(1/k'): a^k' d^k against c^k b^k'
        o = Surd._lift(other)
        a, b = self.radicand.numerator, self.radicand.denominator
        c, d = o.radicand.numerator, o.radicand.denominator
        left = a**o.index * d**self.index
        right = c**self.index * b**o.index
        return (left > right) - (left < right)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (Surd, int, Fraction)):
            return self._cmp(other) == 0
        if isinstance(other, float):
            return self._cmp(Fraction(other)) == 0
        return NotImplemented

    def __hash__(self):
        # Equal values hash alike: the smallest n with value^n rational is
        # index / e for the largest divisor e of the index whose e-th roots of
        # numerator and denominator are exact; n = 1 hashes as the Fraction.
        a, b, k = self.radicand.numerator, self.radicand.denominator, self.index
        for e in range(k, 0, -1):
            if k % e == 0:
                ra, rb = iroot(a, e), iroot(b, e)
                if ra**e == a and rb**e == b:
                    break
        r = Fraction(ra, rb)
        return hash(r) if e == k else hash((r, k // e))

    def floor(self) -> int:
        # k^n <= r iff k^n <= floor(r), as k^n is an integer
        return iroot(math.floor(self.radicand), self.index)

    def as_fraction(self) -> Fraction:
        if self.index == 1:
            return self.radicand
        k = self.floor()
        if Fraction(k) ** self.index == self.radicand:
            return Fraction(k)
        raise ValueError(f"{self!r} is irrational")

    def __float__(self) -> float:
        if self.radicand == 0:
            return 0.0
        ln = math.log(self.radicand.numerator) - math.log(self.radicand.denominator)
        return math.exp(ln / self.index)

    def __repr__(self):
        if self.index == 1:
            return f"Surd({self.radicand})"
        return f"Surd({self.radicand})^(1/{self.index})"
