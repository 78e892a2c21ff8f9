"""Text grammar for polynomial and rational-function input.

Integer coefficients, indeterminate `x`, operators + - * ^, parentheses, and
at most one top-level `/`. The same tokenizer also serves the integer
bivariate grammar (x and y, no division) used for point counting.
"""

from .errors import ParseError, ZeroDenominator
from .fields import FieldCtx, _power
from .polynomials import RationalFunc, UniPoly

_OPS = set("+-*/^()")


def _tokenize(text: str, names) -> list:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            name = text[i:j]
            if name not in names:
                raise ParseError(f"unknown identifier {name!r}", i)
            out.append(("name", name, i))
            i = j
            continue
        if ch in _OPS:
            out.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", n))
    return out


class _Parser:
    """Recursive descent over an algebra supplied through small callbacks."""

    def __init__(self, tokens, algebra):
        self.toks = tokens
        self.pos = 0
        self.alg = algebra

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def parse_sum(self):
        acc = self.parse_term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            rhs = self.parse_term()
            acc = self.alg["add"](acc, rhs) if op == "+" else self.alg["sub"](acc, rhs)
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek()[0] == "*":
            self.next()
            acc = self.alg["mul"](acc, self.parse_factor())
        return acc

    def parse_factor(self):
        if self.peek()[0] == "-":
            self.next()
            return self.alg["neg"](self.parse_factor())
        atom = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            t = self.next()
            if t[0] != "int":
                raise ParseError("expected an integer exponent", t[2])
            return self.alg["pow"](atom, t[1])
        return atom

    def parse_atom(self):
        t = self.next()
        if t[0] == "int":
            return self.alg["const"](t[1])
        if t[0] == "name":
            return self.alg["var"](t[1])
        if t[0] == "(":
            inner = self.parse_sum()
            close = self.next()
            if close[0] != ")":
                raise ParseError("expected ')'", close[2])
            return inner
        raise ParseError("expected a number, variable, or '('", t[2])


def parse_poly_expr(text: str, p: int):
    """Parse over F_p; returns a UniPoly, or a RationalFunc when a top-level
    `/` splits numerator and denominator."""
    ctx = FieldCtx(p)
    algebra = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "neg": lambda a: -a,
        "pow": lambda a, e: a**e,
        "const": lambda n: UniPoly.from_ints(ctx, [n]),
        "var": lambda _: UniPoly.x(ctx),
    }
    parser = _Parser(_tokenize(text, {"x"}), algebra)
    num = parser.parse_sum()
    if parser.peek()[0] == "/":
        parser.next()
        den = parser.parse_sum()
        end = parser.next()
        if end[0] != "end":
            raise ParseError("only one top-level '/' is allowed", end[2])
        if den.is_zero():
            raise ZeroDenominator("denominator parses to zero")
        return RationalFunc(num, den)
    end = parser.next()
    if end[0] != "end":
        raise ParseError("trailing input", end[2])
    return num


def parse_rational_expr(text: str, p: int) -> RationalFunc:
    """Like parse_poly_expr but always returns a rational function."""
    out = parse_poly_expr(text, p)
    if isinstance(out, UniPoly):
        return RationalFunc(out, UniPoly.one(out.ctx))
    return out


def _ib_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def parse_int_bipoly(text: str) -> dict:
    """Integer-coefficient polynomial in x and y as {(i, j): coefficient}."""

    def add(a, b):
        out = dict(a)
        for k, c in b.items():
            out[k] = out.get(k, 0) + c
        return {k: c for k, c in out.items() if c}

    algebra = {
        "add": add,
        "sub": lambda a, b: add(a, {k: -c for k, c in b.items()}),
        "mul": _ib_mul,
        "neg": lambda a: {k: -c for k, c in a.items()},
        "pow": lambda a, e: _power(_ib_mul, {(0, 0): 1}, a, e),
        "const": lambda n: {(0, 0): n} if n else {},
        "var": lambda name: {(1, 0): 1} if name == "x" else {(0, 1): 1},
    }
    parser = _Parser(_tokenize(text, {"x", "y"}), algebra)
    out = parser.parse_sum()
    end = parser.next()
    if end[0] != "end":
        raise ParseError("trailing input", end[2])
    return out
