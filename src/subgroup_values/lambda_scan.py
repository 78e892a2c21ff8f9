"""Exceptional multipliers of the symmetrized polynomial f(X)g(Y) - λ f(Y)g(X).

For a rational function ψ = f/g that is not a perfect power, the symmetrized
polynomial is absolutely irreducible for all but at most 4·deg(ψ)² values of
λ; the scan enumerates those exceptional λ together with verified witness
factors.

Every fiber of the pencil is one polynomial of a single family: F_λ(x0, Y) =
f(x0)g(Y) - λ g(x0)f(Y) is, up to a nonzero scalar, P_μ(Y) = g(Y) - μ f(Y)
with μ = λ g(x0)/f(x0), or P_∞ = f where f(x0) = 0. So each scanned field
gets one table, built once, of the factor degrees of every P_μ of full degree
n = deg_Y F_λ that is squarefree. f and g are coprime, so y ∈ F_q is a root
of P_μ exactly when f(y) ≠ 0 and g(y)/f(y) = μ (of P_∞ when f(y) = 0): the
number k of linear factors of P_μ is a count of the ratios g(x0)/f(x0) the
sieve walks anyway, and the rootless rest, of degree m = n - k, is empty or
irreducible when m ≤ 3. Only the entries with m ≥ 4 run a distinct-degree
factorization. A λ is settled without a bivariate search when no Y-degree in
1..n-1 is a sum of factor degrees on every one of its fibers, and, if
gcd(deg_x, deg_y, total degree) > 1, some fiber has a simple rational root.
The first makes F_λ irreducible over the field: a factor of Y-degree a
restricts to factors of total degree a on each such fiber, and a factor c(X)
of Y-degree 0 would make the fiber at a root of c vanish, which coprime f, g
rule out. The second is a smooth rational point, which certifies absolute
irreducibility. Every other λ, every exceptional one among them, goes to
`is_absolutely_irreducible`, whose verdict and witness are the reported ones.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .errors import (
    BadRange,
    CharTooSmall,
    DegreeTooSmall,
    PerfectPowerInput,
    ZeroLambda,
)
from .factorization import (
    _u_ddf,
    _validate_bivariate_input,
    embed_bipoly,
    embed_unipoly,
    is_absolutely_irreducible,
    perfect_power_exponent,
)
from .fields import FieldCtx, FieldElem, ext_field_build
from .polynomials import (
    BiPoly,
    RationalFunc,
    _uderiv,
    _ueval,
    _ugcd,
    _umonic,
    _uscale,
    _usub,
)


def build_sym_poly(psi: RationalFunc, lam) -> BiPoly:
    """f(X)g(Y) - λ f(Y)g(X), expanded exactly.

    λ may live in an extension of ψ's field; the output then lives there too.
    """
    if isinstance(lam, FieldElem):
        ctx = lam.ctx
        lam_raw = lam.raw
    else:
        ctx = psi.ctx
        lam_raw = ctx.el(lam).raw
    if ctx.is_zero_raw(lam_raw):
        raise ZeroLambda("λ = 0 is excluded by definition")
    if ctx == psi.ctx:
        f, g = psi.num, psi.den
    else:
        f = embed_unipoly(psi.num, ctx)
        g = embed_unipoly(psi.den, ctx)
    terms = {}
    for i, a in enumerate(f.coeffs):
        if ctx.is_zero_raw(a):
            continue
        for j, b in enumerate(g.coeffs):
            if ctx.is_zero_raw(b):
                continue
            v = ctx.rmul(a, b)
            # + a_i b_j X^i Y^j  (from f(X) g(Y))
            k = (i, j)
            terms[k] = ctx.radd(terms.get(k, ctx.zero_raw), v)
            # - λ a_i b_j X^j Y^i  (from λ f(Y) g(X))
            k = (j, i)
            terms[k] = ctx.rsub(terms.get(k, ctx.zero_raw), ctx.rmul(lam_raw, v))
    return BiPoly(ctx, terms, raw=True)


@dataclass(frozen=True)
class LambdaWitness:
    lam: FieldElem
    witness: BiPoly
    ext_degree: int  # extension degree over F_p of the witness's field


@dataclass(frozen=True)
class LambdaReport:
    psi: RationalFunc
    scanned_field: FieldCtx
    exceptional: tuple
    bound: int

    @property
    def count(self) -> int:
        return len(self.exceptional)


def _in_proper_subfield(ctx: FieldCtx, raw, t: int) -> bool:
    for u in range(1, t):
        if t % u == 0 and ctx.rpow(raw, ctx.p**u) == raw:
            return True
    return False


def _fiber_table(ctx: FieldCtx, f, g, n: int, ratios) -> dict:
    """{μ: (mask, linear)} over μ in F_q and None for ∞, keeping each P_μ
    (g - μ f, and f for ∞) of degree n that is squarefree.

    Bit a of mask is set for each a in 1..n-1 that is a sum of some of P_μ's
    F_q-factor degrees; linear says P_μ has a root in F_q. ratios[x0] is
    g(x0)/f(x0), or None where f(x0) = 0, so P_μ has as many roots k as μ has
    occurrences in ratios. The degrees are k ones and those of a rootless part
    of degree m = n - k, which is empty or irreducible when m ≤ 3; only m ≥ 4
    needs `_u_ddf`. The table is empty when some a is such a sum on every
    entry, as for maps whose fibers always split: then no λ's fibers can rule
    a out.
    """
    roots = Counter(ratios)
    inner = (1 << n) - 2
    table = {}
    for mu in itertools.chain(ctx.elements(), [None]):
        P = f if mu is None else _usub(ctx, g, _uscale(ctx, f, mu))
        if len(P) != n + 1:
            continue
        P = _umonic(ctx, P)
        if len(_ugcd(ctx, P, _uderiv(ctx, P))) != 1:
            continue
        k = roots[mu]
        m = n - k
        if m < 4:
            sums = (1 << (k + 1)) - 1
            if m >= 2:
                sums |= sums << m
        else:
            sums = 1
            for part, d in _u_ddf(ctx, P):
                for _ in range((len(part) - 1) // d):
                    sums |= sums << d
        table[mu] = (sums & inner, k > 0)
    common = inner
    for mask, _ in table.values():
        common &= mask
    return {} if common else table


def _sieve_settles(ctx: FieldCtx, lam_raw, ratios, table, need_point: bool) -> bool:
    """True when the fibers of λ show F_λ absolutely irreducible: no Y-degree
    in 1..n-1 is a factor-degree sum on every full squarefree fiber, and, when
    need_point, one of them has a linear factor. ratios[x0] is g(x0)/f(x0), or
    None where f(x0) = 0."""
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


def exceptional_lambdas(psi: RationalFunc, p: int | None = None, max_ext: int = 1) -> LambdaReport:
    """Scan λ in F_{p^t}* for t = 1..max_ext, reporting every λ whose
    symmetrized polynomial is reducible over the algebraic closure.

    Each reported λ carries a witness factor that is re-verified to divide the
    symmetrized polynomial exactly. Entries are ordered by (t, λ). Only the λ
    the fiber table leaves open reach `is_absolutely_irreducible`.
    """
    ctx = psi.ctx
    if p is not None and p != ctx.p:
        raise BadRange("explicit p disagrees with ψ's field")
    D = psi.D
    if not isinstance(D, int) or D < 2:
        raise DegreeTooSmall(f"deg ψ = {D}; the scan needs degree >= 2")
    if not 1 <= max_ext <= D:
        raise BadRange(f"max_ext must be in 1..{D}, got {max_ext}")
    total = psi.num.degree + psi.den.degree
    if ctx.p <= total:
        raise CharTooSmall(
            f"need p > deg f + deg g = {total}, got p = {ctx.p}"
        )
    if perfect_power_exponent(psi) != 1:
        raise PerfectPowerInput(f"ψ = {psi.text()} is a perfect power")

    n = max(psi.num.degree, psi.den.degree)
    found = []
    top_ctx = ctx
    for t in range(1, max_ext + 1):
        ctx_t = ext_field_build(ctx.p, t)
        top_ctx = ctx_t
        f = list(embed_unipoly(psi.num, ctx_t).coeffs)
        g = list(embed_unipoly(psi.den, ctx_t).coeffs)
        ratios = []
        for x0 in ctx_t.elements():
            fx = _ueval(ctx_t, f, x0)
            gx = _ueval(ctx_t, g, x0)
            ratios.append(None if ctx_t.is_zero_raw(fx) else ctx_t.rmul(gx, ctx_t.rinv(fx)))
        table = _fiber_table(ctx_t, f, g, n, ratios)
        for raw in ctx_t.elements():
            if ctx_t.is_zero_raw(raw):
                continue
            if t > 1 and _in_proper_subfield(ctx_t, raw, t):
                continue
            sym = build_sym_poly(psi, FieldElem(ctx_t, raw))
            _validate_bivariate_input(sym)
            need_point = math.gcd(sym.deg_x, sym.deg_y, sym.total_degree) > 1
            if table and _sieve_settles(ctx_t, raw, ratios, table, need_point):
                continue
            verdict = is_absolutely_irreducible(sym)
            if verdict.absolutely:
                continue
            witness = verdict.witness
            wctx = witness.ctx
            sym_up = sym if wctx == sym.ctx else embed_bipoly(sym, wctx)
            cof = sym_up.try_divide(witness)
            assert cof is not None and cof * witness == sym_up, "witness failed re-verification"
            found.append(LambdaWitness(FieldElem(ctx_t, raw), witness, verdict.witness_ext))
        del table, ratios
    return LambdaReport(
        psi=psi,
        scanned_field=top_ctx,
        exceptional=tuple(found),
        bound=4 * D * D,
    )
