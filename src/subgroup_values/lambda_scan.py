"""Exceptional multipliers of the symmetrized polynomial f(X)g(Y) - λ f(Y)g(X).

For a rational function ψ = f/g that is not a perfect power, the symmetrized
polynomial is absolutely irreducible for all but at most 4·deg(ψ)² values of
λ; the scan enumerates those exceptional λ together with verified witness
factors.
"""

from dataclasses import dataclass

from .errors import (
    BadRange,
    CharTooSmall,
    DegreeTooSmall,
    PerfectPowerInput,
    ZeroLambda,
)
from .factorization import (
    embed_bipoly,
    embed_unipoly,
    is_absolutely_irreducible,
    perfect_power_exponent,
)
from .fields import FieldCtx, FieldElem, ext_field_build
from .polynomials import BiPoly, RationalFunc


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


def exceptional_lambdas(psi: RationalFunc, p: int | None = None, max_ext: int = 1) -> LambdaReport:
    """Scan λ in F_{p^t}* for t = 1..max_ext, reporting every λ whose
    symmetrized polynomial is reducible over the algebraic closure.

    Each reported λ carries a witness factor that is re-verified to divide the
    symmetrized polynomial exactly. Entries are ordered by (t, λ).
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

    found = []
    top_ctx = ctx
    for t in range(1, max_ext + 1):
        ctx_t = ext_field_build(ctx.p, t)
        top_ctx = ctx_t
        for raw in ctx_t.elements():
            if ctx_t.is_zero_raw(raw):
                continue
            if t > 1 and _in_proper_subfield(ctx_t, raw, t):
                continue
            sym = build_sym_poly(psi, FieldElem(ctx_t, raw))
            verdict = is_absolutely_irreducible(sym)
            if verdict.absolutely:
                continue
            witness = verdict.witness
            wctx = witness.ctx
            sym_up = sym if wctx == sym.ctx else embed_bipoly(sym, wctx)
            cof = sym_up.try_divide(witness)
            assert cof is not None and cof * witness == sym_up, "witness failed re-verification"
            found.append(LambdaWitness(FieldElem(ctx_t, raw), witness, verdict.witness_ext))
    return LambdaReport(
        psi=psi,
        scanned_field=top_ctx,
        exceptional=tuple(found),
        bound=4 * D * D,
    )
