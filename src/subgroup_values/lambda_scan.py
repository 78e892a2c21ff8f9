"""Exceptional multipliers of the symmetrized polynomial f(X)g(Y) - λ f(Y)g(X).

For a rational function ψ = f/g that is not a perfect power, the symmetrized
polynomial is absolutely irreducible for all but at most 4·deg(ψ)² values of
λ; the scan enumerates those exceptional λ together with verified witness
factors.

Every fiber of the pencil is one polynomial of a single family: F_λ(x0, Y) =
f(x0)g(Y) - λ g(x0)f(Y) is, up to a nonzero scalar, P_μ(Y) = g(Y) - μ f(Y)
with μ = λ g(x0)/f(x0), or P_∞ = f where f(x0) = 0. So each scanned field
gets one table, built once, of the factor degrees of every P_μ of full degree
n = deg_Y F_λ that is squarefree. The at most 2n - 2 μ with P_μ not
squarefree are the values g(y)/f(y) at the roots y of the Wronskian
f g' - f' g, read off one factorization of it. f and g are coprime, so
y ∈ F_q is a root of P_μ exactly when f(y) ≠ 0 and g(y)/f(y) = μ (of P_∞
when f(y) = 0): the number k of linear factors of P_μ is a count of the
ratios g(x0)/f(x0) the sieve walks anyway, and the rootless rest, of degree
m = n - k, is empty or irreducible when m ≤ 3. When m is 4 or 5 it is
irreducible or splits as {2, m - 2}, and the quadratic character of
disc(P_μ) tells which (Stickelberger's theorem); only the entries with
m ≥ 6 run a distinct-degree factorization. A λ is settled without a
bivariate search when no Y-degree in 1..n-1 is a sum of factor degrees on
every one of its fibers, and, if gcd(deg_x, deg_y, total degree) > 1, some
fiber has a simple rational root. The first makes F_λ irreducible over the
field: a factor of Y-degree a restricts to factors of total degree a on each
such fiber, and a factor c(X) of Y-degree 0 would make the fiber at a root
of c vanish, which coprime f, g rule out. The second is a smooth rational
point, which certifies absolute irreducibility. Every other λ, every
exceptional one among them, goes to `is_absolutely_irreducible`, whose
verdict and witness are the reported ones; λ = 1 goes there without the
sieve, as X - Y divides F_1 and leaves a root on every fiber. Whenever
f(0)g(Y) - g(0)f(Y) is squarefree of degree deg_Y F_1, the engine returns
that witness, Y - X, from the line through the origin without a Hensel lift.
F_λ itself is built only for those λ and for the degree checks: its degrees
are deg_x = deg_y = n and total degree deg f + deg g for every λ except
λ = 1 when deg f = deg g.

In every field the fiber table shares one (mask, linear) entry per root
count among the fibers whose rootless part has degree ≤ 3. Over F_p the
O(p) passes work on the whole field at once: the ratio table evaluates f
and g on every point with one list per Horner step and inverts through a
table of all inverses, and the fiber table and the sieve walk the field as
plain ints. The sieve's products λ·r, the polynomial and modular-power
kernels, the one series product `_spoly_coef` of the Hensel lift and
FieldCtx.rpow branch once on ctx.t and run plain int arithmetic mod p;
scans over F_{p^t}, t > 1, keep the generic loops of the FieldCtx methods.
"""

import itertools
import math
from collections import Counter
from typing import NamedTuple

from .errors import (
    BadRange,
    CharTooSmall,
    DegreeTooSmall,
    PerfectPowerInput,
    SearchSpaceTooLarge,
    ZeroLambda,
)
from .factorization import (
    _u_ddf,
    _u_factor,
    _validate_bivariate_input,
    embed_bipoly,
    embed_unipoly,
    get_embedding,
    is_absolutely_irreducible,
    perfect_power_exponent,
)
from .fields import FieldCtx, FieldElem, ext_field_build
from .polynomials import (
    BiPoly,
    RationalFunc,
    _uadd,
    _uderiv,
    _ueval,
    _uextgcd,
    _umonic,
    _umul,
    _urem,
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
        f, g = psi.num.coeffs, psi.den.coeffs
    else:
        f = embed_unipoly(psi.num, ctx).coeffs
        g = embed_unipoly(psi.den, ctx).coeffs
    # the coefficient of Y^j is g_j f(X) - λ f_j g(X); where g_j or f_j is
    # zero, the other side is the row as _uscale returns it
    nl = ctx.rneg(lam_raw)
    sides = ((_uscale(ctx, f, gj), _uscale(ctx, g, ctx.rmul(nl, fj)))
             for fj, gj in itertools.zip_longest(f, g, fillvalue=ctx.zero_raw))
    return BiPoly._from_rows(ctx, [_uadd(ctx, a, b) if a and b else a or b for a, b in sides])


class LambdaWitness(NamedTuple):
    lam: FieldElem
    witness: BiPoly
    ext_degree: int  # extension degree over F_p of the witness's field


class LambdaReport(NamedTuple):
    psi: RationalFunc
    scanned_field: FieldCtx
    exceptional: tuple
    bound: int

    @property
    def count(self) -> int:
        return len(self.exceptional)


def _new_elements(p: int, t: int):
    """The elements of F_{p^t} in no proper subfield, in elements() order:
    the scan reaches the rest, 0 among them, at a smaller t."""
    ctx = ext_field_build(p, t)
    old = set()
    for u in range(1, t):
        if t % u == 0:
            sub = ext_field_build(p, u)
            old.update(map(get_embedding(sub, ctx).map_raw, sub.elements()))
    return (raw for raw in ctx.elements() if raw not in old)


def _disc_is_square(ctx: FieldCtx, P) -> bool:
    """Whether disc(P) is a square in F_q, q odd, for a squarefree P of
    degree n ≥ 2.

    disc(P) = (-1)^(n(n-1)/2) Res(P, P')/lc(P), with P' taken at degree
    n - 1; a P' of lower degree d (p | n) scales Res by lc(P)^(n-1-d).
    Res(A, B) = (-1)^(ab) lc(B)^(a-r) Res(B, A mod B) for degrees a, b, r,
    down to Res(A, c) = c^a for a constant c. Only the quadratic character
    is wanted, so each factor enters once when its exponent is odd.
    """
    A, B = P, _uderiv(ctx, P)
    n = len(A) - 1
    sign = n * (n - 1) // 2
    acc = A[-1] if (n - len(B)) % 2 == 0 else ctx.one_raw
    while len(B) > 1:
        R = _urem(ctx, A, B)
        sign += (len(A) - 1) * (len(B) - 1)
        if (len(A) - len(R)) % 2:
            acc = ctx.rmul(acc, B[-1])
        A, B = B, R
    if (len(A) - 1) % 2:
        acc = ctx.rmul(acc, B[0])
    if sign % 2:
        acc = ctx.rneg(acc)
    return ctx.rpow(acc, (ctx.q - 1) // 2) == ctx.one_raw


def _fiber_table(ctx: FieldCtx, f, g, n: int, ratios) -> dict:
    """{μ: (mask, linear)} over μ in F_q and None for ∞, keeping each P_μ
    (g - μ f, and f for ∞) of degree n that is squarefree; q is odd.

    No P_μ is built to find the μ left out. The degree drops at ∞ when
    deg f < n, at μ = 0 when deg g < n and at μ = lc g / lc f when
    deg f = deg g. For the rest, the Wronskian rule: f P_μ' - f' P_μ = W =
    f g' - f' g. W ≠ 0: as f and g are coprime, W = 0 forces f' = g' = 0,
    so f and g are polynomials in X^p, hence constant as p > deg f + deg g;
    exceptional_lambdas refuses both small p and constant ψ before it
    builds a table. f vanishes at no root of P_μ, so P_μ has a repeated
    root exactly when μ = g(y)/f(y) at a root y of W with f(y) ≠ 0. For each
    irreducible factor w of W prime to f, g f⁻¹ mod w is that value: a
    constant μ in F_q, or, when it is not constant, a μ outside F_q. At a
    root y of f, W(y) = -f'(y) g(y) with g(y) ≠ 0, so P_∞ = f has a repeated
    root exactly when some factor w shares a root with f.

    Bit a of mask is set for each a in 1..n-1 that is a sum of some of P_μ's
    F_q-factor degrees; linear says P_μ has a root in F_q. ratios[x0] is
    g(x0)/f(x0), or None where f(x0) = 0, so P_μ has as many roots k as μ has
    occurrences in ratios. The degrees are k ones and those of a rootless part
    of degree m = n - k, which is empty or irreducible when m ≤ 3. When m is
    4 or 5 the rootless part is irreducible or splits as {2, m - 2}, and
    Stickelberger's theorem tells which: a squarefree P of degree n with r
    irreducible factors has disc(P) a square exactly when n - r is even.
    Only m ≥ 6 runs `_u_ddf` on P_μ. The table is empty when some a is such
    a sum on every entry, as for maps whose fibers always split: then no
    λ's fibers can rule a out.
    """
    W = _usub(ctx, _umul(ctx, f, _uderiv(ctx, g)), _umul(ctx, _uderiv(ctx, f), g))
    skip = set()
    if len(f) != n + 1:
        skip.add(None)
    if len(g) != n + 1:
        skip.add(ctx.zero_raw)
    elif len(f) == n + 1:
        skip.add(ctx.rmul(g[-1], ctx.rinv(f[-1])))
    for w, _ in _u_factor(ctx, W)[1]:
        d, f_inv = _uextgcd(ctx, f, w)
        if len(d) == 1:
            r = _urem(ctx, _umul(ctx, g, f_inv), w)
            if len(r) <= 1:
                skip.add(r[0] if r else ctx.zero_raw)
        else:
            skip.add(None)
    roots = Counter(ratios)
    inner = (1 << n) - 2

    def entry(k, rootless):
        sums = (1 << (k + 1)) - 1
        for d in rootless:
            sums |= sums << d
        return sums & inner, k > 0

    # An entry whose rootless part has m = n - k ≤ 3 depends on k alone: one
    # tuple per such k, shared by its fibers. The entries left None, m ≥ 4,
    # are filled in from P_μ.
    small = {k: entry(k, [n - k] if n - k >= 2 else []) for k in range(max(n - 3, 0), n + 1)}
    table = dict.fromkeys(itertools.chain(ctx.elements(), [None]), small.get(0))
    table.update((mu, small.get(k)) for mu, k in roots.items())
    for mu in skip:
        table.pop(mu, None)
    for mu in [mu for mu, e in table.items() if e is None]:
        P = f if mu is None else _usub(ctx, g, _uscale(ctx, f, mu))
        k = roots.get(mu, 0)
        m = n - k
        if m <= 5:
            # r = k + 1 or k + 2 factors; disc(P) a square iff n - r is even
            split = _disc_is_square(ctx, P) == (m % 2 == 0)
            table[mu] = entry(k, [2, m - 2] if split else [m])
        else:
            rootless = []
            for part, d in _u_ddf(ctx, _umonic(ctx, P)):
                if d > 1:
                    rootless += [d] * ((len(part) - 1) // d)
            table[mu] = entry(k, rootless)
    common = inner
    for mask, _ in table.values():
        common &= mask
        if not common:
            return table
    return {}


def _ratio_table(ctx: FieldCtx, f, g) -> list:
    """[g(x0)/f(x0), or None where f(x0) = 0, for x0 in ctx.elements()]."""
    if ctx.t == 1:
        # Horner on every point at once, one list per step, and x^-1 from the
        # table inv[x] = -(p // x) inv[p mod x], as p = (p // x) x + p mod x.
        p = ctx.p
        xs = range(p)
        fx, gx = ([h[-1] if h else 0] * p for h in (f, g))
        for c in f[-2::-1]:
            fx = [(v * x + c) % p for v, x in zip(fx, xs)]
        for c in g[-2::-1]:
            gx = [(v * x + c) % p for v, x in zip(gx, xs)]
        inv = [0, 1]
        for x in range(2, p):
            inv.append(-(p // x) * inv[p % x] % p)
        return [v * inv[u] % p if u else None for u, v in zip(fx, gx)]
    # Montgomery's batch inversion: prefix products of the nonzero f(x0), one
    # rinv of the last, then a walk back that peels one f(x0) off per point
    points = [(_ueval(ctx, f, x0), _ueval(ctx, g, x0)) for x0 in ctx.elements()]
    prefix = []
    acc = ctx.one_raw
    for fx, _ in points:
        prefix.append(acc)
        if not ctx.is_zero_raw(fx):
            acc = ctx.rmul(acc, fx)
    inv = ctx.rinv(acc)  # acc is a product of nonzero elements
    ratios = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        fx, gx = points[i]
        if not ctx.is_zero_raw(fx):
            ratios[i] = ctx.rmul(gx, ctx.rmul(inv, prefix[i]))
            inv = ctx.rmul(inv, fx)
    return ratios


def _sieve(ctx: FieldCtx, lams, ratios, table, need_point: bool) -> list:
    """The λ of lams, in order, that the fibers leave open. The fibers of λ
    show F_λ absolutely irreducible when no Y-degree in 1..n-1 is a
    factor-degree sum on every full squarefree fiber, and, when need_point,
    one of them has a linear factor. ratios[x0] is g(x0)/f(x0), or None where
    f(x0) = 0; an empty table leaves every λ open. One call walks every λ,
    so a λ that settles within a few fibers costs no call of its own."""
    if not table:
        return list(lams)
    left = []
    if ctx.t == 1:
        p = ctx.p
        for lam in lams:
            mask, need = -1, need_point
            for r in ratios:
                entry = table.get(None if r is None else lam * r % p)
                if entry is not None:
                    mask &= entry[0]
                    need = need and not entry[1]
                    if not mask and not need:
                        break
            else:
                left.append(lam)
        return left
    for lam in lams:
        mask, need = -1, need_point
        for r in ratios:
            entry = table.get(None if r is None else ctx.rmul(lam, r))
            if entry is not None:
                mask &= entry[0]
                need = need and not entry[1]
                if not mask and not need:
                    break
        else:
            left.append(lam)
    return left


def exceptional_lambdas(psi: RationalFunc, p: int | None = None, max_ext: int = 1) -> LambdaReport:
    """Scan λ in F_{p^t}* for t = 1..max_ext, reporting every λ whose
    symmetrized polynomial is reducible over the algebraic closure.

    Each reported λ carries a witness factor that is re-verified to divide the
    symmetrized polynomial exactly. Entries are ordered by (t, λ). Only the λ
    the fiber table leaves open reach `is_absolutely_irreducible`.

    The scan keeps lists of q = p^max_ext entries, so q above 2^20 is refused
    with SearchSpaceTooLarge before any of them is built: x^2+x at
    p = 1000003 already takes about 2 s and 181 MiB.
    """
    ctx = psi.ctx
    if p is not None and p != ctx.p:
        raise BadRange("explicit p disagrees with ψ's field")
    D = psi.D
    if D < 2:
        raise DegreeTooSmall(f"deg ψ = {D}; the scan needs degree >= 2")
    if not 1 <= max_ext <= D:
        raise BadRange(f"max_ext must be in 1..{D}, got {max_ext}")
    q = ctx.p**max_ext
    if q > 1 << 20:
        raise SearchSpaceTooLarge(f"q = p^{max_ext} = {q} exceeds the scan cap 2^20")
    total = psi.num.degree + psi.den.degree
    if ctx.p <= total:
        raise CharTooSmall(
            f"need p > deg f + deg g = {total}, got p = {ctx.p}"
        )
    if perfect_power_exponent(psi) != 1:
        raise PerfectPowerInput(f"ψ = {psi.text()} is a perfect power")

    n = max(psi.num.degree, psi.den.degree)
    # deg_x = deg_y = n, and the total degree is deg f + deg g for every λ
    # but λ = 1 when deg f = deg g, where the X^n Y^n terms cancel. So F_1,
    # and F_2 when deg f = deg g, carry every degree refusal the scan can
    # meet; they are validated before any table work, and the refusal names
    # the first λ that shows it. λ = 1 is always exceptional: X - Y divides
    # F_1, so the sieve never settles it, every fiber keeps a root and
    # need_point never matters there, so it skips the sieve. F_1 is kept
    # for its bivariate test; every other F_λ is built only when the sieve
    # leaves λ open.
    first = build_sym_poly(psi, 1)
    _validate_bivariate_input(first)
    if psi.num.degree == psi.den.degree:
        _validate_bivariate_input(build_sym_poly(psi, 2))
    need_point = math.gcd(n, total) > 1
    found = []
    for t in range(1, max_ext + 1):
        ctx_t = ext_field_build(ctx.p, t)
        f = list(embed_unipoly(psi.num, ctx_t).coeffs)
        g = list(embed_unipoly(psi.den, ctx_t).coeffs)
        ratios = _ratio_table(ctx_t, f, g)
        table = _fiber_table(ctx_t, f, g, n, ratios)
        if t == 1:
            lams = [1] + _sieve(ctx_t, range(2, ctx.p), ratios, table, need_point)
        else:
            lams = _sieve(ctx_t, _new_elements(ctx.p, t), ratios, table, need_point)
        for raw in lams:
            sym = first if raw == 1 else build_sym_poly(psi, FieldElem(ctx_t, raw))
            verdict = is_absolutely_irreducible(sym)
            if verdict.absolutely:
                continue
            witness = verdict.witness
            wctx = witness.ctx
            sym_up = sym if wctx == sym.ctx else embed_bipoly(sym, wctx)
            cof = sym_up.try_divide(witness)
            if cof is None or cof * witness != sym_up:
                raise AssertionError("witness failed re-verification")
            found.append(LambdaWitness(FieldElem(ctx_t, raw), witness, verdict.witness_ext))
        del table, ratios
    return LambdaReport(
        psi=psi,
        scanned_field=ext_field_build(ctx.p, max_ext),
        exceptional=tuple(found),
        bound=4 * D * D,
    )
