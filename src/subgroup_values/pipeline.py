"""Exponent algebra, level selection, and the end-to-end proof tracer for the
subgroup value-count bound, plus the sweep harness that drives it over a grid.

The tracer replays every constructive step on a concrete instance: scan the
exceptional multipliers, pick the most popular admissible one, build the
small-residue multiplier from the coefficient lattice, reduce the two sides to
centered integer polynomials, and verify the integer identity
F(x, y) = G(x, y) + z p at every congruent pair.
"""

import itertools
import math
# Imported with the module, not inside run_sweep: the package loads this
# module only when a pipeline name is first used, and deferring them to a
# sweep's first jobs > 1 call measured slower end to end.
import multiprocessing
from fractions import Fraction
from multiprocessing.connection import wait
from typing import NamedTuple

from .counting import (
    Interval,
    Subgroup,
    SubgroupCount,
    _count_values,
    _eval_int_bipoly,
    _int_column,
    _int_horner,
    congruent_pairs,
    subgroup_of_order,
)
from .errors import (
    BadRange,
    DegenerateDegrees,
    LambdaSetExhausted,
    PerfectPowerInput,
    PreconditionViolated,
    SubgroupValuesError,
    WindowEmpty,
)
from .factorization import extract_power_root, perfect_power_exponent
from .fields import signed_residue
from .lambda_scan import build_sym_poly, exceptional_lambdas
from .lattices import MAX_ENUM_DIM, SmallResidueInstance, find_small_residue_multiplier
from .parsing import parse_rational_expr
from .polynomials import RationalFunc
from .reporting import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_PERFECT_POWER,
    STATUS_WINDOW_EMPTY,
    ReportRow,
)
from .surd import Surd


class ExponentSet(NamedTuple):
    d: int
    e: int
    ell: int
    m: int
    k: int
    s: int
    theta: Fraction
    rho: Fraction
    tau: Fraction


def exponent_set(d: int, e: int) -> ExponentSet:
    """The exponent family attached to degrees (d, e)."""
    if d < 0 or e < 0 or d + e < 1:
        raise DegenerateDegrees(f"need d, e >= 0 and d + e >= 1, got ({d}, {e})")
    ell, m = min(d, e), max(d, e)
    k = (ell + 1) * (ell * m - ell * ell + m * m + m)
    s = 2 * m * ell + 2 * m - ell * ell
    return ExponentSet(
        d=d,
        e=e,
        ell=ell,
        m=m,
        k=k,
        s=s,
        theta=Fraction(1, 2 * s),
        rho=Fraction(k, 2 * s),
        tau=Fraction(1, 2 * (ell + m)),
    )


class SupportSet(NamedTuple):
    ell: int
    m: int
    pairs: tuple


def support_set(ell: int, m: int) -> SupportSet:
    """Index pairs carrying the nonconstant coefficients of the symmetrized
    polynomial; the size and degree-sum identities are re-checked on every call."""
    if not (0 <= ell <= m) or m < 1:
        raise BadRange(f"need 0 <= ell <= m and m >= 1, got ({ell}, {m})")
    pairs = tuple(
        (i, j)
        for i in range(m + 1)
        for j in range(m + 1)
        if i + j >= 1 and min(i, j) <= ell
    )
    s = 2 * m * ell + 2 * m - ell * ell
    k = (ell + 1) * (ell * m - ell * ell + m * m + m)
    if not len(pairs) == 2 * (m + 1) * (ell + 1) - (ell + 1) ** 2 - 1 == s:
        raise AssertionError
    if sum(i + j for i, j in pairs) != k:
        raise AssertionError
    return SupportSet(ell=ell, m=m, pairs=pairs)


class LevelSelection(NamedTuple):
    """Levels V_{i,j} with V_{i,j} H^(i+j) = U and prod V_{i,j} = 2 p^(s-1).

    A single level family; no per-multiplier variant exists. All members are
    exact root expressions, so the product check is exact rational arithmetic.
    """

    p: int
    H: int
    U: Surd
    levels: dict
    product_check: Fraction


def _effective_c(p: int, H: int, exp: ExponentSet) -> float | None:
    # the window exists whenever H <= c p^(2 theta / (2 rho - 1)); report the
    # c this instance would need
    denom = 2 * exp.rho - 1
    if denom <= 0:
        return None
    return H / p ** float(2 * exp.theta / denom)


def select_test_levels(p: int, H: int, exp: ExponentSet) -> LevelSelection:
    """U = (2 p^(s-1) H^k)^(1/s) and the level family V_{i,j} = U / H^(i+j).

    Precondition: H >= 2. Raises WindowEmpty (naming the violated inequality
    and the instance's effective window constant) when the largest level
    U/H reaches p. Otherwise no level drops below 1: every level is at most
    U/H < p and the s levels multiply to 2 p^(s-1), so the smallest,
    U/H^(m+ell), is 2 p^(s-1) over a product of s - 1 levels below p, which
    is above 2.
    """
    if H < 2:
        raise PreconditionViolated(f"H must be >= 2, got {H}")
    s, k = exp.s, exp.k
    base = Fraction(2) * Fraction(p) ** (s - 1)
    # the largest level, V_{1,0} = U/H, is checked before the others are built
    vmax = Surd(base * Fraction(H) ** (k - s), s)
    if not vmax < p:
        raise WindowEmpty(
            f"max level U/H = {float(vmax):.6g} >= p = {p}",
            effective_c=_effective_c(p, H, exp),
        )
    support = support_set(exp.ell, exp.m)
    U = Surd(base * Fraction(H) ** k, s)
    levels = {}
    for (i, j) in support.pairs:
        levels[(i, j)] = Surd(base * Fraction(H) ** (k - s * (i + j)), s)
    prod = Surd(1)
    for v in levels.values():
        prod = prod * v
    product_check = prod.as_fraction()
    if product_check != base:
        raise AssertionError
    return LevelSelection(p=p, H=H, U=U, levels=levels, product_check=product_check)


def value_count_bound(exp: ExponentSet, p: int, H: int, T: int) -> float:
    """(1 + H^rho p^-theta) H^tau sqrt(T); the constant and the o(1) factor
    are dropped and the value is only ever reported, never asserted."""
    if p <= 0 or H <= 0 or T < 0:
        raise PreconditionViolated("p, H must be positive and T nonnegative")
    return (
        (1.0 + H ** float(exp.rho) * p ** (-float(exp.theta)))
        * H ** float(exp.tau)
        * math.sqrt(T)
    )


def reduce_perfect_power(psi: RationalFunc, T: int):
    """Rewrite a perfect power ψ = φ^n as (φ, n T): membership of ψ(x) in a
    subgroup of order T forces φ(x) into one of order at most n T."""
    if psi.is_constant():
        return psi, T
    n = perfect_power_exponent(psi)
    if n == 1:
        return psi, T
    return extract_power_root(psi, n), n * T


class ProofTrace(NamedTuple):
    p: int
    psi: RationalFunc
    H: int
    T: int
    count: int
    witnesses: tuple
    lambda_count: int
    chosen_lambda: int
    pair_count: int
    rt_lower: Fraction
    rt_ok: bool
    exponents: ExponentSet
    levels: LevelSelection
    multiplier: int
    F_int: dict
    G_int: dict
    pairs_z: tuple
    z_max: int
    z_magnitude: float
    bound: float
    ratio: float


def _check_trace_size(p: int, H: int, exp: ExponentSet) -> None:
    if not 2 <= H < p:
        raise PreconditionViolated(f"need 2 <= H < p, got H = {H}, p = {p}")
    if exp.s > MAX_ENUM_DIM:
        raise PreconditionViolated(
            f"support size s = {exp.s} exceeds the dimension cap {MAX_ENUM_DIM}"
        )


def trace_proof(psi: RationalFunc, p: int, H: int, T: int, exceptional=None) -> ProofTrace:
    """Replay the constructive pipeline on one instance.

    exceptional may carry a precomputed set of exceptional λ values in F_p*
    (as ints); when None the scan runs here.
    """
    if psi.ctx.p != p or psi.ctx.t != 1:
        raise PreconditionViolated("ψ must live over F_p")
    if psi.is_constant() or psi.num.is_zero():
        raise DegenerateDegrees("ψ must be nonconstant")
    if perfect_power_exponent(psi) != 1:
        raise PerfectPowerInput(f"ψ = {psi.text()} is a perfect power")
    exp = exponent_set(psi.d, psi.e)
    _check_trace_size(p, H, exp)
    levels = select_test_levels(p, H, exp)
    G = subgroup_of_order(p, T)
    if exceptional is None:
        exceptional = {int(w.lam) for w in exceptional_lambdas(psi, p).exceptional}
    values = list(map(psi.eval_raw, range(1, H + 1)))
    return _trace(psi, G, exp, levels, set(exceptional), values, _count_values(enumerate(values, 1), G))


def _choose_lambda(psi: RationalFunc, values: list, G: Subgroup, exceptional: set) -> tuple:
    """(λ, pairs): the λ in G outside exceptional with the most pairs (x, y) in
    [1, H]^2, poles excluded, with ψ(x) = λ ψ(y), the smallest on a tie;
    values holds ψ's raw values on 1..H, None at a pole.

    For nonzero v and w, v/w lies in G exactly when v^T = w^T, so only the
    ratios inside a bucket of equal v^T are counted, and G is not walked. A
    pair with ψ(x) = ψ(y) = 0 counts for every λ. When no admissible λ is a
    ratio, the smallest admissible element of G is taken.
    """
    p, T = G.p, G.order
    zeros = 0
    buckets: dict = {}
    for v in values:
        if v == 0:
            zeros += 1
        elif v is not None:
            buckets.setdefault(pow(v, T, p), []).append(v)
    ratio_pairs: dict = {}
    for bucket in buckets.values():
        for w in bucket:
            w_inv = pow(w, -1, p)
            for v in bucket:
                lam = v * w_inv % p
                ratio_pairs[lam] = ratio_pairs.get(lam, 0) + 1
    best = min(((-n, lam) for lam, n in ratio_pairs.items() if lam not in exceptional), default=None)
    if best is not None:
        return best[1], zeros * zeros - best[0]
    if sum(1 for lam in exceptional if 0 < lam < p and pow(lam, T, p) == 1) == T:
        raise LambdaSetExhausted(
            f"every λ in the order-{T} subgroup is exceptional for ψ = {psi.text()}"
        )
    # both take O(sqrt p) steps: G has T <= sqrt p elements, and otherwise
    # about one c in (p - 1)/T lies in G
    if T * T <= p:
        lam = min(c for c in G.elements() if c not in exceptional)
    else:
        lam = next(c for c in itertools.count(1) if c in G and c not in exceptional)
    return lam, zeros * zeros


def _trace(psi: RationalFunc, G: Subgroup, exp: ExponentSet, levels: LevelSelection,
           exceptional: set, values: list, counted: SubgroupCount) -> ProofTrace:
    """trace_proof past its checks: ψ lives over F_p, is nonconstant and no
    perfect power, exp is its exponent set, 2 <= H < p, s is within the cap,
    levels = select_test_levels(p, H, exp), values holds ψ's raw values on
    1..H (None at a pole) and counted is _count_values(enumerate(values, 1), G)."""
    p, T, H = G.p, G.order, levels.H
    count, witnesses = counted
    lambda_count = len(exceptional)

    best_lam, pair_count = _choose_lambda(psi, values, G, exceptional)
    best_pairs = congruent_pairs(psi, best_lam, H, p)
    if len(best_pairs) != pair_count:
        raise AssertionError("bucket count disagrees with the congruent pairs")
    m3 = exp.m**3
    rt_lower = Fraction(max(count * count - 4 * m3 * count, 0), T)
    rt_ok = Fraction(len(best_pairs)) >= rt_lower

    # levels.levels is keyed by the support's pairs, in support_set's order
    rows = build_sym_poly(psi, best_lam).rows
    b_vec = tuple(int(rows[j][i]) if j < len(rows) and i < len(rows[j]) else 0
                  for i, j in levels.levels)
    inst = SmallResidueInstance(p, b_vec, tuple(levels.levels.values()))
    v = find_small_residue_multiplier(inst)

    F_terms, G_terms = {}, {}
    for (i, a), (j, b) in itertools.product(enumerate(psi.num.coeffs), enumerate(psi.den.coeffs)):
        if a and b:
            F_terms[(i, j)] = signed_residue(v * a * b % p, p)
            G_terms[(j, i)] = signed_residue(v * best_lam * a * b % p, p)

    pairs_z = []
    for (x, y) in best_pairs:
        diff = _eval_int_bipoly(F_terms, x, y) - _eval_int_bipoly(G_terms, x, y)
        if diff % p:
            raise AssertionError("congruent pair fails the integer congruence")
        pairs_z.append((x, y, diff // p))
    z_max = max((abs(z) for _, _, z in pairs_z), default=0)
    z_magnitude = p ** (-1.0 / exp.s) * H ** (exp.k / exp.s) + 1.0

    # independent second pass: Horner in y over the columns at x, and the
    # recorded z-range must cover every pair
    for (x, y, z) in pairs_z:
        lhs = _int_horner(_int_column(F_terms, x), y)
        rhs = _int_horner(_int_column(G_terms, x), y)
        if lhs - rhs != z * p or abs(z) > z_max:
            raise AssertionError

    bound = value_count_bound(exp, p, H, T)
    return ProofTrace(
        p=p,
        psi=psi,
        H=H,
        T=T,
        count=count,
        witnesses=witnesses,
        lambda_count=lambda_count,
        chosen_lambda=best_lam,
        pair_count=len(best_pairs),
        rt_lower=rt_lower,
        rt_ok=bool(rt_ok),
        exponents=exp,
        levels=levels,
        multiplier=v,
        F_int=F_terms,
        G_int=G_terms,
        pairs_z=tuple(pairs_z),
        z_max=z_max,
        z_magnitude=z_magnitude,
        bound=bound,
        ratio=count / bound,
    )


# --- sweeps -----------------------------------------------------------------------


def standard_sweep_cells() -> tuple:
    """The fixed regression corpus: three primes, three maps, window lengths
    3..8, and every subgroup order in 2..20 dividing p - 1."""
    cells = []
    for p in (31, 61, 101):
        ts = [t for t in range(2, 21) if (p - 1) % t == 0]
        for psi in ("x^2+x", "x^3+x", "(x^2+1)/(x+2)"):
            for H in range(3, 9):
                for T in ts:
                    cells.append({"p": p, "psi": psi, "H": H, "T": T, "u": 0})
    return tuple(cells)


def _kept(build, *args):
    """build(*args), or the SubgroupValuesError that it raised."""
    try:
        return build(*args)
    except SubgroupValuesError as ex:
        return ex


def _value(kept):
    """kept, unless it is a refusal; that is raised with a fresh traceback, as
    raising one exception object again adds to the traceback it holds."""
    if isinstance(kept, SubgroupValuesError):
        raise kept.with_traceback(None)
    return kept


def _evaluate_group(p: int, psi_text: str, cells: list) -> list:
    """Rows for all cells sharing (p, ψ).

    Each input is built once and kept as its value or as the
    SubgroupValuesError that building it raised: ψ, its exponent set and its
    λ-scan set per group, the subgroup per T, the levels per H, and ψ(x + u)
    per shift u, once a cell at u reaches the trace. ψ is read once per point
    of each shift's window: a cell's count and trace read ψ on u+1..u+H, the
    values of ψ(x + u) on 1..H.

    A cell needs, in order, ψ and its exponent set, the subgroup and the
    interval; it records N, bound and ratio; then it needs the scan's outcome,
    the size check, the levels and the trace. Its row carries the first
    refusal it meets: perfect-power when the scan refused ψ as a perfect
    power, window-empty when the largest level reaches p, error otherwise.
    """
    psi = _kept(parse_rational_expr, psi_text, p)
    parsed = not isinstance(psi, SubgroupValuesError)
    # a ψ that does not parse refuses every cell, before anything is counted
    exp = _kept(exponent_set, psi.d, psi.e) if parsed else psi
    lam = _kept(lambda: {int(w.lam) for w in exceptional_lambdas(psi, p).exceptional}) if parsed else psi
    d = psi.num.degree if parsed and not psi.num.is_zero() else None
    e = psi.den.degree if parsed else None
    lambda_count = len(lam) if isinstance(lam, set) else None

    groups: dict = {}  # T -> its Subgroup, or its refusal
    levels: dict = {}  # H -> its LevelSelection, or its refusal
    values: dict = {}  # u -> ψ's raw values on u+1, u+2, ..., as far as read
    shifted = {0: psi}  # u -> ψ(x + u), for the shifts traced so far
    rows = []
    for c in cells:
        H, T, u = c["H"], c["T"], c.get("u", 0)
        N = bound = ratio = None
        status, error = STATUS_OK, ""
        try:
            _value(exp)
            G = _value(groups.get(T) or groups.setdefault(T, _kept(subgroup_of_order, p, T)))
            xs = Interval(u, H).xs(p)
            vals = values.setdefault(u, [])
            vals += map(psi.eval_raw, xs[len(vals):])
            window = vals[:H]
            counted = _count_values(enumerate(window, 1), G)
            N = counted.count
            bound = value_count_bound(exp, p, H, T)
            ratio = N / bound
            # the scan has refused constant maps and perfect powers, and
            # ψ(x + u) is one exactly when ψ is
            _value(lam)
            _check_trace_size(p, H, exp)
            V = _value(levels.get(H) or levels.setdefault(H, _kept(select_test_levels, p, H, exp)))
            psi_u = shifted.get(u) or shifted.setdefault(u, psi.shift(u))
            _trace(psi_u, G, exp, V, lam, window, counted)
        except PerfectPowerInput:
            status = STATUS_PERFECT_POWER
        except WindowEmpty as ex:
            status, error = STATUS_WINDOW_EMPTY, str(ex)
        except SubgroupValuesError as ex:
            status, error = STATUS_ERROR, str(ex)
        rows.append(ReportRow(
            p=p, d=d, e=e, H=H, T=T, u=u, N=N, bound=bound, ratio=ratio,
            lambda_count=lambda_count, status=status, error=error,
        ))
    return rows


def _sweep_worker(conn) -> None:
    """A sweep's worker process: the rows of each (p, ψ, cells) task read
    from conn, or the exception that computing them raised, sent back, until
    it reads None."""
    for task in iter(conn.recv, None):
        try:
            out = _evaluate_group(*task)
        except Exception as ex:
            out = ex
        conn.send(out)


def _parallel_rows(tasks: list, jobs: int) -> list:
    """The rows of every task, from min(jobs, len(tasks)) worker processes,
    in task order, as run_sweep's serial loop makes them, so rows that tie
    under its sort come out as they do serially. A worker gets the task of
    largest p left as soon as it is free, as a group's scan is O(p). An
    exception raised in a worker is raised here; a worker that dies raises
    RuntimeError. Every worker is joined before the call returns or raises,
    and one still running a task is terminated.

    Only the pipes are waited on. The parent closes its copy of each child
    end right after the start, so a worker that dies leaves its pipe at EOF,
    and recv raises there rather than block."""
    todo = list(range(len(tasks)))  # tasks are in increasing (p, ψ), so pop() takes the largest p
    workers = []
    busy: dict = {}  # parent end of a worker's pipe -> (the worker, the index of its task)
    done = [None] * len(tasks)  # each task's rows, by its index
    try:
        for _ in range(min(jobs, len(todo))):
            conn, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_sweep_worker, args=(child,))
            proc.start()
            child.close()
            workers.append((conn, proc))
            i = todo.pop()
            conn.send(tasks[i])
            busy[conn] = proc, i
        while busy:
            for conn in wait(list(busy)):
                proc, i = busy.pop(conn)
                try:
                    done[i] = conn.recv()
                except (EOFError, OSError):
                    proc.join()
                    raise RuntimeError(f"a sweep worker exited with code {proc.exitcode}") from None
                if isinstance(done[i], Exception):
                    raise done[i]
                if todo:
                    i = todo.pop()
                    conn.send(tasks[i])
                    busy[conn] = proc, i
    finally:
        for conn, proc in workers:
            if conn in busy:
                proc.terminate()
            else:
                try:
                    conn.send(None)
                except OSError:  # the worker has died
                    pass
        for conn, proc in workers:
            proc.join()
            conn.close()
    return [row for rows in done for row in rows]


def run_sweep(cells, jobs: int = 1) -> list:
    """One report row per cell; failures are recorded per row and never abort
    the sweep. Rows are sorted by (p, d, e, H, T, u) so output is independent
    of scheduling."""
    groups: dict = {}
    for c in cells:
        groups.setdefault((int(c["p"]), str(c["psi"])), []).append(dict(c))
    tasks = [(p, psi, grp) for (p, psi), grp in sorted(groups.items())]
    if jobs > 1 and len(tasks) > 1:
        rows = _parallel_rows(tasks, jobs)
    else:
        rows = []
        for t in tasks:
            rows.extend(_evaluate_group(*t))
    rows.sort(key=ReportRow.sort_key)
    return rows
