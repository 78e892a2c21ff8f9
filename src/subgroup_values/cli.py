"""Command-line front end.

Exit codes: 0 success, 1 domain error (message on stderr), 2 usage error.
All numeric output goes through the selected format (text, csv, or json), so
identical invocations produce byte-identical output.

The algebra core is imported here, as `import subgroup_values` loads it
anyway. Each handler imports the other layers it runs, so only `trace`,
`sweep` and `exponents` load the pipeline and `multiprocessing`. Each
subcommand names its handler on its own parser, and every command writes
through `_write`.
"""

import argparse
import sys

from . import factorization
from .errors import ParseError, SubgroupValuesError
from .fields import centered_residue, check_prime
from .lambda_scan import exceptional_lambdas
from .parsing import parse_int_bipoly, parse_rational_expr

def _parse_interval(text: str):
    """Closed range "a..b" -> (u, H) with u = a - 1, H = b - a + 1."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ParseError("interval must look like a..b", 0)
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("interval endpoints must be integers", 0) from None
    if b < a:
        raise ParseError("interval end precedes its start", 0)
    return a - 1, b - a + 1


def _parse_num_list(text: str, allow_fraction: bool = False):
    from fractions import Fraction

    out = []
    start = 0
    for chunk in text.split(","):
        piece = chunk.strip()
        if allow_fraction and ("/" in piece or "." in piece):
            try:
                out.append(Fraction(piece))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {piece!r}", start + chunk.index(piece)) from None
        else:
            out.append(int(piece))
        start += len(chunk) + 1
    return out


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="subgroup-values",
        description="Count rational-function values in multiplicative subgroups and "
        "verify the constructive machinery behind the bound.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(sp, handler):
        sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
        sp.add_argument("--output", default=None, help="write to this path instead of stdout")
        sp.add_argument("--seed", type=int, default=0,
                        help="accepted and ignored; the randomized internals use a fixed seed")
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("count", help="count interval values landing in a subgroup")
    sp.add_argument("--psi", required=True)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-T", type=int, required=True)
    sp.add_argument("--interval", required=True, help="closed range a..b")
    sp.add_argument("--wrap", action="store_true")
    common(sp, _cmd_count)

    sp = sub.add_parser("lambda-scan", help="exceptional multipliers of the symmetrized polynomial")
    sp.add_argument("--psi", required=True)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--max-ext", type=int, default=1)
    common(sp, _cmd_lambda_scan)

    sp = sub.add_parser("lattice-find", help="small-residue multiplier from the lattice construction")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--b", required=True, help="comma-separated residues")
    sp.add_argument("--V", required=True, help="comma-separated bounds")
    common(sp, _cmd_lattice_find)

    sp = sub.add_parser("perfect-power", help="largest n with psi = phi^n over the closure")
    sp.add_argument("--psi", required=True)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-T", type=int, default=None, help="also reduce a subgroup order")
    common(sp, _cmd_perfect_power)

    sp = sub.add_parser("exponents", help="the exponent family for degrees (d, e)")
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("-e", type=int, required=True)
    common(sp, _cmd_exponents)

    sp = sub.add_parser("trace", help="replay the proof pipeline on one instance")
    sp.add_argument("--psi", required=True)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-T", type=int, required=True)
    sp.add_argument("--H", type=int, required=True)
    common(sp, _cmd_trace)

    sp = sub.add_parser("sweep", help="evaluate a grid of instances")
    sp.add_argument("--config", default=None, help="JSON file with a list of cells")
    sp.add_argument("--standard", action="store_true", help="run the built-in corpus")
    sp.add_argument("--jobs", type=int, default=1)
    common(sp, _cmd_sweep)

    sp = sub.add_parser("kshort", help="shortest interval covering H consecutive values")
    sp.add_argument("--psi", required=True)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--H", type=int, required=True)
    sp.add_argument("--wrap", action="store_true")
    common(sp, _cmd_kshort)

    sp = sub.add_parser("vinogradov", help="count power-sum solutions J_{d,k}(H)")
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--H", type=int, required=True)
    sp.add_argument("--budget", type=int, default=10**9)
    common(sp, _cmd_vinogradov)

    sp = sub.add_parser("points", help="integer points of a plane curve in a box")
    sp.add_argument("--poly", required=True, help="integer polynomial in x and y")
    sp.add_argument("--H", type=int, required=True)
    common(sp, _cmd_points)

    return top


def _write(text: str, a: argparse.Namespace) -> None:
    """The one writer of every command: to --output when given, else stdout."""
    if a.output:
        with open(a.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_pairs(pairs, a: argparse.Namespace) -> None:
    from .reporting import mapping_to_output

    _write(mapping_to_output(pairs, a.format), a)


def _cmd_count(a):
    from .counting import Interval, count_values_in_subgroup, subgroup_of_order

    u, H = _parse_interval(a.interval)
    psi = parse_rational_expr(a.psi, a.p)
    G = subgroup_of_order(a.p, a.T)
    n, _ = count_values_in_subgroup(psi, Interval(u, H, wrap=a.wrap), G)
    if a.format == "text":
        _emit_pairs([("N", n)], a)
    else:
        _emit_pairs(
            [("p", a.p), ("d", psi.num.degree), ("e", psi.den.degree),
             ("H", H), ("T", a.T), ("u", u), ("N", n)],
            a,
        )


def _cmd_lambda_scan(a):
    psi = parse_rational_expr(a.psi, a.p)
    report = exceptional_lambdas(psi, a.p, max_ext=a.max_ext)
    entries = []
    for w in report.exceptional:
        key = w.lam.ctx.raw_key(w.lam.raw)
        tag = f"{key}" if w.lam.ctx.t == 1 else f"{key}@{w.lam.ctx.t}"
        entries.append(tag)
    _emit_pairs(
        [("p", a.p), ("psi", psi.text()), ("degree", psi.D), ("bound", report.bound),
         ("count", report.count), ("lambdas", ";".join(entries))],
        a,
    )


def _cmd_lattice_find(a):
    from .lattices import SmallResidueInstance, find_small_residue_multiplier

    check_prime(a.p)
    b = _parse_num_list(a.b)
    V = _parse_num_list(a.V, allow_fraction=True)
    inst = SmallResidueInstance(a.p, tuple(b), tuple(V))
    v = find_small_residue_multiplier(inst)
    residues = ";".join(str(centered_residue(bi * v, a.p)) for bi in b)
    _emit_pairs([("p", a.p), ("s", inst.s), ("v", v), ("residues", residues)], a)


def _cmd_perfect_power(a):
    psi = parse_rational_expr(a.psi, a.p)
    n = factorization.perfect_power_exponent(psi)
    pairs = [("psi", psi.text()), ("p", a.p), ("exponent", n)]
    if n > 1:
        root = factorization.extract_power_root(psi, n)
        pairs.append(("root", root.text() if root.ctx.t == 1 else f"<degree-{root.ctx.t} extension>"))
    if a.T is not None:
        # membership of ψ = φ^n in a subgroup of order T puts φ in one of order n T
        pairs.append(("reduced_order", n * a.T))
    _emit_pairs(pairs, a)


def _cmd_exponents(a):
    from .pipeline import exponent_set

    e = exponent_set(a.d, a.e)
    _emit_pairs(
        [("d", e.d), ("e", e.e), ("ell", e.ell), ("m", e.m), ("k", e.k), ("s", e.s),
         ("theta", e.theta), ("rho", e.rho), ("tau", e.tau)],
        a,
    )


def _cmd_trace(a):
    from .pipeline import trace_proof

    psi = parse_rational_expr(a.psi, a.p)
    tr = trace_proof(psi, a.p, a.H, a.T)
    _emit_pairs(
        [("p", a.p), ("psi", psi.text()), ("H", a.H), ("T", a.T), ("N", tr.count),
         ("lambda", tr.chosen_lambda), ("lambda_count", tr.lambda_count),
         ("pair_count", tr.pair_count), ("multiplier", tr.multiplier),
         ("z_max", tr.z_max), ("z_magnitude", tr.z_magnitude),
         ("bound", tr.bound), ("ratio", tr.ratio), ("rt_ok", tr.rt_ok)],
        a,
    )


def _check_cell(i, cell):
    """Refuse a config cell unless it is an object with a string psi and int
    p, H, T and, when present, u (a bool is no int)."""
    if not isinstance(cell, dict):
        raise SubgroupValuesError(f"config cell {i} is not an object")
    for key in ("p", "psi", "H", "T", "u"):
        kind, what = (str, "a string") if key == "psi" else (int, "an integer")
        if key not in cell and key != "u":
            raise SubgroupValuesError(f"config cell {i} has no {key!r}")
        if key in cell and (isinstance(cell[key], bool) or not isinstance(cell[key], kind)):
            raise SubgroupValuesError(f"config cell {i}: {key!r} must be {what}")


def _cmd_sweep(a):
    import json

    from .pipeline import run_sweep, standard_sweep_cells
    from .reporting import emit_report

    if a.standard == (a.config is not None):
        raise SubgroupValuesError("pass exactly one of --standard or --config")
    if a.standard:
        cells = standard_sweep_cells()
    else:
        with open(a.config) as fh:
            cells = json.load(fh)
        if not isinstance(cells, list):
            raise SubgroupValuesError("config must be a JSON list of cells")
        for i, cell in enumerate(cells):
            _check_cell(i, cell)
    rows = run_sweep(cells, jobs=max(a.jobs, 1))
    _write(emit_report(rows, fmt=a.format), a)


def _cmd_kshort(a):
    from .counting import shortest_covering_interval

    f = parse_rational_expr(a.psi, a.p)
    k = shortest_covering_interval(f, a.H, a.p, wrap=a.wrap)
    _emit_pairs([("p", a.p), ("psi", f.text()), ("H", a.H), ("wrap", a.wrap), ("K", k)], a)


def _cmd_vinogradov(a):
    from .counting import vinogradov_count

    j = vinogradov_count(a.d, a.k, a.H, budget=a.budget)
    _emit_pairs([("d", a.d), ("k", a.k), ("H", a.H), ("count", j)], a)


def _cmd_points(a):
    from .counting import integral_points_in_box

    terms = parse_int_bipoly(a.poly)
    res = integral_points_in_box(terms, a.H)
    _emit_pairs(
        [("poly", a.poly), ("H", a.H), ("count", res.count),
         ("degree", res.curve_degree), ("reference", res.reference)],
        a,
    )


def cmd_dispatch(argv) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else 2
    try:
        ns.handler(ns)
    except (SubgroupValuesError, ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cmd_dispatch(sys.argv[1:]))
