"""Spans recorded around the program's public entry points, from outside.

The tracer replaces an entry point wherever a module of the package binds it
(``pipeline.exceptional_lambdas``, ``lambda_scan.is_absolutely_irreducible``,
``FieldCtx.rinv`` on the class, ...), so calls between modules and recursive
calls are both seen. Each call becomes one span (name, start, end, parent span,
operation id, outcome); spans stay in memory until the pass ends. The program's
own files are never edited.
"""

import functools
import time
import types
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 at top level
    op: int  # the benchmark operation this span belongs to
    useful: bool  # returned a useful outcome (a factor, a finished trace, ...)


class Tracer:
    """Records spans for the entry points it wraps; ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self.op = 0
        self._stack: list = []
        self._patches: list = []

    def _wrapper(self, fn, name, classify, useful, on_return):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            label = classify(args) if classify else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = useful(result) if useful else True
                if on_return:
                    on_return(self.counters, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(label, start, end, parent, self.op, ok)

        return functools.update_wrapper(traced, fn)

    def wrap_function(self, modules, fn, name, classify=None, useful=None, on_return=None) -> int:
        """Wrap ``fn`` in every module that binds it; returns the binding count."""
        wrapper = self._wrapper(fn, name, classify, useful, on_return)
        count = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    count += 1
        return count

    def wrap_method(self, cls, attr, name) -> None:
        fn = cls.__dict__[attr]
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, self._wrapper(fn, name, None, None, None))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()


def self_times_ns(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans of one process never overlap their siblings, so the covered time is
    the sum of the children's durations.
    """
    child = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end_ns - s.start_ns
    return [s.end_ns - s.start_ns - c for s, c in zip(spans, child)]


def summarize(spans) -> dict:
    """Per span name: calls, useful outcomes, self seconds and total seconds."""
    out: dict = {}
    for s, self_ns in zip(spans, self_times_ns(spans)):
        agg = out.setdefault(s.name, {"calls": 0, "useful": 0, "self_s": 0.0, "total_s": 0.0})
        agg["calls"] += 1
        agg["useful"] += int(s.useful)
        agg["self_s"] += self_ns / 1e9
        agg["total_s"] += (s.end_ns - s.start_ns) / 1e9
    return out


def ext_by_class(spans, op_classes) -> dict:
    """Calls of find_proper_factor over an extension, and the time inside the
    outermost such calls, per class; operation k (from 1) has class
    op_classes[k - 1]."""
    name = "factorization.find_proper_factor.ext"
    out = {cls: {"calls": 0, "seconds": 0.0} for cls in op_classes}
    for s in spans:
        if s.name != name:
            continue
        agg = out[op_classes[s.op - 1]]
        agg["calls"] += 1
        if s.parent < 0 or spans[s.parent].name != name:
            agg["seconds"] += (s.end_ns - s.start_ns) / 1e9
    return out


def write_spans(spans, path) -> None:
    """One line per span: index, name, start_ns, end_ns, parent, op, useful."""
    with open(path, "w") as fh:
        fh.write("index,name,start_ns,end_ns,parent,op,useful\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s.name},{s.start_ns},{s.end_ns},{s.parent},{s.op},{int(s.useful)}\n")


def _count_trace(counters, trace) -> None:
    counters["pipeline.pairs_verified"] = counters.get("pipeline.pairs_verified", 0) + trace.pair_count
    counters["pipeline.nonvacuous_traces"] = counters.get("pipeline.nonvacuous_traces", 0) + (trace.z_max != 0)


def install_program_tracer(tracer: Tracer, pkg) -> None:
    """Wrap the entry points of every layer named in the benchmark's README."""
    from subgroup_values import (
        counting,
        factorization,
        fields,
        lambda_scan,
        lattices,
        parsing,
        pipeline,
        polynomials,
        reporting,
        surd,
    )

    mods = [m for m in vars(pkg).values() if isinstance(m, types.ModuleType)] + [pkg]

    def fpf_class(args):
        ext = args[0].ctx.t > 1
        return "factorization.find_proper_factor." + ("ext" if ext else "base")

    def wrap(fn, name, **kw):
        tracer.wrap_function(mods, fn, name, **kw)

    wrap(factorization.find_proper_factor, "", classify=fpf_class, useful=lambda r: r is not None)
    wrap(factorization.is_absolutely_irreducible, "factorization.is_absolutely_irreducible",
         useful=lambda v: not v.absolutely)
    wrap(factorization.embed_bipoly, "factorization.embed_bipoly")
    wrap(factorization.perfect_power_exponent, "factorization.perfect_power_exponent")
    wrap(lambda_scan.exceptional_lambdas, "lambda_scan.exceptional_lambdas")
    wrap(lambda_scan.build_sym_poly, "lambda_scan.build_sym_poly")
    wrap(fields.ext_field_build, "fields.ext_field_build")
    wrap(lattices.find_small_residue_multiplier, "lattices.find_small_residue_multiplier")
    wrap(lattices.build_red_basis, "lattices.build_red_basis")
    wrap(pipeline.select_test_levels, "pipeline.select_test_levels")
    wrap(pipeline.trace_proof, "pipeline.trace_proof", on_return=_count_trace)
    wrap(pipeline.run_sweep, "pipeline.run_sweep")
    if hasattr(pipeline, "_evaluate_group"):
        # one span per (p, psi) group of a serial sweep
        wrap(pipeline._evaluate_group, "pipeline.sweep_group")
    wrap(counting.count_values_in_subgroup, "counting.count_values_in_subgroup")
    wrap(counting.congruent_pairs, "counting.congruent_pairs")
    wrap(counting.subgroup_of_order, "counting.subgroup_of_order")
    wrap(parsing.parse_rational_expr, "parsing.parse_rational_expr")
    wrap(reporting.emit_report, "reporting.emit_report")
    # FieldCtx.rmul is left out: it runs ~10^5 times per scan and wrapping it
    # roughly doubles the pass.
    tracer.wrap_method(fields.FieldCtx, "rinv", "fields.FieldCtx.rinv")
    tracer.wrap_method(polynomials.BiPoly, "try_divide", "polynomials.BiPoly.try_divide")
    tracer.wrap_method(surd.Surd, "floor", "surd.Surd.floor")
