"""Span tracing of the library's layers from outside, by rebinding module attributes.

Each entry of ``BINDINGS`` names one public attribute at a layer boundary.
While a :class:`Tracer` is installed, every call through that attribute
records a span (name, start, end, parent, call id); a few spans also record
counters read from their arguments or results.  Layer metrics are derived
once the run is over: a span's self time is its duration minus its direct
child spans, and a layer's self time is the sum over its spans.

An attribute that a later refactor removes is reported, with a warning, and
every metric that depends on it comes out as ``None`` rather than 0.
"""
from __future__ import annotations

import importlib
import sys
import time
from fractions import Fraction

# (module, attribute path, span name).  Several bindings may share a span
# name: modules import functions by name, so each importing module holds its
# own reference that must be rebound.
BINDINGS = (
    ("dodgsonyoung", "parse_profile", "profiles.parse"),
    ("dodgsonyoung.cli", "parse_profile", "profiles.parse"),
    ("dodgsonyoung.reductions", "parse_graph", "profiles.parse"),
    ("dodgsonyoung.reductions", "parse_set_family", "profiles.parse"),
    ("dodgsonyoung.profiles", "tally", "profiles.tally"),
    ("dodgsonyoung.exact", "tally", "profiles.tally"),
    ("dodgsonyoung.profiles", "Profile.expanded", "profiles.expanded"),
    ("dodgsonyoung.exact", "linear_program", "lp.build"),
    ("dodgsonyoung.homogeneous", "linear_program", "lp.build"),
    ("dodgsonyoung.lp", "solve_lp", "lp.solve_lp"),
    ("dodgsonyoung.homogeneous", "solve_lp", "lp.solve_lp_star"),
    ("dodgsonyoung.exact", "solve_ilp", "lp.solve_ilp"),
    ("dodgsonyoung", "dodgson_score", "exact.score"),
    ("dodgsonyoung", "young_score", "exact.score"),
    ("dodgsonyoung.exact", "dodgson_score", "exact.score"),
    ("dodgsonyoung.exact", "young_score", "exact.score"),
    ("dodgsonyoung.exact", "dodgson_score_with_moves", "exact.score"),
    ("dodgsonyoung.exact", "young_score_with_subset", "exact.score"),
    ("dodgsonyoung.exact", "gain_matrix", "exact.gain_matrix"),
    ("dodgsonyoung", "dodgson_star_score", "homogeneous.score"),
    ("dodgsonyoung", "young_star_score", "homogeneous.score"),
    ("dodgsonyoung.homogeneous", "dodgson_star_score", "homogeneous.score"),
    ("dodgsonyoung.homogeneous", "young_star_score", "homogeneous.score"),
    ("dodgsonyoung.homogeneous", "dodgson_star_program", "homogeneous.program"),
    ("dodgsonyoung.homogeneous", "young_star_program", "homogeneous.program"),
    ("dodgsonyoung.reductions", "alpha", "reductions.alpha"),
    ("dodgsonyoung.reductions", "kappa", "reductions.kappa"),
    ("dodgsonyoung.reductions", "inc_to_mspc", "reductions.construct"),
    ("dodgsonyoung.reductions", "mspc_to_young_ranking", "reductions.construct"),
    ("dodgsonyoung.reductions", "amplify_for_winner", "reductions.construct"),
    ("dodgsonyoung.reductions", "young_score_with_subset", "reductions.young"),
    ("dodgsonyoung.reductions", "young_scores_bruteforce_all", "reductions.young"),
    ("dodgsonyoung.reductions", "verify_reduction_chain", "reductions.chain"),
    ("dodgsonyoung.cli", "run", "cli.run"),
)

# Span names whose total duration (outermost spans only) is a metric.
SPAN_MS = {
    "profiles.parse_ms": ("profiles.parse",),
    "profiles.tally_ms": ("profiles.tally",),
    "lp.solve_lp_ms": ("lp.solve_lp", "lp.solve_lp_star"),
    "lp.solve_ilp_ms": ("lp.solve_ilp",),
    "lp.build_ms": ("lp.build",),
    "exact.gain_matrix_ms": ("exact.gain_matrix",),
    "reductions.alpha_ms": ("reductions.alpha",),
    "reductions.kappa_ms": ("reductions.kappa",),
    "reductions.construct_ms": ("reductions.construct",),
    "reductions.young_ms": ("reductions.young",),
    "reductions.chain_ms": ("reductions.chain",),
}
SPAN_CALLS = {
    "profiles.parse_calls": ("profiles.parse",),
    "profiles.expanded_calls": ("profiles.expanded",),
    "lp.solve_lp_calls": ("lp.solve_lp", "lp.solve_lp_star"),
    "lp.solve_ilp_calls": ("lp.solve_ilp",),
    "exact.gain_matrix_calls": ("exact.gain_matrix",),
}
# Self time summed over every span of a layer.
LAYER_SELF_MS = {"exact.self_ms": "exact", "homogeneous.self_ms": "homogeneous"}
# Counters filled by the hooks below, with the span names they come from.
COUNTERS = {
    "profiles.expanded_voters": ("profiles.expanded",),
    "lp.rows_sum": ("lp.solve_lp", "lp.solve_lp_star"),
    "lp.cols_sum": ("lp.solve_lp", "lp.solve_lp_star"),
    "lp.nonzeros_sum": ("lp.solve_lp", "lp.solve_lp_star"),
    "lp.solution_max_bits": ("lp.solve_lp", "lp.solve_lp_star", "lp.solve_ilp"),
    "homogeneous.program_cols": ("lp.solve_lp_star",),
}
NODES_PER_ILP = ("lp.solve_lp", "lp.solve_ilp")


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _program_size(counters, args, result) -> None:
    lp = args[0]
    counters["lp.rows_sum"] += len(lp.constraints)
    counters["lp.cols_sum"] += len(lp.variables)
    counters["lp.nonzeros_sum"] += sum(1 for con in lp.constraints for a in con.coeffs if a)


def _star_program_size(counters, args, result) -> None:
    _program_size(counters, args, result)
    counters["homogeneous.program_cols"] += len(args[0].variables)


def _solution_bits(counters, args, result) -> None:
    values = list(result.assignment.values())
    if result.objective_value is not None:
        values.append(result.objective_value)
    bits = max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in map(Fraction, values)),
        default=0,
    )
    counters["lp.solution_max_bits"] = max(counters["lp.solution_max_bits"], bits)


def _expanded_size(counters, args, result) -> None:
    counters["profiles.expanded_voters"] += len(result)


HOOKS = {
    "lp.solve_lp": (_program_size, _solution_bits),
    "lp.solve_lp_star": (_star_program_size, _solution_bits),
    "lp.solve_ilp": (_solution_bits,),
    "profiles.expanded": (_expanded_size,),
}
HOOK_COUNTERS = {
    _program_size: ("lp.rows_sum", "lp.cols_sum", "lp.nonzeros_sum"),
    _star_program_size: ("lp.rows_sum", "lp.cols_sum", "lp.nonzeros_sum", "homogeneous.program_cols"),
    _solution_bits: ("lp.solution_max_bits",),
    _expanded_size: ("profiles.expanded_voters",),
}


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, current value) or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None or not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self, bindings=BINDINGS):
        self.bindings = bindings
        self.spans: list[list] = []  # [name, start, end, parent index, call id]
        self.stack: list[int] = []
        self.call_id = 0
        self.counters = {name: 0 for name in COUNTERS}
        self.broken: set[str] = set()  # metrics whose counter hook failed
        self.missing: list[str] = []  # span names with a binding that could not be resolved
        self.hits = {(m, p): 0 for m, p, _ in bindings}  # calls through each binding
        self._restore: list[tuple] = []

    def _wrap(self, fn, binding):
        module_name, path, span_name = binding
        hooks = HOOKS.get(span_name, ())
        spans, stack, counters = self.spans, self.stack, self.counters
        perf = time.perf_counter

        def traced(*args, **kwargs):
            self.hits[module_name, path] += 1
            index = len(spans)
            spans.append([span_name, perf(), None, stack[-1] if stack else None, self.call_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = perf()
                stack.pop()
            for hook in hooks:
                try:
                    hook(counters, args, result)
                except (AttributeError, TypeError, IndexError, ValueError) as exc:
                    for name in HOOK_COUNTERS[hook]:
                        if name not in self.broken:
                            self.broken.add(name)
                            print(f"warning: counter {name} unavailable: {exc!r}", file=sys.stderr)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for binding in self.bindings:
            module_name, path, span_name = binding
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(span_name)
                print(
                    f"warning: trace entry point {module_name}.{path} not found; "
                    f"metrics that need {span_name} are reported as null",
                    file=sys.stderr,
                )
                continue
            owner, attr, fn = found
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, binding))
        return self

    def __exit__(self, *exc_info):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        return False

    # -- derived metrics ---------------------------------------------------

    def _outermost(self, names) -> list[list]:
        """Spans with one of the names and no ancestor with one of them."""
        out = []
        for span in self.spans:
            if span[0] not in names:
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent is None:
                out.append(span)
        return out

    def metrics(self) -> dict[str, float | int | None]:
        missing = set(self.missing)

        def available(names) -> bool:
            return not missing.intersection(names)

        out: dict[str, float | int | None] = {}
        for metric, names in SPAN_MS.items():
            total = sum(s[2] - s[1] for s in self._outermost(names))
            out[metric] = total * 1000 if available(names) else None
        for metric, names in SPAN_CALLS.items():
            out[metric] = sum(1 for s in self.spans if s[0] in names) if available(names) else None
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        for metric, layer in LAYER_SELF_MS.items():
            names = {name for _, _, name in self.bindings if _layer(name) == layer}
            total = sum(
                s[2] - s[1] - child_time[i] for i, s in enumerate(self.spans) if _layer(s[0]) == layer
            )
            out[metric] = total * 1000 if available(names) else None
        for metric, names in COUNTERS.items():
            ok = available(names) and metric not in self.broken
            out[metric] = self.counters[metric] if ok else None
        if available(NODES_PER_ILP):
            # LPs solved inside an ILP are the solve_lp spans that are not outermost
            lps = sum(1 for s in self.spans if s[0] == "lp.solve_lp")
            free = sum(1 for s in self._outermost(NODES_PER_ILP) if s[0] == "lp.solve_lp")
            ilps = out["lp.solve_ilp_calls"]
            out["lp.nodes_per_ilp"] = (lps - free) / ilps if ilps else 0.0
        else:
            out["lp.nodes_per_ilp"] = None
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "call": c}
            for n, s, e, p, c in self.spans
        ]
