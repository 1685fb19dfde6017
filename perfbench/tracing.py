"""Outside-in tracing: spans recorded around the package's public calls.

`Tracer.installed()` swaps each traced name, in the module namespace where
its callers look it up, for a wrapper that records a span, and puts the
originals back on exit.  Nothing in the package changes.  Spans nest on one
stack (one thread), so a span's self time is its duration minus the
durations of its direct children, and the self times of one op's spans sum
to the op's duration.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) pairs to wrap; the span is named after the attribute
TRACED = (
    ("fairnet.cli", "read_instance"),
    ("fairnet.cli", "parameter_report"),
    ("fairnet.cli", "solve_auto"),
    ("fairnet.cli", "solve_oracle"),
    ("fairnet.cli", "solve_vc_alpha"),
    ("fairnet.cli", "solve_fvs_alpha_delta"),
    ("fairnet.cli", "fairness_constant_candidates"),
    ("fairnet.solvers", "classify"),
    ("fairnet.solvers", "minimum_vertex_cover"),
    ("fairnet.solvers", "minimum_feedback_vertex_set"),
    ("fairnet.solvers", "twin_classes"),
    ("fairnet.solvers", "solve_feasible"),
    ("fairnet.solvers", "solve_oracle"),
    ("fairnet.solvers", "solve_vc_alpha"),
    ("fairnet.solvers", "solve_fvs_alpha_delta"),
    ("fairnet.solvers", "solve_regular_fvs"),
    ("fairnet.solvers", "solve_disjoint_stars"),
    ("fairnet.solvers", "enumerate_boundary_extensions"),
    ("fairnet.solvers", "fairness_constant_candidates"),
    ("fairnet.special", "solve_feasible"),
    ("fairnet.model", "verify"),
)

ROOT = "op"
CACHED = ("minimum_vertex_cover", "minimum_feedback_vertex_set")
GENERATORS = ("enumerate_boundary_extensions",)

# span fields
NAME, START, END, PARENT, CHILD_S, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0, None])
        self.stack.append(index)
        return index

    def exit(self, index: int) -> None:
        end = perf_counter()
        span = self.spans[index]
        span[END] = end
        while self.stack and self.stack.pop() != index:
            pass
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_S] += end - span[START]

    def begin_op(self) -> None:
        self.spans = []
        self.stack = []

    def _wrap(self, name: str, fn):
        tracer = self
        if name in GENERATORS:
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    index = tracer.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.spans[index][EXTRA] = 0
                        return
                    finally:
                        tracer.exit(index)
                    tracer.spans[index][EXTRA] = 1
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            index = tracer.enter(name)
            try:
                if name in CACHED:
                    hits = fn.cache_info().hits
                    result = fn(*args, **kwargs)
                    tracer.spans[index][EXTRA] = fn.cache_info().hits - hits
                else:
                    result = fn(*args, **kwargs)
                    if name == "fairness_constant_candidates":
                        tracer.spans[index][EXTRA] = len(result)
                    elif name == "solve_feasible":
                        tracer.spans[index][EXTRA] = (len(args[0].variables), result.feasible)
                return result
            finally:
                tracer.exit(index)
        return traced

    @contextmanager
    def installed(self):
        saved = []
        for module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(attr, original))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


# layer metric that receives each span's self time
SELF_METRIC = {
    ROOT: "cli.self_s",
    "read_instance": "instance_io.read_s",
    "classify": "structure.classify_s",
    "minimum_feedback_vertex_set": "structure.fvs_s",
    "minimum_vertex_cover": "structure.vc_s",
    "twin_classes": "structure.twins_s",
    "fairness_constant_candidates": "model.candidates_s",
    "verify": "model.verify_s",
    "solve_auto": "solvers.dispatch_self_s",
    "solve_oracle": "solvers.search_self_s",
    "solve_vc_alpha": "solvers.search_self_s",
    "solve_fvs_alpha_delta": "solvers.search_self_s",
    "solve_regular_fvs": "solvers.search_self_s",
    "parameter_report": "solvers.report_self_s",
    "solve_disjoint_stars": "special.stars_s",
    "enumerate_boundary_extensions": "special.boundary_s",
    "solve_feasible": "ilp.s",
}
CALL_METRIC = {
    "classify": "structure.classify_calls",
    "minimum_feedback_vertex_set": "structure.fvs_calls",
    "minimum_vertex_cover": "structure.vc_calls",
    "verify": "model.verify_calls",
    "solve_feasible": "ilp.calls",
}
# strategies that decide one fairness constant; one call made by a
# dispatcher (solve_auto, or cli.run_algorithm inside the op) is one
# candidate tried
PER_CONSTANT = ("solve_vc_alpha", "solve_fvs_alpha_delta", "solve_disjoint_stars")
DISPATCHERS = (ROOT, "solve_auto")

# op totals in a fixed order: the per-layer metrics that sum over ops
TOTALS = (
    "instance_io.read_s",
    "structure.classify_calls", "structure.classify_s",
    "structure.fvs_calls", "structure.fvs_s",
    "structure.vc_calls", "structure.vc_s",
    "structure.twins_s",
    "model.candidates_count", "model.candidates_s",
    "model.verify_calls", "model.verify_s",
    "solvers.dispatch_self_s", "solvers.candidates_tried",
    "solvers.search_self_s", "solvers.search_nodes",
    "solvers.report_s", "solvers.report_self_s",
    "special.boundary_s", "special.boundary_yielded", "special.stars_s",
    "ilp.calls", "ilp.s",
    "cli.self_s",
)
# internal sums used only for ratios
_HIDDEN = ("structure.cache_hits", "ilp.feasible", "ilp.vars")


def op_totals(spans: list[list], nodes: int) -> dict[str, float]:
    """Layer totals of one traced op; `nodes` is SolveStats.nodes as reported."""
    out = dict.fromkeys(TOTALS + _HIDDEN, 0)
    out["solvers.search_nodes"] = nodes
    for span in spans:
        name = span[NAME]
        duration = span[END] - span[START]
        out[SELF_METRIC[name]] += duration - span[CHILD_S]
        if name in CALL_METRIC:
            out[CALL_METRIC[name]] += 1
        extra = span[EXTRA]
        if name in CACHED:
            out["structure.cache_hits"] += extra or 0
        elif name == "fairness_constant_candidates":
            out["model.candidates_count"] += extra or 0
        elif name == "solve_feasible" and extra is not None:
            out["ilp.vars"] += extra[0]
            out["ilp.feasible"] += int(extra[1])
        elif name in GENERATORS:
            out["special.boundary_yielded"] += extra or 0
        elif name == "parameter_report":
            out["solvers.report_s"] += duration
        if name in PER_CONSTANT and span[PARENT] >= 0 and spans[span[PARENT]][NAME] in DISPATCHERS:
            out["solvers.candidates_tried"] += 1
    return out


def self_sum_gap(spans: list[list]) -> float:
    """|sum of self times - root duration| for one op; 0 up to rounding."""
    root = spans[0]
    total = sum(s[END] - s[START] - s[CHILD_S] for s in spans)
    return abs(total - (root[END] - root[START]))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ops: list[dict], untraced_s: float) -> dict[str, float]:
    """Totals, per-op means and ratios (each with its base also reported).

    `ops` holds {"totals": op_totals(...), "elapsed": traced op seconds}.
    A ratio whose base is 0 reads 0.
    """
    sums = dict.fromkeys(TOTALS + _HIDDEN, 0)
    for op in ops:
        for key, value in op["totals"].items():
            sums[key] += value
    count = len(ops)
    op_s = sum(op["elapsed"] for op in ops)
    out = {key: sums[key] for key in TOTALS}
    out.update({
        "structure.cache_hit_ratio": _ratio(
            sums["structure.cache_hits"], sums["structure.fvs_calls"] + sums["structure.vc_calls"]
        ),
        "solvers.nodes_per_s": _ratio(sums["solvers.search_nodes"], sums["solvers.search_self_s"]),
        "solvers.report_share": _ratio(sums["solvers.report_s"], op_s),
        "ilp.feasible_ratio": _ratio(sums["ilp.feasible"], sums["ilp.calls"]),
        "ilp.vars_mean": _ratio(sums["ilp.vars"], sums["ilp.calls"]),
        "bench.ops": count,
        "bench.op_s": op_s,
        "bench.untraced_op_s": untraced_s,
        "bench.trace_overhead": _ratio(op_s, untraced_s),
    })
    out.update({f"{key}.per_op": _ratio(sums[key], count) for key in TOTALS})
    return out


# split per strategy in the named-strategies workload (zero elsewhere)
SPLIT_STRATEGIES = ("oracle", "vc-alpha", "fvs-alpha-delta")
SPLIT_LAYERS = ("solvers.", "special.", "ilp.")


def split_metrics(ops_by_strategy: dict[str, list[dict]]) -> dict[str, float]:
    """solvers.*, special.* and ilp.* per strategy, suffixed with its name.

    The report metrics are left out: named-strategies ops run no report.
    """
    out = {}
    for strategy in SPLIT_STRATEGIES:
        metrics = layer_metrics(ops_by_strategy.get(strategy, []), 0.0)
        out[f"bench.ops.{strategy}"] = metrics["bench.ops"]
        for key, value in metrics.items():
            if key.startswith(SPLIT_LAYERS) and "report" not in key and not key.endswith(".per_op"):
                out[f"{key}.{strategy}"] = value
    return out


def unit(name: str) -> str:
    base = name.removesuffix(".per_op")
    for strategy in SPLIT_STRATEGIES:
        base = base.removesuffix(f".{strategy}")
    if base.endswith("nodes_per_s"):
        return "1/s"
    if base.endswith(("_s", ".s")):
        return "s"
    if base.endswith(("_ratio", "_share", "trace_overhead")):
        return "ratio"
    return "count"
