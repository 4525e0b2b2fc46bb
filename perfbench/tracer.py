"""Outside-in span tracer for the public functions of okbodies' six layers.

``Tracer.install`` wraps every public module-level function of ``geometry``,
``lattice``, ``series``, ``thresholds``, ``estimates`` and ``cli`` at every
module that binds it (``from .lattice import count`` makes ``series.count``,
``estimates.count`` and ``cli.count`` separate bindings of one function), plus
the per-level cache methods of the series models.  No library code changes.

Each call made while the tracer is active becomes a span: id, parent id,
name, layer, phase, start and end.  Spans stay in memory until the pass
ends; their durations are then taken on the pass's host clock.  Work
counters are derived from the arguments and return values of the wrapped
calls in the timed phase.
"""

from __future__ import annotations

import functools
import importlib
import os
import types
from collections import Counter
from time import perf_counter

LAYERS = ("geometry", "lattice", "series", "thresholds", "estimates", "cli")

# Exact-number conversions called once per coordinate; a span around each
# call would cost more than the work it measures.
UNTRACED = {"rat", "rat_str", "point"}

# Model methods that cache one point set per level.
LEVEL_METHODS = ("discrete_body", "idealized_body")

VERIFY_FUNCTIONS = (
    "verify_uniform_ehrhart", "verify_lower_bound_constant",
    "verify_concave_sum_bound", "verify_cone_counts", "verify_maxp1",
    "verify_S_two_sided", "verify_delta_rate", "verify_endpoint_limits",
    "verify_weierstrass",
)

# Functions whose calls and self time are reported one by one.
CALLS_AND_SELF = (
    "lattice.count", "lattice.enumerate_points",
    "series.discrete_body", "series.idealized_body",
    "thresholds.jumping_numbers", "thresholds.idealized_jumping",
    "geometry.hull",
)
SELF_ONLY = (
    "lattice.analytic_count_constant", "lattice.concave_sum",
    "thresholds.S_km", "thresholds.Sbar_km", "thresholds.quantum_quantile",
    "thresholds.delta_km_restricted", "thresholds.quantile", "thresholds.S_tau",
    "geometry.intersect_halfspace", "geometry.volume", "geometry.barycenter",
    "geometry.chebyshev_ball", "geometry.superlevel", "geometry.minkowski_cube",
) + tuple(f"estimates.{name}" for name in VERIFY_FUNCTIONS)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units.update({
        "lattice.count.points": "count",
        "lattice.count.ns_per_point": "ns",
        "lattice.enumerate_points.points": "count",
        "series.discrete_body.cache_hit_ratio": "ratio",
        "series.idealized_body.cache_hit_ratio": "ratio",
        "thresholds.points_scored": "count",
        "thresholds.ccdf_cache_hit_ratio": "ratio",
        "geometry.hull.points_in": "count",
        "geometry.hull.vertices_out": "count",
        "setup.geometry.hull.calls": "count",
        "setup.geometry.hull.self_s": "s",
        "estimates.reports": "count",
        "cli.bytes_written": "bytes",
        "trace.spans": "count",
        "trace.overhead_s": "s",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "ratio"
    return units


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


class Tracer:
    def __init__(self):
        # span: [id, parent_id, name, layer, phase, start, end]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self.phase = "setup"
        self._stack: list[list] = []
        self._levels: dict = {}  # (id(model), name, k) -> (model, last result)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function at every module that binds it."""
        modules = {layer: importlib.import_module(f"okbodies.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNTRACED):
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}", layer)
        for mod in [importlib.import_module("okbodies"), *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and isinstance(value, types.FunctionType):
                    setattr(mod, attr, wrappers[id(value)])
        base = modules["series"].GradedSeriesModel
        for attr in LEVEL_METHODS:
            setattr(base, attr, self._wrap(getattr(base, attr), f"series.{attr}", "series"))

    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = [len(spans), parent[0] if parent else None, name, layer,
                    self.phase, 0.0, 0.0]
            spans.append(span)
            stack.append(span)
            span[5] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = perf_counter()
                stack.pop()
            if self.phase == "timed":
                self._observe(name, args, result)
            return result

        return traced

    # -- counters from arguments and return values ----------------------

    def _observe(self, name: str, args, result) -> None:
        c = self.counts
        if name == "lattice.count":
            c["lattice.count.points"] += result
        elif name == "lattice.enumerate_points":
            c["lattice.enumerate_points.points"] += len(result)
        elif name == "geometry.hull":
            c["geometry.hull.points_in"] += len(args[0])
            c["geometry.hull.vertices_out"] += len(result.vertices)
        elif name in ("series.discrete_body", "series.idealized_body"):
            model, k = args[0], args[1]
            key = (id(model), name, k)  # the stored model keeps its id from reuse
            hit = key in self._levels and self._levels[key][1] is result
            c[f"{name}.{'hits' if hit else 'misses'}"] += 1
            self._levels[key] = (model, result)
        elif name in ("thresholds.jumping_numbers", "thresholds.idealized_jumping"):
            c["thresholds.points_scored"] += len(result.values)
        elif name.startswith("estimates.verify_"):
            c["estimates.reports"] += 1
        elif name == "cli.main":
            argv = list(args[0]) if args and args[0] is not None else []
            if "--out" in argv:
                c["cli.bytes_written"] += _dir_bytes(argv[argv.index("--out") + 1])

    # -- aggregation ----------------------------------------------------

    def metrics(self, ccdf_info, seconds) -> dict[str, float]:
        """Per-layer metrics of the timed phase of one pass; ``seconds(a, b)``
        is the duration of a span from a to b.  Self time is a span's
        duration less that of its child spans."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        layer_s: Counter = Counter()
        span_s = [seconds(span[5], span[6]) for span in self.spans]
        own_s = list(span_s)
        for span, duration in zip(self.spans, span_s):
            if span[1] is not None:
                own_s[span[1]] -= duration
        for (_, _, name, layer, phase, *_), own in zip(self.spans, own_s):
            if phase != "timed":
                calls[f"setup.{name}"] += 1
                self_s[f"setup.{name}"] += own
                continue
            calls[name] += 1
            self_s[name] += own
            layer_s[layer] += own
        out: dict[str, float] = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self_s[name]
        c = self.counts
        points = c["lattice.count.points"]
        out["lattice.count.points"] = points
        out["lattice.count.ns_per_point"] = 1e9 * self_s["lattice.count"] / points if points else 0.0
        out["lattice.enumerate_points.points"] = c["lattice.enumerate_points.points"]
        for name in ("series.discrete_body", "series.idealized_body"):
            looked = c[f"{name}.hits"] + c[f"{name}.misses"]
            out[f"{name}.cache_hit_ratio"] = c[f"{name}.hits"] / looked if looked else 0.0
        out["thresholds.points_scored"] = c["thresholds.points_scored"]
        looked = ccdf_info.hits + ccdf_info.misses
        out["thresholds.ccdf_cache_hit_ratio"] = ccdf_info.hits / looked if looked else 0.0
        out["geometry.hull.points_in"] = c["geometry.hull.points_in"]
        out["geometry.hull.vertices_out"] = c["geometry.hull.vertices_out"]
        out["setup.geometry.hull.calls"] = calls["setup.geometry.hull"]
        out["setup.geometry.hull.self_s"] = self_s["setup.geometry.hull"]
        out["estimates.reports"] = c["estimates.reports"]
        out["cli.bytes_written"] = c["cli.bytes_written"]
        out["trace.spans"] = len(self.spans)
        total = sum(layer_s.values())
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_s[layer]
            out[f"{layer}.self_share"] = layer_s[layer] / total if total else 0.0
        return out
