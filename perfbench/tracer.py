"""Spans around calls into freeconv's public module functions.

Tracer.install replaces every public function of the listed modules with a
wrapper that records a span [name, start, end, parent, task, info]. Calls
between modules and within a module look the function up in the module's
namespace at call time, so they are recorded too. Spans opened in a worker
thread with no open span of their own take the innermost open span of the
main thread as parent (positivity_scan's thread pool). Private helpers are
not wrapped: catalog tables reach the NC recursion through
ncpart._moments_from_free, so that time counts as catalog self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import threading
import time
from fractions import Fraction

import numpy as np

NAME, START, END, PARENT, TASK, INFO = range(6)

SERIES = {"psi_series", "free_cumulant_series", "free_cumulant_series_via_inversion",
          "eta_series", "s_series", "moments_from_s_series", "s_square_relation_check"}
CONVERSIONS = {"moments_from_free_cumulants", "free_cumulants_from_moments",
               "moments_from_boolean_cumulants", "boolean_cumulants_from_moments",
               "square_cumulants"}


def _size(z) -> int:
    return int(np.size(z))


def _fraction_bits(result) -> int:
    bits = 0
    for v in getattr(result, "values", ()):
        if isinstance(v, Fraction):
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits


# Per-function details recorded with the span, from arguments and result.
DETAILS = {
    "catalog.catalog_moments": lambda a, k, r: (a[0], tuple(a[1]), a[2]),
    "transforms.cauchy": lambda a, k, r: _size(a[1]),
    "transforms.stieltjes_invert": lambda a, k, r: _size(a[1]),
    "conv.subordination": lambda a, k, r: (
        _size(a[2]), r.iterations, int(np.size(r.converged) - np.count_nonzero(r.converged))),
    "conv.free_mult_report": lambda a, k, r: float(r.max_dev),
    "idclass.positivity_scan": lambda a, k, r: (len(a[1]), k.get("jobs") or 1),
    "idclass.solve_g": lambda a, k, r: (_size(r[1]), int(np.size(r[1]) - np.count_nonzero(r[1]))),
}


MODULES = ("ncpart", "catalog", "transforms", "conv", "idclass", "verify", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = None
        self.enabled = False     # off while the benchmark checks a result
        self._modules = [importlib.import_module(f"freeconv.{m}") for m in MODULES]
        self._saved = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is self._main:
                self._main_stack = stack
        return stack

    def _wrap(self, name, fn):
        info = DETAILS.get(name)
        bits = name.startswith("ncpart.")
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            span = [name, clock(), 0.0, parent, self.task, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            elif bits:
                span[INFO] = _fraction_bits(result)
            return result

        return traced

    def install(self):
        for module in self._modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(module).copy().items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(f"{short}.{attr}", fn))

    def uninstall(self):
        for module, attr, fn in self._saved:
            setattr(module, attr, fn)
        self._saved.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "task": s[TASK], "info": s[INFO]}, default=str))
                fh.write("\n")


def layer_of(name: str) -> str:
    module, fn = name.split(".", 1)
    if module == "transforms":
        if fn in SERIES:
            return "transforms.series"
        if fn == "stieltjes_invert":
            return "transforms.invert"
        return "transforms.cauchy"
    return module


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = {}
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s[END])
            if b > a:
                covered += b - a
                reach = b
        out.append(s[END] - s[START] - covered)
    return out


def _median_ms(durations):
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced run (0 where a layer did no work)."""
    selfs = self_times(spans)
    self_by_layer = {}
    for s, t in zip(spans, selfs):
        layer = layer_of(s[NAME])
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + t
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def named(*names):
        return [i for n in names for i in by_name.get(n, ())]

    ncpart = [i for i, s in enumerate(spans) if s[NAME].startswith("ncpart.")]
    conversions = named(*(f"ncpart.{n}" for n in CONVERSIONS))
    tables = named("catalog.catalog_moments")
    seen, repeats = set(), 0
    for i in tables:
        key = spans[i][INFO]
        repeats += key in seen
        seen.add(key)
    cauchy = named("transforms.cauchy")
    invert = named("transforms.stieltjes_invert")
    sub = named("conv.subordination")
    sub_points = sum(spans[i][INFO][0] for i in sub)
    edges = named("conv.support_edge")
    density_parent = [spans[i][PARENT] for i in named("conv.density_at_points")]
    scans = named("idclass.positivity_scan")
    solve = named("idclass.solve_g")
    solve_points = sum(spans[i][INFO][0] for i in solve)

    def ms_per_t(jobs):
        picked = [i for i in scans if spans[i][INFO][1] == jobs]
        n_t = sum(spans[i][INFO][0] for i in picked)
        return 1e3 * sum(dur(i) for i in picked) / n_t if n_t else 0.0

    jobs1, jobs2 = ms_per_t(1), ms_per_t(2)
    all_t = sum(spans[i][INFO][0] for i in scans)
    return {
        "ncpart.self_s": self_by_layer.get("ncpart", 0.0),
        "ncpart.calls": len(ncpart),
        "ncpart.conversion_ms_p50": _median_ms([dur(i) for i in conversions]),
        "ncpart.product_ms_p50": _median_ms([dur(i) for i in named("ncpart.free_mult_moments")]),
        "ncpart.fraction_bits_max": max((spans[i][INFO] or 0 for i in ncpart), default=0),
        "catalog.self_s": self_by_layer.get("catalog", 0.0),
        "catalog.table_ms_p50": _median_ms([dur(i) for i in tables]),
        "catalog.repeat_frac": repeats / len(tables) if tables else 0.0,
        "transforms.series.self_s": self_by_layer.get("transforms.series", 0.0),
        "transforms.cauchy.points": sum(spans[i][INFO] for i in cauchy),
        "transforms.cauchy.self_s": self_by_layer.get("transforms.cauchy", 0.0),
        "transforms.invert.us_per_point": (
            1e6 * sum(dur(i) for i in invert) / sum(spans[i][INFO] for i in invert)
            if invert else 0.0),
        "conv.self_s": self_by_layer.get("conv", 0.0),
        "conv.subordination.iterations": (
            statistics.mean(spans[i][INFO][1] for i in sub) if sub else 0.0),
        "conv.subordination.us_per_point": (
            1e6 * sum(dur(i) for i in sub) / sub_points if sub_points else 0.0),
        "conv.subordination.unconverged_frac": (
            sum(spans[i][INFO][2] for i in sub) / sub_points if sub_points else 0.0),
        "conv.edge.evals_per_edge": (
            sum(p in set(edges) for p in density_parent) / len(edges) if edges else 0.0),
        "conv.mult.route_dev_max": max(
            (spans[i][INFO] for i in named("conv.free_mult_report")), default=0.0),
        "idclass.self_s": self_by_layer.get("idclass", 0.0),
        "idclass.scan.ms_per_t": 1e3 * sum(dur(i) for i in scans) / all_t if all_t else 0.0,
        "idclass.scan.jobs2_over_jobs1": jobs2 / jobs1 if jobs1 and jobs2 else 0.0,
        "idclass.solve_g.calls": len(solve),
        "idclass.solve_g.points": solve_points,
        "idclass.solve_g.unconverged_frac": (
            sum(spans[i][INFO][1] for i in solve) / solve_points if solve_points else 0.0),
    }
