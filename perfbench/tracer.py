"""In-memory span tracer that wraps each layer's public functions.

Functions are wrapped where their caller looks them up (the attribute of
the module that calls them), so the program itself is not changed. Spans
are kept in memory as (id, name, start, end, parent, op) and written out
when the run ends. ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from statistics import median

import numpy as np

import atlaspack.baselines
import atlaspack.charts
import atlaspack.cli
import atlaspack.metrics
import atlaspack.packing
from atlaspack.geometry import DegenerateChart
from atlaspack.packing import PackFailure

ROOT_SPAN = "cli.main"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str


def _count_mesh(t, args, mesh):
    t.counts["charts.triangles"] += mesh.n_triangles


def _count_depth(t, args, depth):
    t.counts["charts.covered_pixels"] += int(np.isfinite(depth).sum())


def _count_visible(t, args, vis):
    t.counts["charts.visible_triangles"] += int(vis.flags.sum())


def _count_charts(t, args, cs):
    t.counts["charts.charts_per_frame"] += cs.n_charts


def _count_fold(t, args, fold_result):
    t.counts["packing.fold_calls"] += 1
    t.counts["packing.fold_overflows"] += int(fold_result.overflow_m > 0)


def _count_push_up(t, args, result):
    omega = args[2]
    t.counts["packing.push_up_calls"] += 1
    t.counts["packing.push_up_accepted"] += int(result[1] <= omega)


def _count_call(name):
    def count(t, args, result):
        t.counts[name] += 1

    return count


def _count_error(exc_type, name):
    def count(t, exc):
        if isinstance(exc, exc_type):
            t.counts[name] += 1

    return count


# (module, attribute, span name, on_result, on_error). Each attribute is the
# name the caller resolves at call time, so wrapping it intercepts the call.
WRAPS = (
    (atlaspack.cli, "parse_box_file", "cli.parse_box_file", None, None),
    (atlaspack.cli, "parse_scene_config", "cli.parse_scene_config", None, None),
    (atlaspack.cli, "write_layout_file", "cli.write_layout_file", None, None),
    (atlaspack.cli, "write_charts_file", "cli.write_charts_file", None, None),
    (atlaspack.cli, "load_obj", "charts.load_obj", _count_mesh, None),
    (atlaspack.charts, "build_adjacency", "charts.build_adjacency", None, None),
    (atlaspack.cli, "depth_prepass", "charts.depth_prepass", _count_depth, None),
    (atlaspack.cli, "mark_visible", "charts.mark_visible", _count_visible, None),
    (atlaspack.cli, "connected_charts", "charts.connected_charts", None, None),
    (atlaspack.cli, "merge_shared_vertices", "charts.merge_shared_vertices", _count_charts, None),
    (
        atlaspack.cli, "chart_bbox", "geometry.chart_bbox",
        _count_call("geometry.chart_bbox_calls"),
        _count_error(DegenerateChart, "geometry.degenerate_charts"),
    ),
    (
        atlaspack.cli, "pack", "packing.pack",
        _count_call("packing.pack_calls"),
        _count_error(PackFailure, "packing.pack_failures"),
    ),
    (atlaspack.packing, "fold", "packing.fold", _count_fold, None),
    (atlaspack.packing, "push_up", "packing.push_up", _count_push_up, None),
    (atlaspack.cli, "scene_stretch", "metrics.scene_stretch", None, None),
    (atlaspack.cli, "layout_digest", "metrics.layout_digest", None, None),
    (atlaspack.baselines, "sequential_scale_search", "baselines.sequential_scale_search",
     None, None),
)
# Called thousands of times per frame: counted, but given no span.
COUNT_ONLY = ((atlaspack.metrics, "triangle_stretch", "metrics.triangle_stretch_calls"),)

# Per-layer time metric -> the spans whose self time it sums.
TIME_METRICS = {
    "cli.parse_ms": ("cli.parse_box_file", "cli.parse_scene_config"),
    "cli.write_ms": ("cli.write_layout_file", "cli.write_charts_file"),
    "cli.self_ms": (ROOT_SPAN,),
    "charts.load_obj_ms": ("charts.load_obj",),
    "charts.build_adjacency_ms": ("charts.build_adjacency",),
    "charts.depth_prepass_ms": ("charts.depth_prepass",),
    "charts.mark_visible_ms": ("charts.mark_visible",),
    "charts.connected_charts_ms": ("charts.connected_charts",),
    "charts.merge_shared_vertices_ms": ("charts.merge_shared_vertices",),
    "geometry.chart_bbox_ms": ("geometry.chart_bbox",),
    "packing.pack_ms": ("packing.pack",),
    "packing.fold_ms": ("packing.fold",),
    "packing.push_up_ms": ("packing.push_up",),
    "metrics.scene_stretch_ms": ("metrics.scene_stretch",),
    "metrics.layout_digest_ms": ("metrics.layout_digest",),
}

RATIO_METRICS = ("charts.visible_ratio", "packing.folds_per_layout")

COUNT_METRICS = (
    "charts.triangles",
    "charts.visible_triangles",
    "charts.covered_pixels",
    "charts.charts_per_frame",
    "geometry.chart_bbox_calls",
    "geometry.degenerate_charts",
    "packing.fold_calls",
    "packing.fold_overflows",
    "packing.push_up_calls",
    "packing.push_up_accepted",
    "packing.pack_failures",
    "metrics.triangle_stretch_calls",
)


class Tracer:
    """Records spans and counts for calls made while an op is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op_counts: dict[str, Counter] = {}
        self._stack: list[int] = []
        self._op: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    # --- wrapping ---------------------------------------------------------

    def install(self) -> None:
        for module, attr, name, on_result, on_error in WRAPS:
            self._replace(module, attr, self._spanned(getattr(module, attr), name,
                                                      on_result, on_error))
        for module, attr, name in COUNT_ONLY:
            self._replace(module, attr, self._counted(getattr(module, attr), name))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def _replace(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _spanned(self, fn, name, on_result, on_error):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            with tracer._span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(tracer, exc)
                    raise
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is not None:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- spans ------------------------------------------------------------

    @contextmanager
    def _span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(span_id, name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(span_id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    @contextmanager
    def op(self, op_id: str, root: str = ROOT_SPAN):
        """Open one op: the root span plus a fresh count of its events."""
        if self._op is not None:
            raise RuntimeError("ops do not nest")
        self._op = op_id
        self.counts = Counter()
        try:
            with self._span(root) as span:
                yield span
        finally:
            self.op_counts[op_id] = self.counts
            self._op = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    # --- aggregation ------------------------------------------------------

    def self_ms(self) -> dict[str, dict[str, float]]:
        """Self time in ms per op id and span name."""
        child_s = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            out[span.op][span.name] += 1000.0 * (span.end - span.start - child_s[span.id])
        return out

    def layer_metrics(self, op_ids) -> dict[str, float]:
        """Per-layer metrics over the given ops: median self times, mean counts."""
        self_ms = self.self_ms()
        metrics: dict[str, float] = {}
        for metric, names in TIME_METRICS.items():
            metrics[metric] = median(sum(self_ms[op].get(n, 0.0) for n in names) for op in op_ids)
        totals = Counter()
        for op in op_ids:
            totals.update(self.op_counts[op])
        n = len(op_ids)
        for metric in COUNT_METRICS:
            metrics[metric] = totals[metric] / n
        metrics["charts.visible_ratio"] = (
            totals["charts.visible_triangles"] / totals["charts.triangles"]
            if totals["charts.triangles"] else 0.0
        )
        metrics["packing.folds_per_layout"] = (
            totals["packing.fold_calls"] / totals["packing.pack_calls"]
            if totals["packing.pack_calls"] else 0.0
        )
        return metrics

    def reference_metrics(self, op_ids) -> dict[str, float]:
        """Median time of one reference packing, outside any timed op."""
        self_ms = self.self_ms()
        name = "baselines.sequential_scale_search"
        return {f"{name}_ms": median(self_ms[op][name] for op in op_ids) if op_ids else 0.0}


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    return "ratio" if metric in RATIO_METRICS else "count/op"
