"""Closed-loop benchmark of the atlaspack CLI, one process, one thread.

Each op is one ``atlaspack.cli.main`` call on a generated input. Ops run
back to back (the next starts when the previous returns) in whole cycles
over the workload's inputs until ``--seconds`` have passed. Every output
is checked after its op, outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles

import numpy as np

import atlaspack.baselines
import atlaspack.cli
import checker
import tracer as tracing
import workloads
from atlaspack.metrics import layout_digest
from atlaspack.packing import ChartBox
from program import ROOT

WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
# op_ms_p90 needs at least ten samples above the 90th percentile.
P90_MIN_OPS = 100
MAX_REPORTED_FAILURES = 5

# Which end-to-end metric, on which workload, each per-layer metric should move.
LAYER_TARGETS = {
    "cli.parse_ms": "op_ms on boxes-heavy",
    "cli.write_ms": "op_ms on scene-grid",
    "cli.self_ms": "op_ms on both scenes: mostly stretch pair building",
    "charts.load_obj_ms": "op_ms and setup_s on scene-grid",
    "charts.build_adjacency_ms": "op_ms and setup_s on scene-grid",
    "charts.depth_prepass_ms": "op_ms on both scenes; no change on boxes-heavy",
    "charts.mark_visible_ms": "op_ms on both scenes; no change on boxes-heavy",
    "charts.connected_charts_ms": "op_ms on scene-grid",
    "charts.merge_shared_vertices_ms": "op_ms on scene-grid",
    "geometry.chart_bbox_ms": "op_ms on scene-grid (one chart) and scene-cubes (many)",
    "packing.pack_ms": "op_ms on boxes-heavy and scene-cubes; no change on scene-grid",
    "packing.fold_ms": "op_ms on boxes-heavy and scene-cubes; no change on scene-grid",
    "packing.push_up_ms": "op_ms on boxes-heavy and scene-cubes; no change on scene-grid",
    "packing.fold_calls": "op_ms and atlas_scale on boxes-heavy",
    "packing.fold_overflows": "op_ms and atlas_scale on boxes-heavy",
    "packing.folds_per_layout": "op_ms and atlas_scale on boxes-heavy",
    "packing.push_up_calls": "op_ms on boxes-heavy",
    "packing.push_up_accepted": "op_ms on boxes-heavy",
    "packing.pack_failures": "failed ops on boxes-heavy",
    "metrics.scene_stretch_ms": "op_ms on both scenes",
    "metrics.triangle_stretch_calls": "op_ms on both scenes",
    "metrics.layout_digest_ms": "op_ms on every workload",
    "baselines.sequential_scale_search_ms": "nothing: the untimed reference",
    "trace.overhead_ms": "nothing: traced minus untraced op_ms",
}


@dataclass
class OpResult:
    key: str
    ms: float
    traced: bool
    failure: str | None = None
    scale: Fraction = Fraction(0)
    ratio: float = 0.0
    efficiency: float = 0.0
    stretch_l2: float | None = None
    visible: int = 0
    charts: int = 0


class Runner:
    """Runs one workload's ops, checks their outputs, and keeps the results."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        workdir.mkdir(parents=True)
        self.inputs = workloads.WRITERS[workload](workdir, seed)
        self.results: list[OpResult] = []
        self.digests: dict[str, str] = {}
        self.ref_boxes: dict[str, list[ChartBox]] = {}
        self.ref_scale: dict[str, Fraction] = {}
        self.check_failures = 0
        for inp in self.inputs:
            if inp.boxes is not None:
                self.ref_boxes[inp.key] = inp.boxes
                self.ref_scale[inp.key] = self.reference(inp)

    def reference(self, inp) -> Fraction:
        """Scale that the sequential packer reaches on the op's boxes (untimed)."""
        return atlaspack.baselines.sequential_scale_search(
            self.ref_boxes[inp.key], inp.omega
        ).scale

    def run(self, seconds: float, tracer: tracing.Tracer | None = None) -> None:
        """Whole cycles over the inputs, stopping at the boundary nearest ``seconds``.

        With a tracer, cycles alternate untraced and traced, so both halves
        see the same inputs and the same drift of the machine. The wrappers
        are in place only during traced cycles.
        """
        step = 1 if tracer is None else 2
        start = time.perf_counter()
        cycle = 0
        while True:
            elapsed = time.perf_counter() - start
            if cycle and cycle % step == 0 and elapsed * (1 + step / (2 * cycle)) >= seconds:
                break
            if tracer is not None and cycle % 2 == 1:
                with tracer.installed():
                    for inp in self.inputs:
                        self.results.append(self.one_op(inp, tracer))
            else:
                for inp in self.inputs:
                    self.results.append(self.one_op(inp, None))
            cycle += 1

    def one_op(self, inp, tracer) -> OpResult:
        inp.prepare()
        for path in inp.outputs().values():
            path.unlink(missing_ok=True)
        gc.collect()
        op_id = f"op{len(self.results)}"
        sink = io.StringIO()
        span = tracer.op(op_id) if tracer is not None else nullcontext()
        with redirect_stdout(sink), redirect_stderr(sink), span:
            t0 = time.perf_counter()
            try:
                rc = atlaspack.cli.main(list(inp.argv))
            except SystemExit as exc:
                rc = 0 if exc.code is None else exc.code
            except Exception:  # a crash of the program is a failed op, not of the run
                rc = traceback.format_exc(limit=-3)
            t1 = time.perf_counter()
        result = OpResult(inp.key, 1000.0 * (t1 - t0), tracer is not None)
        if rc != 0:
            result.failure = f"exit {rc}: {sink.getvalue().strip()}"
            return result
        try:
            self.check(inp, result)
        except (checker.CheckFailed, OSError, KeyError, ValueError) as exc:
            self.check_failures += 1
            result.failure = f"check failed: {exc}"
        return result

    def check(self, inp, result: OpResult) -> None:
        out = inp.outputs()
        row = checker.read_metrics_row(out[".metrics.csv"])
        if inp.boxes is not None:
            expected = {b.chart_id for b in inp.boxes}
        else:
            expected = checker.chart_ids_of(out[".charts.txt"])
        layout = checker.check_layout(out[".layout.txt"], inp.omega, expected)
        digest = layout_digest(layout).digest
        if row["digest"] != digest:
            raise checker.CheckFailed("metrics file and layout file disagree on the digest")
        if self.digests.setdefault(inp.key, digest) != digest:
            raise checker.CheckFailed(f"{inp.key}: digest changed between ops of the same input")
        if inp.key not in self.ref_scale:
            self.ref_boxes[inp.key] = [
                ChartBox(p.target_w, p.target_h, chart_id=p.chart_id, min_tri=p.chart_id)
                for p in layout.placements
            ]
            self.ref_scale[inp.key] = self.reference(inp)
        result.scale = layout.scale
        result.ratio = float(layout.scale / self.ref_scale[inp.key])
        result.efficiency = checker.efficiency(layout)
        if inp.boxes is None:
            result.stretch_l2 = float(row["l2_stretch"]) if row["l2_stretch"] else None
            result.visible = int(row["n_visible_triangles"])
            result.charts = int(row["n_charts"])

    # --- reporting --------------------------------------------------------

    def end_to_end(self, untraced: list[OpResult]) -> dict[str, tuple[float, str]]:
        n = len(untraced)
        return {
            "op_ms": (median(r.ms for r in untraced), "ms"),
            "atlas_scale": (sum(float(r.scale) for r in untraced) / n, "ratio"),
            "scale_vs_sequential": (sum(r.ratio for r in untraced) / n, "ratio"),
            "efficiency": (sum(r.efficiency for r in untraced) / n, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def extra(self, untraced: list[OpResult]) -> dict[str, tuple[float, str]]:
        """Metrics the issue names that are not defined on every workload."""
        n = len(untraced)
        out = {"failed_ratio": (sum(r.failure is not None for r in untraced) / n, "ratio")}
        if n >= P90_MIN_OPS:
            out["op_ms_p90"] = (quantiles([r.ms for r in untraced], n=10)[-1], "ms")
        stretch = [r.stretch_l2 for r in untraced if r.stretch_l2 is not None]
        if stretch:
            out["stretch_l2"] = (sum(stretch) / len(stretch), "ratio")
        return out

    def properties(self) -> dict[str, float]:
        """What the workload's inputs are like, so claims can cite shares of it."""
        ok = [r for r in self.results if r.failure is None]
        sides = np.array(
            [max(b.target_w, b.target_h) for boxes in self.ref_boxes.values() for b in boxes]
        )
        props = {
            "inputs": len(self.inputs),
            "boxes_per_input": len(sides) / max(1, len(self.ref_boxes)),
            "box_side_p50": float(np.quantile(sides, 0.5)) if sides.size else 0.0,
            "box_side_p90": float(np.quantile(sides, 0.9)) if sides.size else 0.0,
            "box_side_max": float(sides.max()) if sides.size else 0.0,
        }
        triangles = self.inputs[0].triangles
        if triangles and ok:
            props["triangles"] = triangles
            props["visible_ratio"] = sum(r.visible for r in ok) / (len(ok) * triangles)
            props["charts_per_frame"] = sum(r.charts for r in ok) / len(ok)
        return props


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median wall time of SETUP_PROBES fresh processes that import and generate."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for k in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(probe), workload, str(seed), str(workdir / f"probe{k}")],
            check=True, cwd=ROOT, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return median(times)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WRITERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    try:
        record = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still works there
            pass
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_workload(args, workdir: Path) -> dict:
    setup_s = None if args.trace else measure_setup(args.workload, args.seed, workdir)
    runner = Runner(args.workload, args.seed, workdir / "run")
    tracer = tracing.Tracer() if args.trace else None
    runner.run(args.seconds, tracer)
    results = runner.results
    untraced = [r for r in results if not r.traced]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": runner.check_failures == 0,
        "attempted": len(results),
        "failed": sum(r.failure is not None for r in results),
        "samples": {"untraced_ops": len(untraced), "traced_ops": len(results) - len(untraced)},
        "properties": runner.properties(),
        "failures": sorted({r.failure for r in results if r.failure})[:MAX_REPORTED_FAILURES],
        "digests": runner.digests,
        "ops": [[r.key, round(r.ms, 3), r.traced, float(r.scale)] for r in results],
    }
    if tracer is None:
        metrics = runner.end_to_end(untraced)
        metrics["setup_s"] = (setup_s, "s")
        extra = runner.extra(untraced)
    else:
        ref_ops = []
        with tracer.installed():
            for inp in runner.inputs:
                if inp.key in runner.ref_boxes:
                    ref_ops.append(f"reference:{inp.key}")
                    with tracer.op(ref_ops[-1], root="reference"):
                        runner.reference(inp)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        traced = [r for r in results if r.traced]
        layers = tracer.layer_metrics([f"op{i}" for i, r in enumerate(results) if r.traced])
        layers.update(tracer.reference_metrics(ref_ops))
        extra = {
            "op_ms_untraced": (median(r.ms for r in untraced), "ms"),
            "op_ms_traced": (median(r.ms for r in traced), "ms"),
        }
        layers["trace.overhead_ms"] = extra["op_ms_traced"][0] - extra["op_ms_untraced"][0]
        metrics = {k: (v, tracing.unit_of(k)) for k, v in layers.items()}
        record["layer_targets"] = LAYER_TARGETS
    record["metrics"] = dict(_flat(metrics))
    record["extra"] = dict(_flat(extra))
    return record


def _flat(metrics: dict[str, tuple[float, str]]):
    for key, (value, unit) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {key} is not finite: {value}")
        yield key, {"value": value, "unit": unit}


def report(record: dict) -> None:
    samples = record["samples"]
    print(
        f"# {record['workload']} seed {record['seed']}: {record['attempted']} ops "
        f"({samples['untraced_ops']} untraced, {samples['traced_ops']} traced), "
        f"{record['failed']} failed, outputs {'correct' if record['correct'] else 'INCORRECT'}"
    )
    for reason in record["failures"]:
        print(f"# failure: {reason}", file=sys.stderr)
    notes = dict(record.get("layer_targets", {}))
    notes["op_ms"] = f"median of {samples['untraced_ops']} ops"
    for section in ("metrics", "extra"):
        for key, m in record[section].items():
            note = f"  ({notes[key]})" if key in notes else ""
            print(f"{key} {m['value']:.6g} {m['unit']}{note}")
    print("properties " + json.dumps(record["properties"]))
