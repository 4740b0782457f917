"""Tests of the benchmark itself: its checker, generators and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import functools
import json
from fractions import Fraction

import numpy as np
import pytest

import atlaspack.cli
import atlaspack.packing
import bench
import checker
import tracer as tracing
import workloads
from atlaspack.cli import generate_boxes, write_layout_file
from atlaspack.metrics import layouts_equal
from atlaspack.packing import AtlasLayout, Placement, pack
from program import ROOT


def _layout(scale, *placements):
    return AtlasLayout(
        omega=64, scale=Fraction(scale), placements=tuple(Placement(*p) for p in placements)
    )


@pytest.fixture
def small_workloads(monkeypatch):
    """Same generators, scaled down so a whole run takes a second."""
    monkeypatch.setattr(workloads, "BOXES_COUNT", 200)
    monkeypatch.setattr(workloads, "grid_mesh", functools.partial(workloads.grid_mesh, n=6))
    monkeypatch.setattr(workloads, "cubes_mesh", functools.partial(workloads.cubes_mesh, count=12))


class TestChecker:
    def test_accepts_a_real_pack(self, tmp_path):
        boxes = generate_boxes(300, 256, np.random.default_rng(5))
        layout = pack(boxes, 1024)
        write_layout_file(layout, tmp_path / "a.layout.txt")
        ids = {b.chart_id for b in boxes}
        assert layouts_equal(checker.check_layout(tmp_path / "a.layout.txt", 1024, ids), layout)

    def test_rejects_overlap(self, tmp_path):
        # chart_id x y w h rotated target_w target_h
        layout = _layout(1, (0, 0, 0, 10, 10, False, 10, 10), (1, 9, 9, 10, 10, False, 10, 10))
        write_layout_file(layout, tmp_path / "o.layout.txt")
        with pytest.raises(checker.CheckFailed, match="overlap"):
            checker.check_layout(tmp_path / "o.layout.txt", 64, {0, 1})

    def test_touching_boxes_do_not_overlap(self):
        checker.check_no_overlap(
            _layout(1, (0, 0, 0, 10, 10, False, 10, 10), (1, 10, 0, 10, 10, False, 10, 10))
        )

    def test_rejects_overstated_scale(self, tmp_path):
        # Built at scale 1/2 (ceil(0.5 * 21) = 11) but reports scale 3/4.
        layout = _layout("3/4", (0, 0, 0, 11, 5, False, 21, 10))
        write_layout_file(layout, tmp_path / "s.layout.txt")
        with pytest.raises(checker.CheckFailed, match="below scale"):
            checker.check_layout(tmp_path / "s.layout.txt", 64, {0})

    def test_scale_check_follows_rotation(self):
        # Rotated: placed w holds target_h and placed h holds target_w.
        checker.check_scale(_layout(1, (0, 0, 0, 10, 21, True, 21, 10)))
        with pytest.raises(checker.CheckFailed):
            checker.check_scale(_layout(1, (0, 0, 0, 21, 10, True, 21, 10)))

    def test_rejects_outside_and_missing(self):
        with pytest.raises(checker.CheckFailed, match="outside"):
            checker.check_inside(_layout(1, (0, 60, 0, 10, 10, False, 10, 10)))
        with pytest.raises(checker.CheckFailed, match="1 missing"):
            checker.check_ids(_layout(1, (0, 0, 0, 1, 1, False, 1, 1)), {0, 1})

    def test_rejects_edited_file(self, tmp_path):
        path = tmp_path / "e.layout.txt"
        write_layout_file(_layout(1, (0, 0, 0, 10, 10, False, 10, 10)), path)
        path.write_text(path.read_text().replace("0 0 0 10 10", "0 1 0 10 10"))
        with pytest.raises(checker.CheckFailed, match="digest"):
            checker.check_layout(path, 64, {0})


@pytest.mark.parametrize("workload", sorted(workloads.WRITERS))
def test_generators_are_byte_identical_per_seed(tmp_path, small_workloads, workload):
    def inputs_of(seed, name):
        d = tmp_path / name
        d.mkdir()
        keys = []
        for inp in workloads.WRITERS[workload](d, seed):
            inp.prepare()
            keys.append(inp.key)
        return keys, {p.name: p.read_bytes() for p in d.iterdir()}

    first = inputs_of(7, "a")
    assert first[1] and inputs_of(7, "b") == first
    assert inputs_of(8, "c") != first, "another seed should give other inputs"


WRAPPED = [(m, a) for m, a, *_ in tracing.WRAPS] + [(m, a) for m, a, _ in tracing.COUNT_ONLY]


@pytest.mark.parametrize("workload", sorted(workloads.WRITERS))
def test_traced_run_restores_names_and_keeps_digests(tmp_path, small_workloads, workload):
    originals = [(module, attr, getattr(module, attr)) for module, attr in WRAPPED]
    plain = bench.Runner(workload, 3, tmp_path / "plain")
    plain.run(0.0)
    traced = bench.Runner(workload, 3, tmp_path / "traced")
    tracer = tracing.Tracer()
    traced.run(0.0, tracer)
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn, f"{module.__name__}.{attr}"
    assert atlaspack.cli.pack is atlaspack.packing.pack
    assert plain.check_failures == traced.check_failures == 0
    assert plain.digests and plain.digests == traced.digests
    ops = [f"op{i}" for i, r in enumerate(traced.results) if r.traced]
    assert ops and {s.op for s in tracer.spans} == set(ops)
    layers = tracer.layer_metrics(ops)
    if workload == "boxes-heavy":
        assert layers["packing.fold_calls"] > 0 and layers["charts.triangles"] == 0
    else:
        assert layers["charts.triangles"] > 0 and layers["charts.depth_prepass_ms"] > 0


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.op("op0"):
        with tracer._span("child"):
            pass
    root, child = sorted(tracer.spans, key=lambda s: s.id)
    assert child.parent == root.id
    self_ms = tracer.self_ms()["op0"]
    total = 1000.0 * (root.end - root.start)
    assert self_ms["cli.main"] == pytest.approx(total - 1000.0 * (child.end - child.start))


@pytest.mark.parametrize("trace", [0, 1])
def test_main_prints_the_declared_metrics(tmp_path, monkeypatch, capsys, small_workloads, trace):
    monkeypatch.setattr(bench, "WORK", tmp_path / "work")
    monkeypatch.setattr(bench, "OUT", tmp_path / "out")
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    args = ["--workload", "boxes-heavy", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert bench.main(args) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert sorted(last["metrics"]) == sorted(declared)
    assert last["correct"] is True and last["attempted"] >= 3
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())
