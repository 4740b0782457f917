"""Property tests of the packer, the chart box, and the box and layout files.

Examples are derived from the test source (``derandomize``) and no example
database is kept, so every run checks the same bounded set of inputs.
"""

import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from atlaspack import (
    CameraFrame,
    ChartBox,
    DegenerateChart,
    PackFailure,
    layout_digest,
    layouts_equal,
    box_table,
    pack,
)
from atlaspack.cli import parse_box_file, parse_layout_file, write_box_file, write_layout_file
from atlaspack.packing import MAX_BOX_DIM

from oracles import (
    box_contains,
    chart_frustum_box,
    exhaustive_optimal,
    layout_valid,
    one_chart_bbox,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def box_sets(draw, max_boxes, max_side):
    sides = draw(st.lists(st.tuples(st.integers(1, max_side), st.integers(1, max_side)),
                          max_size=max_boxes))
    tris = draw(st.lists(st.integers(0, 10_000), min_size=len(sides), max_size=len(sides),
                         unique=True))
    return [ChartBox(target_w=w, target_h=h, chart_id=i, min_tri=t)
            for i, ((w, h), t) in enumerate(zip(sides, tris))]


omegas = st.sampled_from([16, 32, 64, 128])
coords = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)
CAM90 = CameraFrame.from_params(math.radians(90), 1.0, 0.1, 100.0)


def pack_or_none(boxes, omega, **kwargs):
    try:
        return pack(boxes, omega, **kwargs)
    except PackFailure:
        return None


@PROPERTY
@given(box_sets(40, 96), omegas, st.integers(1, 32), st.integers(1, 3), st.integers(0, 2))
def test_pack_layouts_are_valid(boxes, omega, n_scales, min_dim, padding):
    layout = pack_or_none(boxes, omega, n_scales=n_scales, min_dim=min_dim, padding=padding)
    if layout is not None:
        assert layout_valid(layout)
        assert len(layout.placements) == len(boxes)


@PROPERTY
@given(box_sets(40, 96), omegas, st.randoms(use_true_random=False))
def test_digest_ignores_box_order(boxes, omega, random):
    shuffled = list(boxes)
    random.shuffle(shuffled)
    a, b = pack_or_none(boxes, omega), pack_or_none(shuffled, omega)
    assert (a is None) == (b is None)
    if a is not None:
        assert layout_digest(a) == layout_digest(b)


@settings(PROPERTY, max_examples=30)
@given(box_sets(4, 16), st.sampled_from([8, 16]), st.integers(1, 16))
def test_scale_never_above_exhaustive_optimum(boxes, omega, n_scales):
    best = exhaustive_optimal(boxes, omega, [Fraction(i, n_scales) for i in range(1, n_scales + 1)])
    layout = pack_or_none(boxes, omega, n_scales=n_scales)
    if layout is not None:
        assert best is not None and layout.scale <= best


@PROPERTY
@given(box_sets(30, 96), omegas)
def test_layout_file_round_trips(boxes, omega):
    layout = pack_or_none(boxes, omega)
    if layout is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.layout.txt"
        write_layout_file(layout, path)
        parsed = parse_layout_file(path)
    assert layouts_equal(parsed, layout)
    assert parsed.scale == layout.scale


@st.composite
def box_files(draw):
    """Boxes with ids anywhere in int64 and sides anywhere in [1, MAX_BOX_DIM]."""
    n = draw(st.integers(0, 30))
    ids = st.integers(0, (1 << 63) - 1)
    chart_ids = draw(st.lists(ids, min_size=n, max_size=n, unique=True))
    tris = draw(st.lists(ids, min_size=n, max_size=n, unique=True))
    sides = st.integers(1, MAX_BOX_DIM)
    return [ChartBox(target_w=draw(sides), target_h=draw(sides), chart_id=c, min_tri=t)
            for c, t in zip(chart_ids, tris)]


noise = st.sampled_from(["", "   ", "# note", "  # 1 2 3 4", "#"])


@PROPERTY
@given(box_files(), st.randoms(use_true_random=False),
       st.lists(st.tuples(st.integers(0, 40), noise)), st.lists(st.booleans()))
def test_box_file_round_trips(boxes, random, comments, tails):
    shuffled = list(boxes)
    random.shuffle(shuffled)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "boxes.txt"
        write_box_file(shuffled, path)
        lines = path.read_text().splitlines()
        for k, tail in enumerate(tails[: len(lines)]):
            if tail:
                lines[k] += " # tail"
        for at, text in comments:
            lines.insert(min(at, len(lines)), text)
        path.write_text("\n".join(lines) + "\n")
        parsed = parse_box_file(path)
    assert np.array_equal(parsed, box_table(shuffled))


@PROPERTY
@given(st.lists(st.lists(coords, min_size=9, max_size=9), min_size=1, max_size=4))
def test_chart_bbox_contains_frustum_clip_box(triangles):
    tris = np.array(triangles).reshape(-1, 3, 3)
    oracle = chart_frustum_box(tris, CAM90)
    try:
        box = one_chart_bbox(tris, CAM90)
    except DegenerateChart:
        assert oracle is None or oracle.area == 0
        return
    if oracle is not None:
        assert box_contains(box, oracle, tol=1e-9)
