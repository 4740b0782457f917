"""Property tests of the packer, the projection, the clip, the chart box, and the box, layout and
OBJ files.

Examples are derived from the test source (``derandomize``) and no example
database is kept, so every run checks the same bounded set of inputs.
"""

import itertools
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atlaspack import (
    CameraFrame,
    ChartBox,
    DegenerateChart,
    PackFailure,
    layout_digest,
    layouts_equal,
    box_table,
    charts,
    pack,
    superblock_pack,
)
from atlaspack.charts import Mesh, _chunks, load_obj, screen_setup
from atlaspack.cli import (
    InputError,
    generate_boxes,
    parse_box_file,
    parse_layout_file,
    write_box_file,
    write_layout_file,
)
from atlaspack.geometry import clip_coords, clip_halfspace
from atlaspack.packing import MAX_BOX_DIM

from oracles import (
    _select,
    banded_raster,
    box_contains,
    box_line_split,
    box_samples,
    chart_frustum_box,
    clip_halfspace_step,
    exhaustive_optimal,
    layout_valid,
    obj_line_loop,
    one_conservative_bbox,
    reference_superblock_pack,
    stacked_clip_coords,
    triangle_corners,
    whole_rows,
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


@st.composite
def superblock_cases(draw):
    """(box table, omega, block): up to 300 boxes with sides up to 4 omega.

    Blocks start at omega / 64, so that the reference's grid of block
    objects stays at most 64 x 64.
    """
    e = draw(st.integers(0, 12))
    n = draw(st.integers(0, 300))
    sides = st.tuples(st.integers(1, 4 << e), st.integers(1, 4 << e))
    wh = draw(st.lists(sides, min_size=n, max_size=n))
    tris = draw(st.permutations(range(n)))
    table = np.array([[i, t, w, h] for i, (t, (w, h)) in enumerate(zip(tris, wh))], dtype=np.int64)
    return table.reshape(-1, 4), 1 << e, 1 << draw(st.integers(max(0, e - 6), e))


def assert_superblock_matches_reference(table, omega, block):
    got = superblock_pack(table, omega, block)
    want = reference_superblock_pack(table, omega, block)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.table.tobytes() == want.table.tobytes()
        assert got.block_size == want.block_size


@settings(PROPERTY, max_examples=100)
@given(superblock_cases())
def test_superblock_places_as_the_reference(case):
    assert_superblock_matches_reference(*case)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_superblock_places_heavy_sets_as_the_reference(seed):
    boxes = generate_boxes(3000, 2048, np.random.default_rng(seed))
    assert_superblock_matches_reference(box_table(boxes), 4096, 512)


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
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3000),
    st.integers(1, 3000),
    st.sampled_from([1e-3, 1e-2, 1.0, 40.0, 1e3, 1e5]),
    st.sampled_from(["shuffled", "repeated", "ascending", "label_ordered"]),
)
@example(seed=0, n=4, n_vertices=1, spread=1e3, order="repeated")
@example(seed=1, n=1, n_vertices=2, spread=1e-2, order="shuffled")
def test_projection_commutes_with_indexing(seed, n, n_vertices, spread, order):
    # A frame projects each vertex once and gathers its triangles, whose
    # vertices may be shared, repeated within a triangle or unused: the
    # bits must be those of the earlier per-triangle product, even for a
    # one-vertex mesh. The chart boxes read the triangles in label order
    # and the stretch report in ascending order; either must see the bits
    # a projection of just those triangles would give.
    rng = np.random.default_rng(seed)
    mesh = Mesh(
        positions=rng.normal(scale=spread, size=(n_vertices, 3)),
        triangles=rng.integers(0, n_vertices, size=(n, 3)),
    )
    cam = CameraFrame.from_params(
        math.radians(rng.uniform(20.0, 120.0)), rng.uniform(0.5, 2.0), 0.1, 1000.0,
        position=rng.normal(scale=spread, size=3), look_at=rng.normal(scale=spread, size=3),
    )
    if order == "shuffled":
        idx = rng.permutation(n)[: rng.integers(0, n + 1)]
    elif order == "repeated":
        idx = rng.integers(0, n, size=rng.integers(0, 2 * n))
    elif order == "ascending":
        idx = np.flatnonzero(rng.random(n) < rng.random())
    else:
        labels = rng.integers(-1, max(1, n // 8), size=n)
        visible = np.flatnonzero(labels >= 0)
        idx = visible[np.argsort(labels[visible], kind="stable")]
    gathered = clip_coords(mesh.positions, cam)[mesh.triangles]
    assert gathered.tobytes() == stacked_clip_coords(triangle_corners(mesh), cam).tobytes()
    whole = gathered[idx]
    alone = clip_coords(triangle_corners(mesh)[idx], cam)
    assert whole.shape == alone.shape == (len(idx), 3, 4)
    assert whole.tobytes() == alone.tobytes()


@PROPERTY
@given(st.lists(st.lists(coords, min_size=9, max_size=9), min_size=1, max_size=4))
def test_chart_bbox_contains_frustum_clip_box(triangles):
    tris = np.array(triangles).reshape(-1, 3, 3)
    oracle = chart_frustum_box(tris, CAM90)
    try:
        box = one_conservative_bbox(tris, CAM90)
    except DegenerateChart:
        assert oracle is None or oracle.area == 0
        return
    if oracle is not None:
        assert box_contains(box, oracle, tol=1e-9)


# Signed distances of a polygon's vertices: mixed, all kept or all dropped, any of them 0.
DISTANCES = {
    "mixed": st.floats(-2.0, 2.0),
    "kept": st.floats(0.25, 2.0),
    "dropped": st.floats(-2.0, -0.25),
}


@st.composite
def ragged_polygons(draw):
    """Polygons of 0 to 9 vertices, each as ((n, 4) vertices, (n,) signed distances)."""
    polygons = []
    for _ in range(draw(st.integers(0, 8))):
        n = draw(st.integers(0, 9))
        side = DISTANCES[draw(st.sampled_from(sorted(DISTANCES)))]
        d = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), side), min_size=n, max_size=n))
        v = draw(st.lists(coords, min_size=4 * n, max_size=4 * n))
        polygons.append((np.array(v).reshape(n, 4), np.array(d, dtype=np.float64)))
    return polygons


@settings(PROPERTY, max_examples=200)
@given(ragged_polygons(), st.booleans())
def test_ragged_clip_matches_one_polygon_step(polygons, strict):
    counts = np.array([len(d) for _, d in polygons], dtype=np.int64)
    vertices = np.concatenate([np.empty((0, 4)), *(v for v, _ in polygons)])
    d = np.concatenate([np.empty(0), *(d for _, d in polygons)])
    out, got = clip_halfspace(vertices, counts, d, d > 0 if strict else d >= 0)
    assert got.shape == counts.shape and got.sum() == len(out)
    for (v, dv), poly in zip(polygons, np.split(out, np.cumsum(got)[:-1])):
        want = clip_halfspace_step(v, dv, dv > 0 if strict else dv >= 0)
        assert poly.tobytes() == want.tobytes()


# --- the depth buffer against the order of its samples ------------------------


def min_depth_reference(setup, res):
    """Each pixel's minimum over the box sampler's samples of a set-up, with zeros made +0."""
    depth = np.full((res[1], res[0]), np.inf)
    for group in setup:
        for _, iy, ix, z in box_samples(group):
            np.minimum.at(depth, (iy, ix), z)
    return depth + 0.0


def assert_order_free(setup, res, n_triangles: int, orders):
    """The banded depth buffer of a set-up, and of each of ``orders`` of its polygons, is
    bit-identical to min_depth_reference, and the flags are equal."""
    want = min_depth_reference(setup, res).tobytes()
    depth, flags = banded_raster(setup, res, n_triangles)
    assert depth.tobytes() == want
    for order in orders:
        depth, got = banded_raster(list(order), res, n_triangles)
        assert depth.tobytes() == want
        assert np.array_equal(got, flags)


@PROPERTY
@given(
    st.lists(st.lists(coords, min_size=9, max_size=9), min_size=1, max_size=12),
    st.sampled_from([(8, 8), (17, 9), (32, 16)]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_depth_does_not_depend_on_sample_order(triangles, res, cull, seed):
    # Three orders of the set-up: the polygons of each group shuffled, each
    # group cut into one to three groups, and the groups shuffled.
    positions = np.array(triangles).reshape(-1, 3)
    tris = np.arange(len(positions)).reshape(-1, 3)
    setup = screen_setup(clip_coords(positions, CAM90), tris, res, cull)[0]
    rng = np.random.default_rng(seed)
    orders = []
    for _ in range(3):
        groups = [
            _select(group, part)
            for group in setup
            for part in np.array_split(rng.permutation(len(group[0])), rng.integers(1, 4))
        ]
        orders.append([groups[i] for i in rng.permutation(len(groups))])
    assert_order_free(setup, res, len(tris), orders)


def test_signed_zero_depths_do_not_depend_on_sample_order():
    # On an 8x8 screen at w = 1: F, collinear in float but counter-clockwise
    # once snapped, covering pixels (1, 1) and (2, 4), and Q, covering pixel
    # (1, 1), inside the frustum; P, across the screen, clipped into a second
    # group. Their planes (ax, ay, z0, gx, gy) are set by hand: F flat at
    # z0 = -0, P zero at both pixels, and Q zero at (1, 1), where z0 + gx *
    # dx + gy * dy sums three -0. Every sample there must be +0, and so each
    # pixel in every order of the polygons and groups.
    t = 0.5 + 5 / 4096
    pixels = np.array([[0.0, 1.0], [6.0, 3.0], [6.0 * t, 1.0 + 2.0 * t],  # F
                       [1.0, 1.0], [2.0, 1.0], [1.5, 2.0],  # Q
                       [-4.0, -4.0], [24.0, -4.0], [-4.0, 24.0]])  # P
    vclip = np.c_[pixels / 4.0 - 1.0, np.tile([0.1, 0.2, 0.4], 3), np.ones(9)]
    hand = {0: (0.0, 1.0, -0.0, 0.0, 0.0), 1: (1.5, 1.5, -0.0, -1.0, -1.0),
            2: (1.5, 1.5, 0.0, 1.0, -3.0)}
    groups = screen_setup(vclip, np.arange(9).reshape(3, 3), (8, 8), True)[0]
    assert [g[0].tolist() for g in groups] == [[0, 1], [2]]
    gx, gy = groups[0][3][3:5]
    assert gx[0] == gy[0] == 0.0  # F is flat: its vertex depths differ
    setup = []
    for tris, box, edges, planes, ndc in groups:
        planes = [a.copy() for a in planes]
        for a, column in zip(planes, zip(*(hand[i] for i in tris.tolist()))):
            a[:] = column
        setup.append((tris, box, edges, tuple(planes), ndc))
    zeros = {9: [], 20: []}  # pixels (1, 1) and (2, 4), row * 8 + column
    for group in setup:
        for tri, pixel, z in _chunks(group, 8, whole_rows(group), 0):
            for k, samples in zeros.items():
                at = pixel == k
                samples += zip(tri[at].tolist(), z[at].tolist(), np.signbit(z[at]).tolist())
    assert sorted(zeros[9]) == [(0, 0.0, False), (1, 0.0, False), (2, 0.0, False)]
    assert sorted(zeros[20]) == [(0, 0.0, False), (2, 0.0, False)]
    inside, clipped = setup
    singles = [_select(group, [i]) for group in setup for i in range(len(group[0]))]
    swapped = _select(inside, [1, 0])
    orders = [*itertools.permutations(singles), [clipped, inside], [swapped, clipped],
              [clipped, swapped]]
    assert_order_free(setup, (8, 8), 3, orders)


# --- the whole-file reader against the line loops ----------------------------

# Each replaces one token: a non-finite or non-Python number, an int64
# overflow, Unicode digits that int and float accept or reject, or syntax
# that Python's float and int accept or reject.
MUTANT_TOKENS = [
    "nan", "1e400", "1_0", "+5", "x", "0", "12345678901234567890", "\u0661\u0662", "\uff11",
    "\u00b2", "1/2", "/1",
]
# Each replaces a keyword with another, or with one that is not v or f.
MUTANT_KEYWORDS = ["vf", "ff", "e", "0", "vn", "o"]
# Each joins two tokens of a record with one whitespace character other than
# a space, ASCII or not.
SEPARATORS = ["\v", "\f", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000"]
# One mutation of one random record each, or none. "past" and "before" set a
# token to the index one past the vertices read before the record, "shift"
# moves a record's last token onto the next record, "tab" and "sep" join two
# tokens with a tab or another separator, "crlf" and "cr" end the record's
# line with CRLF or a lone CR, "ff" inserts a \xff byte anywhere, and "bom"
# a UTF-8 byte order mark at the start or anywhere.
MUTATIONS = [
    "none",
    *(f"token:{t}" for t in MUTANT_TOKENS),
    *(f"keyword:{k}" for k in MUTANT_KEYWORDS),
    *(f"sep:{c}" for c in SEPARATORS),
    "past", "before", "drop", "add", "shift", "tab", "crlf", "cr", "comment", "ff", "bom",
]
obj_coords = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3, allow_nan=False).map("{:.6f}".format),
    st.sampled_from(["-0.0", "0", "-0", "+1.5", ".5", "5.", "1E-3", "-2e+2"]),
)
# Lines that an OBJ reader skips: comments, and keywords other than v and f.
obj_other = st.sampled_from([
    ["#", "exported"], ["#", "v", "1", "2", "3"], ["#f", "1"], ["vn", "0", "0", "1"],
    ["vt", "0.5", "0.5"], ["o", "cube"], ["g", "side"], ["usemtl", "stone"], ["s", "off"],
])


@st.composite
def obj_records(draw):
    """Interleaved v, f, other and blank lines as token lists; indices in range.

    Vertices have 3 or 4 coordinates, faces 3 to 6 indices in the forms
    ``a``, ``a/b``, ``a/b/c`` and ``a//c``, and any line may end in a comment.
    """
    records, n = [], 0
    for kind in draw(st.lists(st.sampled_from("vvffo "), min_size=1, max_size=14)):
        if kind == "v" or (kind == "f" and n == 0):
            count = draw(st.sampled_from([3, 3, 4]))
            records.append(["v", *draw(st.lists(obj_coords, min_size=count, max_size=count))])
            n += 1
        elif kind == "f":
            picks = draw(st.lists(st.tuples(st.integers(1, n), st.booleans()),
                                  min_size=3, max_size=draw(st.sampled_from([3, 3, 4, 6]))))
            tails = st.sampled_from(["", "", "/1", "/1/2", "//3"])
            indices = (str(i if pos else i - n - 1) + draw(tails) for i, pos in picks)
            records.append(["f", *indices])
        elif kind == "o":
            records.append(list(draw(obj_other)))
        else:
            records.append([])
        if records[-1] and draw(st.integers(0, 7)) == 0:
            records[-1].append(draw(st.sampled_from(["# note", "#", "#1 2 3"])))
    return records


@st.composite
def box_records(draw):
    """Box records as token lists, with blank and comment lines and end-of-line comments."""
    boxes = draw(box_files())
    records = [[str(b.chart_id), str(b.min_tri), str(b.target_w), str(b.target_h)]
               for b in boxes]
    for at in draw(st.lists(st.integers(0, len(records)), max_size=3)):
        records.insert(at, draw(st.sampled_from([[], ["#", "chart_id", "min_tri"], ["#1"]])))
    for at in draw(st.lists(st.integers(0, len(records)), max_size=2)):
        if at < len(records) and records[at]:
            records[at].append("# tail")
    return records


def file_bytes(draw, records, mutation: str) -> bytes:
    """Join records into a file, apply ``mutation`` (one of MUTATIONS) and maybe a second edit."""
    sep = draw(st.sampled_from([" ", "  ", " \t"]))
    records = [list(r) for r in records]
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n"]))] * len(records)
    if records and not draw(st.booleans()):
        ends[-1] = ""  # no final newline
    kind, _, value = mutation.partition(":")
    full = [i for i, r in enumerate(records) if len(r) > 1]
    if kind not in ("none", "ff") and full:
        i = draw(st.sampled_from(full))
        j = draw(st.integers(1, len(records[i]) - 1))
        record = records[i]
        seen = sum(r[:1] == ["v"] for r in records[:i])  # vertices read before line i
        if kind == "token":
            record[j] = value
        elif kind == "keyword":
            record[0] = value
        elif kind == "past":
            record[j] = str(seen + 1)
        elif kind == "before":
            record[j] = str(-seen - 1)
        elif kind == "drop":
            del record[j]
        elif kind == "add":
            record.insert(j, "1")
        elif kind == "shift" and i != full[-1]:
            records[full[full.index(i) + 1]].insert(0, record.pop())
        elif kind in ("tab", "sep"):
            record[j - 1 : j + 1] = [record[j - 1] + (value or "\t") + record[j]]
        elif kind == "crlf":
            ends[i] = "\r\n"
        elif kind == "cr":
            ends[i] = "\r"
        elif kind == "comment":
            record.append(draw(st.sampled_from(["# note", "#", "#1 2 3", "# \u00e9t\u00e9"])))
        # Half the time a second problem in the same record, so the order of
        # the rules within a record decides the message.
        second = draw(st.sampled_from([None, None, "x", "nan", "1e400", "0", "drop"]))
        if second and len(record) > 1:
            k = draw(st.integers(1, len(record) - 1))
            if second == "drop":
                del record[k]
            else:
                record[k] = second
    data = "".join(sep.join(r) + end for r, end in zip(records, ends)).encode()
    if kind == "ff":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    elif kind == "bom":
        at = draw(st.one_of(st.just(0), st.integers(0, len(data))))
        data = data[:at] + b"\xef\xbb\xbf" + data[at:]
    return data


def outcome(fn, *args):
    """An array result as (dtype, shape, bytes), or a raised error's message."""
    try:
        result = fn(*args)
    except (ValueError, InputError) as exc:
        return type(exc), str(exc)
    arrays = (result.positions, result.triangles) if isinstance(result, Mesh) else (result,)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(PROPERTY, max_examples=30)
@given(records=obj_records(), data=st.data())
def test_obj_whole_file_matches_line_loop(mutation, records, data):
    raw = file_bytes(data.draw, records, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.obj"
        path.write_bytes(raw)
        assert outcome(load_obj, path) == outcome(obj_line_loop, path)


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(PROPERTY, max_examples=20)
@given(records=box_records(), data=st.data())
def test_box_file_whole_file_matches_line_split(mutation, records, data):
    raw = file_bytes(data.draw, records, mutation)
    text = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").decode("utf-8-sig", errors="replace")
    tokens, linenos, counts = charts.records(raw)
    assert all(isinstance(t, str) for t in tokens)
    assert (tokens, linenos.tolist(), counts.tolist()) == box_line_split(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "boxes.txt"
        path.write_bytes(raw)
        result = outcome(parse_box_file, path)
    if mutation == "none":
        assert result == outcome(box_table, [
            ChartBox(target_w=int(w), target_h=int(h), chart_id=int(c), min_tri=int(t))
            for c, t, w, h in (r[:4] for r in records if r and not r[0].startswith("#"))
        ])


# Tokens at the edges of the converter's fast path (charts._column): signs,
# leading zeros, a bare point at either end, 19-digit integers and the
# neighbours of +-2^63, and what only Python's int or float reads.
EDGE_TOKENS = [
    "0", "-0", "+0", "-0.000000", "+5", "007", ".5", "5.", "-.5", "+.5", "-5.", ".", "-", "+",
    "-.", "+-1", "--1", "1.2.3", "1e5", "-2E-3", "nan", "-nan", "inf", "-Infinity", "1_0",
    "1_000.5", "0x10", "٤", "１２", "١.٥", "²",
    # 16 digits whose m is past 2^53: m / 10**k rounds twice and misses float().
    "96.48064786969077",
    *(str(sign * (2**63 + d)) for sign in (1, -1) for d in (-2, -1, 0, 1)),
]


@st.composite
def numeric_tokens(draw):
    """1 to 20 digits with a sign and a point at random, or an edge token."""
    kind = draw(st.sampled_from(["int", "decimal", "edge"]))
    if kind == "edge":
        return draw(st.sampled_from(EDGE_TOKENS))
    n = draw(st.sampled_from([1, 2, 6, 14, 15, 16, 17, 18, 19, 20]))
    digits = str(draw(st.integers(0, 10**n - 1))).zfill(n)
    if kind == "decimal":
        at = draw(st.integers(0, n))
        digits = f"{digits[:at]}.{digits[at:]}"
    return draw(st.sampled_from(["", "", "-", "+"])) + digits


def python_column(convert, tokens):
    """The converter's contract, one token at a time: up to the first rejected token, int64
    or float64, and an object array when an int lies outside int64."""
    values = []
    for token in tokens:
        try:
            values.append(convert(token))
        except ValueError:
            break
    try:
        return np.array(values, dtype=np.int64 if convert is int else np.float64)
    except OverflowError:
        return np.array(values, dtype=object)


def plain(convert, token) -> bool:
    """Whether the converter reads ``token`` from its digits, without Python's int or float."""
    if convert is int:
        return re.fullmatch(r"[+-]?[0-9]{1,18}", token) is not None
    digits = sum(c in "0123456789" for c in token)
    return re.fullmatch(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)", token) is not None and digits <= 15


@pytest.mark.parametrize("convert", [int, float])
@settings(PROPERTY, max_examples=300)
@given(tokens=st.lists(numeric_tokens(), max_size=10))
def test_column_matches_python_conversion(convert, tokens):
    data = " ".join(tokens).encode() + b"\n"
    lengths = np.array([len(t.encode()) for t in tokens], dtype=np.int64)
    ends = np.cumsum(lengths + 1) - 1
    starts = ends - lengths
    got, want = charts._column(convert, data, starts, ends), python_column(convert, tokens)
    assert got.dtype == want.dtype
    if got.dtype == object:
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want]
    else:
        assert got.tobytes() == want.tobytes()  # the same length, and -0.0 and nan bits too
    fast = charts._plain_digits(np.frombuffer(data, np.uint8), starts, ends, convert is float)[3]
    assert fast.tolist() == [plain(convert, t) for t in tokens]


@settings(PROPERTY, max_examples=150)
@given(indices=st.lists(st.tuples(st.one_of(numeric_tokens(), st.sampled_from(["1", "-3", "+2"])),
                                  st.sampled_from(["", "/", "/2", "/1/2", "//3"])),
                        min_size=1, max_size=5))
def test_face_tokens_cut_at_their_first_slash(indices):
    # The face column reads each token up to its first '/', as the line loop does.
    face = " ".join(index + tail for index, tail in indices)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.obj"
        path.write_bytes(f"v 0 0 0\nv 1 0 0\nv 0 1 0\nf {face}\n".encode())
        assert outcome(load_obj, path) == outcome(obj_line_loop, path)
