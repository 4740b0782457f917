"""Command-line front end: ingestion, pipeline orchestration, reports.

Subcommands:
  pack-boxes   pack a box list file into an atlas layout
  atlas-scene  run the full per-frame pipeline on an OBJ scene
  compare      run several packers over a scene or box list
  gen-boxes    emit a seeded heavy-tailed synthetic box list

File formats are line-oriented text with '#' comments, and every input
file (box lists, layouts, scene files and OBJ meshes) is split by one
reader, ``charts.records``. Layouts round-trip losslessly and all outputs
are written atomically (temp file + rename).

Settings have one path. Each scene key that a flag can also set (``--omega``,
``--scales``, ``--min-dim``, ``--padding``, ``--res``, ``--prescale``) is a row
of ``_SCENE_KEYS``, and every subcommand applies its flags in one checked
step, ``_with_flags``: a flag that is given replaces its scene key, and one
not given leaves the scene's value, in ``atlas-scene`` and ``compare``
alike. ``pack-boxes`` and ``gen-boxes`` start from the SceneConfig defaults.
Exit codes: 0 success, 1 malformed input (a file or a flag) or an
unwritable output, 2 packing failure, 3 nothing visible in the scene.
"""

from __future__ import annotations

import argparse
import colorsys
import csv
import functools
import io
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .baselines import (
    SuperblockLayout,
    default_block_size,
    sequential_scale_search,
    superblock_pack,
)
from .charts import (
    ChartSet,
    Mesh,
    VisibilityBuffer,
    _column,
    _records,
    chart_bbox,
    connected_charts,
    depth_prepass,
    load_obj,
    mark_visible,
    merge_shared_vertices,
    records,
    screen_bands,
    screen_setup,
)
from .geometry import CameraFrame, clip_coords
from .metrics import (
    DIGEST_ALGORITHM,
    LayoutDigest,
    NoValidTriangles,
    StretchReport,
    layout_digest,
    packing_efficiency,
    scene_stretch,
)
from .packing import (
    MAX_BOX_DIM,
    MAX_SCALES,
    AtlasLayout,
    ChartBox,
    HeightOverflow,
    PackFailure,
    PackingError,
    _check_omega,
    pack,
    repeated,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_PACK_FAILURE = 2
EXIT_NOTHING_VISIBLE = 3

PACKER_NAMES = ("fastatlas", "sequential", "superblock")

# Largest screen side and pixel count, which still admits 7680x4320. Both
# raster passes read one band at a time (charts.screen_bands), so their
# memory does not grow with the screen; the limit bounds time instead, as
# every pixel is filled, tested and counted once a frame.
MAX_SCREEN = 1 << 14
MAX_SCREEN_PIXELS = 1 << 25

# Largest gen-boxes --count, far above the benchmark's 3,000-box sets.
MAX_GEN_COUNT = 1 << 16

# Box ids, layout fields and scale terms are stored or hashed as signed
# 64-bit integers.
_INT64_RANGE = range(-(1 << 63), 1 << 63)


class InputError(Exception):
    """Malformed input file; message names the offending record."""


class NothingVisible(Exception):
    """The camera sees no triangle at all."""


# --- box list files ---------------------------------------------------------


def _read_text(path) -> bytes:
    """The bytes of ``path``, checked to be UTF-8 text, with CRLF and CR line ends read as LF.

    Raises InputError naming the line of the first byte that is not UTF-8.
    """
    with open(path, "rb") as fh:
        # No byte of a multi-byte UTF-8 character is CR or LF.
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(
            f"{path}:{line}: not UTF-8 text (byte {data[exc.start]:#04x})"
        ) from None
    return data


def parse_box_file(path) -> np.ndarray:
    """Read a box file into an (n, 4) int64 box table, ``chart_id min_tri w h``.

    One record per line, in file order; '#' starts a comment. Ids must be
    distinct and in [0, 2^63), sides in [1, MAX_BOX_DIM]. The file is split
    by ``records``, its fields are converted as one column, and each rule is
    checked on a whole column. Raises InputError naming the file and line
    of the first bad record in file order, with the first rule that record
    breaks, or the line of the first byte that is not UTF-8.
    """
    data, starts, ends, linenos, counts, _ = _records(_read_text(path))
    # (record index, rule rank, message): the earliest record wins, then the
    # rule listed first. Records from the first one that cannot be parsed
    # on are not checked further.
    problems = []
    short = np.flatnonzero(counts != 4)
    limit = int(short[0]) if short.size else len(counts)
    if limit < len(counts):
        problems.append((limit, 0, f"expected 4 fields, got {counts[limit]}"))
    values = _column(int, data, starts[: 4 * limit], ends[: 4 * limit])
    if len(values) < 4 * limit:
        limit = len(values) // 4
        problems.append((limit, 1, "fields must be unsigned integers"))
    table = values[: 4 * limit].reshape(-1, 4)
    too_big = np.zeros(len(table), dtype=bool)
    if table.dtype == object:  # a value outside int64: Python ints, compared exactly
        too_big = (table[:, :2] >= 1 << 63).any(axis=1)
    cid, tri, w, h = table.T
    rules = (
        ((cid < 0) | (tri < 0), lambda i: "ids must be non-negative"),
        (too_big, lambda i: "ids must be below 2^63"),
        (
            (w < 1) | (w > MAX_BOX_DIM) | (h < 1) | (h > MAX_BOX_DIM),
            lambda i: f"box dimensions must be in [1, {MAX_BOX_DIM}] "
            f"(chart {cid[i]}: {w[i]}x{h[i]})",
        ),
        (repeated(cid), lambda i: f"duplicate chart_id {cid[i]}"),
        (repeated(tri), lambda i: f"duplicate min_tri {tri[i]}"),
    )
    for rank, (bad, message) in enumerate(rules, start=2):
        hits = np.flatnonzero(bad)
        if hits.size:
            problems.append((int(hits[0]), rank, message(int(hits[0]))))
    if problems:
        i, _, message = min(problems)
        raise InputError(f"{path}:{linenos[i]}: {message}")
    return table


def write_box_file(boxes: Sequence[ChartBox], path) -> None:
    lines = ["# chart_id min_tri w h"]
    for b in boxes:
        lines.append(f"{b.chart_id} {b.min_tri} {b.target_w} {b.target_h}")
    _write_atomic(path, "\n".join(lines) + "\n")


def generate_boxes(count: int, omega: int, rng: np.random.Generator) -> list[ChartBox]:
    """Seeded heavy-tailed box set: dims in 1..omega, a few large dominate."""
    u = rng.random((count, 2))
    dims = np.clip((omega * u**3).astype(np.int64), 1, omega)
    min_tris = rng.choice(max(count * 8, 8), size=count, replace=False)
    return [
        ChartBox(
            target_w=int(dims[i, 0]),
            target_h=int(dims[i, 1]),
            chart_id=i,
            min_tri=int(min_tris[i]),
        )
        for i in range(count)
    ]


# --- layout files -----------------------------------------------------------


def write_layout_file(layout: AtlasLayout, path) -> LayoutDigest:
    """Canonical text serialization: header keys, then the table rows in chart-id order.

    Returns the layout's digest, as written in the header.
    """
    digest = layout_digest(layout)
    table = layout.table
    header = [
        "# atlaspack layout v1",
        f"version {__version__}",
        f"omega {layout.omega}",
        f"scale {layout.scale.numerator}/{layout.scale.denominator}",
        f"digest_algorithm {DIGEST_ALGORITHM}",
        f"digest {digest.digest}",
        f"count {len(table)}",
        "# chart_id x y w h rotated target_w target_h",
    ]
    rows = ("%d %d %d %d %d %d %d %d\n" * len(table)) % tuple(table.ravel().tolist())
    _write_atomic(path, "\n".join(header) + "\n" + rows)
    return digest


def parse_layout_file(path) -> AtlasLayout:
    """Read a layout file, checking omega, containment, count and digest.

    A record of two tokens whose first is not a number, signed or not, is a
    header line. Raises InputError naming the file (and line, for a placement).
    """
    data, starts, ends, linenos, counts, _ = _records(_read_text(path))
    first = np.cumsum(counts) - counts
    pairs = np.flatnonzero(counts == 2)
    # Only spaces lie between the two tokens of a record.
    words = [data[starts[k] : ends[k + 1]].decode().split() for k in first[pairs].tolist()]
    is_header = np.zeros(len(counts), dtype=bool)
    is_header[pairs] = [not (key[1:] if key[0] in "+-" else key).isdigit() for key, _ in words]
    header = dict(word for word, head in zip(words, is_header[pairs]) if head)
    placements = np.flatnonzero(~is_header)
    # (placement, rule rank, message): the first bad placement in file
    # order, with the first rule it breaks.
    problems = []
    wrong = np.flatnonzero(counts[placements] != 8)
    if wrong.size:
        problems.append((wrong[0], 0, "expected 8 placement fields"))
    read = np.zeros(len(counts), dtype=bool)
    read[placements[: wrong[0] if wrong.size else len(placements)]] = True
    fields = np.repeat(read, counts)
    starts, ends = starts[fields], ends[fields]  # which frees the offsets of the rest
    values = _column(int, data, starts, ends)
    if len(values) < 8 * read.sum():
        problems.append((len(values) // 8, 1, "placement fields must be integers"))
    table = values[: len(values) // 8 * 8].reshape(-1, 8)
    if table.dtype == object:  # a value outside int64, kept as a Python int
        wide = np.flatnonzero(((table < -(1 << 63)) | (table >= 1 << 63)).any(axis=1))
        problems += [(i, 2, "placement field outside the int64 range") for i in wide[:1]]
    if problems:
        i, _, message = min(problems)
        raise InputError(f"{path}:{linenos[placements[i]]}: {message}")
    for key in ("omega", "scale", "count"):
        if key not in header:
            raise InputError(f"{path}: missing header key '{key}'")
    try:
        omega = int(header["omega"])
        _check_omega(omega)
        scale = Fraction(header["scale"])
        if not (scale.numerator in _INT64_RANGE and scale.denominator in _INT64_RANGE):
            raise ValueError(f"scale {scale} has a term outside the int64 range")
        count = int(header["count"])
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{path}: bad header value: {exc}") from None
    table[:, 5] = table[:, 5] != 0
    x, y, w, h = table[:, 1:5].T
    # omega - w cannot wrap where w >= 1, and a row with w < 1 is bad anyway.
    outside = (x < 0) | (y < 0) | (w < 1) | (h < 1) | (x > omega - w) | (y > omega - h)
    bad = np.flatnonzero(outside)
    if bad.size:
        i = bad[0]
        raise InputError(
            f"{path}:{linenos[placements[i]]}: placement {w[i]}x{h[i]} at ({x[i]}, {y[i]}) is not "
            f"inside [0, {omega}]^2"
        )
    if len(table) != count:
        raise InputError(f"{path}: count says {count} placements, found {len(table)}")
    layout = AtlasLayout(omega=omega, scale=scale, table=table)
    if "digest" in header and layout_digest(layout).digest != header["digest"]:
        raise InputError(f"{path}: digest mismatch, file corrupted or edited")
    return layout


# --- scene configuration ----------------------------------------------------


@dataclass
class SceneConfig:
    """Scene description: mesh path, camera, screen, and packing knobs."""

    mesh_path: Path
    fov_y_deg: float = 60.0
    aspect: float | None = None
    near: float = 0.1
    far: float = 1000.0
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    look_at: tuple[float, float, float] = (0.0, 0.0, -1.0)
    up: tuple[float, float, float] = (0.0, 1.0, 0.0)
    screen: tuple[int, int] = (1920, 1080)
    omega: int = 2048
    n_scales: int = 64
    min_dim: int = 1
    padding: int = 0
    backface_cull: bool = True
    prescale: float = 1.0

    def camera(self) -> CameraFrame:
        aspect = self.aspect if self.aspect is not None else self.screen[0] / self.screen[1]
        return CameraFrame.from_params(
            fov_y=math.radians(self.fov_y_deg),
            aspect=aspect,
            near=self.near,
            far=self.far,
            position=self.position,
            look_at=self.look_at,
            up=self.up,
        )


# The words of an on/off scene value, in any case.
_ON, _OFF = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _switch(word: str) -> bool:
    """An on/off scene value; any other word raises ValueError."""
    if word.lower() not in _ON + _OFF:
        raise ValueError(f"expected one of {', '.join(_ON + _OFF)}, got '{word}'")
    return word.lower() in _ON


# Scene file key -> (SceneConfig field, value count, converter, the flag
# that overrides it and its help, or None), in the order the values are
# converted.
_SCENE_KEYS = {
    "fov_y": ("fov_y_deg", 1, float, None, None),
    "aspect": ("aspect", 1, float, None, None),
    "near": ("near", 1, float, None, None),
    "far": ("far", 1, float, None, None),
    "position": ("position", 3, float, None, None),
    "look_at": ("look_at", 3, float, None, None),
    "up": ("up", 3, float, None, None),
    "screen": ("screen", 2, int, "--res", "screen size in pixels"),
    "omega": ("omega", 1, int, "--omega", "atlas side (power of two)"),
    "scales": ("n_scales", 1, int, "--scales", "number of scale candidates"),
    "min_dim": ("min_dim", 1, int, "--min-dim", "minimum placed dimension"),
    "padding": ("padding", 1, int, "--padding", "gutter texels per side"),
    "backface_cull": ("backface_cull", 1, _switch, None, None),
    "prescale": ("prescale", 1, float, "--prescale", "shading-rate box prescale"),
}


def scene_config_problem(cfg: SceneConfig) -> tuple[str, str] | None:
    """First out-of-range value of ``cfg`` as (scene file key, message), or None.

    Run before any raster work, so a bad value costs no depth pass.
    """
    return _knob_problem(cfg) or _camera_problem(cfg)


def _knob_problem(cfg: SceneConfig) -> tuple[str, str] | None:
    """scene_config_problem of the values a flag can also give: packing and screen."""
    try:
        _check_omega(cfg.omega)
    except ValueError as exc:
        return "omega", str(exc)
    if not 1 <= cfg.n_scales <= MAX_SCALES:
        return "scales", f"scales must be in [1, {MAX_SCALES}], got {cfg.n_scales}"
    if not 1 <= cfg.min_dim <= MAX_BOX_DIM:
        return "min_dim", f"min_dim must be in [1, {MAX_BOX_DIM}], got {cfg.min_dim}"
    if not 0 <= cfg.padding <= MAX_BOX_DIM:
        return "padding", f"padding must be in [0, {MAX_BOX_DIM}], got {cfg.padding}"
    if not (math.isfinite(cfg.prescale) and cfg.prescale > 0):
        return "prescale", f"prescale must be a positive number, got {cfg.prescale}"
    w, h = cfg.screen
    if not (1 <= w <= MAX_SCREEN and 1 <= h <= MAX_SCREEN):
        return "screen", f"screen sides must be in [1, {MAX_SCREEN}], got {w}x{h}"
    if w * h > MAX_SCREEN_PIXELS:
        return "screen", f"screen must have at most {MAX_SCREEN_PIXELS} pixels, got {w}x{h}"
    return None


def _camera_problem(cfg: SceneConfig) -> tuple[str, str] | None:
    """scene_config_problem of the camera: finite values that make a finite CameraFrame.

    CameraFrame states the lens and pose rules, and each of its messages
    starts with the scene key it names.
    """
    for key in ("fov_y", "aspect", "near", "far", "position", "look_at", "up"):
        value = getattr(cfg, _SCENE_KEYS[key][0])
        if value is not None and not np.all(np.isfinite(value)):
            return key, f"{key} must be finite, got {' '.join(map(str, np.ravel(value)))}"
    with np.errstate(all="ignore"):  # a matrix that overflows is reported, not warned of
        try:
            cam = cfg.camera()
        except ValueError as exc:
            return str(exc).split()[0], str(exc)
        if not np.all(np.isfinite(cam.view)):
            return "position", "position and look_at give a view matrix that is not finite"
        if not np.all(np.isfinite(cam.view_proj)):
            return "fov_y", "fov_y and the other camera values give a non-finite projection"
    return None


def parse_scene_config(path) -> SceneConfig:
    """Key-value scene file; unknown keys are rejected with their line.

    Values are range-checked with scene_config_problem.
    """
    path = Path(path)
    tokens, linenos, counts = records(_read_text(path))
    values: dict[str, tuple[int, list[str]]] = {}
    for lineno, end, n in zip(linenos.tolist(), np.cumsum(counts).tolist(), counts.tolist()):
        key, *rest = tokens[end - n : end]
        if not rest:
            raise InputError(f"{path}:{lineno}: key '{key}' has no value")
        if key in values:
            raise InputError(f"{path}:{lineno}: duplicate key '{key}'")
        values[key] = lineno, rest

    if "mesh" not in values:
        raise InputError(f"{path}: missing required key 'mesh'")
    cfg = SceneConfig(mesh_path=Path())
    mesh = ("mesh_path", 1, lambda v: (path.parent / v).resolve())
    for key, (name, n, conv, *_) in {"mesh": mesh, **_SCENE_KEYS}.items():
        if key not in values:
            continue
        lineno, rest = values.pop(key)
        if len(rest) != n:
            raise InputError(f"{path}:{lineno}: key '{key}' expects {n} values")
        try:
            out = tuple(conv(v) for v in rest)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        setattr(cfg, name, out[0] if n == 1 else out)
    if values:
        raise InputError(f"{path}: unknown keys: {', '.join(sorted(values))}")
    problem = scene_config_problem(cfg)
    if problem is not None:
        raise InputError(f"{path}: {problem[1]}")
    return cfg


# --- packer registry --------------------------------------------------------


def make_packer(
    name: str, cfg: SceneConfig, block_size: int | None = None
) -> Callable[[Sequence[ChartBox]], AtlasLayout]:
    """The packer ``name`` as a function of the boxes, with ``cfg``'s omega and packing knobs."""
    knobs = dict(n_scales=cfg.n_scales, min_dim=cfg.min_dim, padding=cfg.padding)
    if name == "fastatlas":
        return lambda boxes: pack(boxes, cfg.omega, **knobs)
    if name == "sequential":
        return lambda boxes: sequential_scale_search(boxes, cfg.omega, **knobs)
    if name == "superblock":
        size = default_block_size(cfg.omega) if block_size is None else block_size

        def run(boxes):
            try:
                layout = superblock_pack(boxes, cfg.omega, size)
            except ValueError as exc:  # a size that is not a power of two or exceeds omega
                raise ValueError(f"--block-size: {exc}") from None
            if layout is None:
                raise PackFailure("superblock allocation failed at the halving floor")
            return layout

        return run
    raise InputError(f"unknown packer '{name}' (choose from {', '.join(PACKER_NAMES)})")


# --- scene pipeline ---------------------------------------------------------


@dataclass
class Frame:
    """One frame's work before packing: visible charts and one box per chart.

    ``boxes`` is the (n, 4) box table of every chart, in chart order. Row i
    of the (n, 2) ``chart_px`` is the width and height in pixels of box i's
    screen box, and ``chart_area[i]`` the screen area of box i's triangles
    that lie fully in front of the camera plane: the weight of its stretch.
    Both are computed once per frame, whatever the number of packs.
    """

    config: SceneConfig
    mesh: Mesh
    chart_set: ChartSet
    boxes: np.ndarray
    chart_px: np.ndarray
    chart_area: np.ndarray
    screen_fragments: int
    n_visible: int

    def placed(self, layout: AtlasLayout) -> tuple[np.ndarray, np.ndarray]:
        """``chart_px`` and ``chart_area`` of each placement of ``layout``, looked up by chart id."""
        i = np.searchsorted(self.boxes[:, 0], layout.table[:, 0])
        return self.chart_px[i], self.chart_area[i]


@dataclass
class SceneResult(Frame):
    """A packed frame, with its stretch and allocated texels."""

    layout: AtlasLayout
    stretch: StretchReport | None
    texels_allocated: int


def frame_charts(cfg: SceneConfig) -> Frame:
    """One projection, depth prepass, visibility, chartification, chart boxes and areas.

    One set-up of the vertices, projected once, gives the raster passes and chart boxes its
    polygons, and the chart areas its vertices' front flags and pixel positions. Both passes
    read the bands of charts.screen_bands, which checks the set-up once a frame: each band's
    depth is counted and freed before the next band's is made, and its visibility pass flags
    only the triangles no earlier band flagged. Raises NothingVisible when no triangle passes
    the depth test, and HeightOverflow when a chart box is taller than any packer takes.
    """
    mesh = load_obj(cfg.mesh_path)
    vclip = clip_coords(mesh.positions, cfg.camera())
    setup, front, pixels = screen_setup(vclip, mesh.triangles, cfg.screen, cfg.backface_cull)
    flags, screen_fragments = np.zeros(mesh.n_triangles, dtype=bool), 0
    for band in screen_bands(setup, cfg.screen):
        depth = depth_prepass(band)
        flags |= mark_visible(band, depth, flags).flags
        screen_fragments += int(np.isfinite(depth).sum())
        del depth  # freed before the next band's is filled
    n_visible = int(flags.sum())
    if n_visible == 0:
        raise NothingVisible("no triangle covers a depth-passing sample")
    cs = merge_shared_vertices(connected_charts(mesh, VisibilityBuffer(flags)), mesh)
    lo, hi = chart_bbox(setup, cs)
    # The viewport transform maps [-1, 1]^2 to the screen; every extent is
    # rounded up, and a degenerate box still claims one pixel per axis.
    chart_px = np.maximum(1, np.ceil((hi - lo) / 2.0 * cfg.screen))
    # Compared as floats: a huge prescale gives sides past the int64 range.
    with np.errstate(over="ignore"):
        sides = np.maximum(1, np.ceil(cfg.prescale * chart_px))
    if np.any(sides > MAX_BOX_DIM):
        raise HeightOverflow(
            f"box height exceeds capacity {MAX_BOX_DIM} at prescale {cfg.prescale:g}"
        )
    # A triangle with a vertex at or behind the camera plane has no
    # well-defined projection, and adds no area.
    labels = cs.chart_of_triangle
    shown = np.flatnonzero((labels >= 0) & np.all(front[mesh.triangles], axis=1))
    a, b, c = pixels[mesh.triangles[shown]].transpose(1, 2, 0)
    area = np.abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])) / 2.0
    chart_area = np.bincount(labels[shown], weights=area, minlength=len(labels))
    return Frame(
        config=cfg,
        mesh=mesh,
        chart_set=cs,
        boxes=np.column_stack([cs.ids, cs.ids, sides.astype(np.int64)]),
        chart_px=chart_px.astype(np.int64),
        chart_area=chart_area[cs.ids],
        screen_fragments=screen_fragments,
        n_visible=n_visible,
    )


def run_scene_pipeline(cfg: SceneConfig, packer: str = "fastatlas") -> SceneResult:
    """frame_charts, then one pack of its boxes with ``cfg``'s knobs, the stretch and the texels."""
    frame = frame_charts(cfg)
    layout = make_packer(packer, cfg)(frame.boxes)
    content = _content_sides(layout, cfg.padding)
    screen, area = frame.placed(layout)
    return SceneResult(
        **vars(frame),
        layout=layout,
        stretch=_stretch_report(screen, content, area),
        texels_allocated=int(np.prod(content, axis=1).sum()),
    )


def _content_sides(layout: AtlasLayout, padding: int) -> np.ndarray:
    """(n, 2) int64 sides of each placement inside its padding, unrotated.

    Superblock layouts are never padded, whatever padding was asked for.
    """
    if isinstance(layout, SuperblockLayout):
        padding = 0
    t = layout.table
    sides = np.where(t[:, 5:6] == 1, t[:, [4, 3]], t[:, [3, 4]])
    return sides - 2 * padding


def _stretch_report(screen_wh, content_wh, area) -> StretchReport | None:
    """Stretch of placements onto their screen rectangles, or None when no row has area.

    Row i fills a content rectangle of ``content_wh[i]`` texels from a
    screen rectangle of ``screen_wh[i]`` pixels by one axis-aligned
    scaling, so all of its triangles share the two singular values, and
    ``area[i]`` weighs the row.
    """
    try:
        return scene_stretch(screen_wh, content_wh, area)
    except NoValidTriangles:
        return None


def write_charts_file(cs: ChartSet, path) -> None:
    t = np.flatnonzero(cs.chart_of_triangle >= 0)
    v = np.flatnonzero(cs.vertex_to_chart >= 0)
    text = "# chart assignments v1\n# t <triangle> <chart>  /  v <vertex> <chart>\n"
    for kind, ids, chart in (("t", t, cs.chart_of_triangle), ("v", v, cs.vertex_to_chart)):
        pairs = np.column_stack([ids, chart[ids]]).ravel().tolist()
        text += (f"{kind} %d %d\n" * len(ids)) % tuple(pairs)
    _write_atomic(path, text)


# --- SVG rendering ----------------------------------------------------------


def render_svg(layout: AtlasLayout, path) -> None:
    """Vector rendering of the atlas: one rectangle per placement."""
    om = layout.omega
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {om} {om}" '
        f'width="800" height="800">',
        f'<rect x="0" y="0" width="{om}" height="{om}" fill="#181818"/>',
    ]
    stroke = max(om / 800.0, 0.5)
    for chart_id, x, y, w, h, *_ in layout.table.tolist():
        parts.append(
            f'<rect x="{x}" y="{y}" width="{w}" height="{h}" '
            f'fill="{_chart_color(chart_id)}" stroke="#000" stroke-width="{stroke:g}"/>'
        )
    parts.append("</svg>")
    _write_atomic(path, "\n".join(parts) + "\n")


def _chart_color(chart_id: int) -> str:
    hue = (chart_id * 0.6180339887498949) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.55, 0.92)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


# --- output helpers ---------------------------------------------------------


def _out_path(prefix, suffix: str) -> Path:
    prefix = Path(prefix)
    return prefix.parent / (prefix.name + suffix)


def _write_atomic(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomic(path, buf.getvalue())


def _scale_fields(layout: AtlasLayout):
    return [layout.scale.numerator, layout.scale.denominator, float(layout.scale)]


# --- subcommands ------------------------------------------------------------


def _with_flags(cfg: SceneConfig, values: dict, source) -> SceneConfig:
    """``cfg`` with each scene key whose flag was given set to the flag's value, then checked.

    ``values`` maps names to values, as ``vars`` of the parsed arguments: each
    flag of _SCENE_KEYS is stored under its scene key, None when not given,
    and other names are ignored. Raises InputError with the first
    _knob_problem, or _camera_problem after a new screen, naming the flag
    that gave the bad value, or ``source`` when ``cfg`` did.
    """
    given = {key: values[key] for key in _SCENE_KEYS if values.get(key) is not None}
    cfg = replace(cfg, **{_SCENE_KEYS[key][0]: value for key, value in given.items()})
    problem = _knob_problem(cfg)
    if problem is None and "screen" in given:  # a camera without an aspect takes the screen's
        problem = _camera_problem(cfg)
    if problem is not None:
        key, message = problem
        raise InputError(f"{_SCENE_KEYS[key][3] if key in given else source}: {message}")
    return cfg


def _cmd_pack_boxes(args) -> int:
    cfg = _with_flags(SceneConfig(Path()), vars(args), "defaults")
    layout = make_packer(args.packer, cfg, args.block_size)(parse_box_file(args.input))
    prefix = Path(args.out or Path(args.input).with_suffix(""))
    digest = write_layout_file(layout, _out_path(prefix, ".layout.txt"))
    efficiency = packing_efficiency(layout)
    _write_csv(
        _out_path(prefix, ".metrics.csv"),
        ["tool_version", "packer", "omega", "n_boxes", "scale_num", "scale_den", "scale",
         "efficiency", "digest_algorithm", "digest"],
        [[__version__, args.packer, layout.omega, len(layout.table),
          *_scale_fields(layout), efficiency, DIGEST_ALGORITHM, digest.digest]],
    )
    if args.svg:
        render_svg(layout, _out_path(prefix, ".atlas.svg"))
    print(
        f"packed {len(layout.table)} boxes into {layout.omega}x{layout.omega} "
        f"at scale {layout.scale} (efficiency {efficiency:.4f})"
    )
    return EXIT_OK


def _cmd_atlas_scene(args) -> int:
    cfg = _with_flags(parse_scene_config(args.scene), vars(args), args.scene)
    result = run_scene_pipeline(cfg, packer=args.packer)
    prefix = Path(args.out or Path(args.scene).with_suffix(""))
    layout = result.layout
    digest = write_layout_file(layout, _out_path(prefix, ".layout.txt"))
    efficiency = packing_efficiency(layout)
    write_charts_file(result.chart_set, _out_path(prefix, ".charts.txt"))
    stretch = result.stretch
    _write_csv(
        _out_path(prefix, ".metrics.csv"),
        ["tool_version", "omega", "n_charts", "n_visible_triangles", "scale_num", "scale_den",
         "scale", "efficiency", "l2_stretch", "linf_stretch", "screen_fragments",
         "texels_allocated", "texels_per_fragment", "fragments_per_texel", "digest"],
        [[__version__, layout.omega, result.chart_set.n_charts, result.n_visible,
          *_scale_fields(layout), efficiency,
          stretch.l2 if stretch else "", stretch.linf if stretch else "",
          result.screen_fragments, result.texels_allocated,
          result.texels_allocated / result.screen_fragments,
          result.screen_fragments / result.texels_allocated if result.texels_allocated else "",
          digest.digest]],
    )
    if args.svg:
        render_svg(layout, _out_path(prefix, ".atlas.svg"))
    print(
        f"{result.chart_set.n_charts} charts from {result.n_visible} visible triangles; "
        f"scale {layout.scale}, efficiency {efficiency:.4f}"
    )
    return EXIT_OK


def _packer_list(text: str) -> list[str]:
    """compare's --packer: comma-separated packer names, at least one."""
    packers = [p.strip() for p in text.split(",") if p.strip()]
    if packers and set(packers) <= set(PACKER_NAMES):
        return packers
    raise argparse.ArgumentTypeError(f"expected names from {', '.join(PACKER_NAMES)}, got {text!r}")


def _cmd_compare(args) -> int:
    try:
        omegas = [int(o) for o in args.omegas.split(",")]
    except ValueError:
        message = f"--omega: expected comma-separated integers, got {args.omegas!r}"
        raise InputError(message) from None
    is_scene = _looks_like_scene(args.input)
    cfg = parse_scene_config(args.input) if is_scene else SceneConfig(Path())
    cfg = _with_flags(cfg, vars(args), args.input)
    runs = [_with_flags(cfg, {"omega": omega}, args.input) for omega in omegas]
    frame = frame_error = None
    if is_scene:
        try:
            frame = frame_charts(cfg)
            boxes = frame.boxes
        except (PackingError, NothingVisible) as exc:  # a failure row per packer and omega
            frame_error = exc
    else:
        boxes = parse_box_file(args.input)
    rows = []
    any_ok = False
    for run in runs:
        for name in args.packer:
            t0 = time.perf_counter()
            try:
                if frame_error is not None:
                    raise frame_error
                layout = make_packer(name, run, args.block_size)(boxes)
            except (PackingError, NothingVisible) as exc:
                print(f"{name}@{run.omega}: {exc}", file=sys.stderr)
                rows.append([name, run.omega, "failed", "", "", "", "", "", "", ""])
                continue
            if frame is None:  # a box is its own screen rectangle, weighted by half its area
                screen = layout.table[:, 6:8]
                area = screen.prod(axis=1) / 2.0
            else:
                screen, area = frame.placed(layout)
            stretch = _stretch_report(screen, _content_sides(layout, run.padding), area)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            any_ok = True
            block = layout.block_size if isinstance(layout, SuperblockLayout) else ""
            rows.append(
                [name, run.omega, "ok", len(boxes), float(layout.scale),
                 packing_efficiency(layout),
                 stretch.l2 if stretch else "", stretch.linf if stretch else "",
                 block, f"{wall_ms:.3f}"]
            )
    _write_csv(
        args.out,
        ["packer", "omega", "status", "n_boxes", "scale", "efficiency", "l2_stretch",
         "linf_stretch", "block_size", "wall_ms"],
        rows,
    )
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK if any_ok else EXIT_PACK_FAILURE


def _looks_like_scene(path) -> bool:
    """Whether the first record of ``path``, read up to its line end, is not a
    box: four fields that ``int`` reads, as ``parse_box_file`` reads them."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            tokens, _, counts = records(line.encode())
            if len(counts):
                try:
                    return len([int(t) for t in tokens]) != 4
                except ValueError:
                    return True
    return False


def _cmd_gen_boxes(args) -> int:
    if not 0 <= args.count <= MAX_GEN_COUNT:
        raise ValueError(f"--count: count must be in [0, {MAX_GEN_COUNT}], got {args.count}")
    omega = _with_flags(SceneConfig(Path()), vars(args), "defaults").omega
    if args.seed < 0:
        raise ValueError(f"--seed: seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    boxes = generate_boxes(args.count, omega, rng)
    write_box_file(boxes, args.out)
    print(f"wrote {len(boxes)} boxes to {args.out}")
    return EXIT_OK


# --- argument parsing -------------------------------------------------------


def _parse_res(text: str) -> tuple[int, int]:
    try:
        w, _, h = text.lower().partition("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError("resolution must look like 1920x1080") from None


def _add_flags(parser: argparse.ArgumentParser, *keys: str, required: bool = False) -> None:
    """Declare the flag of each scene key in ``keys``, stored under the key, None if not given."""
    for key in keys:
        _, n, conv, flag, help = _SCENE_KEYS[key]
        kind = dict(type=conv) if n == 1 else dict(type=_parse_res, metavar="WxH")
        parser.add_argument(flag, dest=key, required=required, help=help, **kind)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, whose usage errors
    raise InputError, so a malformed or missing flag exits 1, not argparse's 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state in it."""
    parser = _Parser(
        prog="atlaspack",
        description="Pack per-frame chart boxes into fixed-size texture atlases.",
    )
    parser.add_argument("--version", action="version", version=f"atlaspack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("pack-boxes", help="pack a box list file")
    pb.add_argument("input", help="box list file: chart_id min_tri w h per line")
    _add_flags(pb, "omega", required=True)
    _add_flags(pb, "scales", "min_dim", "padding")
    pb.add_argument("--packer", choices=PACKER_NAMES, default="fastatlas")
    pb.add_argument("--block-size", type=int, default=None, help="superblock size override")
    pb.add_argument("--svg", action="store_true", help="also render the atlas as SVG")
    pb.add_argument("--out", default=None, help="output prefix (default: input stem)")
    pb.set_defaults(func=_cmd_pack_boxes)

    sc = sub.add_parser("atlas-scene", help="run the full pipeline on a scene")
    sc.add_argument("scene", help="scene config file (key value lines)")
    _add_flags(sc, "omega", "scales", "min_dim", "padding", "screen", "prescale")
    sc.add_argument("--packer", choices=PACKER_NAMES, default="fastatlas")
    sc.add_argument("--svg", action="store_true")
    sc.add_argument("--out", default=None)
    sc.set_defaults(func=_cmd_atlas_scene)

    cp = sub.add_parser("compare", help="compare packers on a scene or box list")
    cp.add_argument("input", help="scene config or box list file")
    packers = ",".join(PACKER_NAMES)
    cp.add_argument("--packer", type=_packer_list, default=packers, help="comma-separated packers")
    cp.add_argument("--omega", dest="omegas", required=True, help="comma-separated atlas sides")
    _add_flags(cp, "scales", "min_dim", "padding")
    cp.add_argument("--block-size", type=int, default=None)
    cp.add_argument("--out", default="compare.csv")
    cp.set_defaults(func=_cmd_compare)

    gb = sub.add_parser("gen-boxes", help="generate a seeded heavy-tailed box list")
    gb.add_argument("--count", type=int, required=True)
    _add_flags(gb, "omega", required=True)
    gb.add_argument("--seed", type=int, default=0)
    gb.add_argument("--out", required=True)
    gb.set_defaults(func=_cmd_gen_boxes)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; each error it raises maps to its exit code here."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, InputError, ValueError) as exc:  # bad input, or an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except PackingError as exc:
        print(f"pack failure: {exc}", file=sys.stderr)
        return EXIT_PACK_FAILURE
    except NothingVisible as exc:
        print(f"nothing visible: {exc}", file=sys.stderr)
        return EXIT_NOTHING_VISIBLE
    except MemoryError as exc:  # a frame or input too large for the memory at hand
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
