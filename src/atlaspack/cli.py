"""Command-line front end: ingestion, pipeline orchestration, reports.

Subcommands:
  pack-boxes   pack a box list file into an atlas layout
  atlas-scene  run the full per-frame pipeline on an OBJ scene
  compare      run several packers over a scene or box list
  gen-boxes    emit a seeded heavy-tailed synthetic box list

File formats are line-oriented text with '#' comments; layouts round-trip
losslessly and all outputs are written atomically (temp file + rename).
Exit codes: 0 success, 1 malformed input, 2 packing failure, 3 nothing
visible in the scene.
"""

from __future__ import annotations

import argparse
import colorsys
import csv
import itertools
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
    SUPERBLOCK_FLOOR,
    SuperblockLayout,
    sequential_scale_search,
    superblock_pack,
)
from .charts import (
    ChartSet,
    Mesh,
    connected_charts,
    depth_prepass,
    load_obj,
    mark_visible,
    merge_shared_vertices,
)
from .geometry import (
    CameraFrame,
    DegenerateChart,
    W_EPSILON,
    chart_bbox,
    clip_coords,
    viewport_box,
)
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

# Largest screen side; the depth buffer is a height x width float64 array.
MAX_SCREEN = 1 << 14

# Box ids, layout fields and scale terms are stored or hashed as signed
# 64-bit integers.
_INT64_RANGE = range(-(1 << 63), 1 << 63)


class InputError(Exception):
    """Malformed input file; message names the offending record."""


class NothingVisible(Exception):
    """The camera sees no triangle at all."""


# --- box list files ---------------------------------------------------------


def parse_box_file(path) -> np.ndarray:
    """Read a box file into an (n, 4) int64 box table, ``chart_id min_tri w h``.

    One record per line, in file order; '#' starts a comment. Ids must be
    distinct and in [0, 2^63), sides in [1, MAX_BOX_DIM]. The records are
    parsed as whole columns and each rule is checked on a whole column.
    Raises InputError naming the file and line of the first bad record in
    file order, with the first rule that record breaks.
    """
    with open(path, "r", encoding="utf-8") as fh:
        fields = [line.partition("#")[0].split() for line in fh.read().split("\n")]
    linenos = [n for n, f in enumerate(fields, start=1) if f]
    fields = [f for f in fields if f]
    # (record index, rule rank, message): the earliest record wins, then the
    # rule listed first. Records from the first one that cannot be parsed
    # on are not checked further.
    problems = []
    limit = next((i for i, f in enumerate(fields) if len(f) != 4), len(fields))
    if limit < len(fields):
        problems.append((limit, 0, f"expected 4 fields, got {len(fields[limit])}"))
    tokens = [v for f in fields[:limit] for v in f]
    try:
        values = list(map(int, tokens))
    except ValueError:
        values = []
        for v in tokens:
            try:
                values.append(int(v))
            except ValueError:
                break
        limit = len(values) // 4
        del values[4 * limit :]
        problems.append((limit, 1, "fields must be unsigned integers"))
    try:
        table = np.array(values, dtype=np.int64).reshape(-1, 4)
        too_big = np.zeros(len(table), dtype=bool)
    except OverflowError:  # checked as Python ints, then rejected below
        table = np.array(values, dtype=object).reshape(-1, 4)
        # Compared as Python ints: NumPy 1.x compares int64 with 2^63 in float64.
        too_big = np.array([max(ids) >= 1 << 63 for ids in table[:, :2].tolist()], dtype=bool)
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

    Raises InputError naming the file (and line, for a placement).
    """
    header: dict[str, str] = {}
    rows: list[tuple[int, ...]] = []
    linenos: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if not parts[0].isdigit() and len(parts) == 2:
                header[parts[0]] = parts[1]
                continue
            if len(parts) != 8:
                raise InputError(f"{path}:{lineno}: expected 8 placement fields")
            try:
                row = tuple(int(p) for p in parts)
            except ValueError:
                raise InputError(f"{path}:{lineno}: placement fields must be integers") from None
            if not all(v in _INT64_RANGE for v in row):
                raise InputError(f"{path}:{lineno}: placement field outside the int64 range")
            rows.append(row)
            linenos.append(lineno)
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
    table = np.array(rows, dtype=np.int64).reshape(-1, 8)
    table[:, 5] = table[:, 5] != 0
    x, y, w, h = table[:, 1:5].T
    # omega - w cannot wrap where w >= 1, and a row with w < 1 is bad anyway.
    outside = (x < 0) | (y < 0) | (w < 1) | (h < 1) | (x > omega - w) | (y > omega - h)
    bad = np.flatnonzero(outside)
    if bad.size:
        i = bad[0]
        raise InputError(
            f"{path}:{linenos[i]}: placement {w[i]}x{h[i]} at ({x[i]}, {y[i]}) is not "
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


# Scene file key -> (SceneConfig field, value count, converter), in the
# order the values are converted.
_SCENE_KEYS = {
    "fov_y": ("fov_y_deg", 1, float),
    "aspect": ("aspect", 1, float),
    "near": ("near", 1, float),
    "far": ("far", 1, float),
    "position": ("position", 3, float),
    "look_at": ("look_at", 3, float),
    "up": ("up", 3, float),
    "screen": ("screen", 2, int),
    "omega": ("omega", 1, int),
    "scales": ("n_scales", 1, int),
    "min_dim": ("min_dim", 1, int),
    "padding": ("padding", 1, int),
    "backface_cull": ("backface_cull", 1, lambda v: v.lower() in ("1", "true", "yes", "on")),
    "prescale": ("prescale", 1, float),
}


def scene_config_problem(cfg: SceneConfig) -> tuple[str, str] | None:
    """First out-of-range value of ``cfg`` as (scene file key, message), or None.

    Run before any raster work, so a bad value costs no depth pass.
    """
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
    if not cfg.near < cfg.far:
        return "near", "near must be less than far"
    return None


def parse_scene_config(path) -> SceneConfig:
    """Key-value scene file; unknown keys are rejected with their line.

    Values are range-checked with scene_config_problem.
    """
    path = Path(path)
    values: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, *rest = line.split()
            if not rest:
                raise InputError(f"{path}:{lineno}: key '{key}' has no value")
            if key in values:
                raise InputError(f"{path}:{lineno}: duplicate key '{key}'")
            values[key] = rest

    if "mesh" not in values:
        raise InputError(f"{path}: missing required key 'mesh'")
    cfg = SceneConfig(mesh_path=(path.parent / values.pop("mesh")[0]).resolve())
    for key, (name, n, conv) in _SCENE_KEYS.items():
        if key not in values:
            continue
        rest = values.pop(key)
        if len(rest) != n:
            raise InputError(f"{path}: key '{key}' expects {n} values")
        try:
            out = tuple(conv(v) for v in rest)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None
        setattr(cfg, name, out[0] if n == 1 else out)
    if values:
        raise InputError(f"{path}: unknown keys: {', '.join(sorted(values))}")
    problem = scene_config_problem(cfg)
    if problem is not None:
        raise InputError(f"{path}: {problem[1]}")
    return cfg


# --- packer registry --------------------------------------------------------


def default_block_size(omega: int) -> int:
    return max(SUPERBLOCK_FLOOR, min(omega, omega // 8))


def make_packer(
    name: str, n_scales: int, min_dim: int, padding: int, block_size: int | None = None
) -> Callable[[Sequence[ChartBox], int], AtlasLayout]:
    if name == "fastatlas":
        return lambda boxes, omega: pack(
            boxes, omega, n_scales=n_scales, min_dim=min_dim, padding=padding
        )
    if name == "sequential":
        return lambda boxes, omega: sequential_scale_search(
            boxes, omega, n_scales=n_scales, min_dim=min_dim, padding=padding
        )
    if name == "superblock":

        def run(boxes, omega):
            layout = superblock_pack(boxes, omega, block_size or default_block_size(omega))
            if layout is None:
                raise PackFailure("superblock allocation failed at the halving floor")
            return layout

        return run
    raise InputError(f"unknown packer '{name}' (choose from {', '.join(PACKER_NAMES)})")


# --- scene pipeline ---------------------------------------------------------


@dataclass
class Frame:
    """One frame's work before packing: visible charts and one box per chart.

    ``boxes`` is the (n, 4) box table of the charts with a screen box, in
    chart order; ``chart_px`` maps each of their ids to its box in pixels.
    """

    config: SceneConfig
    mesh: Mesh
    chart_set: ChartSet
    boxes: np.ndarray
    chart_px: dict[int, tuple[int, int]]
    screen_fragments: int
    n_visible: int


@dataclass
class SceneResult(Frame):
    """A packed frame, with its stretch and allocated texels."""

    layout: AtlasLayout
    stretch: StretchReport | None
    texels_allocated: int


def frame_charts(cfg: SceneConfig) -> Frame:
    """Depth prepass, visibility, chartification and chart boxes.

    Raises NothingVisible when no triangle passes the depth test, and
    HeightOverflow when a chart box is taller than any packer takes.
    """
    mesh = load_obj(cfg.mesh_path)
    cam = cfg.camera()
    depth = depth_prepass(mesh, cam, cfg.screen, backface_cull=cfg.backface_cull)
    vis = mark_visible(mesh, cam, depth, backface_cull=cfg.backface_cull)
    n_visible = int(vis.flags.sum())
    if n_visible == 0:
        raise NothingVisible("no triangle covers a depth-passing sample")
    cs = merge_shared_vertices(connected_charts(mesh, vis), mesh)

    rows: list[tuple[int, int, int, int]] = []
    chart_px: dict[int, tuple[int, int]] = {}
    for root, members in cs.charts.items():
        try:
            box = chart_bbox(mesh.triangle_corners(members), cam)
        except DegenerateChart:
            continue
        w_px, h_px = viewport_box(box, cfg.screen[0], cfg.screen[1])
        tw = max(1, math.ceil(cfg.prescale * w_px))
        th = max(1, math.ceil(cfg.prescale * h_px))
        if max(tw, th) > MAX_BOX_DIM:
            raise HeightOverflow(f"box height {max(tw, th)} exceeds capacity {MAX_BOX_DIM}")
        chart_px[root] = (w_px, h_px)
        rows.append((root, root, tw, th))
    return Frame(
        config=cfg,
        mesh=mesh,
        chart_set=cs,
        boxes=np.array(rows, dtype=np.int64).reshape(-1, 4),
        chart_px=chart_px,
        screen_fragments=int(np.isfinite(depth).sum()),
        n_visible=n_visible,
    )


def pack_frame(frame: Frame, packer: str = "fastatlas") -> SceneResult:
    """Pack a frame's boxes with its config's knobs, then report stretch and texels."""
    cfg = frame.config
    packer_fn = make_packer(packer, cfg.n_scales, cfg.min_dim, cfg.padding)
    layout = packer_fn(frame.boxes, cfg.omega)
    stretch = _scene_stretch_report(
        cfg, frame.mesh, cfg.camera(), frame.chart_set, layout, frame.chart_px
    )
    texels = int(np.prod(_content_sides(layout, cfg.padding), axis=1).sum())
    return SceneResult(**vars(frame), layout=layout, stretch=stretch, texels_allocated=texels)


def run_scene_pipeline(cfg: SceneConfig, packer: str = "fastatlas") -> SceneResult:
    """Depth prepass, visibility, chartification, boxes, pack, stretch."""
    return pack_frame(frame_charts(cfg), packer)


def _content_sides(layout: AtlasLayout, padding: int) -> np.ndarray:
    """(n, 2) int64 sides of each placement inside its padding, unrotated.

    Superblock layouts are never padded, whatever padding was asked for.
    """
    if isinstance(layout, SuperblockLayout):
        padding = 0
    t = layout.table
    sides = np.where(t[:, 5:6] == 1, t[:, [4, 3]], t[:, [3, 4]])
    return sides - 2 * padding


def _scene_stretch_report(cfg, mesh, cam, cs, layout, chart_px) -> StretchReport | None:
    """Stretch of each placed chart's atlas-to-screen scaling.

    A chart of w_px x h_px screen pixels fills its placement's content
    rectangle by one axis-aligned scaling, so all of its triangles share
    the two singular values. Each chart is weighted by the screen area of
    its triangles that lie fully in front of the camera plane; a triangle
    with a vertex at or behind it has no well-defined projection.
    """
    tris = np.flatnonzero(cs.chart_of_triangle >= 0)
    clip = clip_coords(mesh.triangle_corners(tris), cam)
    front = np.all(clip[:, :, 3] > W_EPSILON, axis=1)
    screen = (clip[front, :, :2] / clip[front, :, 3:4] + 1.0) * 0.5 * np.array(cfg.screen)
    e1 = screen[:, 1] - screen[:, 0]
    e2 = screen[:, 2] - screen[:, 0]
    area = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]) / 2.0
    chart_area = np.bincount(
        cs.chart_of_triangle[tris[front]], weights=area, minlength=len(cs.chart_of_triangle)
    )
    ids = layout.table[:, 0]
    try:
        return scene_stretch(
            [chart_px[i] for i in ids.tolist()],
            _content_sides(layout, cfg.padding),
            chart_area[ids],
        )
    except NoValidTriangles:
        return None


def write_charts_file(cs: ChartSet, path) -> None:
    t = np.flatnonzero(cs.chart_of_triangle >= 0)
    lines = ["# chart assignments v1", "# t <triangle> <chart>  /  v <vertex> <chart>"]
    lines += map("t {} {}".format, t.tolist(), cs.chart_of_triangle[t].tolist())
    lines += itertools.starmap("v {} {}".format, sorted(cs.vertex_to_chart.items()))
    _write_atomic(path, "\n".join(lines) + "\n")


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
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomic(path, buf.getvalue())


def _scale_fields(layout: AtlasLayout):
    return [layout.scale.numerator, layout.scale.denominator, float(layout.scale)]


# --- subcommands ------------------------------------------------------------


def _check_pack_flags(args) -> None:
    """Raise ValueError naming the first out-of-range --scales, --min-dim or --padding.

    The flags are checked by scene_config_problem on an otherwise default
    config, whose other values are all in range.
    """
    cfg = SceneConfig(Path(), n_scales=args.scales, min_dim=args.min_dim, padding=args.padding)
    problem = scene_config_problem(cfg)
    if problem is not None:
        raise ValueError(f"--{problem[0].replace('_', '-')}: {problem[1]}")


def _cmd_pack_boxes(args) -> int:
    try:
        boxes = parse_box_file(args.input)
    except (OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    packer_fn = make_packer(args.packer, args.scales, args.min_dim, args.padding, args.block_size)
    try:
        _check_pack_flags(args)
        layout = packer_fn(boxes, args.omega)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except PackingError as exc:
        print(f"pack failure: {exc}", file=sys.stderr)
        return EXIT_PACK_FAILURE
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
    try:
        cfg = parse_scene_config(args.scene)
    except (OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    # Scene file key -> (flag, value given or None).
    overrides = {
        "omega": ("--omega", args.omega),
        "scales": ("--scales", args.scales),
        "min_dim": ("--min-dim", args.min_dim),
        "padding": ("--padding", args.padding),
        "screen": ("--res", args.res),
        "prescale": ("--prescale", args.prescale),
    }
    given = {key: flag for key, (flag, value) in overrides.items() if value is not None}
    cfg = replace(cfg, **{_SCENE_KEYS[key][0]: overrides[key][1] for key in given})
    problem = scene_config_problem(cfg)
    if problem is not None:
        key, message = problem
        print(f"error: {given.get(key, args.scene)}: {message}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        result = run_scene_pipeline(cfg, packer=args.packer)
    except (OSError, InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except PackingError as exc:
        print(f"pack failure: {exc}", file=sys.stderr)
        return EXIT_PACK_FAILURE
    except NothingVisible as exc:
        print(f"nothing visible: {exc}", file=sys.stderr)
        return EXIT_NOTHING_VISIBLE
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


def _cmd_compare(args) -> int:
    packers = [p.strip() for p in args.packer.split(",") if p.strip()]
    for p in packers:
        if p not in PACKER_NAMES:
            print(f"error: unknown packer '{p}'", file=sys.stderr)
            return EXIT_BAD_INPUT
    try:
        omegas = [int(o) for o in args.omega.split(",")]
    except ValueError:
        print(f"error: --omega: expected comma-separated integers, got {args.omega!r}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    is_scene = _looks_like_scene(args.input)
    frame = frame_error = None
    try:
        _check_pack_flags(args)
        if is_scene:
            cfg = replace(
                parse_scene_config(args.input),
                n_scales=args.scales, min_dim=args.min_dim, padding=args.padding,
            )
            for omega in omegas:
                problem = scene_config_problem(replace(cfg, omega=omega))
                if problem is not None:
                    raise ValueError(problem[1])
            try:
                frame = frame_charts(cfg)
            except (PackingError, NothingVisible) as exc:
                frame_error = exc
        else:
            boxes = parse_box_file(args.input)
    except (OSError, InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    rows = []
    any_ok = False
    for omega in omegas:
        for name in packers:
            t0 = time.perf_counter()
            try:
                if frame_error is not None:
                    raise frame_error
                if is_scene:
                    result = pack_frame(replace(frame, config=replace(cfg, omega=omega)), name)
                    layout, stretch = result.layout, result.stretch
                    n_boxes = len(frame.boxes)
                else:
                    packer_fn = make_packer(
                        name, args.scales, args.min_dim, args.padding, args.block_size
                    )
                    layout = packer_fn(boxes, omega)
                    stretch = _box_stretch_report(layout, args.padding)
                    n_boxes = len(boxes)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_BAD_INPUT
            except (PackingError, NothingVisible) as exc:
                print(f"{name}@{omega}: {exc}", file=sys.stderr)
                rows.append([name, omega, "failed", "", "", "", "", "", "", ""])
                continue
            wall_ms = (time.perf_counter() - t0) * 1000.0
            any_ok = True
            block = layout.block_size if isinstance(layout, SuperblockLayout) else ""
            rows.append(
                [name, omega, "ok", n_boxes, float(layout.scale),
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


def _box_stretch_report(layout: AtlasLayout, padding: int) -> StretchReport | None:
    """Stretch of box-list packs: each target rectangle vs its placed content.

    Each box is weighted by the area of half its target rectangle.
    """
    target = layout.table[:, 6:8]
    try:
        return scene_stretch(target, _content_sides(layout, padding), target.prod(axis=1) / 2.0)
    except NoValidTriangles:
        return None


def _looks_like_scene(path) -> bool:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                return not (len(parts) == 4 and all(p.isdigit() for p in parts))
    except OSError:
        pass
    return False


def _cmd_gen_boxes(args) -> int:
    rng = np.random.default_rng(args.seed)
    boxes = generate_boxes(args.count, args.omega, rng)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlaspack",
        description="Pack per-frame chart boxes into fixed-size texture atlases.",
    )
    parser.add_argument("--version", action="version", version=f"atlaspack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("pack-boxes", help="pack a box list file")
    pb.add_argument("input", help="box list file: chart_id min_tri w h per line")
    pb.add_argument("--omega", type=int, required=True, help="atlas side (power of two)")
    pb.add_argument("--scales", type=int, default=64, help="number of scale candidates")
    pb.add_argument("--min-dim", type=int, default=1, help="minimum placed dimension")
    pb.add_argument("--padding", type=int, default=0, help="gutter texels per side")
    pb.add_argument("--packer", choices=PACKER_NAMES, default="fastatlas")
    pb.add_argument("--block-size", type=int, default=None, help="superblock size override")
    pb.add_argument("--svg", action="store_true", help="also render the atlas as SVG")
    pb.add_argument("--out", default=None, help="output prefix (default: input stem)")
    pb.set_defaults(func=_cmd_pack_boxes)

    sc = sub.add_parser("atlas-scene", help="run the full pipeline on a scene")
    sc.add_argument("scene", help="scene config file (key value lines)")
    sc.add_argument("--omega", type=int, default=None)
    sc.add_argument("--scales", type=int, default=None)
    sc.add_argument("--min-dim", type=int, default=None)
    sc.add_argument("--padding", type=int, default=None)
    sc.add_argument("--res", type=_parse_res, default=None, metavar="WxH")
    sc.add_argument("--prescale", type=float, default=None, help="shading-rate box prescale")
    sc.add_argument("--packer", choices=PACKER_NAMES, default="fastatlas")
    sc.add_argument("--svg", action="store_true")
    sc.add_argument("--out", default=None)
    sc.set_defaults(func=_cmd_atlas_scene)

    cp = sub.add_parser("compare", help="compare packers on a scene or box list")
    cp.add_argument("input", help="scene config or box list file")
    cp.add_argument("--packer", default=",".join(PACKER_NAMES), help="comma-separated packers")
    cp.add_argument("--omega", required=True, help="comma-separated atlas sides")
    cp.add_argument("--scales", type=int, default=64)
    cp.add_argument("--min-dim", type=int, default=1)
    cp.add_argument("--padding", type=int, default=0)
    cp.add_argument("--block-size", type=int, default=None)
    cp.add_argument("--out", default="compare.csv")
    cp.set_defaults(func=_cmd_compare)

    gb = sub.add_parser("gen-boxes", help="generate a seeded heavy-tailed box list")
    gb.add_argument("--count", type=int, required=True)
    gb.add_argument("--omega", type=int, required=True)
    gb.add_argument("--seed", type=int, default=0)
    gb.add_argument("--out", required=True)
    gb.set_defaults(func=_cmd_gen_boxes)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
