"""Independent reference implementations used to check the library.

Everything here deliberately avoids the code paths under test: the exact
frustum box is a plain Sutherland-Hodgman loop over all six planes, the
clamp-only box skips clipping altogether, the one-polygon clip step, the
per-triangle frustum clip, the scalar Blinn clamp and side-plane choice,
the reference rasterizer and the per-triangle chart box are the package's
earlier one-triangle-at-a-time loops, which the batched code must match
bit for bit (the rasterizer snaps vertices to 1/256 pixel as the package
does and tests each edge in exact integers with ``exact_cover``, which
tests every sample of whole screen rows), the box sampler is the earlier batched
sampler that tested every pixel center of each polygon's box, whose sample
stream the span sampler must match bit for bit, the stretch report is the
earlier per-triangle pair loop with one SVD per triangle, which the
per-chart rule must match to rounding, components come from breadth-first
search over an edge adjacency built with a dict, the fold
reference walks boxes one at a time along the folded line, the exhaustive
packer backtracks over every placement of a tiny instance, the object
packer orients, orders and places one ChartBox object at a time as the
package did before its box and layout tables, and layout validity is
checked by occupancy grids or pairwise interval arithmetic. The OBJ loader
and the box file split are the package's earlier line-by-line readers,
which the whole-file reader must match token for token and message for
message. ``conservative_chart_bbox`` is the package's earlier chart box,
which clipped each triangle again with a policy of its own (the near
plane, or the side plane giving the smallest box, then a Blinn clamp): the
bound that the chart boxes of the one set-up clip must stay within. The
box tests read it as ``NdcBox`` records through a one-chart adapter, and
compare it with its per-triangle loop; the raster tests run both
passes from world-space meshes through ``depth_and_flags``, an adapter
that projects and sets up a mesh as ``cli.frame_charts`` does. The
per-corner set-up (``corner_setup``, with ``corner_split`` and
``corner_polygons``) is the package's earlier ``screen_setup``, which
tested, divided, viewport-transformed and snapped every triangle corner:
the per-vertex set-up's groups must equal its arrays byte for byte. The
stacked projection is the package's earlier per-triangle product, which
the one projection of a frame's vertices must match bit for bit, and
``sample_rows`` reads the raster's flat pixel indices as rows and columns
for the samplers that give them so. Only tests call this code, so it
lives here rather than in the package.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import struct
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from atlaspack import (
    AtlasLayout,
    ChartBox,
    DegenerateChart,
    DegenerateTriangle,
    HeightOverflow,
    Mesh,
    NoValidTriangles,
    Placement,
    StretchReport,
    fold,
    push_up,
    triangle_stretch,
)
from atlaspack.charts import (
    _CHUNK,
    _POLYGONS,
    _SUBPIXEL,
    DEPTH_EPSILON,
    _chunks,
    _clip_groups,
    _depth_planes,
    _select,
    depth_prepass,
    mark_visible,
    screen_bands,
    screen_setup,
)
from atlaspack.geometry import (
    FRUSTUM_PLANES,
    W_EPSILON,
    clip_coords,
    clip_halfspace,
)
from atlaspack.packing import MAX_BOX_DIM

_PLANES = (
    (0, 1.0),
    (0, -1.0),
    (1, 1.0),
    (1, -1.0),
    (2, 1.0),
    (2, -1.0),
)

SIDE_PLANES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class NdcBox:
    """Axis-aligned box in NDC, all coordinates clamped to [-1, 1]."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self):
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError("NdcBox requires min <= max componentwise")

    @property
    def area(self) -> float:
        return (self.max_x - self.min_x) * (self.max_y - self.min_y)


def one_conservative_bbox(triangles, cam) -> NdcBox:
    """conservative_chart_bbox on one chart, as an NdcBox.

    Raises DegenerateChart when the chart is empty or none of its triangles
    survives clipping (conservative_chart_bbox marks that chart with lo > hi).
    """
    tris = np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 3)
    if len(tris) == 0:
        raise DegenerateChart("chart has no triangles")
    lo, hi = conservative_chart_bbox(clip_coords(tris, cam), [0])
    if not np.all(lo <= hi):
        raise DegenerateChart("no triangle survives clipping")
    return NdcBox(float(lo[0, 0]), float(lo[0, 1]), float(hi[0, 0]), float(hi[0, 1]))


def batch_blinn_clamped_ndc(p: np.ndarray) -> np.ndarray:
    """Clamp homogeneous vertices (..., 4) to the screen square and divide: (..., 2).

    Total over all finite inputs, including w <= 0: x and y are clamped to
    [-|w|, |w|] before dividing by |w|, and w == 0 maps to the corner
    (sign(x), sign(y)) with sign(0) = +1. The result is always in [-1, 1]^2.
    """
    aw = np.abs(p[..., 3:])
    xy = np.minimum(np.maximum(p[..., :2], -aw), aw)
    return np.divide(xy, aw, out=np.where(p[..., :2] < 0, -1.0, 1.0), where=aw != 0)


def conservative_chart_bbox(clip: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """The package's earlier conservative NDC boxes of a frame's charts, as (n, 2) lo and hi.

    ``clip`` is an (m, 3, 4) array of the clip coordinates of triangles
    grouped by chart, gathered from ``clip_coords``; chart i's triangles
    start at ``starts[i]``, and no chart is empty. Each triangle gets its
    own box. A triangle fully in front of the camera plane that crosses no
    side plane takes the fast path: the clamped divide of its three
    vertices. The rest are clipped in batches, then clamped and divided: a
    triangle crossing the near half-space is clipped against it, and one
    fully in front against each side plane it crosses (vertices strictly on
    both sides), keeping the clip with the smallest box, ties going to the
    earlier plane in SIDE_PLANES. A triangle that does not survive clipping
    gets lo = +inf and hi = -inf. A chart's box is the componentwise min/max over its
    triangles' boxes and contains the exact NDC projection of the
    in-frustum portion of the chart; a chart with no surviving triangle has
    lo > hi.
    """
    lo, hi = np.full((len(clip), 2), np.inf), np.full((len(clip), 2), -np.inf)
    d = clip[:, :, 3] - W_EPSILON
    front = d > 0
    in_front = front[:, 0] & front[:, 1] & front[:, 2]
    side = np.stack([plane_distances(clip, plane) for plane in SIDE_PLANES])
    pos, neg = side > 0, side < 0
    crosses = (pos[..., 0] | pos[..., 1] | pos[..., 2]) & (neg[..., 0] | neg[..., 1] | neg[..., 2])
    fast = in_front & ~np.any(crosses, axis=0)
    # w > W_EPSILON > 0 on the fast path, so |w| = w in the clamped divide.
    xy, w = clip[fast, :, :2], clip[fast, :, 3:]
    np.maximum(xy, -w, out=xy)
    np.minimum(xy, w, out=xy)
    xy /= w
    a, b, c = xy.swapaxes(0, 1)
    lo[fast], hi[fast] = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    # The area of the smallest clipped box so far of each other triangle. A
    # triangle crossing the near plane has that clip as its one box.
    best = np.full(len(clip), np.inf)
    near = ~in_front & (front[:, 0] | front[:, 1] | front[:, 2])
    for dist, clipped in zip([d, *side], [near, *(crosses & in_front)]):
        tris = np.flatnonzero(clipped)
        for rows, poly in clip_halfspace(clip[tris], dist[tris], dist[tris] > 0):
            xy = batch_blinn_clamped_ndc(poly)
            poly_lo, poly_hi = xy.min(axis=1), xy.max(axis=1)
            area = (poly_hi[:, 0] - poly_lo[:, 0]) * (poly_hi[:, 1] - poly_lo[:, 1])
            win = area < best[tris[rows]]
            t = tris[rows[win]]
            best[t], lo[t], hi[t] = area[win], poly_lo[win], poly_hi[win]
    return np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)


def plane_distances(v: np.ndarray, plane: str) -> np.ndarray:
    """Signed distance w + sign * v[axis] of each homogeneous vertex to a frustum plane.

    ``v`` holds vertices along its last axis: one polygon (m, 4) or a batch
    of them (n, m, 4).
    """
    axis, sign = FRUSTUM_PLANES[plane]
    return v[..., 3] + sign * v[..., axis]


def triangle_corners(mesh: Mesh) -> np.ndarray:
    """World-space corners of a mesh's triangles, shape (m, 3, 3)."""
    return mesh.positions[mesh.triangles]


def stacked_clip_coords(corners: np.ndarray, cam) -> np.ndarray:
    """The package's earlier projection of (m, 3, 3) corners: a stacked (m, 3, 4) @ (4, 4)."""
    corners = np.asarray(corners, dtype=np.float64).reshape(-1, 3, 3)
    return np.concatenate([corners, np.ones((len(corners), 3, 1))], axis=2) @ cam.view_proj.T


def mesh_setup(mesh: Mesh, cam, res, cull: bool = True) -> list[tuple]:
    """The groups of ``charts.screen_setup`` of a mesh, projected as ``cli.frame_charts`` does."""
    return screen_setup(clip_coords(mesh.positions, cam), mesh.triangles, res, cull)[0]


def corner_split(clip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The package's earlier per-corner frustum test of (m, 3, 4) triangles: (inside, leaving).

    ``inside`` flags the triangles with every corner at w - W_EPSILON > 0
    and inside the six planes; ``leaving`` holds the ids of the others with
    a corner at w - W_EPSILON > 0.
    """
    front = clip[:, :, 3] - W_EPSILON > 0
    within = np.abs(clip[:, :, :3]) <= clip[:, :, 3:]
    within = within[:, :, 0] & within[:, :, 1] & within[:, :, 2]
    inside = front[:, 0] & front[:, 1] & front[:, 2] & within[:, 0] & within[:, 1] & within[:, 2]
    return inside, np.flatnonzero(~inside & (front[:, 0] | front[:, 1] | front[:, 2]))


def corner_setup(clip: np.ndarray, res, cull: bool) -> list[tuple]:
    """The package's earlier ``screen_setup`` groups of (m, 3, 4) triangles, set up per corner.

    The triangles are split by ``corner_split``, the leaving ones clipped by
    ``charts._clip_groups``, and each run of at most ``charts._POLYGONS``
    polygons of a vertex count set up by ``corner_polygons``, in the order
    of a one-triangle-at-a-time loop.
    """
    inside, leaving = corner_split(clip)
    ordered = {3: [(np.flatnonzero(inside), clip[inside])]}
    for rows, poly in _clip_groups(clip[leaving]) if len(leaving) else []:
        ordered.setdefault(poly.shape[1], []).append((leaving[rows], poly))
    width, height = int(res[0]), int(res[1])
    groups = [tuple(map(np.concatenate, zip(*parts))) for parts in ordered.values()]
    return [
        corner_polygons(t[s : s + _POLYGONS], poly[s : s + _POLYGONS], width, height, cull)
        for t, poly in groups
        for s in range(0, len(t), _POLYGONS)
    ]


def corner_polygons(t, poly, width: int, height: int, cull: bool):
    """The package's earlier ``_screen_polygons``: (G, n, 4) polygons set up corner by corner.

    Each corner of each polygon is divided, viewport-transformed and
    snapped on its own; the rest is the package's set-up.
    """
    screen = poly[:, :, :3] / poly[:, :, 3:4]  # NDC, then x and y to pixels
    ndc = [functools.reduce(f, v) for f in (np.minimum, np.maximum) for v in screen[:, :, :2].T]
    screen[:, :, 0] = (screen[:, :, 0] + 1.0) * 0.5 * width
    screen[:, :, 1] = (screen[:, :, 1] + 1.0) * 0.5 * height
    q = np.rint(screen[:, :, :2] * _SUBPIXEL) - _SUBPIXEL // 2
    x, y = q[:, :, 0].T, q[:, :, 1].T
    area2 = functools.reduce(np.add, x * (np.roll(y, -1, axis=0) - np.roll(y, 1, axis=0)))
    keep = area2 > 0.0 if cull else area2 != 0.0
    t, screen, q, flip = t[keep], screen[keep], q[keep], area2[keep] < 0.0
    ndc = tuple(v[keep] for v in ndc)
    screen[flip], q[flip] = screen[flip, ::-1], q[flip, ::-1]
    x, y = q[:, :, 0].T, q[:, :, 1].T
    low = np.divide([functools.reduce(np.minimum, v) for v in (x, y)], _SUBPIXEL)
    high = np.divide([functools.reduce(np.maximum, v) for v in (x, y)], _SUBPIXEL)
    x0, y0 = np.maximum(0, np.ceil(low)).astype(np.int64)
    x1, y1 = np.minimum([[width - 1], [height - 1]], np.floor(high)).astype(np.int64)
    ex, ey = np.roll(x, -1, axis=0) - x, np.roll(y, -1, axis=0) - y
    top_left = (ey > 0) | ((ey == 0) & (ex <= 0))
    edges = tuple(zip(_SUBPIXEL * ey, _SUBPIXEL * ex, ey * x - ex * y + (top_left - 1.0)))
    group = (t, (x0, x1, y0, y1), edges, _depth_planes(*screen.transpose(2, 1, 0)), ndc)
    return _select(group, (x0 <= x1) & (y0 <= y1))


def depth_and_flags(mesh: Mesh, cam, res, cull: bool = True):
    """The depth buffer and visibility flags of both raster passes over one set-up."""
    return banded_raster(mesh_setup(mesh, cam, res, cull), res, mesh.n_triangles)


def banded_raster(setup: list[tuple], res, n_triangles: int):
    """The depth buffer and flags of both passes over the bands of ``charts.screen_bands``,
    as ``cli.frame_charts`` runs them: the bands' depth joined and their flags OR-ed."""
    depths, flags = [], np.zeros(n_triangles, dtype=bool)
    for rows in screen_bands(res):
        depth = depth_prepass(setup, res, rows)
        flags |= mark_visible(setup, depth, rows, flags).flags
        depths.append(depth)
    return np.concatenate(depths), flags


def mesh_samples(mesh: Mesh, cam, res, cull: bool = True):
    """The chunks of (t, pixel, z) samples of a mesh's set-up, in order."""
    for group in mesh_setup(mesh, cam, res, cull):
        yield from _chunks(group, int(res[0]))


def sample_rows(chunks, width: int):
    """Chunks of (t, pixel, z) samples as (t, iy, ix, z), each pixel index as row and column."""
    for t, pixel, z in chunks:
        yield t, pixel // width, pixel % width, z


def chart_members(cs) -> dict[int, np.ndarray]:
    """A ChartSet's charts as a dict from chart id to its member triangles."""
    return dict(zip(cs.ids.tolist(), np.split(cs.members, cs.starts[1:])))


def clip_halfspace_step(vertices: np.ndarray, d: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """One Sutherland-Hodgman step on one convex homogeneous polygon.

    ``d`` holds the signed distance of each vertex and ``keep`` the boundary
    rule on it. Kept vertices stay; each edge between a kept and a dropped
    vertex gets a vertex interpolated at d == 0. Returns an (m, 4) array,
    possibly empty. The package's batched clip must match it bit for bit.
    """
    n = len(vertices)
    out: list[np.ndarray] = []
    for i in range(n):
        j = (i + 1) % n
        a = vertices[i]
        if keep[i]:
            out.append(a)
        if keep[i] != keep[j]:
            t = d[i] / (d[i] - d[j])
            out.append(a + t * (vertices[j] - a))
    return np.array(out, dtype=np.float64).reshape(-1, 4)


def clip_triangle_frustum(clip: np.ndarray) -> np.ndarray:
    """Clip one homogeneous triangle to w > W_EPSILON and the six planes.

    A triangle with no vertex at w - W_EPSILON > 0 vanishes; otherwise it is
    clipped to w - W_EPSILON >= 0 and then to each plane it leaves, in
    FRUSTUM_PLANES order, one step at a time.
    """
    poly = clip
    d = poly[:, 3] - W_EPSILON
    if not np.any(d > 0):
        return np.empty((0, 4))
    if np.any(d <= 0):
        poly = clip_halfspace_step(poly, d, d >= 0)
    for plane in FRUSTUM_PLANES:
        if len(poly) == 0:
            break
        d = plane_distances(poly, plane)
        keep = d >= 0
        if np.all(keep):
            continue
        poly = clip_halfspace_step(poly, d, keep)
    return poly


def blinn_clamped_ndc(p) -> tuple[float, float]:
    """Clamp one clip-space vertex to the screen square and divide.

    Coordinates are clamped to [-|w|, |w|] before dividing by |w|, and
    w == 0 maps to the corner (sign(x), sign(y)) with sign(0) = +1.
    """
    x, y, _, w = (float(v) for v in p)
    aw = abs(w)
    if aw == 0.0:
        sx = -1.0 if x < 0 else 1.0
        sy = -1.0 if y < 0 else 1.0
        return sx, sy
    cx = min(max(x, -aw), aw) / aw
    cy = min(max(y, -aw), aw) / aw
    return cx, cy


def blinn_box_of(vertices: np.ndarray) -> NdcBox:
    pts = [blinn_clamped_ndc(v) for v in vertices]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return NdcBox(min(xs), min(ys), max(xs), max(ys))


def select_side_plane(tri) -> str | None:
    """Pick the frustum side plane whose single clip shrinks the box most.

    Only planes the triangle genuinely crosses (vertices strictly on both
    sides) are candidates; ties resolve in the fixed order left < right <
    bottom < top. Returns None when no side plane is crossed. The triangle
    must lie in front of the camera plane.
    """
    v = np.asarray(tri, dtype=np.float64).reshape(3, 4)
    best: tuple[float, int] | None = None
    best_plane: str | None = None
    for idx, plane in enumerate(SIDE_PLANES):
        d = plane_distances(v, plane)
        if not (np.any(d > 0) and np.any(d < 0)):
            continue
        area = blinn_box_of(clip_halfspace_step(v, d, d > 0)).area
        key = (area, idx)
        if best is None or key < best:
            best = key
            best_plane = plane
    return best_plane


def frustum_clip_box(clip_tri: np.ndarray) -> NdcBox | None:
    """Exact NDC box of a homogeneous triangle clipped to all six planes."""
    poly = [np.asarray(v, dtype=np.float64) for v in clip_tri]
    for axis, sign in _PLANES:
        if not poly:
            return None
        out = []
        n = len(poly)
        for i in range(n):
            a, b = poly[i], poly[(i + 1) % n]
            da = a[3] + sign * a[axis]
            db = b[3] + sign * b[axis]
            if da >= 0:
                out.append(a)
            if (da >= 0) != (db >= 0):
                t = da / (da - db)
                out.append(a + t * (b - a))
        poly = out
    pts = [v for v in poly if v[3] > 1e-12]
    if not pts:
        return None
    xs = [v[0] / v[3] for v in pts]
    ys = [v[1] / v[3] for v in pts]
    return NdcBox(
        min(max(min(xs), -1.0), 1.0),
        min(max(min(ys), -1.0), 1.0),
        max(min(max(xs), 1.0), -1.0),
        max(min(max(ys), 1.0), -1.0),
    )


def chart_frustum_box(world_tris: np.ndarray, cam) -> NdcBox | None:
    """Oracle box of a whole chart: union of per-triangle clipped boxes."""
    tris = np.asarray(world_tris, dtype=np.float64).reshape(-1, 3, 3)
    homo = np.concatenate([tris, np.ones((len(tris), 3, 1))], axis=2)
    clip = homo @ cam.view_proj.T
    boxes = [b for b in (frustum_clip_box(c) for c in clip) if b is not None]
    if not boxes:
        return None
    return NdcBox(
        min(b.min_x for b in boxes),
        min(b.min_y for b in boxes),
        max(b.max_x for b in boxes),
        max(b.max_y for b in boxes),
    )


def box_contains(outer: NdcBox, inner: NdcBox, tol: float = 0.0) -> bool:
    return (
        outer.min_x <= inner.min_x + tol
        and outer.min_y <= inner.min_y + tol
        and outer.max_x >= inner.max_x - tol
        and outer.max_y >= inner.max_y - tol
    )


def conservative_blinn_box(triangles, cam) -> NdcBox:
    """Clamp-only reference box: no clipping at all.

    Vertices behind the camera plane (w <= W_EPSILON) may wrap around the
    screen in any direction, so the only clamp-only bound that still covers
    the visible extent is the full square; such vertices expand the box to
    [-1, 1]^2. The no-clip baseline that the clipped chart boxes must never
    be larger than.
    """
    tris = np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 3)
    min_x = min_y = math.inf
    max_x = max_y = -math.inf
    for tri in tris:
        clip = np.hstack([tri, np.ones((3, 1))]) @ cam.view_proj.T
        for v in clip:
            if v[3] <= W_EPSILON:
                return NdcBox(-1.0, -1.0, 1.0, 1.0)
            cx, cy = blinn_clamped_ndc(v)
            min_x = min(min_x, cx)
            min_y = min(min_y, cy)
            max_x = max(max_x, cx)
            max_y = max(max_y, cy)
    if not math.isfinite(min_x):
        raise DegenerateChart("chart has no triangles")
    return NdcBox(min_x, min_y, max_x, max_y)


def per_triangle_chart_bbox(triangles, cam) -> NdcBox:
    """conservative_chart_bbox one triangle at a time: near clip, else best side plane.

    Every triangle takes the per-triangle branch that conservative_chart_bbox
    keeps only for triangles crossing the near plane or a side plane.
    """
    tris = np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 3)
    if tris.shape[0] == 0:
        raise DegenerateChart("chart has no triangles")
    min_x = min_y = math.inf
    max_x = max_y = -math.inf
    survived = False
    vp = cam.view_proj.T
    for tri in tris:
        clip = np.hstack([tri, np.ones((3, 1))]) @ vp
        d = clip[:, 3] - W_EPSILON
        if np.all(d > 0):
            plane = select_side_plane(clip)
            if plane is None:
                poly = clip
            else:
                d = plane_distances(clip, plane)
                poly = clip_halfspace_step(clip, d, d > 0)
        elif np.any(d > 0):
            poly = clip_halfspace_step(clip, d, d > 0)
        else:
            continue
        survived = True
        for v in poly:
            cx, cy = blinn_clamped_ndc(v)
            min_x = min(min_x, cx)
            min_y = min(min_y, cy)
            max_x = max(max_x, cx)
            max_y = max(max_y, cy)
    if not survived:
        raise DegenerateChart("no triangle survives clipping")
    return NdcBox(min_x, min_y, max_x, max_y)


# --- reference rasterizer: one triangle at a time ---------------------------


def _polygon_to_screen(poly: np.ndarray, width: int, height: int) -> np.ndarray:
    """Perspective divide plus viewport transform; returns (n, 3) x, y, z.

    Pixel x in [0, width], pixel y in [0, height] with row 0 at NDC y = -1.
    """
    ndc = poly[:, :3] / poly[:, 3:4]
    out = np.empty((len(poly), 3))
    out[:, 0] = (ndc[:, 0] + 1.0) * 0.5 * width
    out[:, 1] = (ndc[:, 1] + 1.0) * 0.5 * height
    out[:, 2] = ndc[:, 2]
    return out


def _raster_samples(screen_poly: np.ndarray, width: int, height: int, cull: bool):
    """Yield (ys, xs, zs) covered pixel-center samples of a convex polygon.

    The vertices snap to 1/256 pixel, and exact_cover tests every sample of
    the rows they span on the snapped vertices, in int64, which holds every
    value exactly. Counter-clockwise polygons (in y-up pixel coordinates)
    are front-facing; with culling disabled, clockwise polygons are flipped
    and rasterized. Depth lies on the float polygon's plane.
    """
    q = snap_vertices(screen_poly)
    area2 = _signed_area2(q)
    if area2 == 0 or (area2 < 0 and cull):
        return None
    if area2 < 0:
        screen_poly, q = screen_poly[::-1], q[::-1]
    ys = [y for _, y in q]
    rows = range(max(0, min(ys) // 256 - 1), min(height, max(ys) // 256 + 2))
    iy, ix = exact_cover(q, rows, width, cull, np.int64)
    if not len(iy):
        return None
    return iy, ix, _interp_depth(screen_poly, ix + 0.5, iy + 0.5)


def _signed_area2(q: list[tuple[int, int]]) -> int:
    """Twice the signed area of a polygon with integer vertices, exactly."""
    return sum(q[i - 1][0] * q[i][1] - q[i][0] * q[i - 1][1] for i in range(len(q)))


def _interp_depth(poly: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Affine NDC depth at sample points (NDC z is screen-affine)."""
    p0 = poly[0]
    for j in range(1, len(poly) - 1):
        p1, p2 = poly[j], poly[j + 1]
        det = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1])
        if abs(det) > 1e-12:
            gx = ((p1[2] - p0[2]) * (p2[1] - p0[1]) - (p2[2] - p0[2]) * (p1[1] - p0[1])) / det
            gy = ((p2[2] - p0[2]) * (p1[0] - p0[0]) - (p1[2] - p0[2]) * (p2[0] - p0[0])) / det
            return p0[2] + gx * (sx - p0[0]) + gy * (sy - p0[1])
    return np.full(len(sx), poly[:, 2].mean())


def snap_vertices(screen_poly: np.ndarray) -> list[tuple[int, int]]:
    """A screen polygon's x and y in 1/256 pixel, as Python ints.

    round() rounds halves to even, as np.rint does."""
    return [(round(x * 256), round(y * 256)) for x, y in screen_poly[:, :2].tolist()]


def exact_cover(q: list[tuple[int, int]], rows, width: int, cull: bool, dtype=object):
    """(iy, ix) of every sample of ``rows`` and columns [0, width) that a snapped polygon covers.

    Brute force, in Python ints by default: every edge function of every
    sample, with the top-left rule, after culling or flipping by the exact
    area. int64 also holds every value exactly up to MAX_SCREEN."""
    area2 = _signed_area2(q)
    if area2 == 0 or (area2 < 0 and cull):
        return np.zeros((2, 0), dtype=np.int64)
    if area2 < 0:
        q = q[::-1]
    iy, ix = (a.ravel() for a in np.meshgrid(np.asarray(rows), np.arange(width), indexing="ij"))
    py, px = 256 * iy.astype(dtype) + 128, 256 * ix.astype(dtype) + 128
    inside = np.ones(len(px), dtype=bool)
    for (ax, ay), (bx, by) in zip(q, q[1:] + q[:1]):
        e = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        top_left = by > ay or (by == ay and bx <= ax)
        inside &= (e >= 0) if top_left else (e > 0)
    return np.stack([iy[inside], ix[inside]])


def exact_samples(mesh: Mesh, cam, res, cull: bool) -> np.ndarray:
    """(t, iy, ix) of every covered sample, by triangle, from exact_cover over the whole screen."""
    width, height = int(res[0]), int(res[1])
    out = [np.zeros((3, 0), dtype=np.int64)]
    for t, screen in _each_clipped_screen(mesh, cam, width, height):
        cover = exact_cover(snap_vertices(screen), range(height), width, cull)
        out.append(np.vstack([np.full(cover.shape[1], t), cover]))
    return np.concatenate(out, axis=1)


def _each_clipped_screen(mesh: Mesh, cam, width: int, height: int):
    """(t, (n, 3) screen polygon) of each triangle, clipped and projected on its own."""
    corners = triangle_corners(mesh)
    if len(corners) == 0:
        return
    clip_all = stacked_clip_coords(corners, cam)
    for t in range(len(corners)):
        poly = clip_triangle_frustum(clip_all[t])
        if len(poly) >= 3:
            yield t, _polygon_to_screen(poly, width, height)


def _each_screen_polygon(mesh: Mesh, cam, width: int, height: int, cull: bool):
    for t, screen in _each_clipped_screen(mesh, cam, width, height):
        samples = _raster_samples(screen, width, height, cull)
        if samples is not None:
            yield t, samples


def reference_depth_and_flags(mesh: Mesh, cam, res, cull: bool):
    """Depth buffer and visibility flags from the per-triangle sampler.

    The depth pass and the visibility pass of the package before batching:
    each triangle is clipped, projected and rasterized on its own.
    """
    width, height = int(res[0]), int(res[1])
    depth = np.full((height, width), np.inf)
    for _, (iy, ix, zs) in _each_screen_polygon(mesh, cam, width, height, cull):
        np.minimum.at(depth, (iy, ix), zs)
    flags = np.zeros(mesh.n_triangles, dtype=bool)
    for t, (iy, ix, zs) in _each_screen_polygon(mesh, cam, width, height, cull):
        stored = depth[iy, ix]
        slack = DEPTH_EPSILON * np.maximum(1.0, np.abs(stored))
        if np.any(zs <= stored + slack):
            flags[t] = True
    return depth, flags


def box_samples(group):
    """Covered samples of screen polygons, tested at every pixel center of their boxes.

    The package's batched sampler before it computed per-row spans: it
    takes a (t, box, edges, planes) group of ``charts._screen_polygons``,
    tests its integer edges at every sample and yields (t, iy, ix, z)
    chunks of at most _CHUNK candidates. Its ordered stream of samples is
    the one the span sampler must reproduce.
    """
    t, (x0, x1, y0, y1), edges, (ax, ay, z0, gx, gy, flat), _ = group
    # Bands of whole rows of each polygon's box, each of at most _CHUNK
    # candidates unless one row alone is wider; chunks are runs of bands.
    nx = x1 - x0 + 1
    rows = np.maximum(1, _CHUNK // nx)
    n_bands = -(-(y1 - y0 + 1) // rows)
    band_g = np.repeat(np.arange(len(t)), n_bands)
    band_y0 = y0[band_g] + _ranks(n_bands) * rows[band_g]
    band_rows = np.minimum(rows[band_g], y1[band_g] + 1 - band_y0)
    band_end = np.cumsum(band_rows * nx[band_g])
    start = 0
    while start < len(band_end):
        base = band_end[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(band_end, base + _CHUNK, side="right")))
        bands = slice(start, stop)
        g_b, rows_b, cols_b = band_g[bands], band_rows[bands], nx[band_g[bands]]
        # Edge (a, b, c) passes where a * ix <= b * iy + c, all integers:
        # evaluate b * iy + c once per band row and a * ix once per band
        # column, in int64, then compare every candidate's pair.
        row_b = np.repeat(np.arange(len(g_b)), rows_b)
        row_g, row_y = g_b[row_b], band_y0[bands][row_b] + _ranks(rows_b)
        col_b = np.repeat(np.arange(len(g_b)), cols_b)
        col_g, col_x = g_b[col_b], x0[g_b][col_b] + _ranks(cols_b)
        row_len = cols_b[row_b]
        col_of = _ranks(row_len) + np.repeat((np.cumsum(cols_b) - cols_b)[row_b], row_len)
        covered = np.ones(len(col_of), dtype=bool)
        for a, b, c in edges:
            a, b, c = (v.astype(np.int64) for v in (a, b, c))
            row_term = b[row_g] * row_y + c[row_g]
            col_term = a[col_g] * col_x
            covered &= col_term[col_of] <= np.repeat(row_term, row_len)
        row = np.repeat(np.arange(len(row_g)), row_len)[covered]
        g, iy, ix = row_g[row], row_y[row], col_x[col_of[covered]]
        z = z0[g] + gx[g] * (ix + 0.5 - ax[g]) + gy[g] * (iy + 0.5 - ay[g])
        # Flat polygons take z0 as it is: adding the zero terms could
        # change the sign of a zero depth.
        on_flat = flat[g]
        z[on_flat] = z0[g[on_flat]]
        yield t[g], iy, ix, z
        start = stop


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def dict_adjacency(triangles) -> np.ndarray:
    """Edge adjacency as Mesh defines it, from a dict of each edge's users."""
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    adjacency = np.full((len(tris), 3), -1, dtype=np.int64)
    edge_map: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for t, (a, b, c) in enumerate(tris):
        for e, (u, v) in enumerate(((a, b), (b, c), (c, a))):
            key = (u, v) if u < v else (v, u)
            edge_map.setdefault(key, []).append((t, e))
    for users in edge_map.values():
        if len(users) == 2:
            (t0, e0), (t1, e1) = users
            adjacency[t0, e0] = t1
            adjacency[t1, e1] = t0
    return adjacency


def bfs_chart_labels(mesh: Mesh, flags: np.ndarray) -> np.ndarray:
    """Connected components over visible edge adjacency, labeled by minimum.

    The adjacency comes from dict_adjacency, not from the mesh.
    """
    n = mesh.n_triangles
    adjacency = dict_adjacency(mesh.triangles)
    labels = np.full(n, -1, dtype=np.int64)
    for start in range(n):
        if not flags[start] or labels[start] >= 0:
            continue
        comp = [start]
        labels[start] = start  # BFS from ascending starts: start is the minimum
        queue = deque([start])
        while queue:
            t = queue.popleft()
            for nb in adjacency[t]:
                if nb >= 0 and flags[nb] and labels[nb] < 0:
                    labels[nb] = start
                    comp.append(int(nb))
                    queue.append(int(nb))
    return labels


def vertex_merge_labels(mesh: Mesh, labels: np.ndarray) -> np.ndarray:
    """Close edge components under the shares-a-vertex relation."""
    visible = np.flatnonzero(labels >= 0)
    vertex_charts: dict[int, set[int]] = {}
    for t in visible:
        for v in mesh.triangles[t]:
            vertex_charts.setdefault(int(v), set()).add(int(labels[t]))
    graph: dict[int, set[int]] = {int(c): set() for c in set(labels[visible])}
    for charts in vertex_charts.values():
        charts = sorted(charts)
        for a in charts[1:]:
            graph[charts[0]].add(a)
            graph[a].add(charts[0])
    merged_label: dict[int, int] = {}
    for c in sorted(graph):
        if c in merged_label:
            continue
        group = [c]
        queue = deque([c])
        seen = {c}
        while queue:
            cur = queue.popleft()
            for nb in graph[cur]:
                if nb not in seen:
                    seen.add(nb)
                    group.append(nb)
                    queue.append(nb)
        root = min(group)
        for g in group:
            merged_label[g] = root
    out = labels.copy()
    for t in visible:
        out[t] = merged_label[int(labels[t])]
    return out


def fold_line_reference(widths, omega: int):
    """Walk boxes along the folded line one at a time.

    Returns (rows, xs, m) like the prefix-sum fold, computed with a plain
    running cursor that starts a new row when the next box would cross the
    atlas edge.
    """
    rows, xs = [], []
    row = 0
    cursor = 0
    m = 0
    for w in widths:
        if cursor + w > omega:
            row += 1
            cursor = 0
        x = cursor if row % 3 == 0 else omega - cursor - w
        rows.append(row)
        xs.append(x)
        m = max(m, cursor + w - omega)
        cursor += w
    return np.array(rows), np.array(xs), max(0, m)


@dataclass(frozen=True)
class OrientedBox:
    """A chart box rotated so it is at least as tall as it is wide."""

    w: int
    h: int
    rotated: bool
    source: ChartBox


def orient(boxes: Sequence[ChartBox]) -> list[OrientedBox]:
    """Rotate wider-than-tall boxes by 90 degrees; squares stay put."""
    out = []
    for b in boxes:
        if b.target_w > b.target_h:
            out.append(OrientedBox(w=b.target_h, h=b.target_w, rotated=True, source=b))
        else:
            out.append(OrientedBox(w=b.target_w, h=b.target_h, rotated=False, source=b))
    return out


def order(boxes: Sequence[OrientedBox]) -> list[OrientedBox]:
    """Sort boxes by height descending, owning-triangle index ascending.

    Raises HeightOverflow when a box is taller than MAX_BOX_DIM.
    """
    for b in boxes:
        if b.h > MAX_BOX_DIM:
            raise HeightOverflow(f"box height {b.h} exceeds capacity {MAX_BOX_DIM}")
    return sorted(boxes, key=lambda b: (-b.h, b.source.min_tri))


def _placed(ordered_boxes, xs, ys, widths, heights, omega, scale) -> AtlasLayout:
    placements = tuple(
        Placement(
            chart_id=b.source.chart_id,
            x=int(x),
            y=int(y),
            w=int(w),
            h=int(h),
            rotated=b.rotated,
            target_w=b.source.target_w,
            target_h=b.source.target_h,
        )
        for b, x, y, w, h in zip(ordered_boxes, xs, ys, widths, heights)
    )
    return AtlasLayout(omega=omega, scale=scale, placements=placements)


def pack_at_scale(
    ordered_boxes: Sequence[OrientedBox],
    scale: Fraction,
    omega: int,
    min_dim: int = 1,
    padding: int = 0,
) -> AtlasLayout | None:
    """One candidate scale of the packer on ordered box objects; None when rejected.

    Each side becomes max(min_dim, ceil(scale * side)) + 2 * padding. The
    candidate is rejected when a box is wider than the atlas or the boxes'
    area exceeds it; otherwise the boxes are folded, pushed up, and
    accepted iff the used height fits in the atlas.
    """
    scale = Fraction(scale)
    if not ordered_boxes:
        return AtlasLayout(omega=omega, scale=scale)

    def side(t: int) -> int:
        return max(min_dim, -((-t * scale.numerator) // scale.denominator)) + 2 * padding

    widths = [side(b.w) for b in ordered_boxes]
    heights = [side(b.h) for b in ordered_boxes]
    if max(widths) > omega or sum(w * h for w, h in zip(widths, heights)) > omega * omega:
        return None
    f = fold(widths, omega)
    ys, used = push_up(f, list(zip(widths, heights)), omega)
    if used > omega:
        return None
    return _placed(ordered_boxes, f.x_of_box, ys, widths, heights, omega, scale)


def exhaustive_optimal(
    boxes: Sequence[ChartBox],
    omega: int,
    candidate_scales: Sequence[Fraction],
    max_boxes: int = 6,
    max_omega: int = 32,
) -> Fraction | None:
    """Exact best candidate scale for which any placement exists.

    Feasibility is checked by exhaustive backtracking over corner-anchored
    positions with optional 90-degree rotation per box; shrinking every box
    keeps a feasible placement feasible, so candidates are scanned in
    descending order and the first feasible one is exact. Instances are
    limited to ``max_boxes`` boxes and ``max_omega`` atlas size. Returns
    None when no candidate is feasible.
    """
    box_list = list(boxes)
    if len(box_list) > max_boxes:
        raise ValueError(f"exhaustive search limited to {max_boxes} boxes")
    if omega > max_omega:
        raise ValueError(f"exhaustive search limited to omega <= {max_omega}")
    if not box_list:
        return max(candidate_scales, default=None)
    targets = [(b.target_w, b.target_h) for b in box_list]
    for s in sorted(set(candidate_scales), reverse=True):
        dims = [
            (max(1, -((-w * s.numerator) // s.denominator)),
             max(1, -((-h * s.numerator) // s.denominator)))
            for w, h in targets
        ]
        if _placement_exists(dims, omega):
            return s
    return None


def _placement_exists(dims: list[tuple[int, int]], omega: int) -> bool:
    if sum(w * h for w, h in dims) > omega * omega:
        return False
    # Largest-area first cuts the search fast on infeasible instances.
    dims = sorted(dims, key=lambda d: (-d[0] * d[1], -max(d), d))
    # Any feasible packing can be slid left/down until every box rests on
    # the atlas edge or another box, so coordinates can be restricted to
    # subset sums of box extents ("normal patterns"); rotation makes both
    # extents of every box eligible contributors.
    sums = {0}
    for w, h in dims:
        sums |= {s + d for s in sums for d in (w, h) if s + d < omega}
    coords = sorted(sums)
    placed: list[tuple[int, int, int, int]] = []

    def overlaps(x: int, y: int, w: int, h: int) -> bool:
        for px, py, pw, ph in placed:
            if x < px + pw and px < x + w and y < py + ph and py < y + h:
                return True
        return False

    def rec(i: int) -> bool:
        if i == len(dims):
            return True
        w0, h0 = dims[i]
        orientations = ((w0, h0),) if w0 == h0 else ((w0, h0), (h0, w0))
        for w, h in orientations:
            for x in coords:
                if x + w > omega:
                    break
                for y in coords:
                    if y + h > omega:
                        break
                    if overlaps(x, y, w, h):
                        continue
                    placed.append((x, y, w, h))
                    if rec(i + 1):
                        return True
                    placed.pop()
        return False

    return rec(0)


def struct_layout_digest(layout: AtlasLayout) -> str:
    """The layout digest packed one placement at a time with struct."""
    h = hashlib.sha256()
    scale = layout.scale
    h.update(struct.pack("<QqqQ", layout.omega, scale.numerator, scale.denominator,
                         len(layout.placements)))
    for p in sorted(layout.placements, key=lambda p: p.chart_id):
        h.update(struct.pack("<qqqqqBqq", p.chart_id, p.x, p.y, p.w, p.h, int(p.rotated),
                             p.target_w, p.target_h))
    return h.hexdigest()


def layout_valid(layout: AtlasLayout, grid_limit: int = 256) -> bool:
    """Containment plus pairwise disjointness of all placements.

    Small atlases are checked with a pixel occupancy grid; larger ones with
    interval arithmetic over all pairs.
    """
    om = layout.omega
    for p in layout.placements:
        if p.w < 1 or p.h < 1:
            return False
        if p.x < 0 or p.y < 0 or p.x + p.w > om or p.y + p.h > om:
            return False
    if om <= grid_limit:
        grid = np.zeros((om, om), dtype=np.int32)
        for p in layout.placements:
            grid[p.y : p.y + p.h, p.x : p.x + p.w] += 1
        return int(grid.max(initial=0)) <= 1
    ps = layout.placements
    for i in range(len(ps)):
        a = ps[i]
        for b in ps[i + 1 :]:
            if a.x < b.x + b.w and b.x < a.x + a.w and a.y < b.y + b.h and b.y < a.y + a.h:
                return False
    return True


def push_tightness_ok(layout: AtlasLayout) -> bool:
    """Every placed box is at y == 0 or in contact with a box above it."""
    for p in layout.placements:
        if p.y == 0:
            continue
        touched = False
        for q in layout.placements:
            if q is p:
                continue
            if q.y + q.h == p.y and q.x < p.x + p.w and p.x < q.x + q.w:
                touched = True
                break
        if not touched:
            return False
    return True


def numeric_map_singular_values(screen_tri, atlas_tri, eps: float = 1e-6):
    """Finite-difference Jacobian of the barycentric atlas-to-screen map."""
    s = np.asarray(screen_tri, dtype=np.float64).reshape(3, 2)
    a = np.asarray(atlas_tri, dtype=np.float64).reshape(3, 2)

    def to_screen(pt):
        m = np.column_stack([a[1] - a[0], a[2] - a[0]])
        uv = np.linalg.solve(m, pt - a[0])
        return s[0] + uv[0] * (s[1] - s[0]) + uv[1] * (s[2] - s[0])

    center = a.mean(axis=0)
    jx = (to_screen(center + [eps, 0.0]) - to_screen(center - [eps, 0.0])) / (2 * eps)
    jy = (to_screen(center + [0.0, eps]) - to_screen(center - [0.0, eps])) / (2 * eps)
    sv = np.linalg.svd(np.column_stack([jx, jy]), compute_uv=False)
    return float(sv[0]), float(sv[1])


def _screen_area(tri: np.ndarray) -> float:
    e1 = tri[1] - tri[0]
    e2 = tri[2] - tri[0]
    return abs(e1[0] * e2[1] - e1[1] * e2[0]) / 2.0


def per_triangle_scene_stretch(pairs) -> StretchReport:
    """Aggregate stretch over (screen_tri, atlas_tri) pairs.

    L2 is weighted by screen-space triangle area; Linf is the maximum
    singular value over all pairs. Pairs with a degenerate atlas triangle
    are skipped; raises NoValidTriangles when nothing remains.
    """
    weighted = 0.0
    total_area = 0.0
    linf = 0.0
    valid = 0
    for screen_tri, atlas_tri in pairs:
        try:
            big, small = triangle_stretch(screen_tri, atlas_tri)
        except DegenerateTriangle:
            continue
        valid += 1
        area = _screen_area(np.asarray(screen_tri, dtype=np.float64).reshape(3, 2))
        weighted += area * (big * big + small * small) / 2.0
        total_area += area
        linf = max(linf, big)
    if valid == 0:
        raise NoValidTriangles("no valid triangle pairs")
    l2 = float(np.sqrt(weighted / total_area)) if total_area > 0 else 0.0
    return StretchReport(l2=l2, linf=linf)


def per_triangle_stretch_report(cfg, mesh, cam, charts, layout, chart_ndc, chart_px):
    """Per-triangle screen-vs-atlas stretch over fully-projectable triangles.

    ``charts`` maps each chart id to its member triangles.

    Triangles with any vertex at or behind the camera plane are skipped;
    their screen vertices have no well-defined projection.
    """
    placements = {p.chart_id: p for p in layout.placements}
    w_screen, h_screen = cfg.screen
    pad = cfg.padding
    pairs = []
    clip = clip_coords(triangle_corners(mesh), cam)
    if len(clip) == 0:
        return None
    for root, members in charts.items():
        p = placements.get(root)
        if p is None or root not in chart_ndc:
            continue
        box = chart_ndc[root]
        w_px, h_px = chart_px[root]
        cw = p.w - 2 * pad
        ch = p.h - 2 * pad
        for t in members:
            v = clip[t]
            if np.any(v[:, 3] <= W_EPSILON):
                continue
            ndc = v[:, :2] / v[:, 3:4]
            screen_tri = np.column_stack(
                [(ndc[:, 0] + 1.0) * 0.5 * w_screen, (ndc[:, 1] + 1.0) * 0.5 * h_screen]
            )
            u = (ndc[:, 0] - box.min_x) * 0.5 * w_screen
            vv = (ndc[:, 1] - box.min_y) * 0.5 * h_screen
            if p.rotated:
                atlas_tri = np.column_stack(
                    [p.x + pad + vv * (cw / h_px), p.y + pad + u * (ch / w_px)]
                )
            else:
                atlas_tri = np.column_stack(
                    [p.x + pad + u * (cw / w_px), p.y + pad + vv * (ch / h_px)]
                )
            pairs.append((screen_tri, atlas_tri))
    try:
        return per_triangle_scene_stretch(pairs)
    except NoValidTriangles:
        return None


def delaunay_mesh(rng: np.random.Generator, n_points: int, z: float = -5.0) -> Mesh:
    """Random planar triangulation lifted to a plane in front of the camera."""
    from scipy.spatial import Delaunay

    pts = rng.random((max(n_points, 4), 2)) * 4.0 - 2.0
    tri = Delaunay(pts)
    positions = np.column_stack([pts, np.full(len(pts), z)])
    return Mesh(positions=positions, triangles=np.asarray(tri.simplices, dtype=np.int64))


def obj_line_loop(path) -> Mesh:
    """The mesh of an OBJ file read one line at a time; ValueError on the first bad line."""
    with open(path, "rb") as fh:
        lines = io.StringIO(fh.read().decode("utf-8", errors="replace"), newline=None)
    positions: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise ValueError(f"{path}:{lineno}: vertex needs 3 coordinates")
            try:
                x, y, z = float(parts[1]), float(parts[2]), float(parts[3])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: vertex coordinates must be numbers"
                ) from None
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise ValueError(f"{path}:{lineno}: vertex coordinates must be finite")
            positions.append([x, y, z])
        elif parts[0] == "f":
            n = len(positions)
            idx = []
            for token in parts[1:]:
                try:
                    i = int(token.split("/", 1)[0])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad face index '{token}'") from None
                if i == 0 or not -n <= i <= n:
                    raise ValueError(
                        f"{path}:{lineno}: face index {i} out of range for {n} vertices"
                    )
                idx.append(i - 1 if i > 0 else n + i)
            if len(idx) < 3:
                raise ValueError(f"{path}:{lineno}: face needs >= 3 vertices")
            for k in range(1, len(idx) - 1):
                faces.append((idx[0], idx[k], idx[k + 1]))
    return Mesh(
        positions=np.array(positions, dtype=np.float64).reshape(-1, 3),
        triangles=np.array(faces, dtype=np.int64).reshape(-1, 3),
    )


def box_line_split(text: str) -> tuple[list[str], list[int], list[int]]:
    """(tokens, line numbers, field counts) of a box file's records, split line by line.

    ``text`` has its CRLF and CR line ends read as LF.
    """
    fields = [line.partition("#")[0].split() for line in text.split("\n")]
    linenos = [n for n, f in enumerate(fields, start=1) if f]
    fields = [f for f in fields if f]
    return [v for f in fields for v in f], linenos, [len(f) for f in fields]
