"""Independent reference implementations used to check the library.

Everything here deliberately avoids the code paths under test: the exact
frustum box is a plain Sutherland-Hodgman loop over all six planes, the
clamp-only box skips clipping altogether, the one-polygon clip step, the
per-triangle frustum clip, the scalar Blinn clamp and side-plane choice,
the reference rasterizer and the per-triangle chart box are the package's
earlier one-triangle-at-a-time loops, which the batched code must match
bit for bit, the stretch report
is the earlier per-triangle pair loop with one SVD per triangle, which the
per-chart rule must match to rounding, components come from
breadth-first search over an edge adjacency built with a dict, the fold
reference walks boxes one at a time along the folded line, the exhaustive
packer backtracks over every placement of a tiny instance, the object
packer orients, orders and places one ChartBox object at a time as the
package did before its box and layout tables, and layout validity is
checked by occupancy grids or pairwise interval arithmetic. Only tests
call this code, so it lives here rather than in the package.
"""

from __future__ import annotations

import hashlib
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
    NdcBox,
    NoValidTriangles,
    Placement,
    StretchReport,
    fold,
    push_up,
    triangle_stretch,
)
from atlaspack.charts import DEPTH_EPSILON
from atlaspack.geometry import (
    FRUSTUM_PLANES,
    SIDE_PLANES,
    W_EPSILON,
    clip_coords,
    plane_distances,
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
    """chart_bbox one triangle at a time: near clip, else best side plane.

    Every triangle takes the per-triangle branch that the package keeps only
    for triangles crossing the near plane or a side plane.
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

    Counter-clockwise polygons (in y-up pixel coordinates) are front-facing;
    with culling disabled, clockwise polygons are flipped and rasterized.
    Boundary samples follow a top-left rule so triangles meeting along an
    edge never both claim the shared samples.
    """
    area2 = _signed_area2(screen_poly)
    if area2 == 0.0:
        return None
    if area2 < 0.0:
        if cull:
            return None
        screen_poly = screen_poly[::-1]
    min_x = max(0, int(np.floor(screen_poly[:, 0].min() - 0.5)))
    max_x = min(width - 1, int(np.ceil(screen_poly[:, 0].max())))
    min_y = max(0, int(np.floor(screen_poly[:, 1].min() - 0.5)))
    max_y = min(height - 1, int(np.ceil(screen_poly[:, 1].max())))
    if min_x > max_x or min_y > max_y:
        return None
    xs = np.arange(min_x, max_x + 1) + 0.5
    ys = np.arange(min_y, max_y + 1) + 0.5
    px, py = np.meshgrid(xs, ys)
    inside = np.ones(px.shape, dtype=bool)
    n = len(screen_poly)
    for i in range(n):
        ax, ay = screen_poly[i, 0], screen_poly[i, 1]
        bx, by = screen_poly[(i + 1) % n, 0], screen_poly[(i + 1) % n, 1]
        e = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        dy = by - ay
        # In y-up coordinates the interior lies below edges running left,
        # so "top-left" means edges going up or exactly-horizontal-left.
        if dy > 0 or (dy == 0 and bx - ax < 0):
            inside &= e >= 0
        else:
            inside &= e > 0
    if not inside.any():
        return None
    iy, ix = np.nonzero(inside)
    sx = px[iy, ix]
    sy = py[iy, ix]
    zs = _interp_depth(screen_poly, sx, sy)
    return iy + min_y, ix + min_x, zs


def _signed_area2(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


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


def _each_screen_polygon(mesh: Mesh, cam, width: int, height: int, cull: bool):
    corners = mesh.triangle_corners()
    if len(corners) == 0:
        return
    homo = np.concatenate([corners, np.ones((len(corners), 3, 1))], axis=2)
    clip_all = homo @ cam.view_proj.T
    for t in range(len(corners)):
        poly = clip_triangle_frustum(clip_all[t])
        if len(poly) < 3:
            continue
        screen = _polygon_to_screen(poly, width, height)
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


def per_triangle_stretch_report(cfg, mesh, cam, cs, layout, chart_ndc, chart_px):
    """Per-triangle screen-vs-atlas stretch over fully-projectable triangles.

    Triangles with any vertex at or behind the camera plane are skipped;
    their screen vertices have no well-defined projection.
    """
    placements = {p.chart_id: p for p in layout.placements}
    w_screen, h_screen = cfg.screen
    pad = cfg.padding
    pairs = []
    clip = clip_coords(mesh.triangle_corners(), cam)
    if len(clip) == 0:
        return None
    for root, members in cs.charts.items():
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
