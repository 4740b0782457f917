"""Per-frame visibility and chartification.

A software depth prepass and a matching visibility pass mark triangles that
cover at least one depth-passing pixel-center sample. Visible triangles are
then grouped into charts: connected components over shared edges, followed
by transitive merging of charts that share any vertex, so every vertex of a
visible triangle maps to exactly one chart. Both are array labellings by
root hooking and pointer jumping (Shiloach and Vishkin 1982), which takes
about a dozen rounds on a randomly numbered strip of 100,000 triangles.

Both passes draw their samples from one batched sampler, ``_samples``. It
projects every triangle with one matmul, clips all the triangles that leave
the frustum at once, one plane after another (Sutherland and Hodgman 1974),
and evaluates top-left edge functions (Pineda 1988) only at the samples a
polygon covers. On a fixed row, an edge's value
``row_term - ey * ((ix + 0.5) - sx)`` is weakly monotone in the column ix,
because float subtraction and multiplication by a constant are monotone.
So the top-left test passes on a prefix of the row when ey > 0, on a
suffix when ey < 0, and on all or none of it when ey == 0, and a convex
polygon covers one span [lo, hi] of each row of its pixel box, the
intersection of these. Each bound comes from the edge's estimated crossing,
confirmed by the exact test on both sides of it, or from a bisection with
the exact test where the estimate is not finite or misses. The depth pass
keeps the minimum depth per pixel; the visibility pass reruns the sampler
and flags each triangle with a sample at or in front of the stored depth.
Identical arithmetic in both passes keeps the visibility predicate
self-consistent, and every sample is computed with the same operations as
a one-triangle-at-a-time rasterizer, so results do not depend on batching.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .geometry import (
    FRUSTUM_PLANES,
    W_EPSILON,
    CameraFrame,
    clip_coords,
    clip_halfspace,
    plane_distances,
)

# Depth comparison slack, relative to the unit NDC depth range. The two
# passes share all arithmetic, so any value >= 0 gives identical results;
# kept small and explicit.
DEPTH_EPSILON = 1e-6


@dataclass
class Mesh:
    """Indexed triangle soup: (n, 3) float64 positions, (m, 3) int64 triangles."""

    positions: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        tris = self.triangles
        if len(tris) and (tris.min() < 0 or tris.max() >= len(self.positions)):
            raise ValueError("triangle indices out of range")

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_corners(self, indices=None) -> np.ndarray:
        """World-space corners, shape (n, 3, 3)."""
        tris = self.triangles if indices is None else self.triangles[indices]
        return self.positions[tris]


def build_adjacency(triangles: np.ndarray) -> np.ndarray:
    """Edge adjacency: ``adjacency[t, e]`` is the triangle sharing edge e of
    triangle t, or -1. One stable lexsort groups the edges 3t + e by their
    end vertices, and groups of exactly two are linked both ways; edges
    shared by more than two triangles stay unlinked, so the adjacency is
    symmetric with degree <= 3."""
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    u, v = tris.ravel(), np.roll(tris, -1, axis=1).ravel()
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    start = np.flatnonzero(np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]), True])
    pair = start[:-1][np.diff(start) == 2]
    first, second = order[pair], order[pair + 1]
    adjacency = np.full(3 * len(tris), -1, dtype=np.int64)
    adjacency[first], adjacency[second] = second // 3, first // 3
    return adjacency.reshape(-1, 3)


# The bytes of a plain OBJ file: numbers, the keywords v and f, spaces and
# newlines.
_PLAIN_OBJ = b"0123456789+-.eEvf \n"


def load_obj(path) -> Mesh:
    """Load positions and faces from a Wavefront OBJ file.

    Polygons are fan-triangulated; normals, texture coordinates, and
    materials are ignored. Negative (relative) indices are supported. A
    non-numeric or non-finite coordinate, a non-numeric face index, and a
    face index of 0 or past the vertices read so far raise ValueError
    naming the file and line.

    A plain file, which holds only the bytes of ``_PLAIN_OBJ`` and whose
    every non-blank line is a ``v`` or ``f`` and three tokens, is converted
    whole: all coordinates as one column and all face indices as another,
    each rule checked on a whole column. Any other file (comments, ``/``
    tokens, quads, CR line ends, other keywords or bytes), or a plain one
    that breaks a rule, goes to the line loop, which alone raises the
    messages above.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    mesh = _plain_obj(data)
    if mesh is None:
        text = io.StringIO(data.decode("utf-8", errors="replace"), newline=None)
        mesh = _obj_lines(path, text)
    return mesh


def tokens_per_line(data: bytes) -> np.ndarray:
    """Whitespace-separated tokens on each line of ``data``, up to its last token.

    ``data`` must hold no whitespace bytes other than space and newline.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    newline = b == ord("\n")
    gap = newline | (b == ord(" "))
    start = ~gap
    start[1:] &= gap[:-1]
    # Token k is event i in file order, after k tokens and so i - k newlines.
    at = np.flatnonzero(~newline[np.flatnonzero(start | newline)])
    return np.bincount(at - np.arange(len(at)))


def _plain_obj(data: bytes) -> Mesh | None:
    """The mesh of a plain OBJ file, or None if ``data`` is not plain or breaks a rule."""
    if data.translate(None, _PLAIN_OBJ):
        return None
    tokens = data.split()
    kinds = b"".join(tokens[::4])  # each line's first token when every line has 4
    n = len(tokens) // 4
    if (
        not np.isin(tokens_per_line(data), (0, 4)).all()
        or len(kinds) != n
        or kinds.translate(None, b"vf")
    ):
        return None
    is_f = np.frombuffer(kinds, dtype=np.uint8) == ord("f")
    n_faces = int(is_f.sum())
    del tokens[::4]
    try:
        positions = np.fromiter(
            map(float, compress(tokens, np.repeat(~is_f, 3).tolist())),
            dtype=np.float64, count=3 * (n - n_faces),
        )
        faces = np.fromiter(
            map(int, compress(tokens, np.repeat(is_f, 3).tolist())),
            dtype=np.int64, count=3 * n_faces,
        ).reshape(-1, 3)
    except (ValueError, OverflowError):  # a bad token, or an index outside int64
        return None
    seen = np.cumsum(~is_f)[is_f][:, None]  # vertices read before each face
    if not np.isfinite(positions).all() or np.any((faces == 0) | (faces < -seen) | (faces > seen)):
        return None
    return Mesh(positions=positions, triangles=np.where(faces > 0, faces - 1, seen + faces))


def _obj_lines(path, lines) -> Mesh:
    """The mesh of an OBJ file given as text lines; raises ValueError on the first bad line."""
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


@dataclass
class VisibilityBuffer:
    """One visibility flag per triangle."""

    flags: np.ndarray

    def __post_init__(self):
        self.flags = np.asarray(self.flags, dtype=bool)


@dataclass
class ChartSet:
    """Partition of visible triangles into charts, as arrays.

    ``chart_of_triangle`` labels each triangle with its chart id, or -1 when
    it is not visible; a chart's id is its minimum member triangle. ``ids``
    holds the chart ids in ascending order, and ``members`` the visible
    triangles grouped by chart in that order, ascending within each chart;
    chart i's members start at ``starts[i]``. ``vertex_to_chart`` gives each
    vertex's chart, or -1 for a vertex that no visible triangle uses; it is
    all -1 until merge_shared_vertices fills it.
    """

    chart_of_triangle: np.ndarray
    ids: np.ndarray
    starts: np.ndarray
    members: np.ndarray
    vertex_to_chart: np.ndarray

    @property
    def n_charts(self) -> int:
        return len(self.ids)


# --- rasterization ---------------------------------------------------------

# Box rows whose spans are set up at once, and covered samples per chunk.
# A chunk holds whole rows, so at most max(_CHUNK, width) samples, and the
# memory of a pass stays bounded whatever the screen size.
_CHUNK = 1 << 14


def _samples(mesh: Mesh, cam: CameraFrame, width: int, height: int, cull: bool):
    """Yield chunks of covered pixel-center samples as (t, iy, ix, z) arrays.

    Each sample is a triangle id, a pixel row and column, and an NDC depth.
    Every polygon group is set up before the first chunk, so only what the
    chunks read stays alive while they are generated.
    """
    groups = [
        _screen_polygons(t, poly, width, height, cull) for t, poly in _clip_groups(mesh, cam)
    ]
    for group in groups:
        yield from _chunks(*group)


def _clip_groups(mesh: Mesh, cam: CameraFrame) -> list[tuple[np.ndarray, np.ndarray]]:
    """Frustum-clipped triangles: (triangle ids, (G, n, 4) polygons) per vertex count n.

    All triangles are projected with one matmul. Those inside every frustum
    plane are used as they are. The rest are clipped in seven batched
    Sutherland-Hodgman stages, w - W_EPSILON >= 0 and then the six
    FRUSTUM_PLANES in order, each applied only to the polygons with a vertex
    outside it, so every polygon equals a one-triangle-at-a-time clip. A
    triangle with no vertex at w - W_EPSILON > 0 is dropped first. Groups
    and their ids keep the order of that per-triangle loop: triangles as
    they are, then the clipped ones by id, and groups by first id.
    """
    clip = clip_coords(mesh.triangle_corners(), cam)
    front = clip[:, :, 3] - W_EPSILON > 0
    # w + v >= 0 and w - v >= 0 hold iff -w <= v <= w, since a float sum
    # is zero only for opposite operands: one test for all six planes.
    within = np.abs(clip[:, :, :3]) <= clip[:, :, 3:]
    # Chained over the vertices and axes: a reduction along a length-3 axis is slower.
    within = within[:, :, 0] & within[:, :, 1] & within[:, :, 2]
    inside = front[:, 0] & front[:, 1] & front[:, 2] & within[:, 0] & within[:, 1] & within[:, 2]
    leaving = np.flatnonzero(~inside & (front[:, 0] | front[:, 1] | front[:, 2]))
    groups = [(leaving, clip[leaving])]
    for plane in (None, *FRUSTUM_PLANES):  # None: the camera plane
        by_count: dict[int, list] = {}
        for ids, poly in groups:
            dist = poly[:, :, 3] - W_EPSILON if plane is None else plane_distances(poly, plane)
            keep = dist >= 0
            cut = ~np.all(keep, axis=1)
            parts = [(ids[~cut], poly[~cut])]
            parts += [(ids[cut][r], p) for r, p in clip_halfspace(poly[cut], dist[cut], keep[cut])]
            for part in parts:
                if len(part[0]):
                    by_count.setdefault(part[1].shape[1], []).append(part)
        groups = [tuple(map(np.concatenate, zip(*parts))) for parts in by_count.values()]
    ordered = {3: [(np.flatnonzero(inside), clip[inside])]}
    for ids, poly in sorted(groups, key=lambda g: g[0].min()):
        if poly.shape[1] >= 3:
            order = np.argsort(ids)
            ordered.setdefault(poly.shape[1], []).append((ids[order], poly[order]))
    return [tuple(map(np.concatenate, zip(*parts))) for parts in ordered.values()]


def _screen_polygons(t, poly, width: int, height: int, cull: bool):
    """Project, cull, flip and box convex homogeneous polygons, shape (G, n, 4).

    Counter-clockwise polygons (in y-up pixel coordinates) are front-facing;
    with culling disabled, clockwise polygons are flipped. Returns the
    triangle ids and (n, 3) screen polygons that survive, their pixel boxes,
    edge vectors, top-left flags and depth planes.
    """
    screen = poly[:, :, :3] / poly[:, :, 3:4]  # NDC, then x and y to pixels
    screen[:, :, 0] = (screen[:, :, 0] + 1.0) * 0.5 * width
    screen[:, :, 1] = (screen[:, :, 1] + 1.0) * 0.5 * height
    area2 = _orientation(screen)
    keep = area2 > 0.0 if cull else area2 != 0.0
    t, screen, flip = t[keep], screen[keep], area2[keep] < 0.0
    screen[flip] = screen[flip, ::-1]

    x, y = screen[:, :, 0], screen[:, :, 1]
    x0 = np.maximum(0, np.floor(x.min(axis=1) - 0.5).astype(np.int64))
    x1 = np.minimum(width - 1, np.ceil(x.max(axis=1)).astype(np.int64))
    y0 = np.maximum(0, np.floor(y.min(axis=1) - 0.5).astype(np.int64))
    y1 = np.minimum(height - 1, np.ceil(y.max(axis=1)).astype(np.int64))
    keep = (x0 <= x1) & (y0 <= y1)
    t, screen, x0, x1, y0, y1 = t[keep], screen[keep], x0[keep], x1[keep], y0[keep], y1[keep]

    # Edge i runs from vertex i to vertex i + 1. In y-up coordinates the
    # interior lies below edges running left, so "top-left" means edges
    # going up or exactly-horizontal-left; samples on them are covered.
    ex = np.roll(screen[:, :, 0], -1, axis=1) - screen[:, :, 0]
    ey = np.roll(screen[:, :, 1], -1, axis=1) - screen[:, :, 1]
    top_left = (ey > 0) | ((ey == 0) & (ex < 0))
    return t, screen, (x0, x1, y0, y1), (ex, ey, top_left), _depth_planes(screen)


def _chunks(t, screen, box, edges, planes):
    """Covered samples of screen polygons, in chunks of whole rows.

    Rows of the polygons' boxes are taken _CHUNK at a time, in polygon
    order. Each row is narrowed to the span of samples its polygon covers
    (_row_spans), and the spans are cut into chunks of at most _CHUNK
    samples, or one row where a row alone holds more. Boundary samples
    follow the top-left rule, so polygons meeting along an edge never both
    claim the shared samples. Samples come out by polygon, then row, then
    column, and every per-sample value is computed with the same
    operations, in the same order, as a one-polygon-at-a-time rasterizer
    would use, so results do not depend on how polygons are batched.
    """
    x0, x1, y0, y1 = box
    z0, gx, gy, flat = planes
    n_rows = y1 - y0 + 1
    row_end = np.cumsum(n_rows)
    total = int(row_end[-1]) if len(row_end) else 0
    for first_row in range(0, total, _CHUNK):
        r = np.arange(first_row, min(first_row + _CHUNK, total))
        g = np.searchsorted(row_end, r, side="right")
        iy = y0[g] + (r - row_end[g] + n_rows[g])
        lo, hi = _row_spans(screen, edges, g, iy, x0[g], x1[g])
        rows = np.flatnonzero(lo <= hi)
        g, iy, lo, count = g[rows], iy[rows], lo[rows], hi[rows] - lo[rows] + 1
        end = np.cumsum(count)
        start = 0
        while start < len(end):
            base = end[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(end, base + _CHUNK, side="right")))
            n = count[start:stop]
            gs, iys = np.repeat(g[start:stop], n), np.repeat(iy[start:stop], n)
            ixs = np.repeat(lo[start:stop], n) + _ranks(n)
            z = (
                z0[gs]
                + gx[gs] * (ixs + 0.5 - screen[gs, 0, 0])
                + gy[gs] * (iys + 0.5 - screen[gs, 0, 1])
            )
            # Flat polygons take z0 as it is: adding the zero terms could
            # change the sign of a zero depth.
            on_flat = flat[gs]
            z[on_flat] = z0[gs[on_flat]]
            yield t[gs], iys, ixs, z
            start = stop


def _row_spans(screen, edges, g, iy, lo, hi):
    """Narrow each row's [lo, hi] to the samples that polygon g covers on row iy.

    Each edge's test passes on a prefix of the row where ey >= 0 and on a
    suffix where ey < 0 (see the module docstring). Its boundary is the
    estimated crossing, confirmed by the exact test on both sides of it;
    where the estimate is not finite or misses, _search_boundary finds it.
    A row whose span is empty gets lo > hi.
    """
    ex, ey, top_left = edges
    py = iy + 0.5
    for i in range(screen.shape[1]):
        sx, e_y, tl = screen[g, i, 0], ey[g, i], top_left[g, i]
        row_term = ex[g, i] * (py - screen[g, i, 1])
        suffix = e_y < 0
        # b is the last column of [lo - 1, hi] where the test differs from
        # suffix: the last passing one of a prefix, the last failing one
        # before a suffix.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            est = np.floor(sx + row_term / e_y - 0.5)
        finite = np.isfinite(est)
        b = np.where(finite, np.clip(est, lo - 1, hi), lo - 1).astype(np.int64)
        ok = finite & ((b < lo) | (_edge_passes(row_term, e_y, sx, tl, b) != suffix))
        ok &= (b >= hi) | (_edge_passes(row_term, e_y, sx, tl, b + 1) == suffix)
        miss = np.flatnonzero(~ok)
        if len(miss):
            b[miss] = _search_boundary(
                row_term[miss], e_y[miss], sx[miss], tl[miss], suffix[miss],
                lo[miss] - 1, hi[miss] + 1,
            )
        lo = np.where(suffix, np.maximum(lo, b + 1), lo)
        hi = np.where(suffix, hi, np.minimum(hi, b))
    return lo, hi


def _edge_passes(row_term, ey, sx, top_left, ix):
    """The top-left test of one edge at samples ix of their rows."""
    e = row_term - ey * ((ix + 0.5) - sx)
    return (e > 0) | ((e == 0) & top_left)


def _search_boundary(row_term, ey, sx, top_left, suffix, below, above):
    """Last column in [below, above) where the exact edge test differs from suffix, by bisection.

    The test differs from suffix at below, or below is left of the row, and
    agrees with it at above, or above is right of the row; in between it
    flips once, since the edge value is monotone along the row.
    """
    while True:
        open_ = above - below > 1
        if not open_.any():
            return below
        mid = (below + above) // 2
        flips = _edge_passes(row_term, ey, sx, top_left, mid) != suffix
        below = np.where(open_ & flips, mid, below)
        above = np.where(open_ & ~flips, mid, above)


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _orientation(screen: np.ndarray) -> np.ndarray:
    """Twice the signed screen area of each polygon; only its sign is used.

    Where the summation order could decide the sign, the polygon's area is
    recomputed with np.dot, as the per-triangle rasterizer computed it, so
    culling and flipping do not depend on the batch.
    """
    x, y = screen[:, :, 0], screen[:, :, 1]
    xy = x * np.roll(y, -1, axis=1)
    yx = y * np.roll(x, -1, axis=1)
    area2 = xy.sum(axis=1) - yx.sum(axis=1)
    # Any evaluation order of the two sums of n <= 9 products, fused or
    # not, lies within 9 * 2^-53 of the sum of their magnitudes from the
    # exact value, so beyond 1e-12 of that sum the order cannot flip the
    # sign. np.dot's order depends on the strides, so each recomputation
    # reads the columns of an (n, 3) polygon, as the per-triangle code did.
    close = np.abs(area2) <= 1e-12 * (np.abs(xy).sum(axis=1) + np.abs(yx).sum(axis=1))
    for g in np.flatnonzero(close):
        px, py = screen[g, :, 0], screen[g, :, 1]
        area2[g] = np.dot(px, np.roll(py, -1)) - np.dot(py, np.roll(px, -1))
    return area2


def _depth_planes(screen: np.ndarray):
    """Affine NDC depth z0 + gx * (x - x0) + gy * (y - y0) of each polygon.

    NDC z is screen-affine. The plane is solved on the first fan triangle
    (0, j, j + 1) with |det| > 1e-12. Polygons with none are ``flat``: their
    depth is the mean vertex depth, returned in z0.
    """
    p0 = screen[:, 0]
    z0 = p0[:, 2].copy()
    gx = np.zeros(len(screen))
    gy = np.zeros(len(screen))
    flat = np.ones(len(screen), dtype=bool)
    for j in range(1, screen.shape[1] - 1):
        d1, d2 = screen[:, j] - p0, screen[:, j + 1] - p0
        det = d1[:, 0] * d2[:, 1] - d2[:, 0] * d1[:, 1]
        solve = flat & (np.abs(det) > 1e-12)
        gx[solve] = (d1[solve, 2] * d2[solve, 1] - d2[solve, 2] * d1[solve, 1]) / det[solve]
        gy[solve] = (d2[solve, 2] * d1[solve, 0] - d1[solve, 2] * d2[solve, 0]) / det[solve]
        flat &= ~solve
    for g in np.flatnonzero(flat):
        z0[g] = screen[g, :, 2].mean()
    return z0, gx, gy, flat


def depth_prepass(
    mesh: Mesh, cam: CameraFrame, res: tuple[int, int], backface_cull: bool = True
) -> np.ndarray:
    """Rasterize minimum NDC depth per pixel; uncovered pixels hold +inf.

    ``res`` is (width, height); the buffer has shape (height, width) with
    row 0 along the NDC y = -1 edge.
    """
    width, height = int(res[0]), int(res[1])
    if width < 1 or height < 1:
        raise ValueError("resolution must be at least 1x1")
    depth = np.full((height, width), np.inf)
    for _, iy, ix, z in _samples(mesh, cam, width, height, backface_cull):
        np.minimum.at(depth, (iy, ix), z)
    return depth


def mark_visible(
    mesh: Mesh, cam: CameraFrame, depth: np.ndarray, backface_cull: bool = True
) -> VisibilityBuffer:
    """Flag triangles covering at least one depth-passing pixel-center sample."""
    height, width = depth.shape
    flags = np.zeros(mesh.n_triangles, dtype=bool)
    for t, iy, ix, z in _samples(mesh, cam, width, height, backface_cull):
        stored = depth[iy, ix]
        slack = DEPTH_EPSILON * np.maximum(1.0, np.abs(stored))
        flags[t[z <= stored + slack]] = True
    return VisibilityBuffer(flags=flags)


# --- chartification --------------------------------------------------------


def connected_charts(mesh: Mesh, vis: VisibilityBuffer) -> ChartSet:
    """Group visible triangles into edge-connected components.

    Two visible triangles join the same chart iff they are linked by a path
    of edge-adjacent visible triangles. Each chart is labeled by its
    minimum member triangle index; invisible triangles stay unlabeled.
    Vertex assignments are left to merge_shared_vertices.
    """
    flags = vis.flags
    if len(flags) != mesh.n_triangles:
        raise ValueError("visibility buffer does not match the mesh")
    t, nb = np.repeat(np.arange(mesh.n_triangles), 3), build_adjacency(mesh.triangles).ravel()
    linked = (nb >= 0) & flags[t] & flags[nb]
    labels = _min_labels(mesh.n_triangles, t[linked], nb[linked])
    labels[~flags] = -1
    return _chart_set(labels, np.full(len(mesh.positions), -1, dtype=np.int64))


def merge_shared_vertices(cs: ChartSet, mesh: Mesh) -> ChartSet:
    """Transitively merge charts that share any vertex.

    Labels the graph that links each visible triangle t to its label and to
    its vertices, numbered n_triangles + v. The merged chart id is the
    minimum member, and a vertex takes the chart of its component, so every
    vertex of a visible triangle maps to exactly one chart. Raises
    ValueError when the labels do not fit the mesh or name an invisible
    triangle.
    """
    n, labels = mesh.n_triangles, cs.chart_of_triangle
    visible = np.flatnonzero(labels >= 0)
    bad = len(labels) != n or np.any((labels < -1) | (labels >= n))
    if bad or np.any(labels[labels[visible]] < 0):
        raise ValueError("chart set does not match the mesh")
    # Vertex nodes come after the triangles, so every root is a triangle,
    # and a vertex no visible triangle uses stays its own root.
    a = np.r_[labels[visible], np.repeat(visible, 3)]
    b = np.r_[visible, n + mesh.triangles[visible].ravel()]
    merged = _min_labels(n + len(mesh.positions), a, b)
    merged[:n][labels < 0] = -1
    vertex_to_chart = merged[n:]
    vertex_to_chart[vertex_to_chart >= n] = -1
    return _chart_set(merged[:n], vertex_to_chart)


def _min_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label each of n nodes by the minimum node of its component under edges (a, b).

    Each round hooks the larger root of every edge that crosses two trees
    under the smaller root, then jumps pointers until all point at roots.
    Hooking roots, not nodes, keeps the rounds few on long paths. Parents
    never exceed their nodes, so each root is its component's minimum.
    """
    parent = np.arange(n, dtype=np.int64)
    while True:
        ra, rb = parent[a], parent[b]
        crossing = ra != rb
        if not crossing.any():
            return parent
        # An edge within one tree stays so, since trees only merge.
        a, b, ra, rb = a[crossing], b[crossing], ra[crossing], rb[crossing]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):
            parent, jumped = jumped, jumped[jumped]


def _chart_set(labels: np.ndarray, vertex_to_chart: np.ndarray) -> ChartSet:
    """A ChartSet from canonical labels: one stable argsort groups the visible triangles."""
    visible = np.flatnonzero(labels >= 0)
    members = visible[np.argsort(labels[visible], kind="stable")]
    ids, starts = np.unique(labels[members], return_index=True)
    return ChartSet(labels, ids, starts, members, vertex_to_chart)
