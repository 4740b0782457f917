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
and evaluates top-left edge functions (Pineda 1988) over groups of
polygons at once, in chunks of at most max(_CHUNK, width) candidate
samples, so memory stays bounded whatever the screen size. The
depth pass keeps the minimum depth per pixel; the visibility pass reruns
the sampler and flags each triangle with a sample at or in front of the
stored depth. Identical arithmetic in both passes keeps the visibility
predicate self-consistent, and every sample is computed with the same
operations as a one-triangle-at-a-time rasterizer, so results do not
depend on batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """Indexed triangle soup with per-triangle edge adjacency.

    ``adjacency[t, e]`` is the triangle sharing edge e of triangle t, or -1.
    Edges shared by more than two triangles stay unlinked, which keeps the
    adjacency symmetric with degree <= 3. A given adjacency must have shape
    (n_triangles, 3) and entries in [-1, n_triangles); else ValueError.
    """

    positions: np.ndarray
    triangles: np.ndarray
    adjacency: np.ndarray = field(default=None)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        n = len(self.triangles)
        if n and (self.triangles.min() < 0 or self.triangles.max() >= len(self.positions)):
            raise ValueError("triangle indices out of range")
        if self.adjacency is None:
            self.adjacency = build_adjacency(self.triangles)
        adj = self.adjacency = np.asarray(self.adjacency, dtype=np.int64)
        if adj.shape != (n, 3) or n and not -1 <= adj.min() <= adj.max() < n:
            raise ValueError(f"adjacency must be ({n}, 3) with entries in [-1, {n})")

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_corners(self, indices=None) -> np.ndarray:
        """World-space corners, shape (n, 3, 3)."""
        tris = self.triangles if indices is None else self.triangles[indices]
        return self.positions[tris]


def build_adjacency(triangles: np.ndarray) -> np.ndarray:
    """Mesh adjacency: one stable lexsort groups the edges 3t + e by their
    end vertices, and groups of exactly two are linked both ways."""
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


def load_obj(path) -> Mesh:
    """Load positions and faces from a Wavefront OBJ file.

    Polygons are fan-triangulated; normals, texture coordinates, and
    materials are ignored. Negative (relative) indices are supported. A
    non-numeric or non-finite coordinate, a non-numeric face index, and a
    face index of 0 or past the vertices read so far raise ValueError
    naming the file and line.
    """
    positions: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    """One visibility flag per triangle plus the sampling resolution."""

    flags: np.ndarray
    sample_res: tuple[int, int]

    def __post_init__(self):
        self.flags = np.asarray(self.flags, dtype=bool)


@dataclass
class ChartSet:
    """Partition of visible triangles into charts.

    Chart ids equal the minimum member triangle index; ``charts`` maps them
    in ascending order to their ascending members. ``vertex_to_chart`` is
    populated after shared-vertex merging.
    """

    chart_of_triangle: np.ndarray
    charts: dict[int, np.ndarray]
    vertex_to_chart: dict[int, int]

    def __post_init__(self):
        self.chart_of_triangle = np.asarray(self.chart_of_triangle, dtype=np.int64)

    @property
    def n_charts(self) -> int:
        return len(self.charts)


# --- rasterization ---------------------------------------------------------

# Candidate pixel-center samples evaluated at once. A polygon is split into
# row bands that fit, except that one row is never split, so a chunk holds
# at most max(_CHUNK, width) candidates.
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
    d = clip[:, :, 3] - W_EPSILON
    # w + v >= 0 and w - v >= 0 hold iff -w <= v <= w, since a float sum
    # is zero only for opposite operands: one test for all six planes.
    inside = np.all(d > 0, axis=1)
    inside &= np.all(np.abs(clip[:, :, :3]) <= clip[:, :, 3:], axis=(1, 2))
    leaving = np.flatnonzero(~inside & np.any(d > 0, axis=1))
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
    """Covered samples of screen polygons, in chunks of at most _CHUNK candidates.

    Boundary samples follow the top-left rule, so polygons meeting along an
    edge never both claim the shared samples. Every per-sample value is
    computed with the same operations, in the same order, as a
    one-polygon-at-a-time rasterizer would use, so results do not depend on
    how polygons are batched.
    """
    x0, x1, y0, y1 = box
    ex, ey, top_left = edges
    z0, gx, gy, flat = planes
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
        # The edge function (bx - ax) * (py - ay) - (by - ay) * (px - ax) is
        # a row term minus a column term: evaluate each once per band row or
        # band column, then form every candidate's difference.
        row_b = np.repeat(np.arange(len(g_b)), rows_b)
        row_g, row_y = g_b[row_b], band_y0[bands][row_b] + _ranks(rows_b)
        col_b = np.repeat(np.arange(len(g_b)), cols_b)
        col_g, col_x = g_b[col_b], x0[g_b][col_b] + _ranks(cols_b)
        row_len = cols_b[row_b]
        col_of = _ranks(row_len) + np.repeat((np.cumsum(cols_b) - cols_b)[row_b], row_len)
        py, px = row_y + 0.5, col_x + 0.5
        covered = np.ones(len(col_of), dtype=bool)
        for i in range(screen.shape[1]):
            row_term = ex[row_g, i] * (py - screen[row_g, i, 1])
            col_term = ey[col_g, i] * (px - screen[col_g, i, 0])
            e = np.repeat(row_term, row_len) - col_term[col_of]
            covered &= (e > 0) | ((e == 0) & np.repeat(top_left[row_g, i], row_len))
        row = np.repeat(np.arange(len(row_g)), row_len)[covered]
        g, iy, ix = row_g[row], row_y[row], col_x[col_of[covered]]
        z = z0[g] + gx[g] * (ix + 0.5 - screen[g, 0, 0]) + gy[g] * (iy + 0.5 - screen[g, 0, 1])
        # Flat polygons take z0 as it is: adding the zero terms could
        # change the sign of a zero depth.
        on_flat = flat[g]
        z[on_flat] = z0[g[on_flat]]
        yield t[g], iy, ix, z
        start = stop


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
    return VisibilityBuffer(flags=flags, sample_res=(width, height))


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
    t, nb = np.repeat(np.arange(mesh.n_triangles), 3), mesh.adjacency.ravel()
    linked = (nb >= 0) & flags[t] & flags[nb]
    labels = _min_labels(mesh.n_triangles, t[linked], nb[linked])
    labels[~flags] = -1
    return _chart_set(labels, vertex_to_chart={})


def merge_shared_vertices(cs: ChartSet, mesh: Mesh) -> ChartSet:
    """Transitively merge charts that share any vertex.

    Labels the graph that links each chart id to its members and each
    visible triangle to its vertices, numbered n_triangles + v. The merged
    chart id is the minimum member. Populates vertex_to_chart so every
    vertex of a visible triangle maps to exactly one chart. Raises
    ValueError when the chart set does not match the mesh or its charts
    list an invisible triangle.
    """
    n, labels = mesh.n_triangles, cs.chart_of_triangle
    ids = np.repeat(np.array(list(cs.charts), dtype=np.int64), list(map(len, cs.charts.values())))
    members = np.concatenate([np.zeros(0, np.int64), *cs.charts.values()]).astype(np.int64)
    listed = np.r_[ids, members]
    if len(labels) != n or np.any((listed < 0) | (listed >= n)) or np.any(labels[listed] < 0):
        raise ValueError("chart set does not match the mesh")
    visible = np.flatnonzero(labels >= 0)
    corners = mesh.triangles[visible].ravel()
    # Vertex nodes come after the triangles, so every root is a triangle.
    a, b = np.r_[ids, np.repeat(visible, 3)], np.r_[members, n + corners]
    merged = _min_labels(n + len(mesh.positions), a, b)[:n]
    merged[labels < 0] = -1
    vertices, where = np.unique(corners, return_index=True)
    return _chart_set(merged, dict(zip(vertices.tolist(), merged[visible[where // 3]].tolist())))


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


def _chart_set(labels: np.ndarray, vertex_to_chart: dict[int, int]) -> ChartSet:
    """A ChartSet from canonical labels: one stable argsort, split per chart."""
    visible = np.flatnonzero(labels >= 0)
    order = visible[np.argsort(labels[visible], kind="stable")]
    ids, starts = np.unique(labels[order], return_index=True)
    charts = dict(zip(ids.tolist(), np.split(order, starts[1:])))
    return ChartSet(chart_of_triangle=labels, charts=charts, vertex_to_chart=vertex_to_chart)
