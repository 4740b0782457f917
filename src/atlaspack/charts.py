"""Per-frame visibility and chartification.

A software depth prepass and a matching visibility pass mark triangles that
cover at least one depth-passing pixel-center sample. Visible triangles are
then grouped into charts: connected components over shared edges, followed
by transitive merging of charts that share any vertex, so every vertex of a
visible triangle maps to exactly one chart.

Both rasterization passes clip against the full frustum and sample pixel
centers with a top-left fill rule; identical arithmetic in both passes
keeps the visibility predicate self-consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import FRUSTUM_PLANES, W_EPSILON, CameraFrame, clip_halfspace, plane_distances

# Depth comparison slack, relative to the unit NDC depth range. The two
# passes share all arithmetic, so any value >= 0 gives identical results;
# kept small and explicit.
DEPTH_EPSILON = 1e-6


@dataclass
class Mesh:
    """Indexed triangle soup with per-triangle edge adjacency.

    ``adjacency[t, e]`` is the triangle sharing edge e of triangle t, or -1.
    Edges shared by more than two triangles stay unlinked, which keeps the
    adjacency symmetric with degree <= 3.
    """

    positions: np.ndarray
    triangles: np.ndarray
    adjacency: np.ndarray = field(default=None)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.positions)
        ):
            raise ValueError("triangle indices out of range")
        if self.adjacency is None:
            self.adjacency = build_adjacency(self.triangles)
        else:
            self.adjacency = np.asarray(self.adjacency, dtype=np.int64).reshape(-1, 3)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_corners(self, indices=None) -> np.ndarray:
        """World-space corners, shape (n, 3, 3)."""
        tris = self.triangles if indices is None else self.triangles[indices]
        return self.positions[tris]


def build_adjacency(triangles: np.ndarray) -> np.ndarray:
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

    Chart ids equal the minimum member triangle index. ``vertex_to_chart``
    is populated after shared-vertex merging.
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

def _clip_triangle_frustum(clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of one homogeneous triangle to the frustum."""
    poly = clip
    d = poly[:, 3] - W_EPSILON
    if not np.any(d > 0):
        return np.empty((0, 4))
    if np.any(d <= 0):
        poly = clip_halfspace(poly, d, d >= 0)
    for plane in FRUSTUM_PLANES:
        if len(poly) == 0:
            break
        d = plane_distances(poly, plane)
        keep = d >= 0
        if np.all(keep):
            continue
        poly = clip_halfspace(poly, d, keep)
    return poly


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


def _each_screen_polygon(mesh: Mesh, cam: CameraFrame, width: int, height: int, cull: bool):
    corners = mesh.triangle_corners()
    if len(corners) == 0:
        return
    homo = np.concatenate([corners, np.ones((len(corners), 3, 1))], axis=2)
    clip_all = homo @ cam.view_proj.T
    for t in range(len(corners)):
        poly = _clip_triangle_frustum(clip_all[t])
        if len(poly) < 3:
            continue
        screen = _polygon_to_screen(poly, width, height)
        samples = _raster_samples(screen, width, height, cull)
        if samples is not None:
            yield t, samples


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
    for _, (iy, ix, zs) in _each_screen_polygon(mesh, cam, width, height, backface_cull):
        np.minimum.at(depth, (iy, ix), zs)
    return depth


def mark_visible(
    mesh: Mesh, cam: CameraFrame, depth: np.ndarray, backface_cull: bool = True
) -> VisibilityBuffer:
    """Flag triangles covering at least one depth-passing pixel-center sample."""
    height, width = depth.shape
    flags = np.zeros(mesh.n_triangles, dtype=bool)
    for t, (iy, ix, zs) in _each_screen_polygon(mesh, cam, width, height, backface_cull):
        stored = depth[iy, ix]
        slack = DEPTH_EPSILON * np.maximum(1.0, np.abs(stored))
        if np.any(zs <= stored + slack):
            flags[t] = True
    return VisibilityBuffer(flags=flags, sample_res=(width, height))


# --- chartification --------------------------------------------------------


class _DisjointSet:
    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, a: int) -> int:
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Hooking the larger root under the smaller keeps labels
            # canonical: every root is its component's minimum index.
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb


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
    ds = _DisjointSet(mesh.n_triangles)
    for t in np.flatnonzero(flags):
        for nb in mesh.adjacency[t]:
            if nb >= 0 and flags[nb]:
                ds.union(int(t), int(nb))
    return _chart_set_from_roots(ds, flags, vertex_to_chart={})


def merge_shared_vertices(cs: ChartSet, mesh: Mesh) -> ChartSet:
    """Transitively merge charts that share any vertex.

    The merged chart id is the minimum root among the merged charts, which
    is again the minimum member triangle index. Populates vertex_to_chart
    so every vertex of a visible triangle maps to exactly one chart.
    """
    labels = cs.chart_of_triangle
    visible = labels >= 0
    ds = _DisjointSet(len(labels))
    for root, members in cs.charts.items():
        for t in members:
            ds.union(int(root), int(t))
    first_chart: dict[int, int] = {}
    for t in np.flatnonzero(visible):
        for v in mesh.triangles[t]:
            other = first_chart.setdefault(int(v), int(t))
            if other != t:
                ds.union(int(t), other)
    merged = _chart_set_from_roots(ds, visible, vertex_to_chart={})
    vertex_to_chart = {
        v: int(merged.chart_of_triangle[t]) for v, t in first_chart.items()
    }
    merged.vertex_to_chart = vertex_to_chart
    return merged


def _chart_set_from_roots(ds: _DisjointSet, flags: np.ndarray, vertex_to_chart) -> ChartSet:
    n = len(flags)
    labels = np.full(n, -1, dtype=np.int64)
    visible = np.flatnonzero(flags)
    roots = np.array([ds.find(int(t)) for t in visible], dtype=np.int64)
    # Union-by-min already makes roots canonical (the minimum member), but
    # recompute explicitly so labels never depend on hooking internals.
    canon: dict[int, int] = {}
    for t, r in zip(visible, roots):
        cur = canon.get(int(r))
        if cur is None or t < cur:
            canon[int(r)] = int(t)
    for t, r in zip(visible, roots):
        labels[t] = canon[int(r)]
    charts: dict[int, np.ndarray] = {}
    for root in sorted(set(canon.values())):
        charts[root] = np.flatnonzero(labels == root)
    return ChartSet(chart_of_triangle=labels, charts=charts, vertex_to_chart=vertex_to_chart)
