"""Homogeneous projection, frustum-plane clipping, and conservative NDC boxes.

Conventions: right-handed view space looking down -z, NDC z in [-1, 1].
All clipping happens in homogeneous clip space, before the perspective
divide; interpolation is linear in (x, y, z, w). A vertex counts as being in
front of the camera iff w > W_EPSILON, which sidesteps division instability
at w == 0.

``clip_halfspace`` is the one Sutherland-Hodgman step of the package and
``FRUSTUM_PLANES`` its one plane table. The step clips a whole batch of
polygons at once, each against one half-space, and returns them grouped by
vertex count; every coordinate equals that of a one-polygon step. Both the
rasterizer and ``chart_bbox`` test all triangles against the planes at once
and pass only those that need it to the step, in batches: the rasterizer
clips every triangle leaving the frustum against the camera plane and then
each of the six planes it leaves, and ``chart_bbox`` clips each triangle
crossing the near plane against it and each one crossing side planes
against every such plane. Each caller passes its own boundary rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Vertices with w at or below this are treated as behind the camera plane.
W_EPSILON = 1e-9

# Plane name -> (axis, sign): the plane keeps w + sign * v[axis] >= 0.
FRUSTUM_PLANES = {
    "left": (0, 1.0),
    "right": (0, -1.0),
    "bottom": (1, 1.0),
    "top": (1, -1.0),
    "near": (2, 1.0),
    "far": (2, -1.0),
}

SIDE_PLANES = ("left", "right", "bottom", "top")


class DegenerateChart(Exception):
    """No triangle of the chart survives clipping."""


@dataclass
class CameraFrame:
    """Perspective camera: view transform plus projection matrix.

    The projection maps a point at distance ``near`` on the view axis to
    NDC z = -1 and at ``far`` to NDC z = +1.
    """

    fov_y: float
    aspect: float
    near: float
    far: float
    view: np.ndarray = field(repr=False)
    proj: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (self.near > 0 and self.far > self.near):
            raise ValueError("camera requires 0 < near < far")
        self.view = np.asarray(self.view, dtype=np.float64).reshape(4, 4)
        self.proj = np.asarray(self.proj, dtype=np.float64).reshape(4, 4)

    @classmethod
    def from_params(
        cls,
        fov_y: float,
        aspect: float,
        near: float,
        far: float,
        position: Sequence[float] = (0.0, 0.0, 0.0),
        look_at: Sequence[float] = (0.0, 0.0, -1.0),
        up: Sequence[float] = (0.0, 1.0, 0.0),
    ) -> "CameraFrame":
        """Build a camera from lens parameters and a look-at pose.

        ``fov_y`` is the full vertical field of view in radians and
        ``aspect`` is width/height.
        """
        if not (0 < fov_y < math.pi):
            raise ValueError("fov_y must be in (0, pi)")
        if aspect <= 0:
            raise ValueError("aspect must be positive")
        view = look_at_matrix(position, look_at, up)
        proj = perspective_matrix(fov_y, aspect, near, far)
        return cls(fov_y=fov_y, aspect=aspect, near=near, far=far, view=view, proj=proj)

    @property
    def view_proj(self) -> np.ndarray:
        return self.proj @ self.view


def perspective_matrix(fov_y: float, aspect: float, near: float, far: float) -> np.ndarray:
    f = 1.0 / math.tan(fov_y / 2.0)
    m = np.zeros((4, 4), dtype=np.float64)
    m[0, 0] = f / aspect
    m[1, 1] = f
    m[2, 2] = (far + near) / (near - far)
    m[2, 3] = 2.0 * far * near / (near - far)
    m[3, 2] = -1.0
    return m


def look_at_matrix(position, target, up) -> np.ndarray:
    pos = np.asarray(position, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - pos
    n = np.linalg.norm(fwd)
    if n == 0:
        raise ValueError("look_at target coincides with position")
    fwd = fwd / n
    right = np.cross(fwd, np.asarray(up, dtype=np.float64))
    n = np.linalg.norm(right)
    if n == 0:
        raise ValueError("up vector is parallel to the view direction")
    right = right / n
    true_up = np.cross(right, fwd)
    m = np.eye(4, dtype=np.float64)
    m[0, :3] = right
    m[1, :3] = true_up
    m[2, :3] = -fwd
    m[:3, 3] = m[:3, :3] @ (-pos)
    return m


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


def clip_coords(triangles, cam: CameraFrame) -> np.ndarray:
    """Homogeneous clip coordinates of (n, 3, 3) world-space triangles: (n, 3, 4)."""
    tris = np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 3)
    return np.concatenate([tris, np.ones((len(tris), 3, 1))], axis=2) @ cam.view_proj.T


def plane_distances(v: np.ndarray, plane: str) -> np.ndarray:
    """Signed distance w + sign * v[axis] of each homogeneous vertex to a plane.

    ``v`` holds vertices along its last axis: one polygon (m, 4) or a batch
    of them (n, m, 4).
    """
    axis, sign = FRUSTUM_PLANES[plane]
    return v[..., 3] + sign * v[..., axis]


def clip_halfspace(
    vertices: np.ndarray, d: np.ndarray, keep: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Clip a batch of G convex homogeneous polygons, each against one half-space.

    ``vertices`` is (G, m, 4), ``d`` the (G, m) signed distance of each
    vertex and ``keep`` the caller's boundary rule on it (``d > 0`` or
    ``d >= 0``). Each polygon keeps its kept vertex i, then the point
    interpolated at d == 0 on edge i -> i + 1 where that edge joins a kept and
    a dropped vertex. Interpolation runs only on such edges, with the
    arithmetic of a one-polygon step. Returns (rows, (k, n, 4) polygons) for
    each vertex count n >= 1 in ascending order; rows index the batch, and
    polygons clipped away appear in no group.
    """
    g, m = keep.shape
    nxt = (np.arange(m) + 1) % m
    cross = keep != keep[:, nxt]
    gi, i = np.nonzero(cross)
    di, dj = d[gi, i], d[gi, nxt[i]]
    a = vertices[gi, i]
    t = di / (di - dj)
    # Slot 2i holds vertex i, slot 2i + 1 the crossing on edge i -> i + 1.
    slots = np.empty((g, m, 2, 4))
    slots[:, :, 0] = vertices
    slots[gi, i, 1] = a + t[:, None] * (vertices[gi, nxt[i]] - a)
    slots = slots.reshape(g, 2 * m, 4)
    used = np.stack([keep, cross], axis=2).reshape(g, 2 * m)
    count = used.sum(axis=1)
    groups = []
    for n in sorted(set(count.tolist()) - {0}):
        rows = np.flatnonzero(count == n)
        groups.append((rows, slots[rows][used[rows]].reshape(-1, n, 4)))
    return groups


def _blinn_clamped_ndc(p: np.ndarray) -> np.ndarray:
    """Clamp homogeneous vertices (..., 4) to the screen square and divide: (..., 2).

    Total over all finite inputs, including w <= 0: x and y are clamped to
    [-|w|, |w|] before dividing by |w|, and w == 0 maps to the corner
    (sign(x), sign(y)) with sign(0) = +1. The result is always in [-1, 1]^2.
    """
    aw = np.abs(p[..., 3:])
    xy = np.minimum(np.maximum(p[..., :2], -aw), aw)
    return np.divide(xy, aw, out=np.where(p[..., :2] < 0, -1.0, 1.0), where=aw != 0)


def chart_bbox(triangles, cam: CameraFrame) -> NdcBox:
    """Conservative NDC bounding box of a chart's visible sub-region.

    ``triangles`` is an (n, 3, 3) array of world-space triangles. All are
    projected at once. A triangle fully in front of the camera plane that
    crosses no side plane takes the fast path: the clamped divide of its
    three vertices. The rest are clipped in batches, then clamped and
    divided: a triangle crossing the near half-space is clipped against it,
    and one fully in front against each side plane it crosses (vertices
    strictly on both sides), keeping the clip with the smallest box, ties
    going to the earlier plane in SIDE_PLANES. The box is the componentwise
    min/max over every point and contains the exact NDC projection of the
    in-frustum portion of the chart.

    Raises DegenerateChart when no triangle survives clipping.
    """
    clip = clip_coords(triangles, cam)
    if len(clip) == 0:
        raise DegenerateChart("chart has no triangles")
    d = clip[:, :, 3] - W_EPSILON
    in_front = np.all(d > 0, axis=1)
    side = np.stack([plane_distances(clip, plane) for plane in SIDE_PLANES])
    crosses = np.any(side > 0, axis=2) & np.any(side < 0, axis=2)
    fast = in_front & ~np.any(crosses, axis=0)
    # w > W_EPSILON > 0 on the fast path, so |w| = w in the clamped divide.
    xy, w = clip[fast, :, :2], clip[fast, :, 3:]
    np.maximum(xy, -w, out=xy)
    np.minimum(xy, w, out=xy)
    xy /= w
    points = xy.reshape(-1, 2)
    if not fast.all():
        # The smallest clipped box so far of each other triangle, by area.
        # A triangle crossing the near plane has that clip as its one box.
        best = np.full(len(clip), np.inf)
        best_lo, best_hi = np.zeros((len(clip), 2)), np.zeros((len(clip), 2))
        near = ~in_front & np.any(d > 0, axis=1)
        for dist, clipped in zip([d, *side], [near, *(crosses & in_front)]):
            if not clipped.any():
                continue
            tris = np.flatnonzero(clipped)
            for rows, poly in clip_halfspace(clip[tris], dist[tris], dist[tris] > 0):
                xy = _blinn_clamped_ndc(poly)
                lo, hi = xy.min(axis=1), xy.max(axis=1)
                area = (hi[:, 0] - lo[:, 0]) * (hi[:, 1] - lo[:, 1])
                win = area < best[tris[rows]]
                t = tris[rows[win]]
                best[t], best_lo[t], best_hi[t] = area[win], lo[win], hi[win]
        boxed = best < np.inf
        points = np.concatenate([points, best_lo[boxed], best_hi[boxed]])
    if len(points) == 0:
        raise DegenerateChart("no triangle survives clipping")
    lo, hi = points.min(axis=0), points.max(axis=0)
    return NdcBox(float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))


def viewport_box(box: NdcBox, screen_w: int, screen_h: int) -> tuple[int, int]:
    """Integer pixel extent of an NDC box under the viewport transform.

    Maps [-1, 1]^2 to [0, screen_w] x [0, screen_h] and rounds each extent
    up; a degenerate box still yields at least one pixel per axis.
    """
    if screen_w < 1 or screen_h < 1:
        raise ValueError("screen dimensions must be >= 1")
    w = math.ceil((box.max_x - box.min_x) / 2.0 * screen_w)
    h = math.ceil((box.max_y - box.min_y) / 2.0 * screen_h)
    return max(1, w), max(1, h)
