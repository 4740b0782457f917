"""Homogeneous projection and frustum-plane clipping.

Conventions: right-handed view space looking down -z, NDC z in [-1, 1].
All clipping happens in homogeneous clip space, before the perspective
divide; interpolation is linear in (x, y, z, w). A vertex counts as being in
front of the camera iff w > W_EPSILON, which sidesteps division instability
at w == 0.

``clip_halfspace`` is the one Sutherland-Hodgman step of the package and
``FRUSTUM_PLANES`` its one plane table. The step clips a whole batch of
polygons at once, each against one half-space, and returns them grouped by
vertex count; every coordinate equals that of a one-polygon step. Its one
caller is the frame's raster set-up (``charts.screen_setup``), which clips
every triangle leaving the frustum against the camera plane and then each
of the six planes it leaves. The rasterizer and the chart boxes both read
those clipped polygons, so a frame is clipped once, by one rule.
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


class DegenerateChart(Exception):
    """No triangle of the chart survives clipping.

    Nothing raises it: every chart holds a visible triangle, which the set-up
    holds clipped. It stays only as long as the benchmark's tracer imports it.
    """


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
    proj: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        """Check the lens, and make ``proj`` its perspective matrix when none is given.

        Each message starts with the name of the parameter it rejects.
        """
        if not 0 < self.fov_y < math.pi:
            raise ValueError("fov_y must be in (0, pi)")
        if not self.aspect > 0:
            raise ValueError("aspect must be positive")
        if not 0 < self.near < self.far:
            raise ValueError("near must be positive and less than far")
        if self.proj is None:
            self.proj = perspective_matrix(self.fov_y, self.aspect, self.near, self.far)
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
        return cls(fov_y, aspect, near, far, view=look_at_matrix(position, look_at, up))

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


def clip_coords(points, cam: CameraFrame) -> np.ndarray:
    """Clip coordinates of world points, (..., 3) -> (..., 4), as one 2-D product of two rows
    at least: numpy multiplies a single row by another BLAS kernel, with other rounding."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    homo = np.ones((max(len(p), 2), 4))
    homo[: len(p), :3] = p
    return (homo @ cam.view_proj.T)[: len(p)].reshape(*np.shape(points)[:-1], 4)


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
