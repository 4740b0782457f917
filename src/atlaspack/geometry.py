"""Homogeneous projection and frustum-plane clipping.

Conventions: right-handed view space looking down -z, NDC z in [-1, 1].
All clipping happens in homogeneous clip space, before the perspective
divide; interpolation is linear in (x, y, z, w). A vertex counts as being in
front of the camera iff w > W_EPSILON, which sidesteps division instability
at w == 0.

``clip_halfspace`` is the one Sutherland-Hodgman step of the package and
``FRUSTUM_PLANES`` its one plane table. The step clips a ragged batch of
polygons, consecutive vertex rows with a vertex count each, each against
one half-space, as a one-polygon step would. Its one caller, the frame's
raster set-up (``charts.screen_setup``), clips the triangles that leave the
frustum as one batch, against the camera plane and then each plane that
one of them leaves; the rasterizer and the chart boxes read those polygons.
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


def clip_halfspace(
    vertices: np.ndarray, counts: np.ndarray, d: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Clip a ragged batch of convex homogeneous polygons, each against one half-space.

    Polygon p holds ``counts[p]`` consecutive (V, 4) rows of ``vertices``;
    ``d`` is the signed distance of each vertex and ``keep`` the caller's
    boundary rule on it (``d > 0`` or ``d >= 0``). Each polygon keeps its
    kept vertex i, then the point interpolated at d == 0 on edge i -> i + 1
    where that edge joins a kept and a dropped vertex. Interpolation runs
    only on such edges, with the arithmetic of a one-polygon step. Returns
    (vertices, counts) in the same layout; a polygon clipped away has count 0.
    """
    ends = np.cumsum(counts)
    nxt = np.arange(1, len(vertices) + 1)
    last = ends[counts > 0] - 1
    nxt[last] = last - counts[counts > 0] + 1  # the last vertex wraps to the first
    cross = keep != keep[nxt]
    i = np.flatnonzero(cross)
    di, dj = d[i], d[nxt[i]]
    a = vertices[i]
    t = di / (di - dj)
    # Slot 2i holds vertex i, slot 2i + 1 the crossing on edge i -> i + 1.
    slots = np.empty((len(vertices), 2, 4))
    slots[:, 0] = vertices
    slots[i, 1] = a + t[:, None] * (vertices[nxt[i]] - a)
    used = np.stack([keep, cross], axis=1)
    total = np.r_[0, (keep.astype(np.int64) + cross).cumsum()]
    return slots[used], total[ends] - total[ends - counts]
