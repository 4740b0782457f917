import math

import numpy as np
import pytest

from atlaspack import (
    CameraFrame,
    DegenerateChart,
    NdcBox,
    blinn_clamped_ndc,
    chart_bbox,
    select_side_plane,
    viewport_box,
)
from atlaspack.geometry import SIDE_PLANES, W_EPSILON, clip_halfspace, plane_distances

from oracles import (
    box_contains,
    chart_frustum_box,
    conservative_blinn_box,
    per_triangle_chart_bbox,
)


def project(p, cam):
    """Homogeneous clip-space coordinates (x, y, z, w) of a world point."""
    return cam.view_proj @ np.array([*p, 1.0])


def ndc(h):
    return (h[0] / h[3], h[1] / h[3], h[2] / h[3])


def clip_near(tri):
    """Clip a homogeneous triangle against the near half-space w > W_EPSILON."""
    d = tri[:, 3] - W_EPSILON
    return clip_halfspace(tri, d, d > 0)


class TestCameraFrame:
    def test_near_far_map_to_unit_depth(self, cam90):
        hn = project((0, 0, -cam90.near), cam90)
        hf = project((0, 0, -cam90.far), cam90)
        assert ndc(hn)[2] == pytest.approx(-1.0, abs=1e-12)
        assert ndc(hf)[2] == pytest.approx(1.0, abs=1e-12)

    def test_composition_stays_finite(self, rng):
        cam = CameraFrame.from_params(
            math.radians(65), 1.5, 0.05, 500.0, position=(3, -2, 8), look_at=(0, 1, 0)
        )
        for _ in range(200):
            p = rng.normal(scale=50.0, size=3)
            h = project(p, cam)
            assert all(math.isfinite(v) for v in h)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CameraFrame.from_params(math.radians(60), 1.0, near=-1.0, far=10.0)
        with pytest.raises(ValueError):
            CameraFrame.from_params(math.radians(60), 1.0, near=5.0, far=1.0)


class TestProjectVertex:
    def test_view_axis_point_hits_screen_center(self, cam90):
        h = project((0, 0, -1), cam90)
        assert ndc(h)[0] == pytest.approx(0.0, abs=1e-12)
        assert ndc(h)[1] == pytest.approx(0.0, abs=1e-12)

    def test_camera_origin_degenerates_to_zero_w(self, cam90):
        h = project((0, 0, 0), cam90)
        assert h[3] == pytest.approx(0.0, abs=1e-12)


class TestBlinnClampedNdc:
    def test_inside_frustum_is_plain_divide(self):
        assert blinn_clamped_ndc((0.5, -0.5, 0.0, 1.0)) == (0.5, -0.5)

    def test_clamp_then_divide(self):
        # clamp x to [-2, 2] then divide by 2
        assert blinn_clamped_ndc((5.0, 0.0, 0.0, 2.0)) == (1.0, 0.0)

    def test_negative_w_uses_magnitude(self):
        # clamp to [-2, 2] using |w|, divide by |w|
        assert blinn_clamped_ndc((3.0, -7.0, 0.0, -2.0)) == (1.0, -1.0)

    def test_zero_w_maps_to_signed_corner(self):
        assert blinn_clamped_ndc((2.0, -0.1, 0.0, 0.0)) == (1.0, -1.0)
        assert blinn_clamped_ndc((0.0, 0.0, 0.0, 0.0)) == (1.0, 1.0)

    def test_total_over_random_inputs(self, rng):
        for _ in range(2000):
            p = rng.normal(scale=5.0, size=4)
            x, y = blinn_clamped_ndc(p)
            assert -1.0 <= x <= 1.0 and -1.0 <= y <= 1.0


class TestClipNear:
    def test_fully_in_front_is_identity(self):
        tri = np.array([[0, 0, 0.5, 1], [1, 0, 0.5, 1], [0, 1, 0.5, 1]], float)
        poly = clip_near(tri)
        assert poly.shape == (3, 4)
        np.testing.assert_array_equal(poly, tri)

    def test_one_vertex_behind_gives_quad(self):
        tri = np.array([[0, 0, 0.5, 1], [1, 0, 0.5, 1], [0, 1, -0.5, -1]], float)
        poly = clip_near(tri)
        assert poly.shape == (4, 4)
        assert np.all(poly[:, 3] >= W_EPSILON - 1e-15)

    def test_two_vertices_behind_gives_triangle(self):
        tri = np.array([[0, 0, 0.5, 1], [1, 0, -0.5, -1], [0, 1, -0.5, -1]], float)
        poly = clip_near(tri)
        assert poly.shape == (3, 4)

    def test_all_behind_raises(self):
        # Nothing survives: an empty polygon, where chart_bbox then skips
        # the triangle (and raises DegenerateChart if no other survives).
        tri = np.array([[0, 0, 0, -1], [1, 0, 0, -2], [0, 1, 0, -0.5]], float)
        assert clip_near(tri).shape == (0, 4)

    def test_interpolation_is_homogeneous_linear(self):
        a = np.array([0.0, 0.0, 0.5, 1.0])
        b = np.array([1.0, 0.5, -0.5, -1.0])
        c = np.array([-1.0, 0.2, 0.5, 2.0])
        poly = clip_near(np.array([a, b, c]))
        for v in poly:
            if abs(v[3] - W_EPSILON) > 1e-12:
                continue
            # a crossing vertex must lie on segment ab or bc
            t_ab = (a[3] - W_EPSILON) / (a[3] - b[3])
            t_cb = (c[3] - W_EPSILON) / (c[3] - b[3])
            cand1 = a + t_ab * (b - a)
            cand2 = c + t_cb * (b - c)
            assert np.allclose(v, cand1, atol=1e-12) or np.allclose(v, cand2, atol=1e-12)


class TestSelectSidePlane:
    def test_inside_triangle_selects_none(self):
        tri = np.array([[0.1, 0.1, 0, 1], [0.5, 0.1, 0, 1], [0.1, 0.5, 0, 1]], float)
        assert select_side_plane(tri) is None

    def test_single_crossing_selects_that_plane(self):
        tri = np.array([[0.5, 0.0, 0, 1], [1.5, 0.1, 0, 1], [0.6, 0.3, 0, 1]], float)
        assert select_side_plane(tri) == "right"

    def test_two_crossings_select_smaller_box(self):
        # crosses right and bottom; clipping right leaves box
        # [0.2, 1] x [-1, 0.6778] (area 1.3422), clipping bottom leaves
        # [0.2, 1] x [-1, 0.9] (area 1.52), so right wins
        tri = np.array([[0.2, 0.5, 0, 1], [2.0, 0.9, 0, 1], [0.4, -2.0, 0, 1]], float)
        assert select_side_plane(tri) == "right"

    def test_fully_outside_plane_is_not_a_crossing(self):
        tri = np.array([[1.5, 0.0, 0, 1], [2.5, 0.1, 0, 1], [1.6, 0.3, 0, 1]], float)
        assert select_side_plane(tri) is None


class TestChartBbox:
    def test_fully_inside_equals_projected_bbox(self, cam90):
        tris = np.array(
            [
                [[-0.2, -0.1, -1.0], [0.3, -0.1, -1.0], [0.0, 0.25, -1.0]],
                [[0.1, 0.1, -2.0], [0.5, 0.1, -2.0], [0.4, 0.6, -2.0]],
            ]
        )
        box = chart_bbox(tris, cam90)
        pts = []
        for tri in tris:
            for p in tri:
                h = project(p, cam90)
                pts.append((h[0] / h[3], h[1] / h[3]))
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        assert box.min_x == pytest.approx(min(xs), abs=1e-9)
        assert box.max_x == pytest.approx(max(xs), abs=1e-9)
        assert box.min_y == pytest.approx(min(ys), abs=1e-9)
        assert box.max_y == pytest.approx(max(ys), abs=1e-9)

    def test_near_straddling_matches_oracle_on_in_frustum_axes(self, cam90):
        # A and B sit in front and attain min_x and max_y; the behind-camera
        # vertex C blows up only toward (+x, -y), so those two sides stay
        # conservative while the other two match the exact clip oracle.
        tri = np.array([[[-0.5, -0.4, -1.0], [0.3, -0.5, -1.0], [0.6, -0.8, 0.5]]])
        box = chart_bbox(tri, cam90)
        oracle = chart_frustum_box(tri, cam90)
        assert box.min_x == pytest.approx(oracle.min_x, abs=1e-6)
        assert box.max_y == pytest.approx(oracle.max_y, abs=1e-6)
        assert box.max_x >= oracle.max_x - 1e-9
        assert box.min_y <= oracle.min_y + 1e-9

    def test_conservative_on_random_triangles(self, cam90, rng):
        checked = 0
        for _ in range(1500):
            tri = rng.normal(scale=2.0, size=(1, 3, 3))
            oracle = chart_frustum_box(tri, cam90)
            try:
                box = chart_bbox(tri, cam90)
            except DegenerateChart:
                assert oracle is None or oracle.area == 0
                continue
            if oracle is None:
                continue
            checked += 1
            assert box_contains(box, oracle, tol=1e-9)
        assert checked > 300

    def test_clipping_never_beats_clamp_only_area(self, cam90, rng):
        for _ in range(1500):
            tri = rng.normal(scale=2.0, size=(1, 3, 3))
            try:
                box = chart_bbox(tri, cam90)
            except DegenerateChart:
                continue
            reference = conservative_blinn_box(tri, cam90)
            assert box.area <= reference.area + 1e-12

    def test_matches_per_triangle_path(self, cam90, rng):
        # Each chart mixes triangles well inside the frustum, across a side
        # plane, grazing the right plane, across the near plane and behind
        # the camera.
        kinds = {"inside": 0, "side": 0, "near": 0, "behind": 0}
        centers = np.array(
            [[0.0, 0.0, -5.0], [4.0, 0.0, -4.0], [5.0, 0.0, -5.0], [0.0, 0.0, 0.0], [0.0, 0.0, 3.0]]
        )
        spreads = np.array([0.5, 2.0, 0.002, 1.0, 0.5])
        for _ in range(200):
            n = int(rng.integers(1, 10))
            kind = rng.integers(0, len(centers), size=n)
            tris = centers[kind, None] + rng.normal(size=(n, 3, 3)) * spreads[kind, None, None]
            homo = np.concatenate([tris, np.ones((n, 3, 1))], axis=2) @ cam90.view_proj.T
            w = homo[:, :, 3]
            front = np.all(w > W_EPSILON, axis=1)
            kinds["behind"] += int(np.sum(np.all(w <= W_EPSILON, axis=1)))
            kinds["near"] += int(np.sum(~front & np.any(w > W_EPSILON, axis=1)))
            for plane in SIDE_PLANES:
                d = plane_distances(homo, plane)
                kinds["side"] += int(np.sum(front & np.any(d > 0, axis=1) & np.any(d < 0, axis=1)))
            inside = np.all(np.abs(homo[:, :, :2]) < w[:, :, None], axis=(1, 2))
            kinds["inside"] += int(np.sum(front & inside))
            try:
                expected = per_triangle_chart_bbox(tris, cam90)
            except DegenerateChart:
                with pytest.raises(DegenerateChart):
                    chart_bbox(tris, cam90)
                continue
            box = chart_bbox(tris, cam90)
            assert box == expected
            assert all(type(v) is float for v in (box.min_x, box.min_y, box.max_x, box.max_y))
        assert min(kinds.values()) > 50, kinds

    def test_all_behind_raises(self, cam90):
        tri = np.array([[[0.0, 0.0, 1.0], [1.0, 0.0, 2.0], [0.0, 1.0, 1.5]]])
        with pytest.raises(DegenerateChart):
            chart_bbox(tri, cam90)


class TestViewportBox:
    def test_full_box_full_screen(self):
        assert viewport_box(NdcBox(-1, -1, 1, 1), 1920, 1080) == (1920, 1080)

    def test_half_box(self):
        assert viewport_box(NdcBox(0, 0, 1, 1), 256, 256) == (128, 128)

    def test_degenerate_box_claims_one_pixel(self):
        assert viewport_box(NdcBox(0.25, -0.5, 0.25, -0.5), 640, 480) == (1, 1)

    def test_rejects_empty_screen(self):
        with pytest.raises(ValueError):
            viewport_box(NdcBox(-1, -1, 1, 1), 0, 100)
