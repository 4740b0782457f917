import math
import struct

import numpy as np
import pytest

from atlaspack import CameraFrame, DegenerateChart
from atlaspack.cli import SceneConfig, frame_charts
from atlaspack.geometry import (
    FRUSTUM_PLANES,
    W_EPSILON,
    clip_coords,
    clip_halfspace,
    plane_distances,
)

from oracles import (
    SIDE_PLANES,
    NdcBox,
    batch_blinn_clamped_ndc,
    blinn_clamped_ndc,
    box_contains,
    chart_frustum_box,
    clip_halfspace_step,
    conservative_blinn_box,
    conservative_chart_bbox,
    one_conservative_bbox,
    per_triangle_chart_bbox,
    select_side_plane,
)


def project(p, cam):
    """Homogeneous clip-space coordinates (x, y, z, w) of a world point."""
    return cam.view_proj @ np.array([*p, 1.0])


def ndc(h):
    return (h[0] / h[3], h[1] / h[3], h[2] / h[3])


def clip_near(tri):
    """Clip a homogeneous triangle against the near half-space w > W_EPSILON."""
    d = tri[:, 3] - W_EPSILON
    groups = clip_halfspace(tri[None], d[None], (d > 0)[None])
    return groups[0][1][0] if groups else np.empty((0, 4))


def blinn(p):
    return tuple(batch_blinn_clamped_ndc(np.array(p, dtype=np.float64)).tolist())


def bits(box: NdcBox) -> bytes:
    return struct.pack("4d", box.min_x, box.min_y, box.max_x, box.max_y)


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
        assert blinn((0.5, -0.5, 0.0, 1.0)) == (0.5, -0.5)

    def test_clamp_then_divide(self):
        # clamp x to [-2, 2] then divide by 2
        assert blinn((5.0, 0.0, 0.0, 2.0)) == (1.0, 0.0)

    def test_negative_w_uses_magnitude(self):
        # clamp to [-2, 2] using |w|, divide by |w|
        assert blinn((3.0, -7.0, 0.0, -2.0)) == (1.0, -1.0)

    def test_zero_w_maps_to_signed_corner(self):
        assert blinn((2.0, -0.1, 0.0, 0.0)) == (1.0, -1.0)
        assert blinn((0.0, 0.0, 0.0, 0.0)) == (1.0, 1.0)

    def test_total_over_random_inputs(self, rng):
        xy = batch_blinn_clamped_ndc(rng.normal(scale=5.0, size=(2000, 4)))
        assert np.all((-1.0 <= xy) & (xy <= 1.0))

    def test_batch_matches_scalar_oracle(self, rng):
        p = rng.normal(scale=5.0, size=(2000, 4))
        p[::7, 3] = 0.0
        p[::11, 3] = -0.0
        p[::13, :2] = -0.0
        p[::5, 0] = p[::5, 3]  # on the clamp bound
        p[::3, 3] *= -1.0
        want = np.array([blinn_clamped_ndc(v) for v in p])
        assert batch_blinn_clamped_ndc(p).tobytes() == want.tobytes()
        assert batch_blinn_clamped_ndc(p.reshape(40, 50, 4)).tobytes() == want.tobytes()


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
        # Nothing survives: an empty polygon, where conservative_chart_bbox
        # then gives the triangle lo = +inf and hi = -inf.
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


class TestClipHalfspace:
    @pytest.mark.parametrize("m", range(3, 10))
    def test_matches_scalar_step_on_random_polygons(self, m, rng):
        seen = {"on_plane": 0, "all_in": 0, "all_out": 0, "w_zero": 0, "w_negative": 0}
        for plane in ("camera", *FRUSTUM_PLANES):
            for strict in (False, True):
                poly = rng.normal(scale=2.0, size=(120, m, 4))
                poly[:, :, 3] += 0.5
                poly[:, :, 3][rng.random((120, m)) < 0.1] = 0.0
                # Rows 20 on get vertices exactly on the plane; rows 0-9 lie
                # inside every plane and rows 10-19 outside.
                on = rng.random((120, m)) < 0.15
                on[:20] = False
                if plane == "camera":
                    poly[:, :, 3][on] = W_EPSILON
                else:
                    axis, sign = FRUSTUM_PLANES[plane]
                    poly[:, :, axis][on] = -sign * poly[:, :, 3][on]
                poly[:20, :, :3] *= 0.01
                poly[:10, :, 3], poly[10:20, :, 3] = 10.0, -10.0
                if plane == "camera":
                    d = poly[:, :, 3] - W_EPSILON
                else:
                    d = plane_distances(poly, plane)
                keep = d > 0 if strict else d >= 0
                seen["on_plane"] += int(np.sum(np.any(d == 0, axis=1)))
                seen["all_in"] += int(np.sum(np.all(keep, axis=1)))
                seen["all_out"] += int(np.sum(~np.any(keep, axis=1)))
                seen["w_zero"] += int(np.sum(np.any(poly[:, :, 3] == 0, axis=1)))
                seen["w_negative"] += int(np.sum(np.any(poly[:, :, 3] < 0, axis=1)))
                got = {}
                counts = []
                for rows, polys in clip_halfspace(poly, d, keep):
                    assert len(rows) == len(polys) > 0
                    counts.append(polys.shape[1])
                    for r, p in zip(rows.tolist(), polys):
                        assert r not in got
                        got[r] = p
                assert counts == sorted(set(counts)) and 0 not in counts
                for r in range(len(poly)):
                    want = clip_halfspace_step(poly[r], d[r], keep[r])
                    if len(want):
                        assert got.pop(r).tobytes() == want.tobytes(), (plane, strict, r)
                assert not got
        assert min(seen.values()) > 20, seen

    def test_empty_batch(self):
        assert clip_halfspace(np.zeros((0, 3, 4)), np.zeros((0, 3)), np.zeros((0, 3), bool)) == []


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


# Centres and spreads of triangles well inside the frustum of a fov-90
# camera at the origin, across a side plane, grazing the right plane, across
# the near plane and behind the camera.
KIND_CENTERS = np.array(
    [[0.0, 0.0, -5.0], [4.0, 0.0, -4.0], [5.0, 0.0, -5.0], [0.0, 0.0, 0.0], [0.0, 0.0, 3.0]]
)
KIND_SPREADS = np.array([0.5, 2.0, 0.002, 1.0, 0.5])
BEHIND = np.array([0.0, 0.0, 5.0])


def mixed_chart(rng, n):
    """n world-space triangles, each of a random kind."""
    kind = rng.integers(0, len(KIND_CENTERS), size=n)
    return KIND_CENTERS[kind, None] + rng.normal(size=(n, 3, 3)) * KIND_SPREADS[kind, None, None]


class TestChartBbox:
    """The conservative chart box of ``oracles``, the bound of the package's boxes."""

    def test_fully_inside_equals_projected_bbox(self, cam90):
        tris = np.array(
            [
                [[-0.2, -0.1, -1.0], [0.3, -0.1, -1.0], [0.0, 0.25, -1.0]],
                [[0.1, 0.1, -2.0], [0.5, 0.1, -2.0], [0.4, 0.6, -2.0]],
            ]
        )
        box = one_conservative_bbox(tris, cam90)
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
        box = one_conservative_bbox(tri, cam90)
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
                box = one_conservative_bbox(tri, cam90)
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
                box = one_conservative_bbox(tri, cam90)
            except DegenerateChart:
                continue
            reference = conservative_blinn_box(tri, cam90)
            assert box.area <= reference.area + 1e-12

    def test_matches_per_triangle_path(self, cam90, rng):
        # Each chart mixes triangles well inside the frustum, across a side
        # plane, grazing the right plane, across the near plane and behind
        # the camera.
        kinds = {"inside": 0, "side": 0, "near": 0, "behind": 0}
        for _ in range(200):
            tris = mixed_chart(rng, int(rng.integers(1, 10)))
            homo = np.concatenate([tris, np.ones((len(tris), 3, 1))], axis=2) @ cam90.view_proj.T
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
                    one_conservative_bbox(tris, cam90)
                continue
            box = one_conservative_bbox(tris, cam90)
            assert bits(box) == bits(expected)
            assert all(type(v) is float for v in (box.min_x, box.min_y, box.max_x, box.max_y))
        assert min(kinds.values()) > 50, kinds

    def test_frame_of_charts_matches_per_triangle_path(self, cam90, rng):
        # Batches of mixed charts, with all-behind charts between them.
        degenerate = 0
        for _ in range(60):
            charts = []
            for _ in range(int(rng.integers(1, 12))):
                n = int(rng.integers(1, 6))
                behind = rng.random() < 0.25
                charts.append(BEHIND + rng.normal(size=(n, 3, 3)) if behind else mixed_chart(rng, n))
            starts = np.cumsum([0] + [len(c) for c in charts[:-1]])
            lo, hi = conservative_chart_bbox(clip_coords(np.concatenate(charts), cam90), starts)
            assert lo.shape == hi.shape == (len(charts), 2)
            for i, tris in enumerate(charts):
                try:
                    expected = per_triangle_chart_bbox(tris, cam90)
                except DegenerateChart:
                    degenerate += 1
                    assert np.all(lo[i] > hi[i])
                    continue
                assert bits(NdcBox(*lo[i], *hi[i])) == bits(expected)
        assert degenerate > 50

    def test_one_chart_of_every_kind_matches_per_triangle_path(self, cam90):
        tris = np.array(
            [
                [[-0.2, -0.1, -1.0], [0.3, -0.1, -1.0], [0.0, 0.25, -1.0]],  # inside
                [[0.5, 0.0, -1.0], [1.5, 0.1, -1.0], [0.6, 0.3, -1.0]],  # across right
                [[0.2, 0.5, -1.0], [2.0, 0.9, -1.0], [0.4, -2.0, -1.0]],  # right and bottom
                [[-0.5, -0.4, -1.0], [0.3, -0.5, -1.0], [0.6, -0.8, 0.5]],  # across near
                [[-3.0, 2.0, -1.0], [-1.0, 1.5, 0.5], [-2.0, 3.0, 1.0]],  # near and left
                [[0.0, 0.0, 1.0], [1.0, 0.0, 2.0], [0.0, 1.0, 1.5]],  # behind
            ]
        )
        box = one_conservative_bbox(tris, cam90)
        assert bits(box) == bits(per_triangle_chart_bbox(tris, cam90))
        for order in ([5, 4, 3, 2, 1, 0], [3, 0, 5, 1, 4, 2]):
            assert box == one_conservative_bbox(tris[order], cam90)
        for tri in tris[:5]:
            expected = per_triangle_chart_bbox(tri[None], cam90)
            assert bits(one_conservative_bbox(tri[None], cam90)) == bits(expected)

    def test_side_plane_tie_goes_to_the_earlier_plane(self, exact_cam):
        # In front at w = 1, the triangle crosses all four side planes.
        # Clipping left leaves the box [-1, 1] x [-0.5, 1] and clipping top
        # [-1, 0.5] x [-1, 1], both of area 3; right and bottom leave 4.
        tri = np.array([[[-3.0, 0.5, -1.0], [1.75, 2.25, -1.0], [-2.5, -2.0, -1.0]]])
        clip = clip_coords(tri, exact_cam)[0]
        assert clip[:, 3].tolist() == [1.0, 1.0, 1.0]
        assert select_side_plane(clip) == "left"
        box = one_conservative_bbox(tri, exact_cam)
        assert box == NdcBox(-1.0, -0.5, 1.0, 1.0)
        assert bits(box) == bits(per_triangle_chart_bbox(tri, exact_cam))

    def test_all_behind_raises(self, cam90):
        tri = np.array([[[0.0, 0.0, 1.0], [1.0, 0.0, 2.0], [0.0, 1.0, 1.5]]])
        with pytest.raises(DegenerateChart):
            one_conservative_bbox(tri, cam90)


class TestViewportBox:
    """Pixel extents of chart boxes in frame_charts, on a one-chart scene."""

    @staticmethod
    def chart_px(tmp_path, monkeypatch, lo, hi, screen):
        (tmp_path / "quad.obj").write_text("v -1 -1 -2\nv 1 -1 -2\nv 1 1 -2\nv -1 1 -2\nf 1 2 3 4\n")
        box = (np.array([lo], dtype=np.float64), np.array([hi], dtype=np.float64))
        monkeypatch.setattr("atlaspack.cli.chart_bbox", lambda *args: box)
        cfg = SceneConfig(mesh_path=tmp_path / "quad.obj", fov_y_deg=90.0, screen=screen)
        frame = frame_charts(cfg)
        assert frame.boxes[:, 2:].tolist() == frame.chart_px.tolist()
        return frame.chart_px.tolist()

    def test_full_box_full_screen(self, tmp_path, monkeypatch):
        px = self.chart_px(tmp_path, monkeypatch, (-1, -1), (1, 1), (1920, 1080))
        assert px == [[1920, 1080]]

    def test_half_box(self, tmp_path, monkeypatch):
        assert self.chart_px(tmp_path, monkeypatch, (0, 0), (1, 1), (256, 256)) == [[128, 128]]

    def test_degenerate_box_claims_one_pixel(self, tmp_path, monkeypatch):
        px = self.chart_px(tmp_path, monkeypatch, (0.25, -0.5), (0.25, -0.5), (640, 480))
        assert px == [[1, 1]]

    def test_rejects_empty_screen(self, tmp_path, monkeypatch):
        with pytest.raises(ValueError):
            self.chart_px(tmp_path, monkeypatch, (-1, -1), (1, 1), (0, 100))
