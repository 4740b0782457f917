import numpy as np
import pytest

from atlaspack import (
    ChartSet,
    Mesh,
    VisibilityBuffer,
    connected_charts,
    depth_prepass,
    load_obj,
    mark_visible,
    merge_shared_vertices,
)

from atlaspack.charts import _CHUNK, _clip_groups, _samples
from atlaspack.geometry import W_EPSILON, clip_coords

from oracles import (
    bfs_chart_labels,
    clip_triangle_frustum,
    delaunay_mesh,
    dict_adjacency,
    reference_depth_and_flags,
    vertex_merge_labels,
)


def flat_mesh(tris, z=-2.0, coords=None):
    """Mesh on the z = const plane from 2D vertex coords and triangles."""
    coords = np.asarray(coords, dtype=np.float64)
    positions = np.column_stack([coords, np.full(len(coords), z)])
    return Mesh(positions=positions, triangles=np.asarray(tris))


def soup_mesh(rng, n_vertices, n_triangles):
    """Random triangles over a small vertex pool, for chartification.

    A small pool makes edges shared by three or more triangles and charts
    that touch at a single vertex common. About one triangle in ten repeats
    a vertex index (as in ``f 1 1 2``), a few vertices duplicate another's
    position under their own index, and three vertices are never used.
    """
    tris = rng.integers(0, n_vertices, size=(n_triangles, 3))
    repeat = rng.random(n_triangles) < 0.1
    tris[repeat, 1] = tris[repeat, 0]
    positions = rng.random((n_vertices + 3, 3))
    positions[rng.integers(0, n_vertices, size=2)] = positions[0]
    return Mesh(positions=positions, triangles=tris)


def soup_cases(seed, count=150):
    """Seeded soups of varied density, each with random visibility flags."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        mesh = soup_mesh(rng, int(rng.integers(3, 60)), int(rng.integers(1, 120)))
        flags = rng.random(mesh.n_triangles) < rng.random()
        yield mesh, VisibilityBuffer(flags=flags, sample_res=(8, 8))


def screen_quad(z=-1.0, half=2.0):
    """Two CCW triangles covering the whole fov-90 screen at depth |z|."""
    s = half * abs(z)
    coords = [(-s, -s), (s, -s), (s, s), (-s, s)]
    return flat_mesh([(0, 1, 2), (0, 2, 3)], z=z, coords=coords)


class TestMesh:
    def test_adjacency_symmetric_with_degree_cap(self, rng):
        mesh = delaunay_mesh(rng, 80)
        adj = mesh.adjacency
        assert adj.shape == (mesh.n_triangles, 3)
        for t in range(mesh.n_triangles):
            for nb in adj[t]:
                if nb >= 0:
                    assert t in adj[nb]

    def test_non_manifold_edge_stays_unlinked(self):
        # three triangles share edge (0, 1)
        coords = [(0, 0), (1, 0), (0, 1), (1, 1), (0.5, -1)]
        mesh = flat_mesh([(0, 1, 2), (0, 1, 3), (0, 1, 4)], coords=coords)
        assert np.all(mesh.adjacency == -1)

    def test_adjacency_matches_dict_oracle(self, rng):
        shared_by_three = 0
        for mesh, _ in soup_cases(1):
            assert np.array_equal(mesh.adjacency, dict_adjacency(mesh.triangles))
            edges = np.sort(np.stack([mesh.triangles, np.roll(mesh.triangles, -1, 1)], 2), 2)
            users = np.unique(edges.reshape(-1, 2), axis=0, return_counts=True)[1]
            shared_by_three += users.max() >= 3
        assert shared_by_three
        mesh = delaunay_mesh(rng, 200)
        assert np.array_equal(mesh.adjacency, dict_adjacency(mesh.triangles))

    def test_repeated_vertex_links_a_triangle_to_itself(self):
        # f 1 1 2: edges (0, 0), (0, 1) and (1, 0), so edge (0, 1) has two users
        mesh = flat_mesh([(0, 0, 1)], coords=[(0, 0), (1, 0)])
        assert mesh.adjacency.tolist() == [[-1, 0, 0]]

    @pytest.mark.parametrize(
        "adjacency",
        [np.full((1, 3), -1), np.full(6, -1), [[-1, -1, 5], [-1, -1, -1]],
         [[-1, -1, -5], [-1, -1, -1]]],
        ids=["one_row_for_two", "flat", "neighbour_past_end", "negative_neighbour"],
    )
    def test_mismatched_adjacency_rejected(self, adjacency):
        coords = [(0, 0), (1, 0), (0, 1), (1, 1)]
        positions = np.column_stack([coords, np.full(4, -2.0)])
        with pytest.raises(ValueError, match="adjacency"):
            Mesh(positions=positions, triangles=[(0, 1, 2), (1, 3, 2)], adjacency=adjacency)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            Mesh(positions=np.zeros((2, 3)), triangles=np.array([[0, 1, 2]]))


class TestLoadObj(object):
    def test_fan_triangulation_and_comments(self, tmp_path):
        obj = tmp_path / "quad.obj"
        obj.write_text(
            "# quad\n"
            "v 0 0 0\n"
            "v 1 0 0\n"
            "v 1 1 0\n"
            "v 0 1 0\n"
            "vn 0 0 1\n"
            "f 1/1/1 2/2/1 3/3/1 4/4/1\n"
        )
        mesh = load_obj(obj)
        assert mesh.n_triangles == 2
        assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]

    def test_negative_indices(self, tmp_path):
        obj = tmp_path / "neg.obj"
        obj.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
        mesh = load_obj(obj)
        assert mesh.triangles.tolist() == [[0, 1, 2]]

    def test_malformed_face_raises(self, tmp_path):
        obj = tmp_path / "bad.obj"
        obj.write_text("v 0 0 0\nf 1 1\n")
        with pytest.raises(ValueError):
            load_obj(obj)


class TestDepthPrepass:
    def test_empty_mesh_all_infinite(self, cam90):
        mesh = Mesh(positions=np.zeros((0, 3)), triangles=np.zeros((0, 3), dtype=int))
        depth = depth_prepass(mesh, cam90, (16, 8))
        assert depth.shape == (8, 16)
        assert np.all(np.isinf(depth))

    def test_full_screen_quad_constant_depth(self, cam90):
        depth = depth_prepass(screen_quad(z=-1.0), cam90, (32, 32))
        assert np.all(np.isfinite(depth))
        assert np.allclose(depth, depth[0, 0], atol=1e-12)

    def test_overlap_keeps_minimum_depth(self, cam90):
        near_quad = screen_quad(z=-1.0)
        far_quad = screen_quad(z=-5.0)
        merged = Mesh(
            positions=np.vstack([near_quad.positions, far_quad.positions]),
            triangles=np.vstack([near_quad.triangles, far_quad.triangles + 4]),
        )
        depth = depth_prepass(merged, cam90, (16, 16))
        near_only = depth_prepass(near_quad, cam90, (16, 16))
        assert np.allclose(depth, near_only, atol=1e-12)


class TestMarkVisible:
    def test_occluded_triangle_not_visible(self, cam90):
        occluder = screen_quad(z=-1.0)
        coords = [(-0.5, -0.5), (0.5, -0.5), (0.0, 0.5)]
        behind = flat_mesh([(0, 1, 2)], z=-5.0, coords=coords)
        merged = Mesh(
            positions=np.vstack([occluder.positions, behind.positions]),
            triangles=np.vstack([occluder.triangles, behind.triangles + 4]),
        )
        depth = depth_prepass(merged, cam90, (32, 32))
        vis = mark_visible(merged, cam90, depth)
        assert vis.flags.tolist() == [True, True, False]

    def test_subpixel_triangle_not_visible(self, cam90):
        # at 8x8 the pixel centers sit at NDC -1 + (i + 0.5) / 4; this
        # triangle fits between two of them
        coords = [(0.02, 0.02), (0.05, 0.02), (0.03, 0.05)]
        mesh = flat_mesh([(0, 1, 2)], z=-1.0, coords=coords)
        depth = depth_prepass(mesh, cam90, (8, 8))
        vis = mark_visible(mesh, cam90, depth)
        assert not vis.flags[0]

    def test_partially_offscreen_single_sample_visible(self, cam90):
        # bulk of the triangle is left of the screen; one corner covers the
        # pixel center at NDC (-0.875, -0.875) on an 8x8 grid
        coords = [(-3.0, -0.9), (-0.8, -0.9), (-0.8, -0.8)]
        mesh = flat_mesh([(0, 1, 2)], z=-1.0, coords=coords)
        depth = depth_prepass(mesh, cam90, (8, 8))
        vis = mark_visible(mesh, cam90, depth)
        assert vis.flags[0]

    def test_backface_never_flagged_by_default(self, cam90):
        coords = [(-1.0, -1.0), (0.0, 1.0), (1.0, -1.0)]  # clockwise on screen
        mesh = flat_mesh([(0, 1, 2)], z=-2.0, coords=coords)
        depth = depth_prepass(mesh, cam90, (16, 16))
        assert not mark_visible(mesh, cam90, depth).flags[0]
        depth_nc = depth_prepass(mesh, cam90, (16, 16), backface_cull=False)
        assert mark_visible(mesh, cam90, depth_nc, backface_cull=False).flags[0]


def at_pixel(px, py, depth, res):
    """World points that the exact_cam fixture projects to pixel (px, py) at a depth.

    Exact for a power-of-two resolution and dyadic pixel coordinates.
    """
    w, h = res
    depth = np.broadcast_to(depth, np.shape(px))
    return np.stack([(px / w * 2.0 - 1.0) * depth, (py / h * 2.0 - 1.0) * depth, -depth], axis=-1)


def random_soup(rng, res):
    """Triangles inside, across the near and side planes, and slivers.

    A quarter of the soups snap their vertices to the half-pixel lattice at
    dyadic depths, so samples fall exactly on edges and top-left ties decide
    them. Slivers have a third vertex within ~1e-9 of the first edge's
    midpoint or first vertex. Row slivers lie on a pixel-center row with
    their third vertex a few ulps off it: they cover samples on that row
    only through a top-left edge, and rounding alone decides their
    orientation.
    """
    n = int(rng.integers(1, 40))
    w, h = res
    if rng.random() < 0.25:
        px = rng.integers(-2, 2 * w + 3, size=(n, 3)) / 2.0
        py = rng.integers(-2, 2 * h + 3, size=(n, 3)) / 2.0
        tris = at_pixel(px, py, rng.choice([1.0, 2.0, 4.0], size=(n, 3)), res)
    else:
        center = rng.uniform([-3.0, -3.0, -8.0], [3.0, 3.0, 1.0], size=(n, 1, 3))
        spread = rng.choice([0.05, 0.5, 2.0, 6.0], size=(n, 1, 1))
        tris = center + rng.normal(size=(n, 3, 3)) * spread
    rows = rng.random(n) < 0.15
    px = rng.uniform(-2.0, w + 2.0, size=(n, 3))
    py = np.repeat(rng.integers(0, h, size=(n, 1)) + 0.5, 3, axis=1)
    py[:, 2] += rng.integers(-8, 9, size=n) * 2.0**-50
    tris[rows] = at_pixel(px, py, 1.0, res)[rows]
    slivers = ~rows & (rng.random(n) < 0.2)
    base = np.where(rng.random((n, 1)) < 0.5, tris[:, 0], 0.5 * (tris[:, 0] + tris[:, 1]))
    tris[slivers, 2] = (base + rng.normal(scale=1e-9, size=(n, 3)))[slivers]
    positions = tris.reshape(-1, 3)
    return Mesh(positions=positions, triangles=np.arange(len(positions)).reshape(-1, 3))


class TestBatchedSampler:
    RESOLUTIONS = [(1, 1), (1, 7), (5, 1), (8, 8), (16, 8), (13, 29), (32, 16), (48, 27)]

    def test_matches_per_triangle_reference_on_random_soups(self, cam90, exact_cam):
        rng = np.random.default_rng(5)
        cams = [cam90, exact_cam]
        for case in range(200):
            res = self.RESOLUTIONS[case % len(self.RESOLUTIONS)]
            mesh = random_soup(rng, res)
            cam = cams[case % 2]
            for cull in (True, False):
                ref_depth, ref_flags = reference_depth_and_flags(mesh, cam, res, cull)
                depth = depth_prepass(mesh, cam, res, backface_cull=cull)
                flags = mark_visible(mesh, cam, depth, backface_cull=cull).flags
                assert np.array_equal(depth, ref_depth), (case, cull)
                assert np.array_equal(flags, ref_flags), (case, cull)

    def test_flat_polygon_takes_mean_depth(self, exact_cam):
        # Screen triangle (3.5, 0.5), (0.5, 0.5), (2, 0.5 - 1e-13) at 8x8: its
        # top edge runs left along the pixel-center row y = 0.5, so it
        # covers samples although |det| < 1e-12 leaves no depth plane.
        px = np.array([3.5, 0.5, 2.0])
        py = np.array([0.5, 0.5, 0.5 - 1e-13])
        positions = at_pixel(px, py, np.array([1.0, 2.0, 4.0]), (8, 8))
        mesh = Mesh(positions=positions, triangles=[[0, 1, 2]])
        cam = exact_cam
        depth = depth_prepass(mesh, cam, (8, 8))
        ref_depth, ref_flags = reference_depth_and_flags(mesh, cam, (8, 8), True)
        clip = clip_coords(positions[None], cam)[0]
        covered = np.isfinite(depth)
        assert covered.sum() >= 2
        assert np.all(depth[covered] == (clip[:, 2] / clip[:, 3]).mean())
        assert np.array_equal(depth, ref_depth)
        assert np.array_equal(mark_visible(mesh, cam, depth).flags, ref_flags)

    @pytest.mark.parametrize(
        "mesh, res",
        [
            (screen_quad(z=-1.0), (512, 512)),
            # Clipped to the screen square, it covers every candidate sample.
            (flat_mesh([(0, 1, 2)], z=-1.0, coords=[(-9, -9), (30, -9), (-9, 30)]), (512, 512)),
            (screen_quad(z=-1.0), (1 << 15, 2)),
        ],
        ids=["quad_512x512", "big_triangle_512x512", "quad_wide_rows"],
    )
    def test_chunks_stay_within_bound(self, cam90, mesh, res):
        # Either mesh covers every pixel exactly once.
        sizes = [len(t) for t, _, _, _ in _samples(mesh, cam90, *res, True)]
        assert len(sizes) > 1
        assert max(sizes) <= max(_CHUNK, res[0])
        assert sum(sizes) == res[0] * res[1]


class TestClipGroups:
    def assert_matches_per_triangle_clip(self, mesh, cam):
        clip = clip_coords(mesh.triangle_corners(), cam)
        got = {}
        for ids, polys in _clip_groups(mesh, cam):
            assert len(ids) == len(polys) and polys.shape[1] >= 3
            for t, poly in zip(ids.tolist(), polys):
                assert t not in got
                got[t] = poly
        for t in range(mesh.n_triangles):
            want = clip_triangle_frustum(clip[t])
            if len(want) >= 3:
                assert got.pop(t).tobytes() == want.tobytes(), t
        assert not got
        return clip

    def test_matches_per_triangle_clip_on_random_soups(self, cam90, exact_cam):
        rng = np.random.default_rng(8)
        counts = set()
        for case in range(150):
            mesh = random_soup(rng, (16, 8))
            # Push some triangles past the far plane at 100 as well.
            far = rng.random(mesh.n_triangles) < 0.1
            mesh.positions[mesh.triangles[far].ravel(), 2] *= 40.0
            clip = self.assert_matches_per_triangle_clip(mesh, (cam90, exact_cam)[case % 2])
            counts.update(len(clip_triangle_frustum(c)) for c in clip)
        # Clipping gave empty polygons and polygons of 3 to at least 7 vertices.
        assert {0, 3, 4, 5, 6, 7} <= counts, counts

    def test_vertex_on_the_camera_plane(self, exact_cam):
        # The camera maps world (x, y, z) to clip (x, y, 0, -z), so a vertex
        # at z = -W_EPSILON sits at w - W_EPSILON == 0, and only the camera
        # plane can drop the first triangle: clipped to w - W_EPSILON >= 0,
        # it would keep a sliver at that vertex inside every other plane.
        exact_cam.proj[2] = 0.0
        e = W_EPSILON
        positions = [
            (0.0, 0.0, -e), (1.0, 0.0, 1.0), (0.0, 1.0, 2.0),  # d <= 0 and one d == 0
            (0.0, 0.0, -e), (0.5, 0.0, -1.0), (0.0, 0.5, 1.0),  # d == 0, d > 0, d < 0
            (-0.5, -0.5, -2.0), (3.0, -0.5, -2.0), (-0.5, 0.5, -2.0),  # leaves the right plane
        ]
        mesh = Mesh(positions=positions, triangles=np.arange(9).reshape(3, 3))
        clip = self.assert_matches_per_triangle_clip(mesh, exact_cam)
        assert (clip[0, :, 3] - e).tolist() == [0.0, -1.0 - e, -2.0 - e]
        ids = np.concatenate([ids for ids, _ in _clip_groups(mesh, exact_cam)])
        assert sorted(ids.tolist()) == [1, 2]


def all_visible(mesh):
    return VisibilityBuffer(flags=np.ones(mesh.n_triangles, dtype=bool), sample_res=(8, 8))


class TestConnectedCharts:
    def test_matches_bfs_oracle_on_random_meshes(self, rng):
        for _ in range(40):
            mesh = delaunay_mesh(rng, int(rng.integers(5, 120)))
            flags = rng.random(mesh.n_triangles) < 0.6
            vis = VisibilityBuffer(flags=flags, sample_res=(8, 8))
            cs = connected_charts(mesh, vis)
            oracle = bfs_chart_labels(mesh, flags)
            assert np.array_equal(cs.chart_of_triangle, oracle)

    def test_matches_bfs_oracle_on_soups(self):
        for mesh, vis in soup_cases(2):
            cs = connected_charts(mesh, vis)
            assert np.array_equal(cs.chart_of_triangle, bfs_chart_labels(mesh, vis.flags))
            assert list(cs.charts) == sorted(set(cs.chart_of_triangle[vis.flags].tolist()))
            for root, members in cs.charts.items():
                assert members.tolist() == np.flatnonzero(cs.chart_of_triangle == root).tolist()

    def test_randomly_numbered_strip_is_one_chart(self):
        # Triangle i of the strip uses vertices i, i + 1 and i + 2, so the
        # edge graph is a path of 20,000 triangles; both are renumbered at
        # random. Hooking every node under its smallest neighbouring label
        # would need thousands of rounds here; hooking roots needs a few.
        rng = np.random.default_rng(3)
        n = 20_000
        strip = rng.permutation(n + 2)[np.arange(n)[:, None] + np.arange(3)]
        mesh = Mesh(positions=np.zeros((n + 2, 3)), triangles=strip[rng.permutation(n)])
        cs = connected_charts(mesh, all_visible(mesh))
        assert list(cs.charts) == [0] and len(cs.charts[0]) == n
        merged = merge_shared_vertices(cs, mesh)
        assert list(merged.charts) == [0] and set(merged.vertex_to_chart.values()) == {0}

    def test_nothing_visible_gives_empty_set(self, rng):
        mesh = delaunay_mesh(rng, 20)
        vis = VisibilityBuffer(flags=np.zeros(mesh.n_triangles, bool), sample_res=(8, 8))
        cs = connected_charts(mesh, vis)
        assert cs.n_charts == 0
        assert np.all(cs.chart_of_triangle == -1)

    def test_vertex_sharing_is_not_edge_adjacency(self):
        coords = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]
        mesh = flat_mesh([(0, 1, 2), (1, 3, 4)], coords=coords)  # share vertex 1
        cs = connected_charts(mesh, all_visible(mesh))
        assert sorted(cs.charts) == [0, 1]

    def test_labels_are_minimum_members(self, rng):
        mesh = delaunay_mesh(rng, 60)
        cs = connected_charts(mesh, all_visible(mesh))
        for root, members in cs.charts.items():
            assert root == members.min()


class TestMergeSharedVertices:
    def test_vertex_bridge_merges_two_charts(self):
        coords = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]
        mesh = flat_mesh([(0, 1, 2), (1, 3, 4)], coords=coords)
        merged = merge_shared_vertices(connected_charts(mesh, all_visible(mesh)), mesh)
        assert sorted(merged.charts) == [0]
        assert merged.chart_of_triangle.tolist() == [0, 0]

    def test_disjoint_charts_unchanged(self):
        coords = [(0, 0), (1, 0), (0, 1), (3, 3), (4, 3), (3, 4)]
        mesh = flat_mesh([(0, 1, 2), (3, 4, 5)], coords=coords)
        merged = merge_shared_vertices(connected_charts(mesh, all_visible(mesh)), mesh)
        assert sorted(merged.charts) == [0, 1]

    def test_bow_tie_fans_collapse_to_one_chart(self):
        # three fans meeting only at the hub vertex 0
        coords = [(0, 0)] + [(np.cos(a), np.sin(a)) for a in np.linspace(0, 5.5, 6)]
        mesh = flat_mesh([(0, 1, 2), (0, 3, 4), (0, 5, 6)], coords=coords)
        merged = merge_shared_vertices(connected_charts(mesh, all_visible(mesh)), mesh)
        assert sorted(merged.charts) == [0]

    def test_vertex_map_unique_and_total(self, rng):
        for _ in range(20):
            mesh = delaunay_mesh(rng, int(rng.integers(5, 100)))
            flags = rng.random(mesh.n_triangles) < 0.5
            vis = VisibilityBuffer(flags=flags, sample_res=(8, 8))
            merged = merge_shared_vertices(connected_charts(mesh, vis), mesh)
            for t in np.flatnonzero(flags):
                chart = merged.chart_of_triangle[t]
                for v in mesh.triangles[t]:
                    assert merged.vertex_to_chart[int(v)] == chart

    def test_matches_vertex_closure_oracle(self, rng):
        for _ in range(30):
            mesh = delaunay_mesh(rng, int(rng.integers(5, 120)))
            flags = rng.random(mesh.n_triangles) < 0.55
            vis = VisibilityBuffer(flags=flags, sample_res=(8, 8))
            merged = merge_shared_vertices(connected_charts(mesh, vis), mesh)
            oracle = vertex_merge_labels(mesh, bfs_chart_labels(mesh, flags))
            assert np.array_equal(merged.chart_of_triangle, oracle)

    def test_matches_oracles_on_soups(self):
        touching = 0
        for mesh, vis in soup_cases(3):
            edge = connected_charts(mesh, vis)
            merged = merge_shared_vertices(edge, mesh)
            oracle = vertex_merge_labels(mesh, bfs_chart_labels(mesh, vis.flags))
            assert np.array_equal(merged.chart_of_triangle, oracle)
            touching += merged.n_charts < edge.n_charts
            for root, members in merged.charts.items():
                assert members.tolist() == np.flatnonzero(oracle == root).tolist()
            visible = mesh.triangles[vis.flags]
            assert sorted(merged.vertex_to_chart) == np.unique(visible).tolist()
            for tri, chart in zip(visible, merged.chart_of_triangle[vis.flags]):
                assert {merged.vertex_to_chart[int(v)] for v in tri} == {chart}
        assert touching

    def test_non_canonical_chart_set_takes_minimum_member(self):
        # Three apart triangles listed as one chart under the id 2.
        coords = [(0, 0), (1, 0), (0, 1), (3, 3), (4, 3), (3, 4), (6, 6), (7, 6), (6, 7)]
        mesh = flat_mesh([(0, 1, 2), (3, 4, 5), (6, 7, 8)], coords=coords)
        cs = ChartSet(np.array([-1, 2, 2]), {2: np.array([2, 1])}, {})
        merged = merge_shared_vertices(cs, mesh)
        assert merged.chart_of_triangle.tolist() == [-1, 1, 1]
        assert list(merged.charts) == [1] and merged.charts[1].tolist() == [1, 2]
        assert merged.vertex_to_chart == {v: 1 for v in range(3, 9)}
        for charts in ({2: np.array([0, 1, 2])}, {0: np.array([1, 2])}):
            with pytest.raises(ValueError, match="does not match"):
                merge_shared_vertices(ChartSet(np.array([-1, 2, 2]), charts, {}), mesh)

    def test_chart_set_of_another_mesh_rejected(self):
        coords = [(0, 0), (1, 0), (0, 1), (1, 1)]
        small = flat_mesh([(0, 1, 2), (1, 3, 2)], coords=coords)
        large = flat_mesh([(0, 1, 2), (1, 3, 2), (0, 1, 3)], coords=coords)
        for built, used in ((large, small), (small, large)):
            with pytest.raises(ValueError, match="does not match"):
                merge_shared_vertices(connected_charts(built, all_visible(built)), used)
        for member in (5, -1):
            cs = ChartSet(np.array([0, 0]), {0: np.array([0, member])}, {})
            with pytest.raises(ValueError, match="does not match"):
                merge_shared_vertices(cs, small)

    def test_rerun_is_identical(self, rng):
        mesh = delaunay_mesh(rng, 80)
        flags = rng.random(mesh.n_triangles) < 0.5
        vis = VisibilityBuffer(flags=flags, sample_res=(8, 8))
        a = merge_shared_vertices(connected_charts(mesh, vis), mesh)
        b = merge_shared_vertices(connected_charts(mesh, vis), mesh)
        assert np.array_equal(a.chart_of_triangle, b.chart_of_triangle)
        assert a.vertex_to_chart == b.vertex_to_chart
        assert list(a.charts) == list(b.charts)

    def test_hiding_a_triangle_never_merges_charts(self, rng):
        for _ in range(20):
            mesh = delaunay_mesh(rng, 60)
            flags = rng.random(mesh.n_triangles) < 0.7
            vis = VisibilityBuffer(flags=flags, sample_res=(8, 8))
            before = merge_shared_vertices(connected_charts(mesh, vis), mesh)
            victims = np.flatnonzero(flags)
            if victims.size == 0:
                continue
            flags2 = flags.copy()
            flags2[victims[0]] = False
            vis2 = VisibilityBuffer(flags=flags2, sample_res=(8, 8))
            after = merge_shared_vertices(connected_charts(mesh, vis2), mesh)
            still = np.flatnonzero(flags2)
            for i in range(0, len(still), 7):
                for j in range(i + 1, len(still), 11):
                    a, b = still[i], still[j]
                    if before.chart_of_triangle[a] != before.chart_of_triangle[b]:
                        assert after.chart_of_triangle[a] != after.chart_of_triangle[b]
