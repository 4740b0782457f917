import functools
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from atlaspack import (
    Mesh,
    VisibilityBuffer,
    connected_charts,
    load_obj,
    merge_shared_vertices,
)

from atlaspack import charts, cli
from atlaspack.charts import (
    _CHUNK,
    _chart_set,
    _chunks,
    _clip_polygons,
    _depth_planes,
    _row_spans,
    _screen_polygons,
    _vertex_records,
    build_adjacency,
    chart_bbox,
    depth_prepass,
    mark_visible,
    screen_bands,
    screen_setup,
)
from atlaspack.cli import MAX_SCREEN
from atlaspack.geometry import W_EPSILON, clip_coords

from oracles import (
    _polygon_to_screen,
    banded_raster,
    bfs_chart_labels,
    box_samples,
    chart_members,
    clip_triangle_frustum,
    conservative_chart_bbox,
    corner_setup,
    corner_split,
    delaunay_mesh,
    depth_and_flags,
    dict_adjacency,
    exact_cover,
    exact_samples,
    mesh_samples,
    mesh_setup,
    reference_depth_and_flags,
    sample_rows,
    snap_vertices,
    triangle_corners,
    vertex_merge_labels,
    whole_rows,
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
        yield mesh, VisibilityBuffer(flags=flags)


def too_small_for_16x16(shape) -> str:
    """The error of a (height, width) screen or depth buffer that does not fit a 16 x 16
    set-up, as a pattern."""
    return re.escape(f"of shape {tuple(shape)}") + ".*" + re.escape("(16, 16)")


def screen_quad(z=-1.0, half=2.0):
    """Two CCW triangles covering the whole fov-90 screen at depth |z|."""
    s = half * abs(z)
    coords = [(-s, -s), (s, -s), (s, s), (-s, s)]
    return flat_mesh([(0, 1, 2), (0, 2, 3)], z=z, coords=coords)


class TestMesh:
    def test_adjacency_symmetric_with_degree_cap(self, rng):
        mesh = delaunay_mesh(rng, 80)
        adj = build_adjacency(mesh.triangles)
        assert adj.shape == (mesh.n_triangles, 3)
        for t in range(mesh.n_triangles):
            for nb in adj[t]:
                if nb >= 0:
                    assert t in adj[nb]

    def test_non_manifold_edge_stays_unlinked(self):
        # three triangles share edge (0, 1)
        coords = [(0, 0), (1, 0), (0, 1), (1, 1), (0.5, -1)]
        mesh = flat_mesh([(0, 1, 2), (0, 1, 3), (0, 1, 4)], coords=coords)
        assert np.all(build_adjacency(mesh.triangles) == -1)

    def test_adjacency_matches_dict_oracle(self, rng):
        shared_by_three = 0
        for mesh, _ in soup_cases(1):
            assert np.array_equal(build_adjacency(mesh.triangles), dict_adjacency(mesh.triangles))
            edges = np.sort(np.stack([mesh.triangles, np.roll(mesh.triangles, -1, 1)], 2), 2)
            users = np.unique(edges.reshape(-1, 2), axis=0, return_counts=True)[1]
            shared_by_three += users.max() >= 3
        assert shared_by_three
        mesh = delaunay_mesh(rng, 200)
        assert np.array_equal(build_adjacency(mesh.triangles), dict_adjacency(mesh.triangles))

    def test_repeated_vertex_links_a_triangle_to_itself(self):
        # f 1 1 2: edges (0, 0), (0, 1) and (1, 0), so edge (0, 1) has two users
        mesh = flat_mesh([(0, 0, 1)], coords=[(0, 0), (1, 0)])
        assert build_adjacency(mesh.triangles).tolist() == [[-1, 0, 0]]

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


TRIANGLE_OBJ = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"


class TestLoadObjReuse:
    """load_obj parses a file only when its bytes differ from the last file it parsed."""

    def test_same_bytes_parse_once(self, tmp_path, split_files):
        obj = tmp_path / "tri.obj"
        obj.write_text(TRIANGLE_OBJ)
        first, second = load_obj(obj), load_obj(obj)
        assert len(split_files) == 1
        assert np.array_equal(first.positions, second.positions)
        assert np.array_equal(first.triangles, second.triangles)

    def test_rewritten_bytes_parse_again(self, tmp_path, split_files):
        # The same size and mtime: only the bytes tell the two files apart.
        obj = tmp_path / "tri.obj"
        obj.write_text(TRIANGLE_OBJ)
        stat = obj.stat()
        assert load_obj(obj).positions[1].tolist() == [1, 0, 0]
        obj.write_text(TRIANGLE_OBJ.replace("v 1 0 0", "v 2 0 0"))
        os.utime(obj, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert obj.stat().st_size == stat.st_size and obj.stat().st_mtime_ns == stat.st_mtime_ns
        assert load_obj(obj).positions[1].tolist() == [2, 0, 0]
        assert len(split_files) == 2

    def test_other_path_same_bytes_is_not_parsed(self, tmp_path, split_files):
        (tmp_path / "a.obj").write_text(TRIANGLE_OBJ)
        (tmp_path / "b.obj").write_text(TRIANGLE_OBJ)
        a, b = load_obj(tmp_path / "a.obj"), load_obj(tmp_path / "b.obj")
        assert len(split_files) == 1
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.triangles.tobytes() == b.triangles.tobytes()

    def test_bad_file_is_not_remembered(self, tmp_path, split_files):
        good, bad = tmp_path / "good.obj", tmp_path / "bad.obj"
        good.write_text(TRIANGLE_OBJ)
        bad.write_text("v 0 0 0\nf 1 1\n")
        expected = load_obj(good)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"bad\.obj:2: face needs >= 3 vertices"):
                load_obj(bad)
        mesh = load_obj(good)
        assert len(split_files) == 3  # the good file once, the bad one each time
        assert mesh.positions.tobytes() == expected.positions.tobytes()
        assert mesh.triangles.tobytes() == expected.triangles.tobytes()

    def test_arrays_are_read_only_and_results_independent(self, tmp_path, split_files):
        obj = tmp_path / "tri.obj"
        obj.write_text(TRIANGLE_OBJ)
        mesh = load_obj(obj)
        with pytest.raises(ValueError, match="read-only"):
            mesh.positions[0, 0] = 5
        with pytest.raises(ValueError, match="read-only"):
            mesh.triangles[0, 0] = 2
        mesh.positions = np.full((3, 3), 7.0)
        again = load_obj(obj)
        assert again is not mesh
        assert again.positions.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]


class TestDepthPrepass:
    def test_empty_mesh_all_infinite(self, cam90):
        mesh = Mesh(positions=np.zeros((0, 3)), triangles=np.zeros((0, 3), dtype=int))
        depth, _ = depth_and_flags(mesh, cam90, (16, 8))
        assert depth.shape == (8, 16)
        assert np.all(np.isinf(depth))

    def test_full_screen_quad_constant_depth(self, cam90):
        depth, _ = depth_and_flags(screen_quad(z=-1.0), cam90, (32, 32))
        assert np.all(np.isfinite(depth))
        assert np.allclose(depth, depth[0, 0], atol=1e-12)

    def test_overlap_keeps_minimum_depth(self, cam90):
        near_quad = screen_quad(z=-1.0)
        far_quad = screen_quad(z=-5.0)
        merged = Mesh(
            positions=np.vstack([near_quad.positions, far_quad.positions]),
            triangles=np.vstack([near_quad.triangles, far_quad.triangles + 4]),
        )
        depth, _ = depth_and_flags(merged, cam90, (16, 16))
        near_only, _ = depth_and_flags(near_quad, cam90, (16, 16))
        assert np.allclose(depth, near_only, atol=1e-12)

    @pytest.mark.parametrize("res", [(8, 32), (8, 8)], ids=["narrow_and_tall", "small"])
    def test_screen_smaller_than_the_setup_raises(self, cam90, res):
        # Written through a flat index, a (32, 8) buffer would take the
        # samples of columns 8-15 on the next rows, and an (8, 8) one would
        # index past its end.
        setup = mesh_setup(screen_quad(z=-1.0), cam90, (16, 16))
        with pytest.raises(ValueError, match=too_small_for_16x16((res[1], res[0]))):
            depth_prepass(next(screen_bands(setup, res)))


class TestMarkVisible:
    def test_occluded_triangle_not_visible(self, cam90):
        occluder = screen_quad(z=-1.0)
        coords = [(-0.5, -0.5), (0.5, -0.5), (0.0, 0.5)]
        behind = flat_mesh([(0, 1, 2)], z=-5.0, coords=coords)
        merged = Mesh(
            positions=np.vstack([occluder.positions, behind.positions]),
            triangles=np.vstack([occluder.triangles, behind.triangles + 4]),
        )
        _, flags = depth_and_flags(merged, cam90, (32, 32))
        assert flags.tolist() == [True, True, False]

    @pytest.mark.parametrize("gap, visible", [(1e-6, True), (1e-3, False)])
    def test_depth_slack_flags_a_triangle_just_behind(self, cam90, gap, visible):
        # A triangle parallel to the screen quad and gap behind it has a
        # larger depth at every sample it covers. Within DEPTH_EPSILON of
        # the stored depth (about 2e-7 in NDC for gap 1e-6) it is flagged.
        front = screen_quad(z=-1.0)
        coords = [(-0.5, -0.5), (0.5, -0.5), (0.0, 0.5)]
        behind = flat_mesh([(0, 1, 2)], z=-1.0 - gap, coords=coords)
        merged = Mesh(
            positions=np.vstack([front.positions, behind.positions]),
            triangles=np.vstack([front.triangles, behind.triangles + 4]),
        )
        depth, flags = depth_and_flags(merged, cam90, (32, 32))
        alone, _ = depth_and_flags(behind, cam90, (32, 32))
        covered = np.isfinite(alone)
        assert covered.any() and np.all(alone[covered] > depth[covered])
        assert flags.tolist() == [True, True, visible]

    def test_subpixel_triangle_not_visible(self, cam90):
        # at 8x8 the pixel centers sit at NDC -1 + (i + 0.5) / 4; this
        # triangle fits between two of them
        coords = [(0.02, 0.02), (0.05, 0.02), (0.03, 0.05)]
        mesh = flat_mesh([(0, 1, 2)], z=-1.0, coords=coords)
        _, flags = depth_and_flags(mesh, cam90, (8, 8))
        assert not flags[0]

    def test_partially_offscreen_single_sample_visible(self, cam90):
        # bulk of the triangle is left of the screen; one corner covers the
        # pixel center at NDC (-0.875, -0.875) on an 8x8 grid
        coords = [(-3.0, -0.9), (-0.8, -0.9), (-0.8, -0.8)]
        mesh = flat_mesh([(0, 1, 2)], z=-1.0, coords=coords)
        _, flags = depth_and_flags(mesh, cam90, (8, 8))
        assert flags[0]

    def test_backface_never_flagged_by_default(self, cam90):
        coords = [(-1.0, -1.0), (0.0, 1.0), (1.0, -1.0)]  # clockwise on screen
        mesh = flat_mesh([(0, 1, 2)], z=-2.0, coords=coords)
        assert not depth_and_flags(mesh, cam90, (16, 16))[1][0]
        assert depth_and_flags(mesh, cam90, (16, 16), cull=False)[1][0]

    @pytest.mark.parametrize("cull", [True, False])
    def test_zero_length_edge_passes_every_sample(self, cam90, cull):
        # x = -1 projects one ulp outside x = -w, so the clipper emits the
        # intersection point equal to that vertex: the polygon repeats it,
        # and the edge between the copies is 0 at every sample.
        positions = [(-1.0, -1.0, -1.0), (-0.5, -1.0, -1.0), (-0.5, -0.5, -1.0)]
        mesh = Mesh(positions=positions, triangles=[(0, 1, 2)])
        res = (64, 64)
        setup = mesh_setup(mesh, cam90, res, cull)
        assert any(
            np.any((a == 0) & (b == 0)) for _, _, edges, *_ in setup for a, b, _ in edges
        )
        depth, flags = depth_and_flags(mesh, cam90, res, cull)
        assert flags[0]
        assert np.isfinite(depth).sum() > 100  # about half of the 16 x 16 pixels it spans
        ref_depth, ref_flags = reference_depth_and_flags(mesh, cam90, res, cull)
        assert ref_flags[0] and depth.tobytes() == ref_depth.tobytes()

    @pytest.mark.parametrize(
        "shape", [(16, 15), (15, 16), (8, 8)], ids=["narrow", "short", "small"]
    )
    def test_depth_buffer_smaller_than_the_screen_raises(self, cam90, shape):
        # Read through a flat index, a narrower buffer would alias the
        # next row's pixels instead of failing.
        setup = mesh_setup(screen_quad(z=-1.0), cam90, (16, 16))
        band = next(screen_bands(setup, (16, 16)))
        with pytest.raises(ValueError, match=too_small_for_16x16(shape)):
            mark_visible(band, np.zeros(shape), np.zeros(2, dtype=bool))

    @pytest.mark.parametrize(
        "shape", [(16, 17), (17, 16), (32, 32)], ids=["wide", "tall", "large"]
    )
    def test_depth_buffer_larger_than_its_band_raises(self, cam90, shape):
        # Read through a flat index, a wider buffer would shift every row
        # after the first, and a taller one holds rows the band does not.
        setup = mesh_setup(screen_quad(z=-1.0), cam90, (16, 16))
        band = next(screen_bands(setup, (16, 16)))
        with pytest.raises(ValueError, match=too_small_for_16x16(shape)):
            mark_visible(band, np.zeros(shape), np.zeros(2, dtype=bool))


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


def weld_some(rng, mesh) -> int:
    """Weld about 40% of a mesh's triangles to the one before, in place, so that they
    share a vertex; the number welded."""
    weld = np.flatnonzero(rng.random(mesh.n_triangles) < 0.4)
    weld = weld[weld > 0]
    mesh.triangles[weld, 0] = mesh.triangles[weld - 1, 2]
    return len(weld)


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
                depth, flags = depth_and_flags(mesh, cam, res, cull)
                assert np.array_equal(depth, ref_depth), (case, cull)
                assert np.array_equal(flags, ref_flags), (case, cull)

    def test_flat_polygon_takes_mean_depth(self, exact_cam):
        # Screen triangle C = (0, 1), A = (6, 3) and B = C + t (A - C) at
        # 8x8, with t = 1/2 + 5/4096: exactly collinear in float, so
        # _depth_planes finds no plane. Snapped to 1/256 pixel, B lands at
        # (770, 513), a third of a step above the line through C and A, so
        # the triangle is counter-clockwise. Its edge C -> A runs up through
        # the pixel centers (1.5, 1.5) and (4.5, 2.5) and covers them.
        t = 0.5 + 5 / 4096
        px = np.array([0.0, 6.0, 6.0 * t])
        py = np.array([1.0, 3.0, 1.0 + 2.0 * t])
        positions = at_pixel(px, py, np.array([1.0, 2.0, 4.0]), (8, 8))
        mesh = Mesh(positions=positions, triangles=[[0, 1, 2]])
        cam = exact_cam
        (_, _, _, (_, _, _, _, _, flat), _), = mesh_setup(mesh, cam, (8, 8))
        assert flat.tolist() == [True]
        depth, flags = depth_and_flags(mesh, cam, (8, 8))
        ref_depth, ref_flags = reference_depth_and_flags(mesh, cam, (8, 8), True)
        clip = clip_coords(positions[None], cam)[0]
        covered = np.isfinite(depth)
        assert np.argwhere(covered).tolist() == [[1, 1], [2, 4]]
        assert np.all(depth[covered] == (clip[:, 2] / clip[:, 3]).mean())
        assert np.array_equal(depth, ref_depth)
        assert np.array_equal(flags, ref_flags)

    @pytest.mark.parametrize("flipped", [False, True])
    def test_padded_flat_polygon_keeps_its_mean_depth(self, flipped):
        # Flat polygons of 3 to 9 vertices, padded to 9 slots by repeating
        # their last vertex id as the set-up pads the clipped polygons, and
        # reversed as the set-up flips a clockwise one. z0 must be the mean
        # that the unpadded (n, G) group of each count gave, bit for bit:
        # the real vertices only, summed in their order. Depths of mixed
        # magnitude make the sum depend on that order.
        rng = np.random.default_rng(31)
        counts = np.arange(3, 10).repeat(5)
        z = rng.normal(size=(9, len(counts))) * 10.0 ** rng.integers(-8, 9, size=(9, len(counts)))
        slots = np.minimum(np.arange(9)[:, None], counts - 1)
        ids = slots + 9 * np.arange(len(counts))
        padded = np.take_along_axis(z, slots, axis=0)
        want = np.empty(len(counts))
        for n in range(3, 10):
            group = np.flatnonzero(counts == n)
            unpadded = z[:n, group][::-1] if flipped else z[:n, group]
            want[group] = [unpadded[:, g].mean() for g in range(len(group))]
        if flipped:
            padded, ids = padded[::-1].copy(), ids[::-1].copy()
        x, y = np.zeros((2, 9, len(counts)))  # every vertex at one point: no fan has a plane
        _, _, z0, _, _, flat = _depth_planes(x, y, padded, ids)
        assert flat.all()
        assert z0.tobytes() == want.tobytes()
        assert z0.tobytes() != padded.mean(axis=0).tobytes()

    def test_sample_stream_matches_box_sampler(self, cam90, exact_cam):
        # The span sampler and the box sampler cut their chunks in different
        # places, but the ordered stream of samples is the same, bit for bit,
        # once the span sampler's flat pixel indices are read as rows and
        # columns. The depth pass's stream, which forms no triangle ids,
        # holds the same pixels and depths.
        rng = np.random.default_rng(9)
        cams = [cam90, exact_cam]
        screens = [tuple(rng.integers(50, 401, size=2)) for _ in range(40)]
        samples = 0
        for case, res in enumerate(self.RESOLUTIONS * 20 + screens):
            mesh = random_soup(rng, res)
            for cull in (True, False):
                got, want, bare = [], [], []
                for group in mesh_setup(mesh, cams[case % 2], res, cull):
                    got += _chunks(group, res[0], whole_rows(group), 0)
                    want += box_samples(group)
                    bare += _chunks(group, res[0], whole_rows(group), 0, ids=False)
                assert sample_stream(bare, 2) == sample_stream(got, 3)[1:], (case, res, cull)
                got, want = sample_stream(sample_rows(got, res[0])), sample_stream(want)
                assert got == want, (case, res, cull)
                samples += len(got[0][0]) // 8
        assert samples > 1_000_000

    def test_coverage_is_exact_on_random_soups(self, cam90, exact_cam):
        # Every sample the raster covers, and no other, passes a brute-force
        # Python-int test of every pixel of the screen.
        rng = np.random.default_rng(12)
        cams = [cam90, exact_cam]
        for case in range(160):
            res = self.RESOLUTIONS[case % len(self.RESOLUTIONS)]
            mesh = random_soup(rng, res)
            for cull in (True, False):
                want = exact_samples(mesh, cams[case % 2], res, cull)
                assert np.array_equal(raster_cover(mesh, cams[case % 2], res, cull), want), case

    def test_spans_are_exact_on_ties_and_slivers(self, exact_cam):
        rng = np.random.default_rng(4)
        res, n = (64, 64), 240
        # Vertices on pixel centers, so edges pass through samples and
        # top-left ties decide them. Depths of 0.7 do not project exactly,
        # which puts some vertices a rounding error off the centers.
        px = rng.integers(0, 64, size=(n, 3)) + 0.5
        py = rng.integers(0, 64, size=(n, 3)) + 0.5
        depth = rng.choice([0.7, 3.0], size=(n, 3))
        # Exactly horizontal edges, running either way once flipped or
        # culled: ey == 0 makes the quotient infinite or NaN.
        py[: n // 3, 1] = py[: n // 3, 0]
        depth[: n // 3] = 1.0
        # Row slivers: |ey| a few ulps, on a pixel-center row.
        slivers = slice(n // 3, n // 2)
        py[slivers] = py[slivers, :1]
        py[slivers, 2] += rng.integers(-4, 5, size=n // 2 - n // 3) * 2.0**-50
        depth[slivers] = 1.0
        positions = at_pixel(px, py, depth, res).reshape(-1, 3)
        mesh = Mesh(positions=positions, triangles=np.arange(3 * n).reshape(-1, 3))
        for cull in (True, False):
            setup = mesh_setup(mesh, exact_cam, res, cull)
            assert any(np.any(a == 0) for _, _, edges, *_ in setup for a, _, _ in edges)
            want = exact_samples(mesh, exact_cam, res, cull)
            assert np.array_equal(raster_cover(mesh, exact_cam, res, cull), want), cull
            ref_depth, ref_flags = reference_depth_and_flags(mesh, exact_cam, res, cull)
            depth_buffer, flags = depth_and_flags(mesh, exact_cam, res, cull)
            assert np.array_equal(depth_buffer, ref_depth), cull
            assert np.array_equal(flags, ref_flags), cull

    @pytest.mark.parametrize("origin", [0.0, 0.5], ids=["pixel_corner", "pixel_center"])
    @pytest.mark.parametrize("cull", [True, False])
    def test_negative_zero_vertex_keeps_its_samples(self, cull, origin):
        # Vertices 1e-9 px left of and below a pixel corner, or a pixel
        # center, round to -0 there, as rint rounds a tiny negative. A
        # horizontal edge from +0 to such a vertex, running right, has the
        # interior above it; with ey = -0 its quotients would be -inf on
        # every row and cover nothing. The other triangle is the clockwise
        # one that becomes this one when flipped.
        assert np.signbit(np.rint(-1e-9 * 256))
        res = (8, 8)
        a, b, c = (origin - 1e-9, origin), (6.0, origin - 1e-9), (3.0, 6.0)
        for corners, clockwise in (((a, b, c), False), ((b, a, c), True)):
            ndc = np.array(corners) / np.array(res) * 2.0 - 1.0
            poly = np.column_stack([ndc, np.full(3, 0.5), np.ones(3)])[None]
            records = _vertex_records(poly[0], *res)
            group = _screen_polygons(np.arange(1), np.arange(3)[:, None], records, *res, cull)
            pixels = [p for p, _ in _chunks(group, res[0], whole_rows(group), 0, ids=False)]
            pixels = np.concatenate(pixels) if pixels else np.zeros(0, dtype=np.int64)
            q = snap_vertices(_polygon_to_screen(poly[0], *res))
            iy, ix = exact_cover(q, range(res[1]), res[0], cull)
            assert pixels.tolist() == (iy * res[0] + ix).tolist(), corners
            assert len(pixels) == 0 if cull and clockwise else len(pixels) > 10

    @pytest.mark.parametrize("cull", [True, False])
    def test_row_spans_are_exact_on_a_max_screen(self, cull):
        # Triangles across a MAX_SCREEN-sided screen put snapped coordinates
        # near 2^22 and edge values near 2^46. Their vertices lie on the
        # 1/256 pixel grid, half of them on pixel centers, so crossings fall
        # on columns or within 1 / |256 ey| of one, where a quotient rounded
        # less finely than float64 picks the wrong column. Rows go through
        # _row_spans directly, with no depth buffer: the box's first and last
        # rows, random ones, and for each edge the rows whose crossings lie
        # nearest a column. Each span holds exactly the columns of the screen
        # that pass every edge, tested in int64, which holds these values
        # exactly; the rows just outside the box hold none.
        side = MAX_SCREEN
        rng = np.random.default_rng(7)
        n = 16
        grid = rng.integers(-32 * side, 288 * side, size=(n, 3, 2))  # past every side
        grid[::2] = grid[::2] // 256 * 256 + 128  # pixel centers
        grid[:4, 1] = grid[:4, 0] + rng.integers(-300, 300, size=(4, 2))  # slivers
        grid[4:8, 1, 1] = grid[4:8, 0, 1] + rng.integers(-2, 3, size=4)  # near-horizontal
        ndc = grid / (128.0 * side) - 1.0
        clip = np.concatenate([ndc, rng.uniform(-0.5, 0.5, (n, 3, 1)), np.ones((n, 3, 1))], axis=2)
        checked = 0
        triangles = np.arange(3 * n).reshape(n, 3)
        setup, *_ = screen_setup(clip.reshape(-1, 4), triangles, (side, side), cull)
        for kept, (x0, x1, y0, y1), edges, *_ in setup:
            for g, tid in enumerate(kept):
                a, b, c = (np.array([e[k][g] for e in edges], np.int64)[:, None] for k in range(3))
                box_rows = np.arange(y0[g], y1[g] + 1)
                r = (b * box_rows + c) % np.maximum(np.abs(a), 1)
                tie = np.where(a == 0, np.inf, np.minimum(r, np.abs(a) - r))
                near = box_rows[np.argsort(tie, axis=1, kind="stable")[:, :3]].ravel()
                rows = np.unique(np.r_[y0[g], y1[g], rng.integers(y0[g], y1[g] + 1, size=4), near])
                lo, hi = np.full((2, len(rows)), [[x0[g]], [x1[g]]], dtype=np.float64)
                _row_spans(edges, np.array([g]), [len(rows)], rows.astype(np.float64), lo, hi)
                hi = np.maximum(hi, lo - 1).astype(np.int64)  # hi may be -inf on an empty row
                lo = lo.astype(np.int64)
                q = snap_vertices(_polygon_to_screen(clip_triangle_frustum(clip[tid]), side, side))
                iy, ix = exact_cover(q, np.r_[rows, y0[g] - 1, y1[g] + 1], side, cull, np.int64)
                for row, first, last in zip(rows, lo, hi):
                    assert ix[iy == row].tolist() == list(range(first, last + 1)), (tid, row)
                assert np.isin(iy, rows).all()
                checked += 1
        assert checked >= n // 3

    @pytest.mark.parametrize(
        "mesh, res",
        [
            (screen_quad(z=-1.0), (512, 512)),
            # Clipped to the screen square, it covers every sample.
            (flat_mesh([(0, 1, 2)], z=-1.0, coords=[(-9, -9), (30, -9), (-9, 30)]), (512, 512)),
            (screen_quad(z=-1.0), (1 << 15, 2)),
            (screen_quad(z=-1.0), (2, 1 << 15)),
        ],
        ids=["quad_512x512", "big_triangle_512x512", "quad_wide_rows", "quad_tall"],
    )
    def test_chunks_stay_within_bound(self, cam90, mesh, res):
        # A chunk holds whole rows of covered samples: at most _CHUNK of
        # them, or one row when a row alone is wider. Either mesh covers
        # every pixel exactly once.
        sizes = [len(t) for t, _, _ in mesh_samples(mesh, cam90, res)]
        assert len(sizes) > 1
        assert max(sizes) <= max(_CHUNK, res[0])
        assert sum(sizes) == res[0] * res[1]

    def test_tall_slivers_stay_in_bounded_memory(self, exact_cam):
        # 32 slivers half a pixel wide and 2^16 rows tall, 2M box rows in
        # all, each covering the pixel-center column it straddles. Spans
        # are set up _ROWS rows at a time, so the sampler's peak
        # allocation (about 0.82 MB) does not grow with the rows.
        res, n = (64, 1 << 16), 32
        x = 2.0 * np.arange(n) + 0.25
        px = np.stack([x, x + 0.5, x + 0.25], axis=1)
        py = np.tile([0.25, 0.25, res[1] - 0.25], (n, 1))
        positions = at_pixel(px, py, 1.0, res).reshape(-1, 3)
        mesh = Mesh(positions=positions, triangles=np.arange(3 * n).reshape(-1, 3))
        tracemalloc.start()
        try:
            covered = sum(len(t) for t, _, _ in mesh_samples(mesh, exact_cam, res))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert covered == n * res[1]
        assert peak < 950_000, peak


def raster_cover(mesh, cam, res, cull):
    """(t, iy, ix) of the samples the raster covers, sorted by triangle, row and column."""
    chunks = list(sample_rows(mesh_samples(mesh, cam, res, cull), res[0]))
    if not chunks:
        return np.zeros((3, 0), dtype=np.int64)
    got = np.stack([np.concatenate(column) for column in list(zip(*chunks))[:3]])
    return got[:, np.lexsort(got[::-1])]


def sample_stream(chunks, arrays: int = 4):
    """Bytes and dtype of each of the ``arrays`` per-sample arrays, over the chunks in order."""
    chunks = [c for c in chunks if len(c[0])]
    return [
        (b"".join(c[k].tobytes() for c in chunks), {c[k].dtype.str for c in chunks})
        for k in range(arrays)
    ]


def probe_outcomes(mesh, cam, res, cull):
    """Per triangle: a sample on its middle box row, a depth-passing one there, one anywhere."""
    setup = mesh_setup(mesh, cam, res, cull)
    depth, _ = reference_depth_and_flags(mesh, cam, res, cull)
    mid = np.full(mesh.n_triangles, -1)
    for t, (_, _, y0, y1), *_ in setup:
        mid[t] = (y0 + y1) // 2
    on_mid, mid_pass, passes = (np.zeros(mesh.n_triangles, dtype=bool) for _ in range(3))
    for t, iy, ix, z in sample_rows(mesh_samples(mesh, cam, res, cull), res[0]):
        stored = depth[iy, ix]
        ok = z <= stored + charts.DEPTH_EPSILON * np.maximum(1.0, np.abs(stored))
        row = iy == mid[t]
        on_mid[t[row]] = True
        mid_pass[t[row & ok]] = True
        passes[t[ok]] = True
    return on_mid, mid_pass, passes


def undecided_soup(rng, res):
    """Triangles whose middle box row cannot settle their flag, over the exact_cam lattice.

    A band in front hides the middle rows of tall triangles behind it whose
    ends show above and below it, and slanted slivers under a pixel wide
    often cover no sample centre on their middle row but some on others.
    Half of each kind runs clockwise.
    """
    w, h = res
    b0 = rng.integers(h // 4, h // 2)
    b1 = b0 + rng.integers(4, h // 4)
    px = np.array([[-1.0, w + 1.0, w + 1.0], [-1.0, w + 1.0, -1.0]])
    py = np.array([[b0, b0, b1], [b0, b1, b1]], dtype=float)
    band = at_pixel(px, py, 1.0, res)
    n = int(rng.integers(4, 12))
    c = rng.uniform(b0 + 1, b1 - 1, size=n)
    reach = rng.uniform(b1 - b0, h / 2, size=(n, 1))
    x = rng.uniform(0, w, size=(n, 1))
    px = x + rng.uniform(-6, 6, size=(n, 3))
    py = c[:, None] + reach * [-1.0, 1.0, 0.0]
    py[:, 2] += rng.uniform(-1, 1, size=n)
    tall = at_pixel(px, py, rng.uniform(2.0, 4.0, size=(n, 3)), res)
    m = int(rng.integers(4, 16))
    ax, ay = rng.uniform(0, w, size=m), rng.uniform(0, h / 2, size=m)
    bx, by = ax + rng.uniform(-2 * h, 2 * h, size=m) / 4, ay + rng.uniform(6, h / 2, size=m)
    width = rng.uniform(0.1, 0.9, size=m)
    px = np.stack([ax, bx + width, bx], axis=1)
    py = np.stack([ay, by, by], axis=1)
    slivers = at_pixel(px, py, rng.uniform(0.5, 4.0, size=(m, 3)), res)
    tris = np.concatenate([band, tall, slivers])
    flip = rng.random(len(tris)) < 0.5
    tris[flip] = tris[flip, ::-1]
    positions = tris.reshape(-1, 3)
    return Mesh(positions=positions, triangles=np.arange(len(positions)).reshape(-1, 3))


def count_chunks(monkeypatch):
    """Record (triangle ids, samples formed) of every _chunks call from here on, in order."""
    calls = []
    chunks = charts._chunks

    def counting(group, width, rows, top, ids=True):
        calls.append([group[0][rows[0]], 0])
        for c in chunks(group, width, rows, top, ids):
            calls[-1][1] += len(c[-1])
            yield c

    monkeypatch.setattr(charts, "_chunks", counting)
    return calls


def paired_probes_and_sweeps(setup, calls):
    """The probe calls and the sweep calls of count_chunks over one mark_visible of a band
    that holds every polygon: group by group, a probe of all its polygons, then one sweep
    of the rows before and after their middle ones, of some of them."""
    probe, rest = calls[0::2], calls[1::2]
    assert len(calls) == 2 * len(setup)
    for (t, *_), (probed, _), (swept, _) in zip(setup, probe, rest):
        assert np.array_equal(probed, t) and np.isin(swept, t).all()
    return probe, rest


def record_samples(monkeypatch):
    """Collect the (t, iy, ix) rows of every sample _chunks forms with ids from here on."""
    formed = []
    chunks = charts._chunks

    def recording(group, width, rows, top, ids=True):
        for c in chunks(group, width, rows, top, ids):
            t, iy, ix, _ = next(sample_rows([c], width))
            formed.append(np.stack([t, iy, ix], 1))
            yield c

    monkeypatch.setattr(charts, "_chunks", recording)
    return formed


class TestVisibilityProbe:
    RESOLUTIONS = [(64, 64), (32, 128), (128, 32)]

    def test_flags_match_reference_where_the_probe_cannot_decide(self, exact_cam):
        rng = np.random.default_rng(14)
        undecided = {"no middle sample": 0, "middle hidden": 0}
        for case in range(30):
            res = self.RESOLUTIONS[case % len(self.RESOLUTIONS)]
            mesh = undecided_soup(rng, res)
            for cull in (True, False):
                _, ref_flags = reference_depth_and_flags(mesh, exact_cam, res, cull)
                _, flags = depth_and_flags(mesh, exact_cam, res, cull)
                assert np.array_equal(flags, ref_flags), (case, cull)
                on_mid, mid_pass, passes = probe_outcomes(mesh, exact_cam, res, cull)
                undecided["no middle sample"] += int(np.sum(passes & ~on_mid))
                undecided["middle hidden"] += int(np.sum(passes & on_mid & ~mid_pass))
        assert min(undecided.values()) >= 100, undecided

    def test_second_sweep_gets_nothing_when_every_middle_row_shows(self, cam90, monkeypatch):
        # A 4 x 4 grid of quads inside the screen; every triangle is 12
        # pixels on a side, so it covers samples on its middle row.
        s = np.linspace(-0.75, 0.75, 5)
        coords = np.stack(np.meshgrid(s, s), axis=-1).reshape(-1, 2)
        a = (5 * np.arange(4)[:, None] + np.arange(4)).ravel()
        tris = np.concatenate([np.stack([a, a + 1, a + 6], 1), np.stack([a, a + 6, a + 5], 1)])
        mesh = flat_mesh(tris, z=-1.0, coords=coords)
        res = (64, 64)
        setup = mesh_setup(mesh, cam90, res)
        (band,), unflagged = screen_bands(setup, res), np.zeros(mesh.n_triangles, dtype=bool)
        depth = depth_prepass(band)
        calls = count_chunks(monkeypatch)
        flags = mark_visible(band, depth, unflagged).flags
        probe, rest = paired_probes_and_sweeps(setup, calls)
        assert flags.all()
        assert sum(len(t) for t, _ in rest) == 0
        assert 0 < sum(n for _, n in probe) < res[0] * res[1] // 8

    def test_second_sweep_gets_only_what_the_probe_left(self, cam90, monkeypatch):
        # Six tall quads at depth 2, a band at depth 1 that hides their
        # middle rows, and one small triangle wholly behind the band.
        s = np.linspace(-1.5, 1.5, 7)
        coords = np.r_[np.stack([s, np.full(7, -1.5)], 1), np.stack([s, np.full(7, 1.5)], 1)]
        a = np.arange(6)
        tall = flat_mesh(
            np.r_[np.stack([a, a + 1, a + 8], 1), np.stack([a, a + 8, a + 7], 1)],
            z=-2.0,
            coords=coords,
        )
        band = flat_mesh(
            [(0, 1, 2), (0, 2, 3)], z=-1.0, coords=[(-2, -0.25), (2, -0.25), (2, 0.25), (-2, 0.25)]
        )
        hidden = flat_mesh([(0, 1, 2)], z=-2.0, coords=[(-0.2, -0.2), (0.2, -0.2), (0.0, 0.2)])
        parts = [tall, band, hidden]
        offsets = np.cumsum([0] + [len(m.positions) for m in parts])
        mesh = Mesh(
            positions=np.vstack([m.positions for m in parts]),
            triangles=np.vstack([m.triangles + o for m, o in zip(parts, offsets)]),
        )
        res = (48, 48)
        setup = mesh_setup(mesh, cam90, res)
        (band,), unflagged = screen_bands(setup, res), np.zeros(mesh.n_triangles, dtype=bool)
        depth = depth_prepass(band)
        calls = count_chunks(monkeypatch)
        formed = record_samples(monkeypatch)
        flags = mark_visible(band, depth, unflagged).flags
        _, rest = paired_probes_and_sweeps(setup, calls)
        assert flags.tolist() == [True] * 14 + [False]
        assert np.array_equal(flags, reference_depth_and_flags(mesh, cam90, res, True)[1])
        _, mid_pass, _ = probe_outcomes(mesh, cam90, res, True)
        swept = np.unique(np.concatenate([t for t, _ in rest]))
        assert swept.tolist() == [*range(12), 14]
        assert np.array_equal(swept, np.flatnonzero(~mid_pass))
        # Each sample is formed at most once: the middle rows of every
        # polygon, then the other rows of the swept ones.
        samples = sample_rows(mesh_samples(mesh, cam90, res), res[0])
        stream = np.concatenate([np.stack(c[:3], 1) for c in samples])
        mid = np.full(mesh.n_triangles, -1)
        for t, (_, _, y0, y1), *_ in setup:
            mid[t] = (y0 + y1) // 2
        on_mid = stream[:, 1] == mid[stream[:, 0]]
        off_mid_swept = ~on_mid & np.isin(stream[:, 0], swept)
        formed = np.concatenate(formed)
        assert len(np.unique(formed, axis=0)) == len(formed)
        want = stream[on_mid | off_mid_swept]
        assert np.array_equal(np.unique(formed, axis=0), np.unique(want, axis=0))
        assert sum(n for _, n in rest) == off_mid_swept.sum() < len(stream) - on_mid.sum()


class TestScreenBands:
    @pytest.mark.parametrize("band_rows", [1, 3, None], ids=["one_row", "three_rows", "frame"])
    def test_bands_tile_the_screen_and_cut_each_box_to_its_rows(
        self, cam90, exact_cam, monkeypatch, band_rows
    ):
        # Against a brute-force walk over every box of every group: each
        # band holds (polygon, max(y0, top), min(y1, last)) of each box that
        # meets it, in group order and polygon order. Runs of 4 polygons, in
        # half the cases, make several groups.
        rng = np.random.default_rng(27)
        screens = TestBatchedSampler.RESOLUTIONS + [tuple(rng.integers(20, 90, 2)) for _ in "ab"]
        spans = 0
        for case in range(64):
            res = screens[case % len(screens)]
            monkeypatch.setattr(charts, "_BAND", (band_rows or res[1]) * res[0])
            monkeypatch.setattr(charts, "_POLYGONS", 4 if case % 2 else 1 << 12)
            setup = mesh_setup(random_soup(rng, res), (cam90, exact_cam)[case % 4 // 2], res)
            bands = list(screen_bands(setup, res))
            assert [r for rows, _, _ in bands for r in rows] == list(range(res[1])), case
            assert {len(rows) for rows, _, _ in bands[:-1]} <= {band_rows or res[1]}, case
            for rows, width, got in bands:
                assert width == res[0]
                top, last = rows[0], rows[-1]
                want = []
                for group in setup:
                    _, (_, _, y0, y1), *_ = group
                    meets = [
                        (i, max(a, top), min(b, last))
                        for i, (a, b) in enumerate(zip(y0.tolist(), y1.tolist()))
                        if a <= last and b >= top
                    ]
                    if meets:
                        want.append((group, meets))
                assert [id(g) for g, _ in got] == [id(g) for g, _ in want], (case, rows)
                for (_, span), (_, meets) in zip(got, want):
                    assert list(zip(*(a.tolist() for a in span))) == meets, (case, rows)
                    spans += len(meets)
        assert spans > 100, spans

    def test_screen_smaller_than_the_setup_raises_before_any_band(self, cam90, monkeypatch):
        # Bands of one row on a 16 x 8 screen: the boxes reach rows 8-15,
        # which no band holds, and the screen is checked before band 0.
        monkeypatch.setattr(charts, "_BAND", 16)
        setup = mesh_setup(screen_quad(z=-1.0), cam90, (16, 16))
        yielded = []
        with pytest.raises(ValueError, match=too_small_for_16x16((8, 16))):
            for band in screen_bands(setup, (16, 8)):
                yielded.append(band)
        assert not yielded


class TestBudgets:
    """The raster's memory budgets bound how much it forms at once, never what it forms."""

    @pytest.mark.parametrize("budget", [1, 3, 64])
    def test_stream_depth_and_flags_do_not_depend_on_the_budgets(
        self, cam90, exact_cam, monkeypatch, budget
    ):
        rng = np.random.default_rng(43)
        frames = []
        for case in range(48):
            res = TestBatchedSampler.RESOLUTIONS[case % len(TestBatchedSampler.RESOLUTIONS)]
            mesh = random_soup(rng, res)
            if case % 2:
                weld_some(rng, mesh)
            cam = (cam90, exact_cam)[case % 4 // 2]
            frames += [(mesh, cam, res, cull) for cull in (True, False)]

        def raster(mesh, cam, res, cull):
            stream = sample_stream(mesh_samples(mesh, cam, res, cull), 3)
            depth, flags = depth_and_flags(mesh, cam, res, cull)
            return stream, depth.tobytes(), flags.tobytes()

        want = [raster(*frame) for frame in frames]
        for name in ("_POLYGONS", "_ROWS", "_CHUNK", "_BAND"):  # _BAND: bands of one row
            monkeypatch.setattr(charts, name, budget)
        for frame, expected in zip(frames, want):
            assert raster(*frame) == expected, frame[2:]


class TestClipGroups:
    def assert_matches_per_triangle_clip(self, mesh, cam):
        # The triangles inside the frustum as they are, and the leaving ones
        # as _clip_polygons clips them, equal the per-triangle clip.
        clip = clip_coords(triangle_corners(mesh), cam)
        inside, leaving = corner_split(clip)
        got = dict(zip(np.flatnonzero(inside).tolist(), clip[inside]))
        rows, counts, vertices = _clip_polygons(clip[leaving])
        assert len(rows) == len(counts) and counts.sum() == len(vertices)
        assert np.all(np.diff(rows) > 0) and np.all(counts >= 3)
        for t, poly in zip(leaving[rows].tolist(), np.split(vertices, np.cumsum(counts)[:-1])):
            assert t not in got
            got[t] = poly
        kept = sorted(got)
        for t in range(mesh.n_triangles):
            want = clip_triangle_frustum(clip[t])
            if len(want) >= 3:
                assert got.pop(t).tobytes() == want.tobytes(), t
        assert not got
        return clip, kept

    def test_matches_per_triangle_clip_on_random_soups(self, cam90, exact_cam):
        rng = np.random.default_rng(8)
        counts = set()
        for case in range(150):
            mesh = random_soup(rng, (16, 8))
            # Push some triangles past the far plane at 100 as well.
            far = rng.random(mesh.n_triangles) < 0.1
            mesh.positions[mesh.triangles[far].ravel(), 2] *= 40.0
            clip, _ = self.assert_matches_per_triangle_clip(mesh, (cam90, exact_cam)[case % 2])
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
        clip, kept = self.assert_matches_per_triangle_clip(mesh, exact_cam)
        assert (clip[0, :, 3] - e).tolist() == [0.0, -1.0 - e, -2.0 - e]
        assert kept == [1, 2]
        # The set-up, which tests each vertex once, splits them the same way.
        vclip = clip_coords(mesh.positions, exact_cam)
        for cull in (True, False):
            setup, *_ = screen_setup(vclip, mesh.triangles, (16, 16), cull)
            assert setup_arrays(setup) == setup_arrays(corner_setup(clip, (16, 16), cull))


def flat_soup(rng, res):
    """Triangles C, A, B with B = C + t (A - C), t = 1/2 + k / 4096, as in
    test_flat_polygon_takes_mean_depth: collinear in float under exact_cam,
    so _depth_planes finds no plane, but snapped off the line."""
    n = 8
    c = rng.integers(0, min(res), size=(n, 1, 2)).astype(np.float64)
    d = rng.integers(-6, 7, size=(n, 1, 2))
    t = 0.5 + rng.integers(1, 16, size=(n, 1, 1)) / 4096
    pxy = np.concatenate([c, c + d, c + t * d], axis=1)
    positions = at_pixel(pxy[..., 0], pxy[..., 1], np.array([1.0, 2.0, 4.0]), res)
    return Mesh(positions=positions.reshape(-1, 3), triangles=np.arange(3 * n).reshape(n, 3))


def joined(a, b):
    """One mesh of the triangles of meshes a and b."""
    positions = np.concatenate([a.positions, b.positions])
    return Mesh(positions=positions, triangles=np.r_[a.triangles, b.triangles + len(a.positions)])


def setup_arrays(setup) -> list[tuple]:
    """(dtype, shape, bytes) of every array of a set-up's groups, in order."""
    if isinstance(setup, np.ndarray):
        return [(setup.dtype, setup.shape, setup.tobytes())]
    return [leaf for part in setup for leaf in setup_arrays(part)]


class TestScreenSetup:
    """The per-vertex set-up against the earlier per-corner one, oracles.corner_setup."""

    def test_groups_match_the_per_corner_setup(self, cam90, exact_cam):
        rng = np.random.default_rng(29)
        seen = {"clipped": 0, "flipped": 0, "flat": 0, "repeated": 0, "shared": 0}
        for case in range(240):
            res = TestBatchedSampler.RESOLUTIONS[case % len(TestBatchedSampler.RESOLUTIONS)]
            mesh = random_soup(rng, res)
            if case % 2:  # so that triangles share a vertex
                seen["shared"] += weld_some(rng, mesh)
            if case % 4 >= 2 and res in ((8, 8), (16, 8), (32, 16)):
                mesh = joined(mesh, flat_soup(rng, res))
            vclip = clip_coords(mesh.positions, (cam90, exact_cam)[case % 4 // 2])
            clip = vclip[mesh.triangles]
            kept = {}
            for cull in (True, False):
                setup, front, pixels = screen_setup(vclip, mesh.triangles, res, cull)
                want = corner_setup(clip, res, cull)
                assert setup_arrays(setup) == setup_arrays(want), (case, cull)
                assert np.array_equal(front, vclip[:, 3] > W_EPSILON)
                xy = (vclip[front, :2] / vclip[front, 3:] + 1.0) * 0.5 * np.array(res)
                assert pixels[front].tobytes() == xy.tobytes()
                kept[cull] = sum(len(t) for t, *_ in setup)
                for t, _, edges, planes, _ in setup:
                    seen["clipped"] += int(np.isin(t, corner_split(clip)[1]).sum())
                    seen["flat"] += int(planes[5].sum())
                    zero = [(a == 0) & (b == 0) for a, b, _ in edges]
                    seen["repeated"] += int(np.sum(functools.reduce(np.logical_or, zero)))
            seen["flipped"] += kept[False] - kept[True]
        assert min(seen.values()) > 20, seen

    def test_vertex_at_w_zero_or_behind_the_camera_warns_nothing(self, exact_cam):
        # exact_cam maps world (x, y, z) to w = -z. Vertex 3, which no
        # triangle uses, lies at w = 0 with x = y = 0, where a divide gives
        # NaN, and vertex 2 lies behind the camera. pytest turns a
        # RuntimeWarning into an error.
        positions = [(-1.0, -1.0, -2.0), (1.0, -1.0, -2.0), (0.0, 2.0, 2.0), (0.0, 0.0, 0.0)]
        mesh = Mesh(positions=positions, triangles=[[0, 1, 2]])
        vclip = clip_coords(mesh.positions, exact_cam)
        assert vclip[3, 3] == 0.0 and vclip[3, 0] == 0.0 and vclip[2, 3] < 0.0
        for cull in (True, False):
            setup, front, pixels = screen_setup(vclip, mesh.triangles, (16, 16), cull)
            want = corner_setup(vclip[mesh.triangles], (16, 16), cull)
            assert setup_arrays(setup) == setup_arrays(want)
            assert [t.tolist() for t, *_ in setup] == [[0]]  # clipped, and no empty group
            assert front.tolist() == [True, True, False, False]
            assert np.all(np.isfinite(pixels[front]))


class TestChartBbox:
    """Chart boxes from the set-up's clipped polygons, on random soups."""

    @pytest.mark.parametrize("cull", [True, False])
    def test_boxes_are_the_extent_of_the_clipped_polygons(self, cull, cam90, exact_cam):
        rng = np.random.default_rng(31 + cull)
        res = (16, 8)
        seen = {"clipped": 0, "inside": 0, "shrunk": 0, "several": 0}
        for case in range(150):
            mesh = random_soup(rng, res)
            far = rng.random(mesh.n_triangles) < 0.1
            mesh.positions[mesh.triangles[far].ravel(), 2] *= 40.0
            cam = (cam90, exact_cam)[case % 2]
            clip = clip_coords(mesh.positions, cam)[mesh.triangles]
            setup = mesh_setup(mesh, cam, res, cull)
            flags = banded_raster(setup, res, mesh.n_triangles)[1]
            visible = np.flatnonzero(flags)
            if not len(visible):
                continue
            # Random charts of the visible triangles, each labelled by its least member.
            group = rng.integers(0, rng.integers(1, len(visible) + 1), size=len(visible))
            labels = np.full(mesh.n_triangles, -1)
            for g in np.unique(group):
                labels[visible[group == g]] = visible[group == g].min()
            cs = _chart_set(labels, np.full(len(mesh.positions), -1))
            lo, hi = chart_bbox(setup, cs)
            bound_lo, bound_hi = conservative_chart_bbox(clip[cs.members], cs.starts)
            for i, members in enumerate(chart_members(cs).values()):
                polys = [clip_triangle_frustum(clip[t]) for t in members]
                xy = np.concatenate([poly[:, :2] / poly[:, 3:] for poly in polys])
                want_lo = np.clip(xy.min(axis=0), -1.0, 1.0)
                want_hi = np.clip(xy.max(axis=0), -1.0, 1.0)
                assert lo[i].tobytes() == want_lo.tobytes() and hi[i].tobytes() == want_hi.tobytes()
                assert np.all(lo[i] >= bound_lo[i] - 1e-12) and np.all(hi[i] <= bound_hi[i] + 1e-12)
                v = clip[members].reshape(-1, 4)
                inside = bool(np.all(np.abs(v[:, :3]) <= v[:, 3:]) & np.all(v[:, 3] > W_EPSILON))
                if inside:
                    assert lo[i].tobytes() == bound_lo[i].tobytes()
                    assert hi[i].tobytes() == bound_hi[i].tobytes()
                seen["inside"] += inside
                seen["clipped"] += not inside
                seen["shrunk"] += bool(np.any(lo[i] > bound_lo[i]) or np.any(hi[i] < bound_hi[i]))
                seen["several"] += len(members) > 1
        assert min(seen.values()) > 30, seen

    def test_pixel_box_holds_the_chart_samples(self, cam90, exact_cam, monkeypatch):
        # The columns and rows of the samples each chart's triangles cover,
        # occluded or not, span no more than the pixel box frame_charts
        # derives from chart_bbox.
        setups = []

        def keep_setup(*args):
            setups.append(screen_setup(*args))
            return setups[-1]

        monkeypatch.setattr(cli, "screen_setup", keep_setup)
        rng = np.random.default_rng(17)
        seen = {"charts": 0, "joined": 0, "tight": 0}
        for case in range(240):
            res = TestBatchedSampler.RESOLUTIONS[case % len(TestBatchedSampler.RESOLUTIONS)]
            mesh = random_soup(rng, res)
            if case % 2:  # so that charts join
                weld_some(rng, mesh)
            monkeypatch.setattr(cli, "load_obj", lambda path: mesh)
            for cull in (True, False):
                cfg = cli.SceneConfig(Path("soup.obj"), screen=res, backface_cull=cull)
                cfg.camera = lambda: (cam90, exact_cam)[case % 4 // 2]
                try:
                    frame = cli.frame_charts(cfg)
                except cli.NothingVisible:
                    continue
                labels, n = frame.chart_set.chart_of_triangle, len(frame.boxes)
                lo, hi = np.full((n, 2), res[0] + res[1]), np.full((n, 2), -1)
                for group in setups[-1][0]:
                    for t, pixel, _ in _chunks(group, res[0], whole_rows(group), 0):
                        on = labels[t] >= 0
                        i = np.searchsorted(frame.boxes[:, 0], labels[t[on]])
                        for axis, v in enumerate((pixel[on] % res[0], pixel[on] // res[0])):
                            np.minimum.at(lo[:, axis], i, v)
                            np.maximum.at(hi[:, axis], i, v)
                covered = hi[:, 0] >= 0
                span = (hi - lo + 1)[covered]
                assert np.all(span <= frame.chart_px[covered]), (case, cull)
                seen["charts"] += int(covered.sum())
                seen["joined"] += int(np.sum(np.diff(frame.chart_set.starts) > 1))
                seen["tight"] += int(np.all(span == frame.chart_px[covered], axis=1).sum())
        assert min(seen.values()) > 50, seen


def all_visible(mesh):
    return VisibilityBuffer(flags=np.ones(mesh.n_triangles, dtype=bool))


def label_set(labels, n_vertices):
    """A ChartSet holding the given triangle labels and no vertex assignments."""
    return _chart_set(np.array(labels, dtype=np.int64), np.full(n_vertices, -1, dtype=np.int64))


def assert_charts_are(cs, labels):
    """cs holds ``labels`` as ascending ids, start offsets and grouped members."""
    assert np.array_equal(cs.chart_of_triangle, labels)
    charts: dict[int, list[int]] = {}
    for t in np.flatnonzero(labels >= 0).tolist():
        charts.setdefault(int(labels[t]), []).append(t)
    assert cs.ids.tolist() == sorted(charts) and cs.n_charts == len(charts)
    ends = [*cs.starts[1:].tolist(), len(cs.members)]
    for chart, start, end in zip(cs.ids.tolist(), cs.starts.tolist(), ends):
        assert cs.members[start:end].tolist() == charts[chart]
    assert len(cs.members) == sum(map(len, charts.values()))


def vertex_charts(mesh, labels):
    """Each vertex's chart, read off the visible triangles one at a time; -1 if unused."""
    out = np.full(len(mesh.positions), -1, dtype=np.int64)
    for t in np.flatnonzero(labels >= 0):
        for v in mesh.triangles[t]:
            assert out[v] in (-1, labels[t])
            out[v] = labels[t]
    return out


class TestConnectedCharts:
    def test_matches_bfs_oracle_on_random_meshes(self, rng):
        for _ in range(40):
            mesh = delaunay_mesh(rng, int(rng.integers(5, 120)))
            flags = rng.random(mesh.n_triangles) < 0.6
            vis = VisibilityBuffer(flags=flags)
            cs = connected_charts(mesh, vis)
            oracle = bfs_chart_labels(mesh, flags)
            assert np.array_equal(cs.chart_of_triangle, oracle)

    def test_matches_bfs_oracle_on_soups(self):
        for mesh, vis in soup_cases(2):
            cs = connected_charts(mesh, vis)
            assert_charts_are(cs, bfs_chart_labels(mesh, vis.flags))
            assert cs.vertex_to_chart.tolist() == [-1] * len(mesh.positions)

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
        assert cs.ids.tolist() == [0] and len(cs.members) == n
        merged = merge_shared_vertices(cs, mesh)
        assert merged.ids.tolist() == [0] and set(merged.vertex_to_chart.tolist()) == {0}

    def test_nothing_visible_gives_empty_set(self, rng):
        mesh = delaunay_mesh(rng, 20)
        vis = VisibilityBuffer(flags=np.zeros(mesh.n_triangles, bool))
        cs = connected_charts(mesh, vis)
        assert cs.n_charts == 0
        assert np.all(cs.chart_of_triangle == -1)

    def test_vertex_sharing_is_not_edge_adjacency(self):
        coords = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]
        mesh = flat_mesh([(0, 1, 2), (1, 3, 4)], coords=coords)  # share vertex 1
        cs = connected_charts(mesh, all_visible(mesh))
        assert cs.ids.tolist() == [0, 1]

    def test_labels_are_minimum_members(self, rng):
        mesh = delaunay_mesh(rng, 60)
        cs = connected_charts(mesh, all_visible(mesh))
        for root, members in chart_members(cs).items():
            assert root == members.min()


class TestMergeSharedVertices:
    def test_vertex_bridge_merges_two_charts(self):
        coords = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]
        mesh = flat_mesh([(0, 1, 2), (1, 3, 4)], coords=coords)
        merged = merge_shared_vertices(connected_charts(mesh, all_visible(mesh)), mesh)
        assert merged.ids.tolist() == [0]
        assert merged.chart_of_triangle.tolist() == [0, 0]

    def test_disjoint_charts_unchanged(self):
        coords = [(0, 0), (1, 0), (0, 1), (3, 3), (4, 3), (3, 4)]
        mesh = flat_mesh([(0, 1, 2), (3, 4, 5)], coords=coords)
        merged = merge_shared_vertices(connected_charts(mesh, all_visible(mesh)), mesh)
        assert merged.ids.tolist() == [0, 1]

    def test_bow_tie_fans_collapse_to_one_chart(self):
        # three fans meeting only at the hub vertex 0
        coords = [(0, 0)] + [(np.cos(a), np.sin(a)) for a in np.linspace(0, 5.5, 6)]
        mesh = flat_mesh([(0, 1, 2), (0, 3, 4), (0, 5, 6)], coords=coords)
        merged = merge_shared_vertices(connected_charts(mesh, all_visible(mesh)), mesh)
        assert merged.ids.tolist() == [0]

    def test_vertex_map_unique_and_total(self, rng):
        for _ in range(20):
            mesh = delaunay_mesh(rng, int(rng.integers(5, 100)))
            flags = rng.random(mesh.n_triangles) < 0.5
            vis = VisibilityBuffer(flags=flags)
            merged = merge_shared_vertices(connected_charts(mesh, vis), mesh)
            for t in np.flatnonzero(flags):
                chart = merged.chart_of_triangle[t]
                for v in mesh.triangles[t]:
                    assert merged.vertex_to_chart[v] == chart

    def test_matches_vertex_closure_oracle(self, rng):
        for _ in range(30):
            mesh = delaunay_mesh(rng, int(rng.integers(5, 120)))
            flags = rng.random(mesh.n_triangles) < 0.55
            vis = VisibilityBuffer(flags=flags)
            merged = merge_shared_vertices(connected_charts(mesh, vis), mesh)
            oracle = vertex_merge_labels(mesh, bfs_chart_labels(mesh, flags))
            assert np.array_equal(merged.chart_of_triangle, oracle)

    def test_matches_oracles_on_soups(self):
        touching = unused = 0
        for mesh, vis in soup_cases(3):
            edge = connected_charts(mesh, vis)
            merged = merge_shared_vertices(edge, mesh)
            oracle = vertex_merge_labels(mesh, bfs_chart_labels(mesh, vis.flags))
            assert_charts_are(merged, oracle)
            touching += merged.n_charts < edge.n_charts
            assert np.array_equal(merged.vertex_to_chart, vertex_charts(mesh, oracle))
            unused += np.sum(merged.vertex_to_chart < 0)
        assert touching and unused

    def test_non_canonical_chart_set_takes_minimum_member(self):
        # Three apart triangles listed as one chart under the id 2.
        coords = [(0, 0), (1, 0), (0, 1), (3, 3), (4, 3), (3, 4), (6, 6), (7, 6), (6, 7)]
        mesh = flat_mesh([(0, 1, 2), (3, 4, 5), (6, 7, 8)], coords=coords)
        merged = merge_shared_vertices(label_set([-1, 2, 2], 9), mesh)
        assert merged.chart_of_triangle.tolist() == [-1, 1, 1]
        assert merged.ids.tolist() == [1] and merged.members.tolist() == [1, 2]
        assert merged.vertex_to_chart.tolist() == [-1] * 3 + [1] * 6
        # Labels naming an invisible triangle, past the last one, or below -1.
        for labels in ([-1, 0, 0], [-1, 2, 3], [-1, 2, -2]):
            with pytest.raises(ValueError, match="does not match"):
                merge_shared_vertices(label_set(labels, 9), mesh)

    def test_chart_set_of_another_mesh_rejected(self):
        coords = [(0, 0), (1, 0), (0, 1), (1, 1)]
        small = flat_mesh([(0, 1, 2), (1, 3, 2)], coords=coords)
        large = flat_mesh([(0, 1, 2), (1, 3, 2), (0, 1, 3)], coords=coords)
        for built, used in ((large, small), (small, large)):
            with pytest.raises(ValueError, match="does not match"):
                merge_shared_vertices(connected_charts(built, all_visible(built)), used)
        for label in (5, -2):
            with pytest.raises(ValueError, match="does not match"):
                merge_shared_vertices(label_set([0, label], 4), small)

    def test_rerun_is_identical(self, rng):
        mesh = delaunay_mesh(rng, 80)
        flags = rng.random(mesh.n_triangles) < 0.5
        vis = VisibilityBuffer(flags=flags)
        a = merge_shared_vertices(connected_charts(mesh, vis), mesh)
        b = merge_shared_vertices(connected_charts(mesh, vis), mesh)
        assert np.array_equal(a.chart_of_triangle, b.chart_of_triangle)
        for field in ("ids", "starts", "members", "vertex_to_chart"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_hiding_a_triangle_never_merges_charts(self, rng):
        for _ in range(20):
            mesh = delaunay_mesh(rng, 60)
            flags = rng.random(mesh.n_triangles) < 0.7
            vis = VisibilityBuffer(flags=flags)
            before = merge_shared_vertices(connected_charts(mesh, vis), mesh)
            victims = np.flatnonzero(flags)
            if victims.size == 0:
                continue
            flags2 = flags.copy()
            flags2[victims[0]] = False
            vis2 = VisibilityBuffer(flags=flags2)
            after = merge_shared_vertices(connected_charts(mesh, vis2), mesh)
            still = np.flatnonzero(flags2)
            for i in range(0, len(still), 7):
                for j in range(i + 1, len(still), 11):
                    a, b = still[i], still[j]
                    if before.chart_of_triangle[a] != before.chart_of_triangle[b]:
                        assert after.chart_of_triangle[a] != after.chart_of_triangle[b]
