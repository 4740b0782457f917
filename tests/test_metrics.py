import math
from fractions import Fraction

import numpy as np
import pytest

from atlaspack import (
    AtlasLayout,
    DegenerateTriangle,
    NoValidTriangles,
    Placement,
    layout_digest,
    packing_efficiency,
    scene_stretch,
    triangle_stretch,
)

from oracles import numeric_map_singular_values


def place(cid, x, y, w, h, rotated=False):
    return Placement(chart_id=cid, x=x, y=y, w=w, h=h, rotated=rotated, target_w=w, target_h=h)


def layout_of(omega, *placements, scale=Fraction(1)):
    return AtlasLayout(omega=omega, scale=scale, placements=tuple(placements))


TRI = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])


class TestPackingEfficiency:
    def test_empty_layout(self):
        assert packing_efficiency(layout_of(64)) == 0.0

    def test_full_single_placement(self):
        assert packing_efficiency(layout_of(64, place(0, 0, 0, 64, 64))) == 1.0

    def test_four_quadrants(self):
        layout = layout_of(
            64,
            place(0, 0, 0, 32, 32),
            place(1, 32, 0, 32, 32),
            place(2, 0, 32, 32, 32),
            place(3, 32, 32, 32, 32),
        )
        assert packing_efficiency(layout) == 1.0


class TestTriangleStretch:
    def test_identity_map(self):
        assert triangle_stretch(TRI, TRI) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_half_scale_atlas_doubles_stretch(self):
        big, small = triangle_stretch(TRI, TRI * 0.5)
        assert big == pytest.approx(2.0)
        assert small == pytest.approx(2.0)

    def test_anisotropic_scaling(self):
        atlas = TRI.copy()
        screen = TRI * np.array([3.0, 1.0])
        big, small = triangle_stretch(screen, atlas)
        assert big == pytest.approx(3.0)
        assert small == pytest.approx(1.0)
        l2 = math.sqrt((big**2 + small**2) / 2)
        assert l2 == pytest.approx(math.sqrt(5.0))

    def test_degenerate_atlas_triangle(self):
        with pytest.raises(DegenerateTriangle):
            triangle_stretch(TRI, np.zeros((3, 2)))

    def test_rotation_does_not_stretch(self):
        c, s = math.cos(0.7), math.sin(0.7)
        rot = TRI @ np.array([[c, s], [-s, c]])
        big, small = triangle_stretch(rot, TRI)
        assert big == pytest.approx(1.0)
        assert small == pytest.approx(1.0)

    def test_matches_finite_difference_oracle(self, rng):
        for _ in range(10_000):
            screen = rng.normal(scale=40.0, size=(3, 2))
            atlas = rng.normal(scale=40.0, size=(3, 2))
            e = atlas[1] - atlas[0]
            f = atlas[2] - atlas[0]
            if abs(e[0] * f[1] - e[1] * f[0]) < 1e-3:
                continue
            got = triangle_stretch(screen, atlas)
            want = numeric_map_singular_values(screen, atlas)
            assert got[0] == pytest.approx(want[0], rel=1e-6, abs=1e-6)
            assert got[1] == pytest.approx(want[1], rel=1e-6, abs=1e-6)


class TestSceneStretch:
    def test_identity_pairs(self):
        report = scene_stretch([(4, 3), (8, 6)], [(4, 3), (8, 6)], [6.0, 24.0])
        assert report.l2 == pytest.approx(1.0)
        assert report.linf == pytest.approx(1.0)

    def test_uniform_global_scale(self):
        report = scene_stretch([(4, 3), (3, 4)], [(4 / 3, 1), (1, 4 / 3)], [6.0, 6.0])
        assert report.l2 == pytest.approx(3.0)
        assert report.linf == pytest.approx(3.0)

    def test_one_bad_triangle_moves_linf_not_l2(self):
        screen = [(40, 30)] * 50 + [(0.04, 0.03)]
        atlas = [(40, 30)] * 50 + [(0.004, 0.003)]
        report = scene_stretch(screen, atlas, [600.0] * 50 + [6e-4])
        assert report.linf == pytest.approx(10.0)
        assert report.l2 == pytest.approx(1.0, abs=0.01)

    def test_linf_never_below_l2(self, rng):
        screen = rng.uniform(0.1, 20.0, size=(60, 2))
        atlas = rng.uniform(0.1, 20.0, size=(60, 2))
        report = scene_stretch(screen, atlas, rng.uniform(0.0, 50.0, size=60))
        assert report.linf >= report.l2 - 1e-12

    def test_empty_raises(self):
        with pytest.raises(NoValidTriangles):
            scene_stretch([(4, 3)], [(4, 3)], [0.0])

    def test_matches_triangle_stretch(self, rng):
        for _ in range(100):
            (sw, sh), (aw, ah) = rng.uniform(0.5, 50.0, size=(2, 2))
            report = scene_stretch([(sw, sh)], [(aw, ah)], [1.0])
            big, small = triangle_stretch(TRI * [sw, sh], TRI * [aw, ah])
            assert report.linf == pytest.approx(big, rel=1e-12)
            assert report.l2 == pytest.approx(math.sqrt((big**2 + small**2) / 2), rel=1e-12)


class TestLayoutDigest:
    def test_equal_layouts_equal_digest(self):
        a = layout_of(64, place(0, 0, 0, 8, 8), place(1, 8, 0, 8, 8))
        b = layout_of(64, place(0, 0, 0, 8, 8), place(1, 8, 0, 8, 8))
        assert layout_digest(a) == layout_digest(b)

    def test_single_field_change_changes_digest(self):
        a = layout_of(64, place(0, 0, 0, 8, 8))
        b = layout_of(64, place(0, 0, 1, 8, 8))
        c = layout_of(64, place(0, 0, 0, 8, 8), scale=Fraction(1, 2))
        assert layout_digest(a) != layout_digest(b)
        assert layout_digest(a) != layout_digest(c)

    def test_storage_order_is_canonicalized(self):
        p0, p1 = place(0, 0, 0, 8, 8), place(1, 8, 0, 8, 8)
        a = layout_of(64, p0, p1)
        b = layout_of(64, p1, p0)
        assert layout_digest(a) == layout_digest(b)
