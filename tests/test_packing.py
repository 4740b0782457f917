from fractions import Fraction

import numpy as np
import pytest

from atlaspack import (
    ChartBox,
    FoldResult,
    HeightOverflow,
    PackFailure,
    box_table,
    fold,
    layout_digest,
    pack,
    pack_at_scale,
    push_up,
    sequential_scale_search,
    superblock_pack,
)
from atlaspack.cli import generate_boxes
from atlaspack.packing import MAX_BOX_DIM, oriented_order

from oracles import fold_line_reference, layout_valid, push_tightness_ok
from oracles import order as object_order
from oracles import orient as object_orient
from oracles import pack_at_scale as object_pack_at_scale


def box(w, h, ident):
    return ChartBox(target_w=w, target_h=h, chart_id=ident, min_tri=ident)


def at_scale(boxes, scale, omega, **knobs):
    table = box_table(boxes)
    return pack_at_scale(table, oriented_order(table), scale, omega, **knobs)


class TestOrient:
    def oriented(self, w, h):
        idx, ws, hs, rotated = oriented_order(box_table([box(w, h, 0)]))
        assert list(idx) == [0]
        return int(ws[0]), int(hs[0]), bool(rotated[0])

    def test_tall_box_passes_through(self):
        assert self.oriented(3, 5) == (3, 5, False)

    def test_wide_box_rotates(self):
        assert self.oriented(7, 2) == (2, 7, True)

    def test_square_does_not_rotate(self):
        assert self.oriented(4, 4) == (4, 4, False)


class TestOrder:
    def test_height_desc_then_min_tri_asc(self):
        table = box_table([box(1, 7, 40), box(5, 1, 10), box(1, 7, 3)])
        idx, w, h, rotated = oriented_order(table)
        assert list(idx) == [2, 0, 1]
        assert list(zip(h.tolist(), table[idx, 1].tolist())) == [(7, 3), (7, 40), (5, 10)]
        assert (w.tolist(), rotated.tolist()) == ([1, 1, 1], [False, False, True])

    def test_single_box(self):
        idx, w, h, rotated = oriented_order(box_table([box(2, 3, 9)]))
        assert (idx.tolist(), w.tolist(), h.tolist(), rotated.tolist()) == ([0], [2], [3], [False])

    def test_permutation_invariance(self, rng):
        table = box_table([box(int(w), int(h), i) for i, (w, h) in
                           enumerate(rng.integers(1, 50, size=(30, 2)))])

        def ordered_rows(t):
            idx, w, h, rotated = oriented_order(t)
            return np.column_stack([t[idx], w, h, rotated])

        reference = ordered_rows(table)
        for _ in range(10):
            assert np.array_equal(ordered_rows(rng.permutation(table)), reference)

    def test_height_overflow(self):
        # A wide box is turned first, so its width counts as its height.
        for sides in ((1, MAX_BOX_DIM + 1), (MAX_BOX_DIM + 1, 1)):
            boxes = [box(4, 4, 1), box(*sides, 0)]
            with pytest.raises(HeightOverflow):
                oriented_order(box_table(boxes))
            with pytest.raises(HeightOverflow):
                pack(boxes, 64)
            with pytest.raises(HeightOverflow):
                sequential_scale_search(boxes, 64)
            with pytest.raises(HeightOverflow):
                superblock_pack(boxes, 64, 64)


class TestFold:
    def test_two_rows_with_mirrored_second(self):
        f = fold([4, 4, 4, 4], 8)
        assert list(f.row_of_box) == [0, 0, 1, 1]
        assert list(f.x_of_box) == [0, 4, 4, 0]
        assert f.overflow_m == 0
        assert list(f.row_direction_left) == [True, False]

    def test_overflow_is_recorded(self):
        # the second box would cross the edge, so it starts a mirrored row
        f = fold([5, 5], 8)
        assert list(f.row_of_box) == [0, 1]
        assert list(f.x_of_box) == [0, 3]
        assert f.overflow_m == 0

    def test_single_full_width_box(self):
        f = fold([8], 8)
        assert list(f.row_of_box) == [0]
        assert list(f.x_of_box) == [0]
        assert f.overflow_m == 0

    def test_direction_pattern_left_right_right(self):
        f = fold([8] * 7, 8)
        assert list(f.row_direction_left) == [True, False, False, True, False, False, True]

    def test_matches_sequential_line_reference(self, rng):
        for _ in range(300):
            omega = int(2 ** rng.integers(2, 10))
            n = int(rng.integers(1, 60))
            widths = np.clip((omega * rng.random(n) ** 3).astype(int), 1, omega)
            f = fold(widths, omega)
            rows, xs, m = fold_line_reference(widths, omega)
            assert np.array_equal(f.row_of_box, rows)
            assert np.array_equal(f.x_of_box, xs)
            assert f.overflow_m == m


class TestOversizedBox:
    def test_wider_than_atlas_is_rejected_at_scale(self):
        assert at_scale([box(1000, 1000, 0)], Fraction(1), 64) is None

    def test_pack_scans_down_to_first_fitting_scale(self):
        # ceil(1000 * 4/64) = 63 fits in 64; ceil(1000 * 5/64) = 79 does not
        layout = pack([box(1000, 1000, 0)], 64)
        assert layout.scale == Fraction(1, 16)
        assert layout.placements[0].w == 63


class TestPushUp:
    def test_single_row_stays_at_zero(self):
        f = fold([4, 4], 8)
        y, used = push_up(f, [(4, 10), (4, 7)], 8)
        assert list(y) == [0, 0]
        assert used == 10

    def test_second_row_reads_frontline_max(self):
        f = fold([4, 4, 4, 4], 8)
        y, used = push_up(f, [(4, 10), (4, 3), (4, 3), (4, 2)], 8)
        # row 1 mirrors: box 2 lands at x=4 (over the h=3 box), box 3 at x=0
        assert list(y) == [0, 0, 3, 10]
        assert used == 12

    def test_box_rises_to_its_own_column(self):
        # row 0: boxes at x 0..4 (h 10) and x 4..8 (h 4); row 1 single box
        # under the short one
        f = fold([4, 4, 4], 8)
        dims = [(4, 10), (4, 4), (4, 6)]
        y, used = push_up(f, dims, 8)
        assert list(y) == [0, 0, 4]
        assert used == 10

    def test_rejects_overflowing_fold(self):
        f = FoldResult(
            row_of_box=np.array([0, 0]),
            x_of_box=np.array([0, 5]),
            row_direction_left=np.array([True]),
            overflow_m=2,
        )
        with pytest.raises(ValueError):
            push_up(f, [(5, 1), (5, 1)], 8)


class TestPackAtScale:
    def test_full_atlas_box(self):
        layout = at_scale([box(64, 64, 0)], Fraction(1), 64)
        assert layout is not None
        p = layout.placements[0]
        assert (p.x, p.y, p.w, p.h) == (0, 0, 64, 64)

    def test_area_pigeonhole_rejects(self):
        assert at_scale([box(64, 64, i) for i in range(2)], Fraction(1), 64) is None

    def test_four_half_boxes_fill_atlas(self):
        layout = at_scale([box(32, 32, i) for i in range(4)], Fraction(1), 64)
        assert layout is not None
        spots = sorted((p.x, p.y) for p in layout.placements)
        assert spots == [(0, 0), (0, 32), (32, 0), (32, 32)]

    def test_min_dim_and_padding_applied(self):
        layout = at_scale([box(10, 10, 0)], Fraction(1, 10), 64, min_dim=2, padding=3)
        p = layout.placements[0]
        assert (p.w, p.h) == (2 + 6, 2 + 6)

    def test_empty_table_and_scale_bounds(self):
        assert at_scale([], Fraction(1, 2), 64).table.shape == (0, 8)
        for scale in (Fraction(0), Fraction(3, 2)):
            with pytest.raises(ValueError, match="scale"):
                at_scale([box(4, 4, 0)], scale, 64)

    def test_monotone_safety(self, rng):
        # growing padding or min_dim may reject, never corrupt
        for seed in range(30):
            boxes = generate_boxes(12, 64, np.random.default_rng(seed))
            base = at_scale(boxes, Fraction(1, 2), 64)
            if base is None:
                continue
            for kwargs in ({"padding": 1}, {"min_dim": 2}, {"padding": 2, "min_dim": 2}):
                bumped = at_scale(boxes, Fraction(1, 2), 64, **kwargs)
                assert bumped is None or layout_valid(bumped)


class TestPack:
    def test_fitting_boxes_choose_full_scale(self):
        boxes = [box(10, 12, i) for i in range(8)]
        layout = pack(boxes, 256)
        assert layout.scale == Fraction(1)

    def test_empty_set_gives_empty_layout(self):
        layout = pack([], 128)
        assert layout.scale == Fraction(1)
        assert layout.placements == ()

    def test_sixteen_full_boxes_match_exhaustive_candidate_scan(self):
        omega = 256
        boxes = [box(omega, omega, i) for i in range(16)]
        layout = pack(boxes, omega, n_scales=64)
        accepted = [i for i in range(1, 65) if at_scale(boxes, Fraction(i, 64), omega) is not None]
        assert accepted, "some candidate must fit"
        chosen = max(accepted)
        relayout = at_scale(boxes, Fraction(chosen, 64), omega)
        assert layout_digest(layout) == layout_digest(relayout)
        assert layout_valid(layout)

    def test_wider_than_atlas_at_floor_scale_fails(self):
        with pytest.raises(PackFailure):
            pack([box(100 * 64, 100 * 64, 0)], 64, n_scales=64)

    def test_duplicate_min_tri_rejected(self):
        boxes = [ChartBox(4, 4, 0, 7), ChartBox(5, 5, 1, 7)]
        with pytest.raises(ValueError):
            pack(boxes, 64)

    @pytest.mark.parametrize(
        "kwargs",
        [{"min_dim": 0}, {"min_dim": MAX_BOX_DIM + 1}, {"padding": -3},
         {"padding": 5_000_000_000_000_000_000}],
        ids=["min_dim_zero", "min_dim_above_bound", "padding_negative", "padding_above_bound"],
    )
    def test_out_of_range_knob_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            pack([box(4, 4, 0)], 64, **kwargs)

    def test_determinism_across_permutations(self, rng):
        boxes = generate_boxes(40, 128, np.random.default_rng(5))
        reference = layout_digest(pack(boxes, 128))
        for _ in range(5):
            shuffled = list(boxes)
            rng.shuffle(shuffled)
            assert layout_digest(pack(shuffled, 128)) == reference

    def test_matches_object_reference_on_random_sets(self):
        # The array orientation, order and placement against the object versions.
        for seed in range(100):
            local = np.random.default_rng(seed)
            omega = int(2 ** local.integers(4, 9))
            boxes = generate_boxes(int(local.integers(1, 60)), omega, local)
            knobs = {"min_dim": int(local.integers(1, 3)), "padding": int(local.integers(0, 2))}
            ordered = object_order(object_orient(boxes))
            candidates = (object_pack_at_scale(ordered, Fraction(i, 64), omega, **knobs)
                          for i in range(64, 0, -1))
            want = next((layout for layout in candidates if layout is not None), None)
            try:
                got = pack(boxes, omega, **knobs)
            except PackFailure:
                got = None
            assert (got is None) == (want is None), f"seed {seed}"
            if got is not None:
                assert got.scale == want.scale and got.placements == want.placements

    def test_box_table_checked(self):
        with pytest.raises(ValueError, match="4 columns"):
            pack(np.array([0, 0, 4, 4]), 64)
        with pytest.raises(ValueError, match="box 7: target dims"):
            pack(np.array([[0, 0, 4, 4], [7, 1, 0, 4]]), 64)

    def test_random_layouts_valid_and_tight(self):
        for seed in range(40):
            boxes = generate_boxes(int(3 + seed % 20), 128, np.random.default_rng(seed))
            layout = pack(boxes, 128)
            assert layout_valid(layout)
            assert push_tightness_ok(layout)
            assert len(layout.placements) == len(boxes)
