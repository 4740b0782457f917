from fractions import Fraction

import numpy as np
import pytest

from atlaspack import (
    ChartBox,
    PackFailure,
    box_table,
    fold,
    layout_digest,
    pack,
    pack_at_scale,
    packing_efficiency,
    sequential_fold,
    sequential_scale_search,
    superblock_pack,
)
from atlaspack.cli import generate_boxes
from atlaspack.packing import oriented_order

from oracles import exhaustive_optimal, layout_valid


def box(w, h, ident):
    return ChartBox(target_w=w, target_h=h, chart_id=ident, min_tri=ident)


def sequential_at_full_scale(boxes, omega):
    """The sequential packer held to scale 1: its layout, or None when rejected."""
    try:
        return sequential_scale_search(boxes, omega, n_scales=1)
    except PackFailure:
        return None


GRID64 = [Fraction(i, 64) for i in range(1, 65)]


class TestSequentialPack:
    @pytest.mark.parametrize(
        "kwargs",
        [{"n_scales": 0}, {"min_dim": 0}, {"padding": -3}, {"padding": 5_000_000_000_000_000_000}],
        ids=["n_scales_zero", "min_dim_zero", "padding_negative", "padding_above_bound"],
    )
    def test_out_of_range_knob_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            sequential_scale_search([box(4, 4, 0)], 64, **kwargs)

    def test_never_overflows_where_fold_does(self):
        f = sequential_fold([5, 5], 8)
        assert f.overflow_m == 0
        assert list(f.row_of_box) == [0, 1]
        assert list(f.x_of_box) == [0, 3]  # row 1 starts right

    def test_single_box_at_origin(self):
        layout = sequential_at_full_scale([box(5, 7, 0)], 16)
        p = layout.placements[0]
        assert (p.x, p.y) == (0, 0)

    def test_matches_fold_path_when_no_overflow(self):
        # widths tuned so the prefix-sum fold has m = 0
        boxes = [box(32, 32, 0), box(32, 32, 1), box(31, 31, 2), box(30, 30, 3)]
        table = box_table(boxes)
        a = pack_at_scale(table, oriented_order(table), Fraction(1), 64)
        b = sequential_at_full_scale(boxes, 64)
        assert a is not None and b is not None
        assert a.placements == b.placements

    def test_matches_fold_path_on_random_no_overflow_instances(self, rng):
        agreements = 0
        for seed in range(200):
            local = np.random.default_rng(seed)
            boxes = generate_boxes(int(local.integers(1, 25)), 64, local)
            table = box_table(boxes)
            ordered = oriented_order(table)
            widths = ordered[1]
            if max(widths) > 64 or fold(widths, 64).overflow_m != 0:
                continue
            a = pack_at_scale(table, ordered, Fraction(1), 64)
            b = sequential_at_full_scale(boxes, 64)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.placements == b.placements
                agreements += 1
        assert agreements > 20

    def test_pack_matches_scale_search_on_random_sets(self):
        def digest(packer, boxes, omega):
            try:
                return layout_digest(packer(boxes, omega))
            except PackFailure:
                return None

        for seed in range(300):
            local = np.random.default_rng(seed)
            omega = int(2 ** local.integers(5, 10))
            boxes = generate_boxes(int(local.integers(1, 81)), omega, local)
            reference = digest(sequential_scale_search, boxes, omega)
            assert digest(pack, boxes, omega) == reference, f"seed {seed}, omega {omega}"
            assert digest(pack, box_table(boxes), omega) == reference, f"seed {seed}, table"

    def test_scale_search_returns_valid_layout(self):
        boxes = [box(100, 120, i) for i in range(6)]
        layout = sequential_scale_search(boxes, 128)
        assert layout_valid(layout)
        assert len(layout.placements) == 6


class TestSuperblockPack:
    def test_small_boxes_placed_unscaled(self):
        boxes = [box(10, 12, i) for i in range(5)]
        layout = superblock_pack(boxes, 256, 32)
        assert layout is not None
        assert layout.block_size == 32
        for p in layout.placements:
            tw = p.target_h if p.rotated else p.target_w
            th = p.target_w if p.rotated else p.target_h
            assert (p.w, p.h) == (tw, th)
        assert layout_valid(layout)

    def test_oversized_box_downscaled_to_block(self):
        layout = superblock_pack([box(64, 64, 0)], 256, 32)
        p = layout.placements[0]
        assert (p.w, p.h) == (32, 32)
        assert layout.scale == Fraction(1, 2)

    def test_overload_triggers_halving(self):
        # 128-blocks hold one 100-wide shelf each; 5 such boxes exceed the
        # four blocks of a 256 atlas, forcing a halve to 64
        boxes = [box(100, 100, i) for i in range(5)]
        layout = superblock_pack(boxes, 256, 128)
        assert layout is not None
        assert layout.block_size == 64
        assert layout_valid(layout)

    def test_reject_when_halving_disabled(self):
        # Halving stops at the 16 floor: a 32 atlas holds one 32-block,
        # then four 16-blocks, and five boxes capped to a block fit neither
        boxes = [box(100, 100, i) for i in range(5)]
        assert superblock_pack(boxes, 32, 32) is None

    def test_scale_is_met_by_both_sides_of_a_capped_box(self):
        # 10x100 capped to a 16 block is 2x16; ceil(100 / 5) = 20 > 16, so
        # the width's 1/5 is not a scale both sides meet, the height's 4/25 is.
        layout = superblock_pack([box(10, 100, 0)], 64, 16)
        p = layout.placements[0]
        assert (p.w, p.h) == (2, 16)
        assert layout.scale == Fraction(4, 25)

    def test_every_placed_side_meets_the_scale(self):
        for seed in range(40):
            local = np.random.default_rng(seed)
            omega = 1 << int(local.integers(5, 10))
            boxes = generate_boxes(int(local.integers(1, 80)), 2 * omega, local)
            layout = superblock_pack(boxes, omega, omega // 4)
            if layout is None:
                continue
            _, _, _, pw, ph, rot, tw, th = layout.table.T
            num, den = layout.scale.numerator, layout.scale.denominator
            tx, ty = np.where(rot == 1, th, tw), np.where(rot == 1, tw, th)
            assert (pw >= -((-num * tx) // den)).all(), f"seed {seed}"
            assert (ph >= -((-num * ty) // den)).all(), f"seed {seed}"

    def test_random_layouts_valid(self):
        for seed in range(30):
            boxes = generate_boxes(20, 256, np.random.default_rng(seed))
            layout = superblock_pack(boxes, 256, 32)
            if layout is not None:
                assert layout_valid(layout)


class TestExhaustiveOptimal:
    def test_single_full_box(self):
        assert exhaustive_optimal([box(8, 8, 0)], 8, GRID64) == Fraction(1)

    def test_five_full_boxes(self):
        # five 3x3 boxes need a 9-texel row or column somewhere, so 3x3 is
        # infeasible in 8x8 despite passing the area bound; 2x2 boxes fit
        # trivially, making 16/64 = 1/4 the best candidate
        got = exhaustive_optimal([box(8, 8, i) for i in range(5)], 8, GRID64)
        assert got == Fraction(1, 4)

    def test_infeasible_grid_returns_none(self):
        assert exhaustive_optimal([box(64, 64, 0)], 8, [Fraction(1)]) is None

    def test_rotation_is_used(self):
        # exact fill of 8x8: the 6x2 box must stand upright in the right
        # column, which only works with a 90-degree rotation
        boxes = [box(6, 6, 0), box(6, 2, 1), box(8, 2, 2)]
        assert exhaustive_optimal(boxes, 8, [Fraction(1)]) == Fraction(1)

    def test_pack_never_beats_exhaustive(self):
        for seed in range(40):
            local = np.random.default_rng(seed)
            boxes = generate_boxes(int(local.integers(1, 6)), 16, local)
            layout = pack(boxes, 16)
            scales = sorted(set(GRID64) | {layout.scale})
            best = exhaustive_optimal(boxes, 16, scales)
            assert best is not None
            assert layout.scale <= best


class TestEfficiencyDominance:
    def test_mean_efficiency_beats_superblock(self):
        fast, block = [], []
        for seed in range(60):
            boxes = generate_boxes(25, 256, np.random.default_rng(1000 + seed))
            fast.append(packing_efficiency(pack(boxes, 256)))
            sb = superblock_pack(boxes, 256, 32)
            block.append(packing_efficiency(sb) if sb is not None else 0.0)
        assert np.mean(fast) >= np.mean(block)
