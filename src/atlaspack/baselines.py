"""Reference and comparison packers.

Two packers live here: a sequential row packer that places boxes one at a
time and never overflows (it gives the same rows as the prefix-sum fold and
serves as its per-box reference), and a superblock grid packer in the style
of earlier atlasing systems (boxes are capped to a block with the packer's
exact scaling and go onto power-of-two shelf rows in a grid of blocks,
halving the block when they do not fit). Both take a box table or a
ChartBox sequence and orient and order the boxes as ``packing.pack`` does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .packing import (
    AtlasLayout,
    FoldResult,
    PackFailure,
    _DIRECTION_PERIOD,
    _check_knobs,
    _check_omega,
    _scaled_dims,
    box_table,
    layout_table,
    oriented_order,
    push_up,
)

SUPERBLOCK_FLOOR = 16


class SuperblockLayout(AtlasLayout):
    """Superblock packing result; records the block size actually used."""

    def __init__(self, omega, scale, placements=(), table=None, block_size: int = 0):
        super().__init__(omega, scale, placements, table)
        self.block_size = block_size


def sequential_fold(widths: Sequence[int], omega: int) -> FoldResult:
    """Row assignment by walking boxes one at a time, never overflowing.

    A box that would cross the atlas edge starts the next row instead, so
    the overflow is zero by construction. Rows and directions match the
    prefix-sum fold, which applies the same rule one row at a time.
    """
    _check_omega(omega)
    n = len(widths)
    rows = np.zeros(n, dtype=np.int64)
    xs = np.zeros(n, dtype=np.int64)
    row = 0
    used = 0
    for i, w in enumerate(widths):
        if w < 1 or w > omega:
            raise ValueError("widths must be in [1, omega]")
        if used + w > omega:
            row += 1
            used = 0
        rows[i] = row
        xs[i] = used if row % _DIRECTION_PERIOD == 0 else omega - used - w
        used += w
    return FoldResult(row_of_box=rows, x_of_box=xs, overflow_m=0)


def sequential_scale_search(
    boxes,
    omega: int,
    n_scales: int = 64,
    min_dim: int = 1,
    padding: int = 0,
) -> AtlasLayout:
    """Full sequential packer: a scale grid search over sequential_fold.

    Candidates i/n_scales are tried from the top down; each scales the
    ordered boxes, walks them into rows with sequential_fold, pushes the
    rows up, and is accepted when the used height fits the atlas.
    """
    _check_omega(omega)
    _check_knobs(min_dim, padding, n_scales)
    table = box_table(boxes)
    if len(table) == 0:
        return AtlasLayout(omega=omega, scale=Fraction(1))
    idx, w, h, rotated = oriented_order(table)
    for i in range(n_scales, 0, -1):
        widths = _scaled_dims(w, i, n_scales, min_dim, padding)
        heights = _scaled_dims(h, i, n_scales, min_dim, padding)
        if widths.max() > omega:
            continue
        fold_result = sequential_fold(widths.tolist(), omega)
        y, height_used = push_up(fold_result, np.stack([widths, heights], axis=1), omega)
        if height_used <= omega:
            rows = layout_table(table, idx, rotated, fold_result.x_of_box, y, widths, heights)
            return AtlasLayout(omega=omega, scale=Fraction(i, n_scales), table=rows)
    raise PackFailure("every candidate scale was rejected")


# --- superblock grid packer -------------------------------------------------


def default_block_size(omega: int) -> int:
    """An eighth of the atlas, but at least SUPERBLOCK_FLOOR and at most ``omega``."""
    return min(omega, max(SUPERBLOCK_FLOOR, omega // 8))


def superblock_pack(boxes, omega: int, block_size: int) -> SuperblockLayout | None:
    """Allocate boxes into a grid of fixed-size superblocks.

    A box larger than the block is scaled by block / max(w, h) with the
    packer's exact ceil, then goes first-fit onto a shelf row of its
    power-of-two height, in the first block in row-major order with room.
    If a box fits nowhere, all restart at half the block size; below
    SUPERBLOCK_FLOOR it gives up with None. The scale is the least of 1 and
    each placed side over its target, so each side is >= ceil(scale * target).
    """
    _check_omega(omega)
    if block_size < 1 or (block_size & (block_size - 1)) != 0:
        raise ValueError("block_size must be a power of two")
    if block_size > omega:
        raise ValueError("block_size must not exceed omega")
    table = box_table(boxes)
    idx, w, h, rotated = oriented_order(table)
    side = np.maximum(w, h)
    while True:
        pw = _scaled_dims(w, np.minimum(side, block_size), side, 1, 0)
        ph = _scaled_dims(h, np.minimum(side, block_size), side, 1, 0)
        spots = _shelf_spots(pw.tolist(), ph.tolist(), omega, block_size)
        if spots is not None:
            x, y = np.array(spots, dtype=np.int64).reshape(-1, 2).T
            capped = side > block_size  # the others are placed at their target sides
            placed, target = np.r_[pw[capped], ph[capped]], np.r_[w[capped], h[capped]]
            return SuperblockLayout(
                omega=omega,
                scale=min([Fraction(1), *map(Fraction, placed.tolist(), target.tolist())]),
                table=layout_table(table, idx, rotated, x, y, pw, ph),
                block_size=block_size,
            )
        if block_size // 2 < SUPERBLOCK_FLOOR:
            return None
        block_size //= 2


def _shelf_spots(widths: list[int], heights: list[int], omega: int, block: int):
    """(x, y) of each capped box in a grid of ``block`` blocks, or None if one fits nowhere."""
    grid = omega // block
    used, shelves, spots = [0], [[]], []  # per opened block: used height, [height, y, cursor]s
    for w, h in zip(widths, heights):
        height = 1 << (h - 1).bit_length()
        for b, own in enumerate(shelves):
            for shelf in own:
                if shelf[0] == height and shelf[2] + w <= block:
                    break
            else:
                if used[b] + height > block:
                    continue
                shelf = [height, used[b], 0]
                own.append(shelf)
                used[b] += height
            break
        else:
            return None
        spots.append((b % grid * block + shelf[2], b // grid * block + shelf[1]))
        shelf[2] += w
        if shelves[-1] and len(shelves) < grid * grid:  # keep an empty block: it takes any box
            used.append(0)
            shelves.append([])
    return spots
