"""Reference and comparison packers.

Two packers live here: a sequential row packer that places boxes one at a
time and never overflows (it gives the same rows as the prefix-sum fold and
serves as its per-box reference), and a superblock grid packer in the style
of earlier atlasing systems (boxes are capped to a fixed block size and
allocated into power-of-two shelf rows inside a block grid, halving the
block size when they do not fit). Both take a box table or a ChartBox
sequence and orient and order the boxes as ``packing.pack`` does.
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
    left = (np.arange(row + 1, dtype=np.int64) % _DIRECTION_PERIOD) == 0
    return FoldResult(row_of_box=rows, x_of_box=xs, row_direction_left=left, overflow_m=0)


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


class _Shelf:
    __slots__ = ("y", "height", "cursor")

    def __init__(self, y: int, height: int):
        self.y = y
        self.height = height
        self.cursor = 0


class _Block:
    __slots__ = ("ox", "oy", "size", "shelves", "used_h")

    def __init__(self, ox: int, oy: int, size: int):
        self.ox = ox
        self.oy = oy
        self.size = size
        self.shelves: list[_Shelf] = []
        self.used_h = 0

    def place(self, w: int, h: int) -> tuple[int, int] | None:
        shelf_h = _next_pow2(h)
        for shelf in self.shelves:
            if shelf.height == shelf_h and shelf.cursor + w <= self.size:
                x = self.ox + shelf.cursor
                y = self.oy + shelf.y
                shelf.cursor += w
                return x, y
        if self.used_h + shelf_h <= self.size:
            shelf = _Shelf(self.used_h, shelf_h)
            self.used_h += shelf_h
            self.shelves.append(shelf)
            shelf.cursor = w
            return self.ox, self.oy + shelf.y
        return None


def _next_pow2(v: int) -> int:
    return 1 << (v - 1).bit_length() if v > 1 else 1


def superblock_pack(boxes, omega: int, block_size: int) -> SuperblockLayout | None:
    """Allocate boxes into a grid of fixed-size superblocks.

    Boxes larger than the block are uniformly downscaled until they fit
    (the per-box downscale is visible in the placement target vs placed
    dimensions). Inside each block, boxes go first-fit onto shelf rows of
    power-of-two height, scanning blocks in row-major order. If any box
    cannot be placed, the whole allocation restarts at half the block
    size; below the SUPERBLOCK_FLOOR block size it gives up with None.
    """
    _check_omega(omega)
    if block_size < 1 or (block_size & (block_size - 1)) != 0:
        raise ValueError("block_size must be a power of two")
    if block_size > omega:
        raise ValueError("block_size must not exceed omega")
    table = box_table(boxes)
    idx, w, h, rotated = oriented_order(table)
    while True:
        spots = _try_superblock(w.tolist(), h.tolist(), omega, block_size)
        if spots is not None:
            x, y, pw, ph = np.array(spots, dtype=np.int64).reshape(-1, 4).T
            return SuperblockLayout(
                omega=omega,
                scale=min([Fraction(1), *map(Fraction, pw.tolist(), w.tolist())]),
                table=layout_table(table, idx, rotated, x, y, pw, ph),
                block_size=block_size,
            )
        if block_size // 2 < SUPERBLOCK_FLOOR:
            return None
        block_size //= 2


def _try_superblock(
    widths: Sequence[int], heights: Sequence[int], omega: int, block: int
) -> list[tuple[int, int, int, int]] | None:
    """(x, y, w, h) of each ordered box in a grid of ``block`` blocks, or None."""
    grid = omega // block
    blocks = [_Block(bx * block, by * block, block) for by in range(grid) for bx in range(grid)]
    spots = []
    for w, h in zip(widths, heights):
        if w > block or h > block:
            f = min(Fraction(block, w), Fraction(block, h))
            w = max(1, -((-w * f.numerator) // f.denominator))
            h = max(1, -((-h * f.numerator) // f.denominator))
        spot = None
        for blk in blocks:
            spot = blk.place(w, h)
            if spot is not None:
                break
        if spot is None:
            return None
        spots.append((spot[0], spot[1], w, h))
    return spots
