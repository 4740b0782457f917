"""Deterministic tight packing of chart boxes into a fixed square atlas.

Boxes and layouts are int64 tables. A box table has one row per box,
``chart_id min_tri w h``; a layout table has one row per placed box,
``chart_id x y w h rotated target_w target_h``, sorted by chart id.

The packer orients every box taller-than-wide, orders the boxes (height
descending, owning-triangle index ascending), and for each candidate scale
folds the ordered strip into atlas-width rows and compacts the rows upward
against an advancing frontline. The fold cuts the strip's prefix sum into
rows with the next-fit shelf rule: a box that would cross the atlas edge
starts the next row, so no box ever sticks out. Candidate scales
i/n_scales are tried from largest to smallest; the first accepted one wins
and only its placements are written into a layout table.

All scale arithmetic is exact rational (integer numerators/denominators),
so identical box multisets produce bit-identical layouts regardless of
input order or platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

# Structural cap on box dimensions; keeps 64-bit prefix sums safe.
MAX_BOX_DIM = 1 << 23

# Largest atlas side; push_up allocates omega + 1 frontline columns.
MAX_OMEGA = 1 << 16

# Most candidate scales pack may try.
MAX_SCALES = 1 << 20

# Row direction pattern: one left-starting row, then two right-starting.
_DIRECTION_PERIOD = 3


class PackingError(Exception):
    pass


class HeightOverflow(PackingError):
    """A box is taller than the ordering capacity allows."""


class PackFailure(PackingError):
    """Every candidate scale was rejected."""


@dataclass(frozen=True)
class ChartBox:
    """A pack request: integer target dimensions plus identity."""

    target_w: int
    target_h: int
    chart_id: int
    min_tri: int

    def __post_init__(self):
        if self.target_w < 1 or self.target_h < 1:
            raise ValueError(f"box {self.chart_id}: target dims must be >= 1")


@dataclass(frozen=True)
class Placement:
    """One placed box: top-left corner and final dimensions in texels."""

    chart_id: int
    x: int
    y: int
    w: int
    h: int
    rotated: bool
    target_w: int
    target_h: int


class AtlasLayout:
    """A packed atlas: side ``omega``, global ``scale`` and a layout table.

    ``table`` is an (n, 8) int64 array, read-only, with one row
    ``chart_id x y w h rotated target_w target_h`` per placed box, sorted
    by chart id (a stable sort, so rows of equal id keep the order they
    were given in). x, y, w and h are the placed rectangle in texels,
    rotated is 1 when the box was turned by 90 degrees, and target_w and
    target_h are the box as requested. ``placements`` gives the same rows
    as Placement objects, built on first use.

    A layout is built from a table or from Placement objects; either is
    stored as a table in chart-id order.
    """

    def __init__(
        self,
        omega: int,
        scale: Fraction,
        placements: Iterable[Placement] = (),
        table: np.ndarray | None = None,
    ):
        if table is None:
            table = [
                (p.chart_id, p.x, p.y, p.w, p.h, int(p.rotated), p.target_w, p.target_h)
                for p in placements
            ]
        table = np.array(table, dtype=np.int64).reshape(-1, 8)
        table = table[np.argsort(table[:, 0], kind="stable")]
        table.flags.writeable = False
        self.omega = omega
        self.scale = scale
        self.table = table
        self._placements: tuple[Placement, ...] | None = None

    @property
    def placements(self) -> tuple[Placement, ...]:
        if self._placements is None:
            self._placements = tuple(
                Placement(cid, x, y, w, h, bool(rot), tw, th)
                for cid, x, y, w, h, rot, tw, th in self.table.tolist()
            )
        return self._placements


@dataclass(frozen=True)
class FoldResult:
    """Row/offset assignment for an ordered strip of box widths."""

    row_of_box: np.ndarray
    x_of_box: np.ndarray
    row_direction_left: np.ndarray  # per row, True when the row starts left
    overflow_m: int


def box_table(boxes) -> np.ndarray:
    """(n, 4) int64 box table, ``chart_id min_tri w h``, in the given order.

    Takes a ChartBox sequence or an (n, 4) integer array; raises ValueError
    for another shape or a side below 1.
    """
    if isinstance(boxes, np.ndarray):
        table = boxes.astype(np.int64)
    else:
        table = np.array(
            [(b.chart_id, b.min_tri, b.target_w, b.target_h) for b in boxes], dtype=np.int64
        )
    table = table.reshape(-1, 4) if table.size == 0 else table
    if table.ndim != 2 or table.shape[1] != 4:
        raise ValueError(f"a box table has 4 columns, got shape {table.shape}")
    small = np.flatnonzero((table[:, 2:] < 1).any(axis=1))
    if small.size:
        raise ValueError(f"box {table[small[0], 0]}: target dims must be >= 1")
    return table


def repeated(values: np.ndarray) -> np.ndarray:
    """Mask of the entries equal to an earlier entry."""
    mask = np.ones(len(values), dtype=bool)
    mask[np.unique(values, return_index=True)[1]] = False
    return mask


def oriented_order(boxes: np.ndarray):
    """Orient a box table taller-than-wide and put it in pack order.

    Wider-than-tall boxes turn by 90 degrees; squares stay put. The order
    is height descending, owning-triangle index ascending (a stable sort),
    so any permutation of the same rows gives the same sequence. Returns
    the row indices in pack order with the oriented widths, heights and
    rotation flags in that order. Raises HeightOverflow when a box is
    taller than MAX_BOX_DIM.
    """
    tw, th = boxes[:, 2], boxes[:, 3]
    rotated = tw > th
    w = np.where(rotated, th, tw)
    h = np.where(rotated, tw, th)
    tall = np.flatnonzero(h > MAX_BOX_DIM)
    if tall.size:
        raise HeightOverflow(f"box height {h[tall[0]]} exceeds capacity {MAX_BOX_DIM}")
    idx = np.lexsort((boxes[:, 1], -h))
    return idx, w[idx], h[idx], rotated[idx]


def layout_table(boxes, idx, rotated, x, y, w, h) -> np.ndarray:
    """Layout rows of box rows ``idx`` placed at (x, y) with sides (w, h), in that order."""
    placed = boxes[idx]
    return np.column_stack([placed[:, 0], x, y, w, h, rotated, placed[:, 2], placed[:, 3]])


def fold(widths, omega: int) -> FoldResult:
    """Fold an ordered strip of widths into atlas rows via a prefix sum.

    With box ends e_i = w_0 + ... + w_i and starts p_i = e_i - w_i, the row
    that starts at box s holds every following box with e_i <= p_s + omega:
    the next-fit shelf rule, found with one binary search per row. The
    in-row offset is q_i = p_i - p_s. Left-starting rows place at x = q;
    right-starting rows mirror to x = omega - q - w. The overflow m, the
    largest amount any box sticks out past omega, is therefore always 0.
    """
    _check_omega(omega)
    w = np.asarray(widths, dtype=np.int64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("fold requires a non-empty width sequence")
    if np.any(w < 1):
        raise ValueError("widths must be >= 1")
    if np.any(w > omega):
        raise ValueError("fold requires every width <= omega")
    ends = np.cumsum(w, dtype=np.int64)
    p = ends - w
    row_starts = [0]
    while True:
        s = int(np.searchsorted(ends, p[row_starts[-1]] + omega, side="right"))
        if s == w.size:
            break
        row_starts.append(s)
    starts = np.array(row_starts, dtype=np.int64)
    rows = np.searchsorted(starts, np.arange(w.size), side="right") - 1
    q = p - p[starts][rows]
    left = (np.arange(starts.size, dtype=np.int64) % _DIRECTION_PERIOD) == 0
    x = np.where(left[rows], q, omega - q - w)
    m = int(max(0, int((q + w - omega).max())))
    return FoldResult(row_of_box=rows, x_of_box=x, row_direction_left=left, overflow_m=m)


def push_up(fold_result: FoldResult, dims, omega: int) -> tuple[np.ndarray, int]:
    """Compact folded rows upward against an advancing frontline.

    Rows are processed in index order. Within a row every box first reads
    its rest height as the frontline maximum over its column span (against
    the pre-row snapshot), then every box writes back its new top. Returns
    the per-box y offsets and the tallest frontline column.
    """
    _check_omega(omega)
    if fold_result.overflow_m != 0:
        raise ValueError("push_up requires a fold with zero overflow")
    d = np.asarray(dims, dtype=np.int64).reshape(-1, 2)
    widths, heights = d[:, 0], d[:, 1]
    x = fold_result.x_of_box
    rows = fold_result.row_of_box
    n = len(widths)
    if len(x) != n:
        raise ValueError("dims do not match the fold result")
    y = np.zeros(n, dtype=np.int64)
    # Sentinel column keeps reduceat boundaries strictly inside the array.
    front = np.zeros(omega + 1, dtype=np.int64)
    starts = x
    ends = x + widths
    # Boxes arrive grouped by row because fold rows are nondecreasing.
    row_breaks = np.flatnonzero(np.diff(rows)) + 1
    segments = np.split(np.arange(n), row_breaks)
    for seg in segments:
        s = starts[seg]
        e = ends[seg]
        if s.size > 1 and s[0] > s[-1]:  # right-starting rows come mirrored
            seg = seg[::-1]
            s = s[::-1]
            e = e[::-1]
        bounds = np.empty(2 * s.size, dtype=np.int64)
        bounds[0::2] = s
        bounds[1::2] = e
        rest = np.maximum.reduceat(front, bounds)[0::2]
        tops = rest + heights[seg]
        y[seg] = rest
        widths_seg = e - s
        total = int(widths_seg.sum())
        cols = np.repeat(s, widths_seg) + np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(widths_seg[:-1])]), widths_seg
        )
        front[cols] = np.repeat(tops, widths_seg)
    return y, int(front.max())


def pack_at_scale(
    boxes: np.ndarray,
    ordered,
    scale: Fraction,
    omega: int,
    min_dim: int = 1,
    padding: int = 0,
) -> AtlasLayout | None:
    """Pack a box table at one candidate scale; None when rejected.

    ``ordered`` is ``oriented_order(boxes)``. Box dimensions become
    max(min_dim, ceil(scale * side)) + 2 * padding per axis. The candidate
    is rejected when a box is wider than the atlas or the total box area
    exceeds it; otherwise the boxes are folded into rows, compacted, and
    accepted iff the used height fits in the atlas. The returned layout
    records the candidate scale unchanged.
    """
    _check_omega(omega)
    if not 0 < scale.numerator <= scale.denominator:
        raise ValueError("scale must be in (0, 1]")
    _check_knobs(min_dim, padding)
    if len(boxes) == 0:
        return AtlasLayout(omega=omega, scale=scale)
    idx, w, h, rotated = ordered
    widths = _scaled_dims(w, scale.numerator, scale.denominator, min_dim, padding)
    heights = _scaled_dims(h, scale.numerator, scale.denominator, min_dim, padding)
    if widths.max() > omega:
        return None
    # Pigeonhole: total box area beyond the atlas area cannot push into
    # omega rows, so the vertical rejection is decided already.
    if int(np.sum(widths * heights)) > omega * omega:
        return None
    fold_result = fold(widths, omega)
    y, height_used = push_up(fold_result, np.stack([widths, heights], axis=1), omega)
    if height_used > omega:
        return None
    rows = layout_table(boxes, idx, rotated, fold_result.x_of_box, y, widths, heights)
    return AtlasLayout(omega=omega, scale=scale, table=rows)


def pack(
    boxes,
    omega: int,
    n_scales: int = 64,
    min_dim: int = 1,
    padding: int = 0,
) -> AtlasLayout:
    """Pack boxes at the largest feasible scale from a uniform candidate grid.

    ``boxes`` is a box table or a ChartBox sequence (see box_table); the
    owning-triangle indices must be distinct. Candidates i/n_scales are
    tried from i = n_scales down to 1, and the first accepted layout is
    returned: the one with the largest accepted candidate scale.

    Raises PackFailure when every candidate rejects, including the case of
    a box still wider than the atlas at the smallest candidate scale.
    """
    _check_omega(omega)
    _check_knobs(min_dim, padding, n_scales)
    table = box_table(boxes)
    if len(table) == 0:
        return AtlasLayout(omega=omega, scale=Fraction(1))
    dup = np.flatnonzero(repeated(table[:, 1]))
    if dup.size:
        raise ValueError(f"duplicate min_tri {table[dup[0], 1]} in pack request")
    ordered = oriented_order(table)
    floor_w = _scaled_dims(ordered[1], 1, n_scales, min_dim, padding)
    if int(floor_w.max()) > omega:
        raise PackFailure(
            f"a box is wider than the atlas ({floor_w.max()} > {omega}) even at "
            f"the smallest candidate scale 1/{n_scales}"
        )

    for i in range(n_scales, 0, -1):
        layout = pack_at_scale(table, ordered, Fraction(i, n_scales), omega, min_dim, padding)
        if layout is not None:
            return layout
    raise PackFailure("every candidate scale was rejected")


def _scaled_dims(targets: np.ndarray, num: int, den: int, min_dim: int, padding: int) -> np.ndarray:
    scaled = -((-num * targets) // den)  # exact ceil(num * t / den)
    return np.maximum(scaled, min_dim) + 2 * padding


def _check_knobs(min_dim: int, padding: int, n_scales: int = 1) -> None:
    if not 1 <= n_scales <= MAX_SCALES:
        raise ValueError(f"n_scales must be in [1, {MAX_SCALES}], got {n_scales}")
    if not 1 <= min_dim <= MAX_BOX_DIM:
        raise ValueError(f"min_dim must be in [1, {MAX_BOX_DIM}], got {min_dim}")
    if not 0 <= padding <= MAX_BOX_DIM:
        raise ValueError(f"padding must be in [0, {MAX_BOX_DIM}], got {padding}")


def _check_omega(omega: int) -> None:
    if not 1 <= omega <= MAX_OMEGA or (omega & (omega - 1)) != 0:
        raise ValueError(f"omega must be a power of two in [1, {MAX_OMEGA}], got {omega}")
