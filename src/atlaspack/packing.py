"""Deterministic tight packing of chart boxes into a fixed square atlas.

The packer orients boxes taller-than-wide, orders them (height descending,
owning-triangle index ascending), and for each candidate scale folds the
ordered strip into atlas-width rows and compacts the rows upward against an
advancing frontline. The fold cuts the strip's prefix sum into rows with
the next-fit shelf rule: a box that would cross the atlas edge starts the
next row, so no box ever sticks out. Candidate scales i/n_scales are tried
from largest to smallest and the first accepted one wins.

All scale arithmetic is exact rational (integer numerators/denominators),
so identical box multisets produce bit-identical layouts regardless of
input order or platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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
class OrientedBox:
    """A chart box rotated so it is at least as tall as it is wide."""

    w: int
    h: int
    rotated: bool
    source: ChartBox


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


@dataclass(frozen=True)
class AtlasLayout:
    """A packed atlas: global scale plus one placement per input box."""

    omega: int
    scale: Fraction
    placements: tuple[Placement, ...]

    def placements_by_chart_id(self) -> tuple[Placement, ...]:
        return tuple(sorted(self.placements, key=lambda p: p.chart_id))


@dataclass(frozen=True)
class FoldResult:
    """Row/offset assignment for an ordered strip of box widths."""

    row_of_box: np.ndarray
    x_of_box: np.ndarray
    row_direction_left: np.ndarray  # per row, True when the row starts left
    overflow_m: int


def orient(boxes: Iterable[ChartBox]) -> list[OrientedBox]:
    """Rotate wider-than-tall boxes by 90 degrees; squares stay put."""
    out = []
    for b in boxes:
        if b.target_w > b.target_h:
            out.append(OrientedBox(w=b.target_h, h=b.target_w, rotated=True, source=b))
        else:
            out.append(OrientedBox(w=b.target_w, h=b.target_h, rotated=False, source=b))
    return out


def order(boxes: Sequence[OrientedBox]) -> list[OrientedBox]:
    """Sort boxes by height descending, owning-triangle index ascending.

    The key depends only on box content, so any permutation of the same
    multiset yields the identical sequence. Raises HeightOverflow when a
    box is taller than MAX_BOX_DIM.
    """
    for b in boxes:
        if b.h > MAX_BOX_DIM:
            raise HeightOverflow(f"box height {b.h} exceeds capacity {MAX_BOX_DIM}")
    return sorted(boxes, key=lambda b: (-b.h, b.source.min_tri))


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
    ordered_boxes: Sequence[OrientedBox],
    scale: Fraction,
    omega: int,
    min_dim: int = 1,
    padding: int = 0,
) -> AtlasLayout | None:
    """Attempt a packing at one candidate scale; None when rejected.

    Box dimensions become max(min_dim, ceil(scale * target)) + 2 * padding
    per axis. The attempt is rejected when a box is wider than the atlas or
    the total box area exceeds it; otherwise the boxes are folded into rows,
    compacted, and accepted iff the used height fits in the atlas. The
    returned layout records the candidate scale unchanged.
    """
    _check_omega(omega)
    if not (0 < scale <= 1):
        raise ValueError("scale must be in (0, 1]")
    _check_knobs(min_dim, padding)
    if not ordered_boxes:
        return AtlasLayout(omega=omega, scale=Fraction(scale), placements=())
    tw = np.array([b.w for b in ordered_boxes], dtype=np.int64)
    th = np.array([b.h for b in ordered_boxes], dtype=np.int64)
    return _pack_arrays(ordered_boxes, tw, th, Fraction(scale), omega, min_dim, padding)


def _pack_arrays(
    ordered_boxes: Sequence[OrientedBox],
    tw: np.ndarray,
    th: np.ndarray,
    scale: Fraction,
    omega: int,
    min_dim: int,
    padding: int,
) -> AtlasLayout | None:
    widths = _scaled_dims(tw, scale.numerator, scale.denominator, min_dim, padding)
    heights = _scaled_dims(th, scale.numerator, scale.denominator, min_dim, padding)
    if widths.max() > omega:
        return None
    # Pigeonhole: total box area beyond the atlas area cannot push into
    # omega rows, so the vertical rejection is decided already.
    if int(np.sum(widths * heights)) > omega * omega:
        return None
    fold_result = fold(widths, omega)
    dims = np.stack([widths, heights], axis=1)
    y, height_used = push_up(fold_result, dims, omega)
    if height_used > omega:
        return None
    placements = tuple(
        Placement(
            chart_id=b.source.chart_id,
            x=int(fold_result.x_of_box[i]),
            y=int(y[i]),
            w=int(widths[i]),
            h=int(heights[i]),
            rotated=b.rotated,
            target_w=b.source.target_w,
            target_h=b.source.target_h,
        )
        for i, b in enumerate(ordered_boxes)
    )
    return AtlasLayout(omega=omega, scale=scale, placements=placements)


def pack(
    boxes: Iterable[ChartBox],
    omega: int,
    n_scales: int = 64,
    min_dim: int = 1,
    padding: int = 0,
) -> AtlasLayout:
    """Pack boxes at the largest feasible scale from a uniform candidate grid.

    Candidates i/n_scales are tried from i = n_scales down to 1, and the
    first accepted layout is returned: the one with the largest accepted
    candidate scale.

    Raises PackFailure when every candidate rejects, including the case of
    a box still wider than the atlas at the smallest candidate scale.
    """
    _check_omega(omega)
    _check_knobs(min_dim, padding, n_scales)
    box_list = list(boxes)
    if not box_list:
        return AtlasLayout(omega=omega, scale=Fraction(1), placements=())
    seen = set()
    for b in box_list:
        if b.min_tri in seen:
            raise ValueError(f"duplicate min_tri {b.min_tri} in pack request")
        seen.add(b.min_tri)
    ordered = order(orient(box_list))
    tw = np.array([b.w for b in ordered], dtype=np.int64)
    th = np.array([b.h for b in ordered], dtype=np.int64)
    floor_w = _scaled_dims(tw, 1, n_scales, min_dim, padding)
    if int(floor_w.max()) > omega:
        raise PackFailure(
            f"a box is wider than the atlas ({floor_w.max()} > {omega}) even at "
            f"the smallest candidate scale 1/{n_scales}"
        )

    for i in range(n_scales, 0, -1):
        layout = _pack_arrays(ordered, tw, th, Fraction(i, n_scales), omega, min_dim, padding)
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
