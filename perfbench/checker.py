"""Output checks run after every op, outside the timed region.

Each check reads what the CLI wrote and raises CheckFailed with a reason
on the first violation. None of them trusts the program's own account of
its layout beyond the digest that ``parse_layout_file`` verifies.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from atlaspack.cli import InputError, parse_layout_file
from atlaspack.packing import AtlasLayout

# Rows of the pairwise overlap test per numpy step: 512 x 3000 booleans.
_OVERLAP_CHUNK = 512
# Every op runs with the CLI's default --min-dim.
MIN_DIM = 1


class CheckFailed(Exception):
    """A written output violates a layout invariant."""


def layout_arrays(layout: AtlasLayout):
    """Placements as int64 columns: chart_id, x, y, w, h, rotated, target_w, target_h."""
    cols = np.array(
        [
            (p.chart_id, p.x, p.y, p.w, p.h, int(p.rotated), p.target_w, p.target_h)
            for p in layout.placements
        ],
        dtype=np.int64,
    ).reshape(-1, 8)
    return cols.T


def check_inside(layout: AtlasLayout) -> None:
    _, x, y, w, h, *_ = layout_arrays(layout)
    om = layout.omega
    bad = (x < 0) | (y < 0) | (w < 1) | (h < 1) | (x + w > om) | (y + h > om)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CheckFailed(f"placement {i} lies outside [0, {om}]^2")


def check_no_overlap(layout: AtlasLayout) -> None:
    _, x, y, w, h, *_ = layout_arrays(layout)
    x2, y2 = x + w, y + h
    n = len(x)
    for lo in range(0, n, _OVERLAP_CHUNK):
        hi = min(n, lo + _OVERLAP_CHUNK)
        hit = (
            (x[lo:hi, None] < x2[None, :])
            & (x[None, :] < x2[lo:hi, None])
            & (y[lo:hi, None] < y2[None, :])
            & (y[None, :] < y2[lo:hi, None])
        )
        # Keep only pairs (i, j) with j > i; each pair is tested once.
        hit &= np.arange(n)[None, :] > np.arange(lo, hi)[:, None]
        if hit.any():
            i, j = np.argwhere(hit)[0]
            raise CheckFailed(f"placements {lo + int(i)} and {int(j)} overlap")


def check_scale(layout: AtlasLayout) -> None:
    """Each side is at least max(MIN_DIM, ceil(scale * target)).

    A layout that reports a larger scale than its boxes were built at
    fails here.
    """
    _, _, _, w, h, rot, tw, th = layout_arrays(layout)
    num, den = layout.scale.numerator, layout.scale.denominator
    # A rotated placement holds the target's height along x.
    tx = np.where(rot == 1, th, tw)
    ty = np.where(rot == 1, tw, th)
    need_w = np.maximum(-((-num * tx) // den), MIN_DIM)
    need_h = np.maximum(-((-num * ty) // den), MIN_DIM)
    bad = (w < need_w) | (h < need_h)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CheckFailed(
            f"placement {i} is {int(w[i])}x{int(h[i])}, below scale {layout.scale} "
            f"of target {int(tx[i])}x{int(ty[i])}"
        )


def check_ids(layout: AtlasLayout, expected_ids) -> None:
    ids = [p.chart_id for p in layout.placements]
    if len(set(ids)) != len(ids):
        raise CheckFailed("a chart is placed twice")
    if set(ids) != set(expected_ids):
        missing = len(set(expected_ids) - set(ids))
        extra = len(set(ids) - set(expected_ids))
        raise CheckFailed(f"placements do not match inputs: {missing} missing, {extra} extra")


def chart_ids_of(charts_path: Path) -> set[int]:
    """Chart ids named by the triangle records of a charts file."""
    ids = set()
    with open(charts_path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 3 and parts[0] == "t":
                ids.add(int(parts[2]))
    return ids


def read_metrics_row(metrics_path: Path) -> dict[str, str]:
    with open(metrics_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise CheckFailed(f"{metrics_path.name}: expected one row, found {len(rows)}")
    return rows[0]


def efficiency(layout: AtlasLayout) -> float:
    _, _, _, w, h, *_ = layout_arrays(layout)
    return float((w * h).sum()) / float(layout.omega * layout.omega)


def check_layout(layout_path: Path, omega: int, expected_ids) -> AtlasLayout:
    """Parse a written layout and check every invariant; returns the layout."""
    try:
        layout = parse_layout_file(layout_path)
    except (OSError, InputError, ValueError) as exc:
        raise CheckFailed(f"layout does not parse: {exc}") from None
    if layout.omega != omega:
        raise CheckFailed(f"layout omega {layout.omega}, expected {omega}")
    if not (0 < layout.scale <= 1):
        raise CheckFailed(f"layout scale {layout.scale} is outside (0, 1]")
    check_ids(layout, expected_ids)
    if layout.placements:
        check_inside(layout)
        check_no_overlap(layout)
        check_scale(layout)
    return layout
