"""Atlas quality measurement: packing efficiency, texture stretch, digests.

Stretch follows the singular-value formulation (Sander et al. 2001): the
affine map from atlas texels to screen pixels has singular values
(Gamma, gamma); values above 1 mean the screen samples the atlas more
densely than it was shaded (undersampling). Each placed chart is mapped by
one axis-aligned scaling from its atlas rectangle to its screen rectangle,
so its singular values are the two side ratios and every triangle of the
chart shares them. The scene L2 metric is the screen-area-weighted RMS of
sqrt((Gamma^2 + gamma^2) / 2) and Linf is the worst Gamma over all charts.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
import numpy as np

from .packing import AtlasLayout

DIGEST_ALGORITHM = "sha256"


class MetricsError(Exception):
    pass


class DegenerateTriangle(MetricsError):
    """The atlas-space triangle has zero area; the map is undefined."""


class NoValidTriangles(MetricsError):
    """No chart covers any screen area."""


@dataclass(frozen=True)
class StretchReport:
    l2: float
    linf: float


@dataclass(frozen=True)
class LayoutDigest:
    """256-bit content hash of the canonical layout serialization."""

    digest: str
    algorithm: str = DIGEST_ALGORITHM


def packing_efficiency(layout: AtlasLayout) -> float:
    """Fraction of the atlas area covered by placements."""
    area = sum(p.w * p.h for p in layout.placements)
    return area / float(layout.omega * layout.omega)


def triangle_stretch(screen_tri, atlas_tri) -> tuple[float, float]:
    """Singular values (max, min) of the atlas-to-screen affine map.

    ``screen_tri`` and ``atlas_tri`` are (3, 2) corner arrays in pixels and
    texels respectively, corresponding vertex by vertex. Raises
    DegenerateTriangle when the atlas triangle has zero area.
    """
    s = np.asarray(screen_tri, dtype=np.float64).reshape(3, 2)
    a = np.asarray(atlas_tri, dtype=np.float64).reshape(3, 2)
    ea = np.column_stack([a[1] - a[0], a[2] - a[0]])
    es = np.column_stack([s[1] - s[0], s[2] - s[0]])
    det = ea[0, 0] * ea[1, 1] - ea[0, 1] * ea[1, 0]
    if det == 0.0:
        raise DegenerateTriangle("atlas triangle has zero area")
    inv = np.array([[ea[1, 1], -ea[0, 1]], [-ea[1, 0], ea[0, 0]]]) / det
    m = es @ inv
    sv = np.linalg.svd(m, compute_uv=False)
    return float(sv[0]), float(sv[1])


def scene_stretch(screen_wh, atlas_wh, area) -> StretchReport:
    """Aggregate stretch over charts, one (n, 2) row of sides per chart.

    Row i scales an atlas rectangle of ``atlas_wh[i]`` texels (all sides
    positive) onto a screen rectangle of ``screen_wh[i]`` pixels, so its
    singular values are the side ratios rx and ry. L2 weights each row's
    (rx^2 + ry^2) / 2 by its screen ``area[i]``; Linf is the largest ratio.
    Rows of zero area are skipped; raises NoValidTriangles when none is left.
    """
    area = np.asarray(area, dtype=np.float64)
    keep = area > 0
    if not keep.any():
        raise NoValidTriangles("no chart covers any screen area")
    screen = np.asarray(screen_wh, dtype=np.float64).reshape(-1, 2)[keep]
    ratios = screen / np.asarray(atlas_wh, dtype=np.float64).reshape(-1, 2)[keep]
    weighted = np.sum(area[keep] * np.sum(ratios * ratios, axis=1) / 2.0)
    l2 = float(np.sqrt(weighted / np.sum(area[keep])))
    return StretchReport(l2=l2, linf=float(ratios.max()))


def layout_digest(layout: AtlasLayout) -> LayoutDigest:
    """Hash the canonical serialization of a layout.

    Placements are ordered by chart id and packed little-endian, so equal
    layouts digest equally no matter how their placements were stored or
    on which platform the layout was computed.
    """
    h = hashlib.sha256()
    h.update(
        struct.pack(
            "<QqqQ",
            layout.omega,
            layout.scale.numerator,
            layout.scale.denominator,
            len(layout.placements),
        )
    )
    for p in layout.placements_by_chart_id():
        h.update(
            struct.pack(
                "<qqqqqBqq", p.chart_id, p.x, p.y, p.w, p.h, int(p.rotated), p.target_w, p.target_h
            )
        )
    return LayoutDigest(digest=h.hexdigest())


def layouts_equal(a: AtlasLayout, b: AtlasLayout) -> bool:
    return (
        a.omega == b.omega
        and a.scale == b.scale
        and a.placements_by_chart_id() == b.placements_by_chart_id()
    )
