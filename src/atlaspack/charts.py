"""Input reading, per-frame visibility and chartification.

Every input file is split by one whole-file reader, ``records``: it cuts
'#' comments, splits lines into tokens as str.split() would, and finds each
token's start and end and each non-blank line's number and token count in
one numpy pass over the bytes, so a parser checks its rules on whole
columns and names the first bad line. Numeric columns are converted from
the bytes as well, with no Python object per plain token (``_column``,
after Clinger 1990 and Lemire 2021).

A software depth prepass and a matching visibility pass mark triangles that
cover at least one depth-passing pixel-center sample. Visible triangles are
then grouped into charts: connected components over shared edges, followed
by transitive merging of charts that share any vertex, so every vertex of a
visible triangle maps to exactly one chart. Both are array labellings by
root hooking and pointer jumping (Shiloach and Vishkin 1982), which takes
about a dozen rounds on a randomly numbered strip of 100,000 triangles.

Both passes and the chart boxes read one set-up, ``screen_setup``, made
once a frame from the clip coordinates of every triangle, which the caller
gathers from one projection of the vertices. It clips all the triangles
that leave the frustum at once, one plane after another (Sutherland and
Hodgman 1974), keeps each polygon's NDC extent, snaps the screen vertices
to 1/256 pixel as hardware rasterizers do, and sets up top-left edge
functions (Pineda 1988) on them, each edge as contiguous columns that a
pass gathers by polygon.
So coverage is decided on integers, held exactly in float64: snapped
coordinates lie within [-128, 2^22] at MAX_SCREEN, twice an area below 2^49
and an edge value below 2^47. With the top-left rule folded into the
edge's constant, column ix of row iy passes iff 256 ey * ix <= C(iy), and a
polygon covers one span [lo, hi] of each row of its box: hi <= floor(C /
(256 ey)) where ey >= 0, lo >= ceil(C / (256 ey)) where ey < 0, and ey == 0
gives +inf, NaN or -inf, which keeps or empties the row. The floor of the
rounded quotient is exact wherever it can bind, |q| <= 2^15: the rounding
error is below 2^-38, and a non-integer quotient lies at least 1 / |256
ey| >= 2^-30 from every integer. A larger one stays beyond the row. An ey
of -0 would give the wrong infinity. np.rint rounds a tiny negative to -0,
but the snapped values are then taken from the center of pixel (0, 0), and
x - 128 is never -0. Depth is not snapped: it lies on the float plane.

The depth pass keeps the minimum depth per pixel. Its stream holds each
sample's flat pixel index, row * width + column, and depth, and no
triangle ids. It scatters the samples in stream order: np.minimum.at keeps
the later of two equal values, so the order decides between +0 and -0 on a
pixel. The visibility pass flags each triangle with a sample at most
DEPTH_EPSILON behind the stored depth, and stops at the first such sample
of each triangle (see mark_visible). FastAtlas parameterizes each chart by
its screen projection, so a chart's box is the extent of what is
rasterized: ``chart_bbox`` reduces the polygons' NDC extents by chart.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import FRUSTUM_PLANES, W_EPSILON, clip_halfspace, plane_distances

# Depth comparison slack, relative to the unit NDC depth range: the
# visibility pass also flags a sample up to DEPTH_EPSILON * max(1, |stored|)
# behind its pixel's stored depth, such as one of a triangle just behind a
# coplanar one. With 0, cube views 9 and 15 of the benchmark flag one
# triangle fewer each, and the other 18 views do not change.
DEPTH_EPSILON = 1e-6


@dataclass
class Mesh:
    """Indexed triangle soup: (n, 3) float64 positions, (m, 3) int64 triangles."""

    positions: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        tris = self.triangles
        if len(tris) and (tris.min() < 0 or tris.max() >= len(self.positions)):
            raise ValueError("triangle indices out of range")

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


def build_adjacency(triangles: np.ndarray) -> np.ndarray:
    """Edge adjacency: ``adjacency[t, e]`` is the triangle sharing edge e of
    triangle t, or -1. One stable lexsort groups the edges 3t + e by their
    end vertices, and groups of exactly two are linked both ways; edges
    shared by more than two triangles stay unlinked, so the adjacency is
    symmetric with degree <= 3."""
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    u, v = tris.ravel(), np.roll(tris, -1, axis=1).ravel()
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    start = np.flatnonzero(np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]), True])
    pair = start[:-1][np.diff(start) == 2]
    first, second = order[pair], order[pair + 1]
    adjacency = np.full(3 * len(tris), -1, dtype=np.int64)
    adjacency[first], adjacency[second] = second // 3, first // 3
    return adjacency.reshape(-1, 3)


def load_obj(path) -> Mesh:
    """Load positions and faces from a Wavefront OBJ file.

    Polygons are fan-triangulated; normals, texture coordinates, materials
    and other keywords are ignored. Negative (relative) indices are
    supported. A non-numeric or non-finite coordinate, a non-numeric face
    index, and a face index of 0 or past the vertices read so far raise
    ValueError naming the file and line. Bytes that are not UTF-8 read as
    U+FFFD. Tokens 1-3 of the ``v`` records, and the tokens after ``f`` cut
    at their first '/', are converted as two whole columns.
    """
    with open(path, "rb") as fh:
        data, starts, ends, linenos, counts, heads, _ = _records(fh.read())
    first = np.cumsum(counts) - counts  # each record's first token
    is_v, is_f = heads == ord("v"), heads == ord("f")
    vertex = np.flatnonzero(is_v & (counts >= 4))
    coords = (first[vertex, None] + np.arange(1, 4)).ravel()
    positions = _column(float, data, starts[coords], ends[coords])
    owner = np.repeat(vertex, 3)  # the record of each coordinate
    in_f = np.repeat(is_f, counts)
    in_f[first] = False
    face_starts, face_ends = starts[in_f], ends[in_f]
    cut = face_ends
    if b"/" in data:
        slash = np.append(np.flatnonzero(np.frombuffer(data, np.uint8) == ord("/")), len(data))
        cut = np.minimum(face_ends, slash[np.searchsorted(slash, face_starts)])
    index = _column(int, data, face_starts, cut)
    sides = counts[is_f] - 1
    seen = np.repeat(np.cumsum(is_v)[is_f], sides)[: len(index)]  # vertices before each
    wild = np.flatnonzero((index == 0) | (index < -seen) | (index > seen))
    short = np.flatnonzero(is_v & (counts < 4))
    few = np.flatnonzero(is_f & (counts < 4))
    # (record, rank, message): the earliest record wins. Within a record,
    # a vertex fails on its count, then its numbers, then their
    # finiteness; a face on its leftmost bad index, then on its count.
    problems = []
    if short.size:
        problems.append((short[0], 0, "vertex needs 3 coordinates"))
    if len(positions) < len(coords):
        problems.append((owner[len(positions)], 1, "vertex coordinates must be numbers"))
    for k in np.flatnonzero(~np.isfinite(positions))[:1]:
        problems.append((owner[k], 2, "vertex coordinates must be finite"))
    if wild.size or len(index) < len(cut):  # the leftmost index out of range or not an int
        k = wild[0] if wild.size else len(index)
        if k < len(index):
            message = f"face index {index[k]} out of range for {seen[k]} vertices"
        else:
            message = f"bad face index '{data[face_starts[k] : face_ends[k]].decode()}'"
        problems.append((np.repeat(np.flatnonzero(is_f), sides)[k], _ranks(sides)[k], message))
    if few.size:
        problems.append((few[0], counts[few[0]], "face needs >= 3 vertices"))
    if problems:
        r, _, message = min(problems)
        raise ValueError(f"{path}:{linenos[r]}: {message}")
    resolved = np.where(index > 0, index - 1, seen + index)
    if np.all(sides == 3):
        return Mesh(positions=positions, triangles=resolved)
    # Fan triangles (0, j, j + 1) of each polygon.
    base = np.repeat(np.cumsum(sides) - sides, sides - 2)
    second = base + 1 + _ranks(sides - 2)
    return Mesh(positions=positions, triangles=resolved[np.stack([base, second, second + 1], 1)])


# --- the reader --------------------------------------------------------------

# ASCII whitespace within a line besides the space. str.split() splits on
# all of it, so the reader makes it spaces.
_TABS = b"\t\v\f\x1c\x1d\x1e\x1f"
_SPACES = bytes.maketrans(_TABS, b" " * len(_TABS))


def records(data: bytes):
    """(tokens, line numbers, token counts) of the non-blank lines of ``data``.

    CRLF, CR and LF end lines, '#' starts a comment that runs to the end of
    its line, and each line splits into tokens as str.split() splits it.
    The tokens are bytes if the file is ASCII once its comments are cut,
    else str, read as UTF-8 with U+FFFD for bytes that are not, so int and
    float accept what they accept in text.
    """
    data, starts, ends, linenos, counts, _, text = _records(data)
    tokens = [data[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
    return [t.decode() for t in tokens] if text else tokens, linenos, counts


def _records(data: bytes):
    """The reader's split of ``data``: (data, starts, ends, linenos, counts, heads, text).

    The returned data has its comments cut, its line ends LF, its
    whitespace within lines spaces and one LF appended, and token k is
    ``data[starts[k]:ends[k]]``. Per record: its line number, its token
    count, and the byte of its first token if that is one byte long, else
    0. ``text`` tells whether the tokens read as str (see ``records``).
    """
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if b"#" in data:
        data = re.sub(rb"#[^\n]*", b"", data)
    text = not data.isascii()
    if text:
        data = re.sub(r"[^\S\n]", " ", data.decode("utf-8", errors="replace")).encode()
    elif any(c in data for c in _TABS):
        data = data.translate(_SPACES)
    # Only token bytes, spaces and newlines are left; one more newline ends
    # every token before the last byte.
    data += b"\n"
    b = np.frombuffer(data, dtype=np.uint8)
    newline = b == ord("\n")
    gap = b == ord(" ")
    gap |= newline
    mark = ~gap  # a token's first byte, or a newline
    mark[1:] &= gap[:-1]
    mark |= newline
    events = np.flatnonzero(mark)  # token starts and newlines, in file order
    np.greater(gap[1:], gap[:-1], out=mark[1:])  # now a gap after a token byte
    mark[0] = False
    ends = np.flatnonzero(mark)
    token = ~newline[events]
    lead = token.copy()  # a record's first token: event 0 or after a newline
    lead[1:] &= ~token[:-1]
    starts = events[token]
    first = np.flatnonzero(lead[token])
    # Token first[r] is event e, after first[r] tokens and so e - first[r] newlines.
    linenos = np.flatnonzero(lead) - first + 1
    head = starts[first]
    heads = np.where(ends[first] - head == 1, b[head], 0)
    return data, starts, ends, linenos, np.diff(first, append=len(starts)), heads, text


def _text(token) -> str:
    """A token of ``records`` as str."""
    return token.decode() if isinstance(token, bytes) else token


# 10**i, exact in int64 and in float64.
_POW10 = np.array([10**i for i in range(19)], dtype=np.int64)


def _column(convert, data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``convert`` (int or float) of tokens ``data[starts[k]:ends[k]]``, up to the first it rejects.

    The array is shorter than the tokens when a token raises ValueError.
    int gives int64, or an object array of Python ints when a value lies
    outside int64; float gives float64. Plain tokens are read from their
    bytes, all at once (_plain_digits). For int they match
    ``[+-]?[0-9]{1,18}``, and the value is the exact digit sum. For float
    they match ``[+-]?[0-9]+(\\.[0-9]*)?`` or ``[+-]?\\.[0-9]+`` with at most
    15 digits, and the value is ``±(m / 10**k)`` for the digits m and the k
    digits after the point: m < 2^53 and 10**k (k <= 15) are exact doubles,
    so the one IEEE division rounds the exact quotient correctly, as
    float() does, and -0.000 gives -0.0. The other tokens go to
    ``convert`` as text, in token order: exponents, nan, inf, underscores,
    Unicode digits, longer numbers and whatever ``convert`` rejects.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    neg, m, k, plain = _plain_digits(b, starts, ends, convert is float)
    values = m / _POW10[k].astype(np.float64) if convert is float else m
    np.negative(values, out=values, where=neg)
    slow, stop = [], len(starts)
    rest = np.flatnonzero(~plain).tolist()
    for i in rest:
        try:
            slow.append(convert(data[starts[i] : ends[i]].decode()))
        except ValueError:
            stop = i
            break
    values = values[:stop]
    if slow and convert is int and not all(-(1 << 63) <= v < 1 << 63 for v in slow):
        values = values.astype(object)
    values[rest[: len(slow)]] = slow
    return values


def _plain_digits(b: np.ndarray, starts, ends, decimal: bool):
    """(negative, digits m, digits after the point k, plain) of the tokens b[starts:ends].

    One loop over byte positions converts all tokens at once. A point
    (allowed if ``decimal``) counts as a zero digit, which is taken out at
    the end. m and k are garbage where a token is not plain.
    """
    lead = b[starts]
    neg = lead == ord("-")
    width = 16 if decimal else 18  # the most digits and points of a plain token
    # The bytes after a sign; a span past width, clipped to fit int8, is not plain.
    span = np.minimum(ends - starts, width + 2).astype(np.int8) - (neg | (lead == ord("+")))
    bad = (span < 1) | (span > width)
    m = np.zeros(len(starts), dtype=np.int64)
    points = np.zeros(len(starts), dtype=np.int8)
    point_at = np.minimum(span, width)  # the point's position from the right, else past the digits
    # Horner's rule over the widest plain token's positions, each token
    # right-aligned: the positions left of a token read as leading zeros.
    n_pos = int(span[~bad].max(initial=0))
    pos = ends - n_pos
    for j in range(n_pos - 1, -1, -1):
        byte = b[pos]
        c = byte - ord("0")  # uint8: bytes below '0' wrap past 9
        live = span > j
        digit = c < 10
        c *= digit & live
        m *= 10
        m += c
        if decimal:
            point = live & (byte == ord("."))
            points += point
            point_at[point] = j
            digit |= point
        bad |= live & ~digit
        pos += 1
    if decimal:
        bad |= (points > 1) | (span - points > 15) | (span == points)
        p = _POW10[point_at]
        m = m % p + m // (10 * p) * p  # drop the point's zero digit
    return neg, m, np.where(points > 0, point_at, 0), ~bad


@dataclass
class VisibilityBuffer:
    """One visibility flag per triangle."""

    flags: np.ndarray

    def __post_init__(self):
        self.flags = np.asarray(self.flags, dtype=bool)


@dataclass
class ChartSet:
    """Partition of visible triangles into charts, as arrays.

    ``chart_of_triangle`` labels each triangle with its chart id, or -1 when
    it is not visible; a chart's id is its minimum member triangle. ``ids``
    holds the chart ids in ascending order, and ``members`` the visible
    triangles grouped by chart in that order, ascending within each chart;
    chart i's members start at ``starts[i]``. ``vertex_to_chart`` gives each
    vertex's chart, or -1 for a vertex that no visible triangle uses; it is
    all -1 until merge_shared_vertices fills it.
    """

    chart_of_triangle: np.ndarray
    ids: np.ndarray
    starts: np.ndarray
    members: np.ndarray
    vertex_to_chart: np.ndarray

    @property
    def n_charts(self) -> int:
        return len(self.ids)


# --- rasterization ---------------------------------------------------------

# Box rows whose spans are set up at once, gathering their polygons' edge
# columns, and covered samples per chunk, each a flat pixel index and a
# depth, plus a triangle id where a pass reads it. A chunk holds whole
# rows, so at most max(_CHUNK, width) samples, and the memory of a pass
# stays bounded whatever the screen size.
_CHUNK = 1 << 14

# Screen vertices snap to 1/_SUBPIXEL pixel, as the 8 fractional bits of
# the Direct3D 11 rasterization rules.
_SUBPIXEL = 256


def screen_setup(clip: np.ndarray, res: tuple[int, int], cull: bool) -> list[tuple]:
    """A frame's triangles set up for rasterization, once for both passes.

    ``clip`` holds the (n, 3, 4) clip coordinates of every triangle and
    ``res`` is the screen's (width, height). Returns one group per clipped
    vertex count, each the output of _screen_polygons: triangle ids, pixel
    boxes, edge columns, depth planes and NDC extents.
    """
    width, height = int(res[0]), int(res[1])
    if width < 1 or height < 1:
        raise ValueError("resolution must be at least 1x1")
    return [_screen_polygons(t, poly, width, height, cull) for t, poly in _clip_groups(clip)]


def _clip_groups(clip: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Frustum-clipped triangles: (triangle ids, (G, n, 4) polygons) per vertex count n.

    ``clip`` holds the clip coordinates of every triangle, from the frame's
    one projection. Triangles inside every frustum plane are used as they
    are. The rest are clipped in seven batched Sutherland-Hodgman stages,
    w - W_EPSILON >= 0 and then the six FRUSTUM_PLANES in order, each
    applied only to the polygons with a vertex outside it, so every polygon
    equals a one-triangle-at-a-time clip. A triangle with no vertex at
    w - W_EPSILON > 0 is dropped first. Groups and their ids keep the order
    of that per-triangle loop: triangles as they are, then the clipped ones
    by id, and groups by first id.
    """
    front = clip[:, :, 3] - W_EPSILON > 0
    # w + v >= 0 and w - v >= 0 hold iff -w <= v <= w, since a float sum
    # is zero only for opposite operands: one test for all six planes.
    within = np.abs(clip[:, :, :3]) <= clip[:, :, 3:]
    # Chained over the vertices and axes: a reduction along a length-3 axis is slower.
    within = within[:, :, 0] & within[:, :, 1] & within[:, :, 2]
    inside = front[:, 0] & front[:, 1] & front[:, 2] & within[:, 0] & within[:, 1] & within[:, 2]
    leaving = np.flatnonzero(~inside & (front[:, 0] | front[:, 1] | front[:, 2]))
    groups = [(leaving, clip[leaving])] if len(leaving) else []
    for plane in (None, *FRUSTUM_PLANES):  # None: the camera plane
        by_count: dict[int, list] = {}
        for ids, poly in groups:
            dist = poly[:, :, 3] - W_EPSILON if plane is None else plane_distances(poly, plane)
            keep = dist >= 0
            cut = ~np.all(keep, axis=1)
            parts = [(ids[~cut], poly[~cut])]
            if cut.any():
                split = clip_halfspace(poly[cut], dist[cut], keep[cut])
                parts += [(ids[cut][r], p) for r, p in split]
            for part in parts:
                if len(part[0]):
                    by_count.setdefault(part[1].shape[1], []).append(part)
        groups = [tuple(map(np.concatenate, zip(*parts))) for parts in by_count.values()]
    ordered = {3: [(np.flatnonzero(inside), clip[inside])]}
    for ids, poly in sorted(groups, key=lambda g: g[0].min()):
        if poly.shape[1] >= 3:
            order = np.argsort(ids)
            ordered.setdefault(poly.shape[1], []).append((ids[order], poly[order]))
    return [tuple(map(np.concatenate, zip(*parts))) for parts in ordered.values()]


def _screen_polygons(t, poly, width: int, height: int, cull: bool):
    """Project, snap, cull, flip and box convex homogeneous polygons, shape (G, n, 4).

    Counter-clockwise polygons (in y-up pixel coordinates) are front-facing;
    with culling disabled, clockwise polygons are flipped. Orientation, boxes
    and edges come from the vertices snapped to 1/256 pixel, the depth
    planes from the float vertices. Returns the triangle ids, pixel boxes,
    edges, depth planes and NDC extents (x min, y min, x max, y max) of the
    polygons that survive. Edge i, from vertex i to i + 1, is the columns
    (a, b, c) per polygon, 256 ey, 256 ex and a constant: the sample in
    column ix of row iy passes its top-left test iff a * ix <= b * iy + c.
    """
    screen = poly[:, :, :3] / poly[:, :, 3:4]  # NDC, then x and y to pixels
    ndc = [functools.reduce(f, v) for f in (np.minimum, np.maximum) for v in screen[:, :, :2].T]
    screen[:, :, 0] = (screen[:, :, 0] + 1.0) * 0.5 * width
    screen[:, :, 1] = (screen[:, :, 1] + 1.0) * 0.5 * height
    # From the center of pixel (0, 0), so sample (ix, iy) lies at (256 * ix,
    # 256 * iy); the subtraction turns the -0 of np.rint into +0.
    q = np.rint(screen[:, :, :2] * _SUBPIXEL) - _SUBPIXEL // 2
    # Twice the signed area, exact, chained over the vertices (faster than a sum).
    x, y = q[:, :, 0].T, q[:, :, 1].T
    area2 = functools.reduce(np.add, x * (np.roll(y, -1, axis=0) - np.roll(y, 1, axis=0)))
    keep = area2 > 0.0 if cull else area2 != 0.0
    t, screen, q, flip = t[keep], screen[keep], q[keep], area2[keep] < 0.0
    ndc = tuple(v[keep] for v in ndc)
    screen[flip], q[flip] = screen[flip, ::-1], q[flip, ::-1]

    # The box: the samples within the snapped vertices' range, on the screen.
    x, y = q[:, :, 0].T, q[:, :, 1].T
    low = np.divide([functools.reduce(np.minimum, v) for v in (x, y)], _SUBPIXEL)
    high = np.divide([functools.reduce(np.maximum, v) for v in (x, y)], _SUBPIXEL)
    x0, y0 = np.maximum(0, np.ceil(low)).astype(np.int64)
    x1, y1 = np.minimum([[width - 1], [height - 1]], np.floor(high)).astype(np.int64)

    # In y-up coordinates the interior lies below edges running left, so
    # "top-left" means edges going up or exactly-horizontal-left; samples
    # on them are covered: the edge value ex * (py - sy) - ey * (px - sx) is
    # at least 1 - top_left. A zero-length edge, from a vertex the clipper
    # repeated or two that snap together, is 0 and passes every sample.
    ex, ey = np.roll(x, -1, axis=0) - x, np.roll(y, -1, axis=0) - y
    top_left = (ey > 0) | ((ey == 0) & (ex <= 0))
    edges = tuple(zip(_SUBPIXEL * ey, _SUBPIXEL * ex, ey * x - ex * y + (top_left - 1.0)))
    group = (t, (x0, x1, y0, y1), edges, _depth_planes(screen), ndc)
    return _select(group, (x0 <= x1) & (y0 <= y1))


def _chunks(group, width: int, ids: bool = True):
    """Covered samples of a screen_setup group, in chunks of whole rows.

    Rows of the polygons' boxes are taken _CHUNK at a time, in polygon
    order, narrowed to the span of samples the polygon covers (_row_spans),
    and cut into chunks of at most _CHUNK samples, or one row where a row
    alone holds more. Polygons meeting along an edge never both claim the
    shared samples. Samples come out by polygon, row and column, as (t,
    pixel, z): triangle id, flat pixel index row * ``width`` + column and
    depth, or as (pixel, z) without ``ids``. Each depth takes the
    operations, in order, of a one-polygon-at-a-time rasterizer, on the
    plane anchored at the polygon's float vertex 0.
    """
    t, (x0, x1, y0, y1), edges, (ax, ay, z0, gx, gy, flat), _ = group
    bounds = np.r_[0, (y1 - y0 + 1).cumsum()]  # polygon i has the rows [bounds[i], bounds[i + 1])
    for first in range(0, bounds[-1], _CHUNK):
        r = np.arange(first, min(first + _CHUNK, bounds[-1]))
        # The chunk's polygons p..q, repeated by their rows in it: cheaper than a search per row.
        p, q = bounds.searchsorted(r[[0, -1]], side="right") - 1
        g = np.arange(p, q + 1).repeat(np.diff(np.clip(bounds[p : q + 2], first, r[-1] + 1)))
        iy = y0[g] + (r - bounds[g])
        lo, hi = _row_spans(edges, g, iy, x0[g], x1[g])
        rows = (lo <= hi).nonzero()[0]
        g, iy, lo, count = g[rows], iy[rows], lo[rows], hi[rows] - lo[rows] + 1
        end = count.cumsum()
        start = 0
        while start < len(end):
            base = end[start - 1] if start else 0
            stop = max(start + 1, int(end.searchsorted(base + _CHUNK, side="right")))
            r, n = slice(start, stop), count[start:stop]
            # Sample k lies in column k + shift of its row. Per-row values are
            # formed once and repeated over the row: the same operations per sample.
            gr, iyr = g[r], iy[r]
            k = np.arange(end[stop - 1] - base)
            shift = lo[r] - (end[r] - n - base)
            pixel = k + (iyr * width + shift).repeat(n)
            z = (
                z0[gr].repeat(n)
                + gx[gr].repeat(n) * (k + shift.repeat(n) + 0.5 - ax[gr].repeat(n))
                + (gy[gr] * (iyr + 0.5 - ay[gr])).repeat(n)
            )
            # Flat polygons take z0 as it is: adding the zero terms could
            # change the sign of a zero depth.
            on_flat = flat[gr]
            if on_flat.any():
                z[on_flat.repeat(n)] = z0[gr[on_flat]].repeat(n[on_flat])
            yield (t[gr].repeat(n), pixel, z) if ids else (pixel, z)
            start = stop


@np.errstate(divide="ignore", invalid="ignore")
def _row_spans(edges, g, iy, lo, hi):
    """Narrow each row's [lo, hi] to the samples that polygon g covers on row iy.

    Edge (a, b, c) passes the columns ix with a * ix <= b * iy + c: up to
    floor(q) where a >= 0 and from ceil(q) where a < 0, for q = (b * iy +
    c) / a (see the module docstring). A row whose span is empty gets lo > hi.
    """
    iy, lo, hi = (v.astype(np.float64) for v in (iy, lo, hi))
    for a, b, c in edges:
        a = a[g]
        q = (b[g] * iy + c[g]) / a
        np.fmin(hi, np.floor(q), out=hi, where=a >= 0)
        np.fmax(lo, np.ceil(q), out=lo, where=a < 0)
    # hi may be -inf, from a row that one horizontal edge excludes.
    return lo.astype(np.int64), np.maximum(hi, lo - 1.0).astype(np.int64)


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _depth_planes(screen: np.ndarray):
    """Affine NDC depth planes (ax, ay, z0, gx, gy, flat) of polygons.

    NDC z is screen-affine: z0 + gx * (x - ax) + gy * (y - ay), anchored at
    the float vertex 0 (ax, ay) and solved on the first fan triangle (0, j,
    j + 1) with |det| > 1e-12. Polygons with none are ``flat``: their depth
    is the mean vertex depth, returned in z0.
    """
    p0 = screen[:, 0]
    z0 = p0[:, 2].copy()
    gx, gy = np.zeros((2, len(screen)))
    flat = np.ones(len(screen), dtype=bool)
    for j in range(1, screen.shape[1] - 1):
        d1, d2 = screen[:, j] - p0, screen[:, j + 1] - p0
        det = d1[:, 0] * d2[:, 1] - d2[:, 0] * d1[:, 1]
        solve = flat & (np.abs(det) > 1e-12)
        np.divide(d1[:, 2] * d2[:, 1] - d2[:, 2] * d1[:, 1], det, out=gx, where=solve)
        np.divide(d2[:, 2] * d1[:, 0] - d1[:, 2] * d2[:, 0], det, out=gy, where=solve)
        flat &= ~solve
    for g in np.flatnonzero(flat):
        z0[g] = screen[g, :, 2].mean()
    return p0[:, 0], p0[:, 1], z0, gx, gy, flat


def depth_prepass(setup: list[tuple], res: tuple[int, int]) -> np.ndarray:
    """Rasterize minimum NDC depth per pixel of a screen_setup; uncovered pixels hold +inf.

    ``res`` is the set-up's (width, height); the buffer has shape (height,
    width) with row 0 along the NDC y = -1 edge. Samples are scattered in
    stream order, which decides between +0 and -0 on a pixel, into a flat
    view of the buffer, for which np.minimum.at has a fast path.
    """
    width = int(res[0])
    depth = np.full((int(res[1]), width), np.inf)
    pixels = depth.reshape(-1)
    for pixel, z in chain.from_iterable(_chunks(group, width, ids=False) for group in setup):
        np.minimum.at(pixels, pixel, z)
    return depth


def mark_visible(setup: list[tuple], depth: np.ndarray, n_triangles: int) -> VisibilityBuffer:
    """Flag the triangles of a screen_setup covering at least one depth-passing sample.

    A flag is an OR over a triangle's samples, so one passing sample
    settles it. A probe first forms the samples of each polygon's middle
    box row, which are the very samples the whole stream holds on that row,
    and flags the triangles with a passing one. A second sweep then forms
    the samples of the other rows of only the polygons the probe left
    unflagged. The flags equal those of one sweep over every sample. Raises
    ValueError when a pixel box of the set-up lies outside ``depth``, which
    a flat index would otherwise read from the wrong row.
    """
    height, width = depth.shape
    if any(np.any(x1 >= width) or np.any(y1 >= height) for _, (_, x1, _, y1), *_ in setup):
        raise ValueError(f"depth buffer of shape {depth.shape} is smaller than the set-up's screen")
    flags = np.zeros(n_triangles, dtype=bool)
    pixels = depth.reshape(-1)

    def sweep(groups):
        for t, pixel, z in chain.from_iterable(_chunks(group, width) for group in groups):
            stored = pixels[pixel]
            slack = DEPTH_EPSILON * np.maximum(1.0, np.abs(stored))
            flags[t[z <= stored + slack]] = True

    sweep([_bands(group)[0] for group in setup])
    sweep([band for group in setup for band in _bands(_select(group, ~flags[group[0]]))[1:]])
    return VisibilityBuffer(flags=flags)


def _bands(group):
    """A screen_setup group three times, its pixel boxes narrowed to their
    middle rows, to the rows before those, and to the rows after them."""
    t, (x0, x1, y0, y1), *rest = group
    mid = (y0 + y1) // 2
    rows = ((mid, mid), (y0, mid - 1), (mid + 1, y1))
    return [(t, (x0, x1, a, b), *rest) for a, b in rows]


def _select(group, keep: np.ndarray):
    """A screen_setup group, or a part of it, narrowed to the polygons where ``keep`` holds."""
    return group[keep] if isinstance(group, np.ndarray) else tuple(_select(a, keep) for a in group)


# --- chartification --------------------------------------------------------


def chart_bbox(setup: list[tuple], cs: ChartSet) -> tuple[np.ndarray, np.ndarray]:
    """NDC boxes of a frame's charts, as (n, 2) lo and hi, clamped to [-1, 1].

    Chart i's box is the min/max of the NDC x and y of its triangles'
    frustum-clipped polygons in the screen_setup ``setup``. A triangle the
    set-up does not hold adds nothing; every visible triangle is held, and
    a chart with none gets lo > hi.
    """
    n = len(cs.chart_of_triangle)
    lo, hi = np.full((n, 2), np.inf), np.full((n, 2), -np.inf)
    for t, *_, (x0, y0, x1, y1) in setup:
        lo[t, 0], lo[t, 1], hi[t, 0], hi[t, 1] = x0, y0, x1, y1
    lo = np.minimum.reduceat(lo[cs.members], cs.starts)
    hi = np.maximum.reduceat(hi[cs.members], cs.starts)
    return np.clip(lo, -1.0, 1.0, out=lo), np.clip(hi, -1.0, 1.0, out=hi)


def connected_charts(mesh: Mesh, vis: VisibilityBuffer) -> ChartSet:
    """Group visible triangles into edge-connected components.

    Two visible triangles join the same chart iff they are linked by a path
    of edge-adjacent visible triangles. Each chart is labeled by its
    minimum member triangle index; invisible triangles stay unlabeled.
    Vertex assignments are left to merge_shared_vertices.
    """
    flags = vis.flags
    if len(flags) != mesh.n_triangles:
        raise ValueError("visibility buffer does not match the mesh")
    t, nb = np.repeat(np.arange(mesh.n_triangles), 3), build_adjacency(mesh.triangles).ravel()
    linked = (nb >= 0) & flags[t] & flags[nb]
    labels = _min_labels(mesh.n_triangles, t[linked], nb[linked])
    labels[~flags] = -1
    return _chart_set(labels, np.full(len(mesh.positions), -1, dtype=np.int64))


def merge_shared_vertices(cs: ChartSet, mesh: Mesh) -> ChartSet:
    """Transitively merge charts that share any vertex.

    Labels the graph that links each visible triangle t to its label and to
    its vertices, numbered n_triangles + v. The merged chart id is the
    minimum member, and a vertex takes the chart of its component, so every
    vertex of a visible triangle maps to exactly one chart. Raises
    ValueError when the labels do not fit the mesh or name an invisible
    triangle.
    """
    n, labels = mesh.n_triangles, cs.chart_of_triangle
    visible = np.flatnonzero(labels >= 0)
    bad = len(labels) != n or np.any((labels < -1) | (labels >= n))
    if bad or np.any(labels[labels[visible]] < 0):
        raise ValueError("chart set does not match the mesh")
    # Vertex nodes come after the triangles, so every root is a triangle,
    # and a vertex no visible triangle uses stays its own root.
    a = np.r_[labels[visible], np.repeat(visible, 3)]
    b = np.r_[visible, n + mesh.triangles[visible].ravel()]
    merged = _min_labels(n + len(mesh.positions), a, b)
    merged[:n][labels < 0] = -1
    vertex_to_chart = merged[n:]
    vertex_to_chart[vertex_to_chart >= n] = -1
    return _chart_set(merged[:n], vertex_to_chart)


def _min_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label each of n nodes by the minimum node of its component under edges (a, b).

    Each round hooks the larger root of every edge that crosses two trees
    under the smaller root, then jumps pointers until all point at roots.
    Hooking roots, not nodes, keeps the rounds few on long paths. Parents
    never exceed their nodes, so each root is its component's minimum.
    """
    parent = np.arange(n, dtype=np.int64)
    while True:
        ra, rb = parent[a], parent[b]
        crossing = ra != rb
        if not crossing.any():
            return parent
        # An edge within one tree stays so, since trees only merge.
        a, b, ra, rb = a[crossing], b[crossing], ra[crossing], rb[crossing]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):
            parent, jumped = jumped, jumped[jumped]


def _chart_set(labels: np.ndarray, vertex_to_chart: np.ndarray) -> ChartSet:
    """A ChartSet from canonical labels: one stable argsort groups the visible triangles."""
    visible = np.flatnonzero(labels >= 0)
    members = visible[np.argsort(labels[visible], kind="stable")]
    ids, starts = np.unique(labels[members], return_index=True)
    return ChartSet(labels, ids, starts, members, vertex_to_chart)
