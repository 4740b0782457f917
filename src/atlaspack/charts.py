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
once a frame from the vertices' clip coordinates and the triangles. It
tests, divides and snaps each vertex once, to 1/256 pixel as hardware
rasterizers do, clips the triangles that leave the frustum (Sutherland and
Hodgman 1974), keeps each polygon's NDC extent, and sets up top-left edge
functions (Pineda 1988), each edge as columns that a pass gathers.
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
sample's flat pixel index in the band, row * width + column, and depth, and
no triangle ids. It scatters the samples in stream order: np.minimum.at keeps
the later of two equal values, so the order decides between +0 and -0 on a
pixel. The visibility pass flags each triangle with a sample at most
DEPTH_EPSILON behind the stored depth, and stops at the first such sample
of each triangle (see mark_visible). FastAtlas parameterizes each chart by
its screen projection, so a chart's box is the extent of what is
rasterized: ``chart_bbox`` reduces the polygons' NDC extents by chart.

The set-up and both passes work in pieces of fixed size, runs of
_POLYGONS polygons, batches of _ROWS box rows and chunks of _CHUNK samples,
and keep few arrays of a piece's size at once, most of them updated in
place. Both passes run once per band of screen rows (screen_bands), on the
polygons whose box meets the band, and the depth pass returns that band's
rows alone, at most _BAND pixels. So the raster's memory, the band's depth
included, stays within a fixed budget whatever the mesh and screen size,
about 0.75 MB of scratch on the benchmark views besides at most 2 MiB of
depth. The budgets decide how work is cut, never what the sample stream,
the depth of a pixel or the flags hold.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .geometry import FRUSTUM_PLANES, W_EPSILON, clip_halfspace

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

# Memory budgets of the raster, as counts. The set-up works on runs of at
# most _POLYGONS polygons, about 170 bytes each. A pass narrows the spans of
# at most _ROWS box rows at once, about 50 bytes a row while it does and 48
# a covered row after, and forms whole rows of samples, at most
# max(_CHUNK, width) a chunk, about 40 bytes each with the visibility test.
# So the scratch memory of the set-up and of each pass, beyond the arrays it
# returns, stays under about 0.75 MB on the benchmark views, and bounded
# whatever the mesh and the screen. The passes go over the screen in bands
# of whole rows, at most _BAND pixels (2 MiB of depth) or else one row.
# Smaller budgets cost numpy calls, about 2 us each, and larger arrays cost
# cache misses.
_POLYGONS = 1 << 12
_ROWS = 3 << 11
_CHUNK = 1 << 13
_BAND = 1 << 18

# Screen vertices snap to 1/_SUBPIXEL pixel, as the 8 fractional bits of
# the Direct3D 11 rasterization rules.
_SUBPIXEL = 256


def screen_setup(vclip: np.ndarray, triangles: np.ndarray, res, cull: bool) -> tuple:
    """A frame's triangles set up for rasterization, once for both passes.

    ``vclip`` holds the (n, 4) clip coordinates of the vertices, ``triangles``
    their (m, 3) ids and ``res`` the screen's (width, height). Returns (setup,
    front, pixels): one _screen_polygons group per run of at most _POLYGONS
    polygons of one clipped vertex count, and each vertex's w - W_EPSILON > 0
    and (n, 2) pixel position.
    """
    width, height = int(res[0]), int(res[1])
    if width < 1 or height < 1:
        raise ValueError("resolution must be at least 1x1")
    front = vclip[:, 3] - W_EPSILON > 0
    # w + v >= 0 and w - v >= 0 hold iff -w <= v <= w, since a float sum
    # is zero only for opposite operands: one test for all six planes.
    within = np.abs(vclip[:, :3]) <= vclip[:, 3:]
    # Chained over the corners and axes: a reduction along a length-3 axis is slower.
    inside = (front & within[:, 0] & within[:, 1] & within[:, 2])[triangles]
    inside = inside[:, 0] & inside[:, 1] & inside[:, 2]
    ahead = front[triangles]
    leaving = np.flatnonzero(~inside & (ahead[:, 0] | ahead[:, 1] | ahead[:, 2]))
    clipped = _clip_groups(vclip[triangles[leaving]]) if len(leaving) else []
    inside = np.flatnonzero(inside)
    del within, ahead
    # As a one-triangle-at-a-time loop: inside, then clipped by id, and groups by
    # first id. By vertex count, parts of (triangle ids, vertex id table, its rows).
    groups, n = {3: [(inside, triangles, inside)]}, len(vclip)
    for rows, poly in clipped:
        g, k = poly.shape[:2]
        table = np.arange(n, n + g * k).reshape(g, k)
        groups.setdefault(k, []).append((leaving[rows], table, np.arange(g)))
        n += g * k
    clip = np.concatenate([vclip, *(poly.reshape(-1, 4) for _, poly in clipped)])
    records = _vertex_records(clip, width, height)
    del clip
    setup = [
        _screen_polygons(t, corners, records, width, height, cull)
        for parts in groups.values()
        for t, corners in _runs(parts)
    ]
    return setup, front, records[3:5, : len(vclip)].T.copy()


def _vertex_records(clip: np.ndarray, width: int, height: int) -> np.ndarray:
    """(7, n) records of n homogeneous vertices, gathered by polygon in one step: NDC x, y,
    z, pixel x, y, and pixel x, y snapped to 1/256 pixel from the center of pixel (0, 0),
    where subtracting turns np.rint's -0 into +0. w <= 0 gives junk, and no warning."""
    records = np.empty((7, len(clip)))
    ndc, pixel, snapped = records[:3], records[3:5], records[5:]
    with np.errstate(all="ignore"):
        np.divide(clip[:, :3].T, clip[:, 3], out=ndc)
        np.multiply((ndc[:2] + 1.0) * 0.5, [[width], [height]], out=pixel)
        np.subtract(np.rint(pixel * _SUBPIXEL), _SUBPIXEL // 2, out=snapped)
    return records


def _runs(parts):
    """(triangle ids, (n, G) vertex ids) of each run of at most _POLYGONS polygons over
    ``parts``, (triangle ids, vertex id table, its rows) of one vertex count, in order."""
    total = sum(len(ids) for ids, _, _ in parts)
    for start in range(0, total, _POLYGONS):
        run, offset = [], 0
        for ids, table, at in parts:
            r = slice(max(start - offset, 0), max(start + _POLYGONS - offset, 0))
            if len(ids[r]):
                run.append((ids[r], np.take(table.T, at[r], axis=1)))
            offset += len(ids)
        if len(run) == 1:
            yield run[0]
        else:
            t, corners = zip(*run)
            yield np.concatenate(t), np.concatenate(corners, axis=1)


def _clip_groups(clip: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, (G, n, 4) polygons) per vertex count n >= 3 of clipped (L, 3, 4) triangles.

    ``clip`` holds triangles that leave the frustum with a vertex at w - W_EPSILON > 0.
    Seven batched Sutherland-Hodgman stages, w - W_EPSILON >= 0 and then the six
    FRUSTUM_PLANES in order, each clip only the polygons with a vertex outside, so every
    polygon equals a one-triangle-at-a-time clip. Groups come by first row, rows ascending.
    """
    groups = [(np.arange(len(clip)), clip)]
    for plane in (None, *FRUSTUM_PLANES.values()):  # None: the camera plane
        by_count: dict[int, list] = {}
        for ids, poly in groups:
            w = poly[:, :, 3]
            dist = w - W_EPSILON if plane is None else w + plane[1] * poly[:, :, plane[0]]
            keep = dist >= 0
            parts = [(ids, poly)]
            if not keep.all():
                cut = ~keep.all(axis=1)
                split = clip_halfspace(poly[cut], dist[cut], keep[cut])
                parts = [(ids[~cut], poly[~cut])] + [(ids[cut][r], p) for r, p in split]
            for part in parts:
                if len(part[0]):
                    by_count.setdefault(part[1].shape[1], []).append(part)
        groups = [tuple(map(np.concatenate, zip(*p))) if p[1:] else p[0] for p in by_count.values()]
    groups = sorted((g for g in groups if g[1].shape[1] >= 3), key=lambda g: g[0].min())
    return [_select(g, np.argsort(g[0])) for g in groups]


def _screen_polygons(t, corners, records, width: int, height: int, cull: bool):
    """Cull, flip and box convex polygons, (n, G) vertex ids into _vertex_records ``records``.

    Counter-clockwise polygons (in y-up pixel coordinates) are front-facing;
    with culling disabled, clockwise polygons are flipped. Orientation, boxes
    and edges come from the vertices snapped to 1/256 pixel, the depth
    planes from the float vertices. Returns the triangle ids, pixel boxes,
    edges, depth planes and NDC extents (x min, y min, x max, y max) of the
    polygons that survive. Edge i, from vertex i to i + 1, is the columns
    (a, b, c) per polygon, 256 ey, 256 ex and a constant: the sample in
    column ix of row iy passes its top-left test iff a * ix <= b * iy + c.
    Each vertex field is gathered when it is needed, and only for the
    polygons that survive once they are known; ``corners`` is reordered in
    place.
    """
    n = len(corners)
    # Twice the signed area, exact, chained over the vertices (faster than a sum).
    x, y = records[5].take(corners), records[6].take(corners)
    area2 = x[0] * (y[1] - y[n - 1])
    for i in range(1, n):
        area2 += x[i] * (y[(i + 1) % n] - y[i - 1])

    # The box: the samples within the snapped vertices' range, on the screen.
    # The snapped values are integers, never -0, so the order of the
    # vertices, flipped or not, does not change their min and max.
    x0, y0 = (np.maximum(0, np.ceil(functools.reduce(np.minimum, v) / _SUBPIXEL)) for v in (x, y))
    x1 = np.minimum(width - 1, np.floor(functools.reduce(np.maximum, x) / _SUBPIXEL))
    y1 = np.minimum(height - 1, np.floor(functools.reduce(np.maximum, y) / _SUBPIXEL))
    keep = np.flatnonzero((area2 > 0.0 if cull else area2 != 0.0) & (x0 <= x1) & (y0 <= y1))
    t, flip = t[keep], area2[keep] < 0.0
    box = tuple(v[keep].astype(np.int64) for v in (x0, x1, y0, y1))
    del x, y, x0, x1, y0, y1, area2
    corners[:, : len(keep)] = corners[:, keep]  # the survivors, moved to the front in place
    corners = corners[:, : len(keep)]
    v = [records[i].take(corners) for i in (0, 1)]
    ndc = tuple(functools.reduce(f, u) for f in (np.minimum, np.maximum) for u in v)
    del v
    corners[:, flip] = corners[::-1, flip]

    # In y-up coordinates the interior lies below edges running left, so
    # "top-left" means edges going up or exactly-horizontal-left; samples
    # on them are covered: the edge value ex * (py - sy) - ey * (px - sx) is
    # at least 1 - top_left. A zero-length edge, from a vertex the clipper
    # repeated or two that snap together, is 0 and passes every sample.
    x, y = records[5].take(corners), records[6].take(corners)
    edges = []
    for i in range(n):
        ex, ey = x[(i + 1) % n] - x[i], y[(i + 1) % n] - y[i]
        top_left = (ey > 0) | ((ey == 0) & (ex <= 0))
        c = ey * x[i]
        c -= ex * y[i]
        c += top_left - 1.0
        ey *= _SUBPIXEL
        ex *= _SUBPIXEL
        edges.append((ey, ex, c))
    del x, y
    planes = _depth_planes(*(records[f].take(corners) for f in (3, 4, 2)))
    return t, box, tuple(edges), planes, ndc


def _chunks(group, width: int, ids: bool = True, rows=None, top: int = 0):
    """Covered samples of a screen_setup group, in chunks of whole rows.

    Rows of the polygons' boxes are taken _ROWS at a time, in polygon order,
    narrowed to the span of samples the polygon covers (_row_spans), and cut
    into chunks of at most _CHUNK samples, or one row where a row alone holds
    more. ``rows``, as (polygons, first rows, last rows), takes those
    polygons in that order, and only those rows of each, in place of every
    polygon's box rows, with no copy of the group. Polygons meeting along an
    edge never both claim the shared samples. Samples come out by polygon,
    row and column, as (t, pixel, z): triangle id, flat pixel index (row -
    ``top``) * ``width`` + column and depth, or as (pixel, z) without
    ``ids``, in new arrays. Each depth takes the operations, in order, of a
    one-polygon-at-a-time rasterizer, on the plane anchored at the polygon's
    float vertex 0.
    """
    _, (_, _, y0, y1), *_ = group
    polys, first, last = (np.arange(len(y0)), y0, y1) if rows is None else rows
    # Polygon i has the rows [bounds[i], bounds[i + 1]).
    bounds = np.r_[0, (last - first + 1).cumsum()]
    for start in range(0, bounds[-1], _ROWS):
        # A generator per batch frees its rows before the next batch forms its own.
        yield from _batch(group, width, ids, polys, first, bounds, start, top)


def _batch(group, width: int, ids: bool, polys, first, bounds, start: int, top: int):
    """The chunks of _chunks from its rows [start, start + _ROWS) of ``bounds``."""
    _, (x0, x1, _, _), edges, (_, ay, _, _, gy, _), _ = group
    stop = min(start + _ROWS, bounds[-1])
    # The batch's polygons p..q, repeated by their rows in it: cheaper than a search per row.
    p, q = bounds.searchsorted((start, stop - 1), side="right") - 1
    count = np.diff(np.clip(bounds[p : q + 2], start, stop))
    sel = polys[p : q + 1]
    iy = (first[p : q + 1] - bounds[p : q + 1]).astype(np.float64).repeat(count)
    iy += np.arange(start, stop)
    lo, hi = (v[sel].astype(np.float64).repeat(count) for v in (x0, x1))
    _row_spans(edges, sel, count, iy, lo, hi)
    keep = lo <= hi
    g = sel.repeat(count)[keep]
    iy, lo, hi = iy[keep], lo[keep], hi[keep]
    hi -= lo
    n = hi.astype(np.intp)
    n += 1
    end = n.cumsum()
    del keep, hi
    # Per row, in place: the depth plane's row term gy * (iy + 0.5 - ay), and
    # from the row's first sample, index end - n in the batch, the sample
    # index k's pixel less k and its column + 0.5 less k. All but the row
    # term are integers or halves, held exactly in float64.
    lo -= end
    lo += n
    pixel0 = ((iy - top) * width + lo).astype(np.int64)
    lo += 0.5
    iy += 0.5
    iy -= ay[g]
    iy *= gy[g]
    row_term, column0 = iy, lo
    begin = 0
    while begin < len(end):
        base = end[begin - 1] if begin else 0
        stop = max(begin + 1, int(end.searchsorted(base + _CHUNK, side="right")))
        r = slice(begin, stop)
        yield _samples(group, ids, g[r], n[r], pixel0[r], column0[r], row_term[r], base)
        begin = stop


def _samples(group, ids: bool, g, n, pixel0, column0, row_term, base):
    """The samples of rows of polygons g, n[i] on row i, from sample index ``base``
    of their batch: (t, pixel, z) or (pixel, z), as _chunks yields them. Per-row
    values are repeated over the row: the same operations per sample."""
    t, _, _, (ax, _, z0, gx, _, flat), _ = group
    k = np.arange(base, base + n.sum())
    z = column0.repeat(n)
    z += k  # the column + 0.5, exactly
    pixel = pixel0.repeat(n)
    pixel += k
    del k
    z -= ax[g].repeat(n)
    z *= gx[g].repeat(n)
    z += z0[g].repeat(n)
    z += row_term.repeat(n)
    # Flat polygons take z0 as it is: adding the zero terms could
    # change the sign of a zero depth.
    on_flat = flat[g]
    if on_flat.any():
        z[on_flat.repeat(n)] = z0[g[on_flat]].repeat(n[on_flat])
    return (t[g].repeat(n), pixel, z) if ids else (pixel, z)


@np.errstate(divide="ignore", invalid="ignore")
def _row_spans(edges, polys, count, iy, lo, hi) -> None:
    """Narrow the float64 rows [lo, hi] in place to the samples their polygons cover on rows iy.

    The rows come from the polygons ``polys``, count[i] rows from polys[i]
    in turn. Edge (a, b, c) passes the columns ix with a * ix <= b * iy +
    c: up to floor(q) where a >= 0 and from ceil(q) where a < 0, for q = (b
    * iy + c) / a (see the module docstring). A row whose span is empty gets
    lo > hi, and hi may be -inf, from a row that one horizontal edge excludes.
    """
    for a, b, c in edges:
        q = b[polys].repeat(count)
        q *= iy
        q += c[polys].repeat(count)
        a = a[polys].repeat(count)
        q /= a
        right, left = a >= 0, a < 0
        np.fmin(hi, np.floor(q, out=a), out=hi, where=right)
        np.fmax(lo, np.ceil(q, out=a), out=lo, where=left)


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _depth_planes(x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """Affine NDC depth planes (ax, ay, z0, gx, gy, flat) of polygons.

    ``x``, ``y`` and ``z`` are the (n, G) pixel x, y and NDC z of their vertices. NDC z
    is screen-affine: z0 + gx * (x - ax) + gy * (y - ay), anchored at the float vertex 0
    (ax, ay) and solved on the first fan triangle (0, j, j + 1) with |det| > 1e-12.
    Polygons with none are ``flat``, with the mean vertex depth in z0. Rows 1.. of ``x``
    and ``y`` become their differences from row 0, in place.
    """
    ax, ay, z0 = x[0].copy(), y[0].copy(), z[0].copy()
    x[1:] -= ax
    y[1:] -= ay
    gx, gy = np.zeros((2, x.shape[1]))
    flat = np.ones(x.shape[1], dtype=bool)
    for j in range(1, len(x) - 1):
        (d1x, d2x), (d1y, d2y), (d1z, d2z) = x[j : j + 2], y[j : j + 2], z[j : j + 2] - z[0]
        det = d1x * d2y
        det -= d2x * d1y
        solve = flat & (np.abs(det) > 1e-12)
        num = d1z * d2y
        num -= d2z * d1y
        np.divide(num, det, out=gx, where=solve)
        np.multiply(d2z, d1x, out=num)
        num -= d1z * d2x
        np.divide(num, det, out=gy, where=solve)
        flat &= ~solve
    for g in np.flatnonzero(flat):
        z0[g] = z[:, g].mean()
    return ax, ay, z0, gx, gy, flat


def screen_bands(res: tuple[int, int]) -> list[range]:
    """The screen rows of each band of a (width, height) screen, in order: _BAND // width
    rows a band, or one row where a row alone holds more than _BAND pixels."""
    width, height = int(res[0]), int(res[1])
    step = max(1, _BAND // width)
    return [range(top, min(top + step, height)) for top in range(0, height, step)]


def depth_prepass(setup: list[tuple], res: tuple[int, int], rows: range) -> np.ndarray:
    """Minimum NDC depth per pixel of the screen rows ``rows`` of a screen_setup.

    ``res`` is the set-up's (width, height), and ``rows`` a range of
    consecutive screen rows, row 0 along the NDC y = -1 edge. The buffer has
    shape (len(rows), width), and uncovered pixels hold +inf. Samples are
    scattered in stream order, which decides between +0 and -0 on a pixel,
    into a flat view of the buffer, for which np.minimum.at has a fast path.
    So a band's buffer equals those rows of the whole frame's. Raises
    ValueError when a pixel box of the set-up lies outside the screen.
    """
    width, height = int(res[0]), int(res[1])
    _check_screen(setup, (height, width))
    depth = np.full((len(rows), width), np.inf)
    pixels = depth.reshape(-1)
    for group, spans in _in_band(setup, rows):
        for pixel, z in _chunks(group, width, ids=False, rows=spans, top=rows.start):
            np.minimum.at(pixels, pixel, z)
            del pixel, z  # freed before the next chunk is formed
    return depth


def mark_visible(
    setup: list[tuple], depth: np.ndarray, rows: range, visible: np.ndarray
) -> VisibilityBuffer:
    """Flag the triangles of a screen_setup with a depth-passing sample on the screen rows
    ``rows``, whose depth_prepass buffer is ``depth``, and not flagged in ``visible``.

    A flag is an OR over a triangle's samples, so one passing sample
    settles it, and a triangle ``visible`` already flags is not formed
    again. A probe first forms the samples of each polygon's middle row in
    the band, which are the very samples the whole stream holds on that row,
    and flags the triangles with a passing one. A second sweep then forms
    the samples of the other rows of only the polygons the probe left
    unflagged. The flags returned are the newly flagged triangles, so the
    bands' flags are disjoint and their OR equals one sweep over every
    sample of the frame. Raises ValueError when ``depth`` does not hold the
    band's rows of every pixel box of the set-up.
    """
    width = depth.shape[1]
    _check_screen(setup, depth.shape, rows)
    flags = np.zeros(len(visible), dtype=bool)
    pixels = depth.reshape(-1)

    def sweep(group, spans):
        for t, pixel, z in _chunks(group, width, rows=spans, top=rows.start):
            stored = pixels[pixel]
            del pixel
            slack = np.abs(stored)
            np.maximum(1.0, slack, out=slack)
            slack *= DEPTH_EPSILON
            slack += stored
            del stored
            flags[t[z <= slack]] = True
            del t, z, slack  # freed before the next chunk is formed

    flagged = visible if visible.any() else None  # None: no triangle to leave out
    for group, (polys, first, last) in _in_band(setup, rows, flagged):
        mid = (first + last) // 2
        sweep(group, (polys, mid, mid))
    for group, (polys, first, last) in _in_band(setup, rows, flagged):
        left = np.flatnonzero(~flags[group[0][polys]])
        polys, first, last = polys[left], first[left], last[left]
        mid = (first + last) // 2
        # The rows before the middle ones, then those after them.
        sweep(group, (np.r_[polys, polys], np.r_[first, mid + 1], np.r_[mid - 1, last]))
    return VisibilityBuffer(flags=flags)


def _in_band(setup: list[tuple], rows: range, flagged: np.ndarray | None = None):
    """(group, (polygons, first rows, last rows)) of each group of a set-up with polygons
    whose box meets the screen rows ``rows``, in order, each narrowed to its rows there;
    a triangle that ``flagged`` flags is left out."""
    for group in setup:
        t, (_, _, y0, y1), *_ = group
        if flagged is None and len(t) and rows.start <= y0.min() and y1.max() < rows.stop:
            yield group, (np.arange(len(t)), y0, y1)  # the band holds every box: no copy
            continue
        meets = y0 < rows.stop
        meets &= y1 >= rows.start
        if flagged is not None:
            meets &= ~flagged[t]
        polys = np.flatnonzero(meets)
        if len(polys):
            first, last = np.maximum(y0[polys], rows.start), np.minimum(y1[polys], rows.stop - 1)
            yield group, (polys, first, last)


def _check_screen(setup: list[tuple], shape, rows: range | None = None) -> None:
    """Raise ValueError unless a (height, width) buffer of ``shape`` holds every pixel box
    of the set-up, or its screen rows ``rows`` when given: through a flat index, a box
    past its width would reach the next row."""
    need = (0, 0)
    for _, (_, x1, _, y1), *_ in setup:
        if len(x1):
            reach = int(y1.max()) + 1
            if rows is not None:
                reach = min(reach, rows.stop) - rows.start
            need = max(need[0], reach), max(need[1], int(x1.max()) + 1)
    if need[0] > shape[0] or need[1] > shape[1]:
        raise ValueError(
            f"depth buffer of shape {tuple(shape)} is smaller than the set-up's pixel boxes, "
            f"which need shape {need}"
        )


def _select(group, keep: np.ndarray):
    """A group of arrays, or nested tuples of them, narrowed to the rows where ``keep`` holds."""
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
