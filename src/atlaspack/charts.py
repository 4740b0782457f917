"""Input reading, per-frame visibility and chartification.

Every input file is split by one whole-file reader, ``records``: it cuts
'#' comments, splits lines into tokens as str.split() would, and finds each
token's start and end and each non-blank line's number and token count in
one numpy pass over the bytes, so a parser checks its rules on whole
columns and names the first bad line. Numeric columns are converted from
the bytes as well, with no Python object per plain token (``_column``,
after Clinger 1990 and Lemire 2021). For frame sequences ``load_obj`` keeps
the last file's bytes and read-only mesh, and parses a file whose bytes differ.

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
rasterizers do, clips the triangles that leave the frustum as one ragged
batch (Sutherland and Hodgman 1974) and pads the clipped polygons to one
vertex count, keeps each polygon's NDC extent, and sets up top-left edge
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

The depth pass keeps each pixel's minimum sample depth, with zeros made +0,
so the depth depends on the set of samples alone: no order of polygons,
groups, bands or chunks can change it. Its stream holds each sample's flat
pixel index in the band, row * width + column, and depth, and no triangle
ids. The visibility pass flags each triangle with a sample at most
DEPTH_EPSILON behind the stored depth, and stops at the first such sample
of each triangle (see mark_visible). FastAtlas parameterizes each chart by
its screen projection, so a chart's box is the extent of what is
rasterized: ``chart_bbox`` reduces the polygons' NDC extents by chart.

The set-up and both passes work in pieces of fixed size, runs of _POLYGONS
polygons, batches of _ROWS box rows and chunks of _CHUNK samples, and keep
few arrays of a piece's size at once, most of them updated in place. Both
passes read one band of screen rows at a time: screen_bands checks the
set-up against the screen once a frame and hands each band the polygons
whose box meets it, cut to its rows, and the depth pass returns the band's
rows alone, at most _BAND pixels. So the raster's memory, the band's depth
included, stays within a fixed budget whatever the mesh and screen size,
about 0.75 MB of scratch on the benchmark views besides at most 2 MiB of
depth. The budgets decide how work is cut, never what the sample stream, the
depth of a pixel or the flags hold.
"""

from __future__ import annotations

import copy
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
    """Indexed triangle soup: (n, 3) float64 positions, (m, 3) int64 triangles.

    load_obj's meshes have read-only arrays, shared by loads of equal bytes."""

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


_last_obj: tuple = (None, None)  # the bytes and mesh of the last OBJ file load_obj parsed


def load_obj(path) -> Mesh:
    """Load positions and faces from a Wavefront OBJ file.

    Polygons are fan-triangulated; normals, texture coordinates, materials
    and other keywords are ignored. Negative (relative) indices are
    supported. A non-numeric or non-finite coordinate, a non-numeric face
    index, and a face index of 0 or past the vertices read so far raise
    ValueError naming the file and line. Bytes that are not UTF-8 read as
    U+FFFD. Tokens 1-3 of the ``v`` records, and the tokens after ``f`` cut
    at their first '/', are converted as two whole columns.

    The file is read on every call and parsed when its bytes differ from the
    last file parsed without error, whose bytes and mesh alone are kept. The
    arrays are read-only, and each call returns its own shallow copy.
    """
    global _last_obj
    with open(path, "rb") as fh:
        raw = fh.read()
    last_raw, last_mesh = _last_obj  # read once: a concurrent store cannot mix two entries
    if raw == last_raw:
        return copy.copy(last_mesh)
    data, starts, ends, linenos, counts, heads = _records(raw)
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
    if not np.all(sides == 3):
        # Fan triangles (0, j, j + 1) of each polygon.
        base = np.repeat(np.cumsum(sides) - sides, sides - 2)
        second = base + 1 + _ranks(sides - 2)
        resolved = resolved[np.stack([base, second, second + 1], 1)]
    mesh = Mesh(positions=positions, triangles=resolved)
    mesh.positions.flags.writeable = mesh.triangles.flags.writeable = False
    _last_obj = raw, mesh
    return copy.copy(mesh)


# --- the reader --------------------------------------------------------------

# ASCII whitespace within a line besides the space. str.split() splits on
# all of it, so the reader makes it spaces.
_TABS = b"\t\v\f\x1c\x1d\x1e\x1f"
_SPACES = bytes.maketrans(_TABS, b" " * len(_TABS))


def records(data: bytes):
    """(tokens, line numbers, token counts) of the non-blank lines of ``data``.

    CRLF, CR and LF end lines, '#' starts a comment that runs to the end of
    its line, and each line splits into tokens as str.split() splits it.
    The tokens are str, read as UTF-8 with U+FFFD for bytes that are not.
    """
    data, starts, ends, linenos, counts, _ = _records(data)
    return [data[s:e].decode() for s, e in zip(starts.tolist(), ends.tolist())], linenos, counts


def _records(data: bytes):
    """The reader's split of ``data``: (data, starts, ends, linenos, counts, heads).

    The returned data has its comments cut, its line ends LF, its
    whitespace within lines spaces, bytes that are not UTF-8 U+FFFD and one
    LF appended, and token k is ``data[starts[k]:ends[k]]``. Per record: its
    line number, its token count, and the byte of its first token if that
    is one byte long, else 0. One leading UTF-8 byte order mark is dropped.
    """
    data = data.removeprefix(b"\xef\xbb\xbf")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if b"#" in data:
        data = re.sub(rb"#[^\n]*", b"", data)
    if not data.isascii():
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
    return data, starts, ends, linenos, np.diff(first, append=len(starts)), heads


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
    front, pixels): the _screen_polygons groups, and each vertex's w -
    W_EPSILON > 0 and (n, 2) pixel position. The groups are two kinds of
    polygon, each cut into runs of at most _POLYGONS: the triangles inside
    the frustum, then the clipped polygons of the triangles that leave it,
    each kind by triangle id. A clipped polygon is padded to the largest
    vertex count by repeating its last vertex id: a zero-length edge passes
    every sample, and a repeated vertex adds nothing to the exact area, the
    pixel box, the NDC extent or the depth plane.
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
    rows, counts, clipped = _clip_polygons(vclip[triangles[leaving]])
    inside = np.flatnonzero(inside)
    del within, ahead
    # The (n, G) vertex ids of the clipped polygons, after the mesh's, each padded with its last.
    first = len(vclip) + np.cumsum(counts) - counts
    padded = first + np.minimum(np.arange(counts.max(initial=3))[:, None], counts - 1)
    records = _vertex_records(np.concatenate([vclip, clipped]), width, height)
    del clipped
    setup = []
    # Per kind: the triangle ids, a table of vertex ids by column, and their columns.
    kinds = (inside, triangles.T, inside), (leaving[rows], padded, np.arange(len(rows)))
    for t, table, at in kinds:
        for s in range(0, len(t), _POLYGONS):
            r = slice(s, s + _POLYGONS)
            corners = np.take(table, at[r], axis=1)
            setup.append(_screen_polygons(t[r], corners, records, width, height, cull))
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


def _clip_polygons(clip: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, counts, vertices) of (L, 3, 4) triangles clipped to the frustum.

    ``clip`` holds triangles that leave the frustum with a vertex at w - W_EPSILON > 0.
    Seven Sutherland-Hodgman stages, w - W_EPSILON >= 0 and then the six
    FRUSTUM_PLANES in order, each clip the whole batch, skipping a stage that
    drops no vertex; a polygon inside a plane comes through its stage
    unchanged, so every polygon equals a one-triangle-at-a-time clip. Returns
    the rows left with at least 3 vertices, ascending, their vertex counts
    and their vertices, polygon after polygon.
    """
    vertices, counts = clip.reshape(-1, 4), np.full(len(clip), 3)
    for plane in (None, *FRUSTUM_PLANES.values()):  # None: the camera plane
        w = vertices[:, 3]
        d = w - W_EPSILON if plane is None else w + plane[1] * vertices[:, plane[0]]
        keep = d >= 0
        if not keep.all():
            vertices, counts = clip_halfspace(vertices, counts, d, keep)
    polygon = counts >= 3
    return np.flatnonzero(polygon), counts[polygon], vertices[polygon.repeat(counts)]


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
    planes = _depth_planes(*(records[f].take(corners) for f in (3, 4, 2)), corners)
    return t, box, tuple(edges), planes, ndc


def _chunks(group, width: int, rows, top: int, ids: bool = True):
    """Covered samples of a screen_setup group, in chunks of whole rows.

    ``rows``, as (polygons, first rows, last rows), takes those polygons in
    that order, and only those rows of each, with no copy of the group. The
    rows are taken _ROWS at a time, narrowed to the span of samples the
    polygon covers (_row_spans), and cut into chunks of at most _CHUNK
    samples, or one row where a row alone holds more. Polygons meeting along
    an edge never both claim the shared samples. Samples come out by
    polygon, row and column, as (t, pixel, z): triangle id, flat pixel index
    (row - ``top``) * ``width`` + column and depth, or as (pixel, z) without
    ``ids``, in new arrays. Each depth takes the operations, in order, of a
    one-polygon-at-a-time rasterizer, on the plane anchored at the polygon's
    float vertex 0, and a zero depth is +0.
    """
    polys, first, last = rows
    # Polygon i has the rows [bounds[i], bounds[i + 1]).
    bounds = np.r_[0, (last - first + 1).cumsum()]
    for start in range(0, bounds[-1], _ROWS):
        # A generator per batch frees its rows before the next batch forms its own.
        yield from _batch(group, width, ids, polys, first, bounds, start, top)


def _batch(group, width: int, ids: bool, polys, first, bounds, start: int, top: int):
    """The chunks of _chunks from its rows [start, start + _ROWS) of ``bounds``."""
    _, (x0, x1, _, _), edges, (_, ay, _, _, gy), _ = group
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
    t, _, _, (ax, _, z0, gx, _), _ = group
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
    z += 0.0  # -0 becomes +0 and the rest stays, so equal depths have equal bits
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


def _depth_planes(x: np.ndarray, y: np.ndarray, z: np.ndarray, ids: np.ndarray):
    """Affine NDC depth planes (ax, ay, z0, gx, gy) of polygons.

    ``x``, ``y`` and ``z`` are the (n, G) pixel x, y and NDC z of their vertices, and
    ``ids`` their (n, G) vertex ids. NDC z is screen-affine: z0 + gx * (x - ax) + gy *
    (y - ay), anchored at the float vertex 0 (ax, ay) and solved on the first fan
    triangle (0, j, j + 1) with |det| > 1e-12; a fan with a padding slot has det 0.
    A flat polygon, with none, gets gx = gy = 0 and the mean depth of its vertices
    in z0, which its samples take up to the sign of a zero. A padding slot repeats
    the id of the slot before it, which no real vertex does, and is left out of the
    mean. Rows 1.. of ``x`` and ``y`` become their differences from row 0, in place.
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
        z0[g] = z[np.r_[True, ids[1:, g] != ids[:-1, g]], g].mean()
    return ax, ay, z0, gx, gy


def screen_bands(setup: list[tuple], res: tuple[int, int]):
    """The bands of a screen_setup's (width, height) screen, in order, as (rows, width,
    spans): _BAND // width screen rows, or one where a row alone holds more than _BAND
    pixels, row 0 along the NDC y = -1 edge; the width; and (group, (polygons, first rows,
    last rows)) of each group whose boxes meet the band, in polygon order, cut to the band's
    rows, from one scan of the boxes a band. Raises ValueError before the first band when a
    pixel box lies outside the screen: through a flat index, it would reach the next row.
    """
    width, height = int(res[0]), int(res[1])
    need = (0, 0)
    for _, (_, x1, _, y1), *_ in setup:
        if len(x1):
            need = max(need[0], int(y1.max()) + 1), max(need[1], int(x1.max()) + 1)
    if need[0] > height or need[1] > width:
        raise ValueError(
            f"screen of shape {(height, width)} is smaller than the set-up's pixel boxes, "
            f"which need shape {need}"
        )
    step = max(1, _BAND // width)
    for top in range(0, height, step):
        rows, spans = range(top, min(top + step, height)), []
        for group in setup:
            _, (_, _, y0, y1), *_ = group
            first, last = np.maximum(y0, top), np.minimum(y1, rows.stop - 1)
            polys = np.flatnonzero(first <= last)  # a box holds a row, y0 <= y1
            if len(polys):
                spans.append((group, (polys, first[polys], last[polys])))
        yield rows, width, spans


def depth_prepass(band: tuple) -> np.ndarray:
    """Minimum NDC depth per pixel of a band of screen_bands.

    The buffer has shape (len(rows), width), and uncovered pixels hold +inf.
    A pixel holds the minimum of its samples, zeros made +0, in any order of
    polygons, groups or chunks, so a band's buffer equals those rows of the
    whole frame's. A flat view of the buffer gives np.minimum.at a fast path.
    """
    rows, width, spans = band
    depth = np.full((len(rows), width), np.inf)
    pixels = depth.reshape(-1)
    for group, span in spans:
        for pixel, z in _chunks(group, width, span, rows.start, ids=False):
            np.minimum.at(pixels, pixel, z)
            del pixel, z  # freed before the next chunk is formed
    return depth


def mark_visible(band: tuple, depth: np.ndarray, visible: np.ndarray) -> VisibilityBuffer:
    """Flag the triangles of a band of screen_bands with a depth-passing sample there,
    whose depth_prepass buffer is ``depth``, and not flagged in ``visible``.

    A flag is an OR over a triangle's samples, so one passing sample
    settles it, and a triangle ``visible`` already flags is dropped from
    the band's spans. Group by group, a probe first forms the samples of
    each polygon's middle row in the band, which are the very samples the
    whole stream holds on that row, and flags the triangles with a passing
    one. A second sweep then forms the samples of the other rows of only
    the polygons the probe left unflagged. The flags returned are the
    newly flagged triangles, so the bands' flags are disjoint and their OR
    equals one sweep over every sample of the frame. Raises ValueError
    unless ``depth`` has the band's shape.
    """
    rows, width, spans = band
    if depth.shape != (len(rows), width):
        raise ValueError(f"depth of shape {depth.shape} is not the band's {len(rows), width}")
    flags = np.zeros(len(visible), dtype=bool)
    pixels = depth.reshape(-1)

    def sweep(group, span):
        for t, pixel, z in _chunks(group, width, span, rows.start):
            stored = pixels[pixel]
            del pixel
            slack = np.abs(stored)
            np.maximum(1.0, slack, out=slack)
            slack *= DEPTH_EPSILON
            slack += stored
            del stored
            flags[t[z <= slack]] = True
            del t, z, slack  # freed before the next chunk is formed

    # A triangle lies in one group, so a group's sweep cannot flag another's triangles.
    for group, (polys, first, last) in spans:
        left = np.flatnonzero(~visible[group[0][polys]])
        if not len(left):
            continue
        polys, first, last = polys[left], first[left], last[left]
        mid = (first + last) // 2
        sweep(group, (polys, mid, mid))
        left = np.flatnonzero(~flags[group[0][polys]])
        polys, first, last, mid = polys[left], first[left], last[left], mid[left]
        # The rows before the middle ones, then those after them.
        sweep(group, (np.r_[polys, polys], np.r_[first, mid + 1], np.r_[mid - 1, last]))
    return VisibilityBuffer(flags=flags)


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
