"""Planar segment geometry on complex coordinates, array at a time.

One orientation product serves every test. The proper-crossing count serves
the continuity check of the level function and the recurrence crossing
count; the closed meeting test, where touching and collinear overlap count
too, decides which lattice edges of the level function are clear of its
cuts; both skip a segment whose box misses the polyline's. Every array
element is computed with the same IEEE operations, in the same order, as the
scalar formula, so booleans and crossing parameters do not depend on which
segments are tested at once. The point-segment distances serve the tracer's
closure trigger and the pole disks of the level function.
"""

from __future__ import annotations

import numpy as np

CROSSING_BLOCK = 1 << 17     # segment pairs tested per array block


def cross(o, a, b):
    """Orientation product (a - o) x (b - o) of complex points: positive
    when o, a, b turn counterclockwise. Scalars or broadcasting arrays."""
    return ((a.real - o.real) * (b.imag - o.imag)
            - (a.imag - o.imag) * (b.real - o.real))


def _blocks(a: np.ndarray, b: np.ndarray, poly: np.ndarray):
    """(i, p, q, c, d) per block of at most CROSSING_BLOCK pairs: the segments a[i] -> b[i],
    ends p, q as a column, whose bounding box meets the finite polyline poly's, box edges
    included, against its chords c -> d. A segment whose box misses poly's meets no chord."""
    if len(poly) < 2:
        return
    x0, x1, y0, y1 = poly.real.min(), poly.real.max(), poly.imag.min(), poly.imag.max()
    idx = np.flatnonzero((np.minimum(a.real, b.real) <= x1) & (np.maximum(a.real, b.real) >= x0)
                         & (np.minimum(a.imag, b.imag) <= y1) & (np.maximum(a.imag, b.imag) >= y0))
    a, b, c, d = a[idx, None], b[idx, None], poly[None, :-1], poly[None, 1:]
    rows = max(1, CROSSING_BLOCK // c.shape[1])
    for s in range(0, len(idx), rows):
        yield idx[s:s + rows], a[s:s + rows], b[s:s + rows], c, d


def crossing_counts(a: np.ndarray, b: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """For each segment a[i] -> b[i], the number of segments of the polyline
    poly it crosses properly."""
    counts = np.zeros(len(a), dtype=np.int64)
    for i, p, q, c, d in _blocks(a, b, poly):
        proper = (cross(c, d, p) * cross(c, d, q) < 0.0) & (cross(p, q, c) * cross(p, q, d) < 0.0)
        counts[i] = np.count_nonzero(proper, axis=1)
    return counts


def _within(x, c, d):
    """Whether x lies in the bounding box of the segment c -> d; for x on
    the line through c and d, whether it lies on the segment."""
    return ((np.minimum(c.real, d.real) <= x.real) & (x.real <= np.maximum(c.real, d.real))
            & (np.minimum(c.imag, d.imag) <= x.imag) & (x.imag <= np.maximum(c.imag, d.imag)))


def meets(a: np.ndarray, b: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """For each segment a[i] -> b[i], whether it meets the polyline poly at
    some point other than b[i]: proper crossings, touching and collinear
    overlap all count, and a zero-length segment [z, z] meets poly where z
    lies on it. A one-point polyline [w, w] is the point w."""
    hit = np.zeros(len(a), dtype=bool)
    for i, p, q, c, d in _blocks(a, b, poly):
        o1, o2 = cross(p, q, c), cross(p, q, d)
        o3, o4 = cross(c, d, p), cross(c, d, q)
        m = (o1 * o2 < 0.0) & (o3 * o4 < 0.0)
        m |= (o1 == 0.0) & _within(c, p, q) & (c != q)
        m |= (o2 == 0.0) & _within(d, p, q) & (d != q)
        m |= (o3 == 0.0) & _within(p, c, d)
        hit[i] = np.any(m, axis=1)
    return hit


def point_segment_distance(p: complex, a: complex, b: complex) -> float:
    """Distance from p to the segment a -> b, scalar (the tracer's step loop
    calls it once per step)."""
    ab = b - a
    L2 = ab.real * ab.real + ab.imag * ab.imag
    if L2 == 0.0:
        return abs(p - a)
    t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


def segment_distances(p: complex, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from p to each segment a[i] -> b[i]."""
    ab = b - a
    L2 = ab.real * ab.real + ab.imag * ab.imag
    L2 = np.where(L2 == 0.0, 1.0, L2)
    t = np.clip(((p - a).real * ab.real + (p - a).imag * ab.imag) / L2, 0.0, 1.0)
    return np.abs(p - (a + t * ab))

