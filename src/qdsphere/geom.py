"""Planar segment geometry on complex coordinates, array at a time.

One orientation product serves every test. The proper-crossing count serves
the continuity check of the level function and the recurrence crossing
count; the closed meeting test, where touching and collinear overlap count
too, decides which lattice edges of the level function are clear of its
cuts. Every array element is computed with the same IEEE operations, in the
same order, as the scalar formula, so booleans and crossing parameters do
not depend on how many segments are tested at once. The point-segment
distances serve the tracer's closure trigger and the pole disks of the
level function.
"""

from __future__ import annotations

import numpy as np

CROSSING_BLOCK = 1 << 17     # segment pairs tested per array block


def cross(o, a, b):
    """Orientation product (a - o) x (b - o) of complex points: positive
    when o, a, b turn counterclockwise. Scalars or broadcasting arrays."""
    return ((a.real - o.real) * (b.imag - o.imag)
            - (a.imag - o.imag) * (b.real - o.real))


def crossing_counts(a: np.ndarray, b: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """For each segment a[i] -> b[i], the number of segments of the polyline
    poly it crosses properly. At most CROSSING_BLOCK pairs are held at once."""
    c, d = poly[None, :-1], poly[None, 1:]
    counts = np.zeros(len(a), dtype=np.int64)
    rows = max(1, CROSSING_BLOCK // max(1, c.shape[1]))
    for s in range(0, len(a), rows):
        p, q = a[s:s + rows, None], b[s:s + rows, None]
        proper = (cross(c, d, p) * cross(c, d, q) < 0.0) & (cross(p, q, c) * cross(p, q, d) < 0.0)
        counts[s:s + rows] = np.count_nonzero(proper, axis=1)
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
    lies on it. A one-point polyline [w, w] is the point w. At most
    CROSSING_BLOCK pairs are held at once."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    c, d = poly[None, :-1], poly[None, 1:]
    hit = np.zeros(len(a), dtype=bool)
    rows = max(1, CROSSING_BLOCK // max(1, c.shape[1]))
    for s in range(0, len(a), rows):
        p, q = a[s:s + rows, None], b[s:s + rows, None]
        o1, o2 = cross(p, q, c), cross(p, q, d)
        o3, o4 = cross(c, d, p), cross(c, d, q)
        m = (o1 * o2 < 0.0) & (o3 * o4 < 0.0)
        m |= (o1 == 0.0) & _within(c, p, q) & (c != q)
        m |= (o2 == 0.0) & _within(d, p, q) & (d != q)
        m |= (o3 == 0.0) & _within(p, c, d)
        hit[s:s + rows] = np.any(m, axis=1)
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

