"""Planar segment geometry on complex coordinates, array at a time.

One orientation product and one proper-crossing test serve the cut routing
and the continuity check of the level function and the recurrence crossing
count. Every array element is computed with the same IEEE operations, in
the same order, as the scalar formula, so booleans and crossing parameters
do not depend on how many segments are tested at once. The point-segment
and point-polyline distances serve the tracer's closure test and the
critical graph's edge deduplication.
"""

from __future__ import annotations

import numpy as np

CROSSING_BLOCK = 1 << 17     # segment pairs tested per array block


def cross(o, a, b):
    """Orientation product (a - o) x (b - o) of complex points: positive
    when o, a, b turn counterclockwise. Scalars or broadcasting arrays."""
    return ((a.real - o.real) * (b.imag - o.imag)
            - (a.imag - o.imag) * (b.real - o.real))


def _test(a, b, c, d):
    d1 = cross(c, d, a)
    d2 = cross(c, d, b)
    proper = (d1 * d2 < 0.0) & (cross(a, b, c) * cross(a, b, d) < 0.0)
    return proper, d1, d2


def proper_crossings(a: complex, b: complex, poly: np.ndarray) -> np.ndarray:
    """Parameters t in (0, 1) along a->b where the segment a->b crosses the
    segments of the polyline poly properly, at one interior point of both,
    in segment order; touching, collinear and shared-endpoint pairs do not
    count. A proper crossing has orientations of strictly opposite sign, so
    the denominator of t is never zero."""
    proper, d1, d2 = _test(a, b, poly[:-1], poly[1:])
    return d1[proper] / (d1[proper] - d2[proper])


def crossing_counts(a: np.ndarray, b: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """For each segment a[i] -> b[i], the number of segments of the polyline
    poly it crosses properly. At most CROSSING_BLOCK pairs are held at once."""
    c, d = poly[None, :-1], poly[None, 1:]
    counts = np.zeros(len(a), dtype=np.int64)
    rows = max(1, CROSSING_BLOCK // max(1, c.shape[1]))
    for s in range(0, len(a), rows):
        proper, _d1, _d2 = _test(a[s:s + rows, None], b[s:s + rows, None], c, d)
        counts[s:s + rows] = np.count_nonzero(proper, axis=1)
    return counts


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


def point_polyline_distance(p: complex, poly: np.ndarray) -> float:
    """Distance from p to the polyline poly, all segments at once."""
    a, b = poly[:-1], poly[1:]
    if not len(a):
        return abs(p - poly[0])
    ab = b - a
    L2 = ab.real * ab.real + ab.imag * ab.imag
    L2 = np.where(L2 == 0.0, 1.0, L2)
    t = np.clip(((p - a).real * ab.real + (p - a).imag * ab.imag) / L2, 0.0, 1.0)
    return float(np.min(np.abs(p - (a + t * ab))))
