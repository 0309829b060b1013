"""Marching-squares contour extraction on a rectangular grid.

Segment endpoints are keyed by the grid edge they sit on, not by rounded
coordinates, so chains join exactly and deterministically.
"""

from __future__ import annotations

import numpy as np


def _interp(x0, y0, v0, x1, y1, v1, level):
    t = 0.5 if v1 == v0 else (level - v0) / (v1 - v0)
    t = min(max(t, 0.0), 1.0)
    return complex(x0 + t * (x1 - x0), y0 + t * (y1 - y0))


def marching_squares(xs, ys, field, level) -> list[np.ndarray]:
    """Polylines of field == level. field[iy, ix] is sampled at (xs[ix], ys[iy]).
    Cells with non-finite corners are skipped."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    f = np.asarray(field, dtype=float)
    ny, nx = f.shape
    # 4-bit corner code of every cell, corners bottom-left, bottom-right,
    # top-right, top-left; cells with a non-finite corner get code 0
    ok = np.isfinite(f)
    ok = ok[:-1, :-1] & ok[:-1, 1:] & ok[1:, 1:] & ok[1:, :-1]
    above = f >= level
    code = (above[:-1, :-1] | above[:-1, 1:] << 1
            | above[1:, 1:] << 2 | above[1:, :-1] << 3) * ok
    segs = []          # (edge_key_a, point_a, edge_key_b, point_b)
    iys, ixs = np.nonzero((code != 0) & (code != 15))
    for iy, ix, mask in zip(iys.tolist(), ixs.tolist(), code[iys, ixs].tolist()):
        v = (f[iy, ix], f[iy, ix + 1], f[iy + 1, ix + 1], f[iy + 1, ix])
        x0, x1 = xs[ix], xs[ix + 1]
        y0, y1 = ys[iy], ys[iy + 1]
        # edge crossings: bottom, right, top, left
        pts = {}
        if (mask & 1) != (mask >> 1 & 1):
            pts["b"] = (("h", ix, iy), _interp(x0, y0, v[0], x1, y0, v[1], level))
        if (mask >> 1 & 1) != (mask >> 2 & 1):
            pts["r"] = (("v", ix + 1, iy), _interp(x1, y0, v[1], x1, y1, v[2], level))
        if (mask >> 3 & 1) != (mask >> 2 & 1):
            pts["t"] = (("h", ix, iy + 1), _interp(x0, y1, v[3], x1, y1, v[2], level))
        if (mask & 1) != (mask >> 3 & 1):
            pts["l"] = (("v", ix, iy), _interp(x0, y0, v[0], x0, y1, v[3], level))
        ks = sorted(pts.keys())
        if len(ks) == 2:
            a, b = pts[ks[0]], pts[ks[1]]
            segs.append((a[0], a[1], b[0], b[1]))
        elif len(ks) == 4:
            # saddle: split by the cell-center value
            center = 0.25 * sum(v)
            if (center >= level) == bool(mask & 1):
                pairs = (("b", "r"), ("t", "l"))
            else:
                pairs = (("b", "l"), ("t", "r"))
            for ka, kb in pairs:
                a, b = pts[ka], pts[kb]
                segs.append((a[0], a[1], b[0], b[1]))
    return _chain(segs)


def _chain(segs) -> list[np.ndarray]:
    by_edge: dict = {}
    for i, (ka, _pa, kb, _pb) in enumerate(segs):
        by_edge.setdefault(ka, []).append(i)
        by_edge.setdefault(kb, []).append(i)
    used = [False] * len(segs)
    polylines = []
    for start in range(len(segs)):
        if used[start]:
            continue
        ka, pa, kb, pb = segs[start]
        used[start] = True
        chain = [pa, pb]
        head_key, tail_key = ka, kb
        # grow forward from the tail, then backward from the head
        for grow_tail in (True, False):
            key = tail_key if grow_tail else head_key
            while True:
                nxt = next((j for j in by_edge.get(key, []) if not used[j]), None)
                if nxt is None:
                    break
                ja, qa, jb, qb = segs[nxt]
                used[nxt] = True
                if ja == key:
                    point, key = qb, jb
                else:
                    point, key = qa, ja
                if grow_tail:
                    chain.append(point)
                else:
                    chain.insert(0, point)
            if grow_tail:
                tail_key = key
            else:
                head_key = key
        if head_key == tail_key and len(chain) > 2:
            chain.append(chain[0])
        polylines.append(np.asarray(chain, dtype=complex))
    return polylines
