"""Hypervolume: validation, the exact kernel, a Monte Carlo estimator.

The exact kernel is a pure-Python dimension sweep under minimization:
sort by the last objective, sweep the slabs between consecutive values,
and recurse on the dominance-filtered projections of the prefix.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DimensionMismatch

# There is no compiled kernel; the flag stays for callers that report it.
HAVE_COMPILED = False


def _checked(points, ref) -> tuple[list[tuple], tuple]:
    ref_t = tuple(float(v) for v in ref)
    d = len(ref_t)
    if d < 1:
        raise DimensionMismatch("reference point must have at least one dimension")
    if any(not math.isfinite(v) for v in ref_t):
        raise DimensionMismatch("reference point must be finite")
    out = []
    for p in points:
        p_t = tuple(float(v) for v in p)
        if len(p_t) != d:
            raise DimensionMismatch(f"point has {len(p_t)} dims, reference has {d}")
        # Points outside the reference box bound no volume; drop them.
        if all(v <= r for v, r in zip(p_t, ref_t)):
            out.append(p_t)
    return out, ref_t


def _insert_filtered(active: list[tuple], p: tuple) -> None:
    # Keep the active set mutually non-dominated under minimization.
    keep = []
    for q in active:
        if all(qi <= pi for qi, pi in zip(q, p)):
            return  # q dominates (or equals) p; drop p
        if not all(pi <= qi for pi, qi in zip(p, q)):
            keep.append(q)
    keep.append(p)
    active[:] = keep


def _hv2(pts: list[tuple], ref: tuple) -> float:
    best = ref[1]
    vol = 0.0
    for x, y in sorted(pts):
        if y < best:
            vol += (ref[0] - x) * (best - y)
            best = y
    return vol


def _hv_rec(pts: list[tuple], d: int, ref: tuple) -> float:
    """Exact hypervolume of pts, all componentwise <= ref, in the first d
    objectives."""
    if not pts:
        return 0.0
    if d == 1:
        return ref[0] - min(p[0] for p in pts)
    if d == 2:
        return _hv2(pts, ref)
    order = sorted(pts, key=lambda p: p[d - 1])
    total = 0.0
    active: list[tuple] = []
    for i, p in enumerate(order):
        z = p[d - 1]
        z_next = order[i + 1][d - 1] if i + 1 < len(order) else ref[d - 1]
        _insert_filtered(active, p[: d - 1])
        if z_next > z:
            total += (z_next - z) * _hv_rec(active, d - 1, ref)
    return total


def hypervolume(points, ref) -> float:
    """Exact dominated hypervolume under minimization.

    Points violating p <= ref componentwise contribute nothing and are
    dropped.
    """
    pts, ref_t = _checked(points, ref)
    return _hv_rec(pts, len(ref_t), ref_t)


def hv_monte_carlo(points, ref, samples: int = 1_000_000, rng=None) -> float:
    """Monte Carlo hypervolume estimate over the [0, ref] box.

    Independent of the exact kernel on purpose; used to cross-check it.
    Assumes points lie within [0, ref] (the usual normalized setting).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    pts, ref_t = _checked(points, ref)
    if rng is None:
        rng = np.random.default_rng()
    ref_a = np.asarray(ref_t)
    box = float(np.prod(ref_a))
    if not pts:
        return 0.0
    p = np.asarray(pts)
    d = len(ref_t)
    hits = 0
    done = 0
    chunk = 65536
    # one point at a time against the chunk's samples, one objective (a
    # contiguous row of the transposed chunk) at a time, in reused buffers
    dominated, inside, test = (np.empty(min(chunk, samples), dtype=bool) for _ in range(3))
    while done < samples:
        m = min(chunk, samples - done)
        ut = np.ascontiguousarray((rng.random((m, d)) * ref_a).T)
        dom, ins, t = dominated[:m], inside[:m], test[:m]
        dom.fill(False)
        for point in p:
            np.less_equal(point[0], ut[0], out=ins)
            for v, row in zip(point[1:], ut[1:]):
                np.less_equal(v, row, out=t)
                ins &= t
            dom |= ins
        hits += int(np.count_nonzero(dom))
        done += m
    return box * hits / samples
