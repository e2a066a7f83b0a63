"""Hypervolume front door: validation, the exact kernel, MC estimator."""

from __future__ import annotations

import math

import numpy as np

from ..errors import DimensionMismatch
from . import _hv_py

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


def hypervolume(points, ref) -> float:
    """Exact dominated hypervolume under minimization.

    Points violating p <= ref componentwise contribute nothing and are
    dropped.
    """
    pts, ref_t = _checked(points, ref)
    return _hv_py.hv_exact(pts, ref_t)


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
    hits = 0
    done = 0
    chunk = 65536
    while done < samples:
        m = min(chunk, samples - done)
        u = rng.random((m, len(ref_t))) * ref_a
        dominated = (p[:, None, :] <= u[None, :, :]).all(axis=2).any(axis=0)
        hits += int(dominated.sum())
        done += m
    return box * hits / samples
