"""Pure-Python exact hypervolume kernel (minimization, dimension sweep).

Sort by the last objective, sweep the slabs between consecutive values,
and recurse on the dominance-filtered projections of the prefix.
"""

from __future__ import annotations


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


def hv_exact(points, ref) -> float:
    """Exact hypervolume of `points` against reference `ref`.

    points: sequence of length-d sequences, all componentwise <= ref.
    """
    pts = [tuple(float(v) for v in p) for p in points]
    ref = tuple(float(v) for v in ref)
    return _hv_rec(pts, len(ref), ref)
