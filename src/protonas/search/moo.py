"""Constrained dominance, non-dominated sorting, crowding distance."""

from __future__ import annotations

import math

import numpy as np


def constrained_dominates(a, b) -> bool:
    """Feasibility-first dominance.

    A feasible record beats any infeasible one; two infeasible records
    compare by total violation (lower wins); two feasible records
    compare by Pareto dominance on their objective vectors (all <=,
    at least one <).
    """
    fa, fb = a.feasibility.feasible, b.feasibility.feasible
    if fa and not fb:
        return True
    if fb and not fa:
        return False
    if not fa:
        return a.feasibility.violation < b.feasibility.violation
    le = all(x <= y for x, y in zip(a.objectives, b.objectives))
    lt = any(x < y for x, y in zip(a.objectives, b.objectives))
    return le and lt


def nondominated_sort(records) -> list[list[int]]:
    """Indices grouped into fronts under constrained_dominates; front 0 is
    non-dominated.

    Front 0 is in index order.  A later front's members come in the order
    of the last member of the front before that dominates them (the one
    that releases them), then by index: the order of the pairwise
    peeling of NSGA-II's fast non-dominated sort.  Crowding distance
    breaks its ties by position, so survivors depend on this order.
    """
    n = len(records)
    if n == 0:
        return []
    feasible = np.array([r.feasibility.feasible for r in records])
    violation = np.array([r.feasibility.violation for r in records], dtype=float)
    objectives = np.array([r.objectives for r in records], dtype=float).reshape(n, -1)
    # beats[i, j]: record i constrained-dominates record j
    le = (objectives[:, None, :] <= objectives[None, :, :]).all(axis=2)
    lt = (objectives[:, None, :] < objectives[None, :, :]).any(axis=2)
    both = np.logical_and.outer(feasible, feasible)
    neither = np.logical_and.outer(~feasible, ~feasible)
    beats = (both & le & lt) | np.logical_and.outer(feasible, ~feasible)
    beats |= neither & (violation[:, None] < violation[None, :])
    count = beats.sum(axis=0)
    current = np.flatnonzero(count == 0)
    fronts: list[list[int]] = []
    while len(current):
        fronts.append(current.tolist())
        sub = beats[current]
        count -= sub.sum(axis=0)
        released = np.flatnonzero((count == 0) & sub.any(axis=0))
        # each released member's last dominator in the current front
        last = len(current) - 1 - np.argmax(sub[::-1, released], axis=0)
        current = released[np.lexsort((released, last))]
    return fronts


def crowding_distance(objectives) -> list[float]:
    """NSGA-style crowding distance for one front of objective vectors.

    Boundary points get inf; an objective with zero or non-finite
    spread contributes nothing to interior points.
    """
    n = len(objectives)
    if n == 0:
        return []
    d = len(objectives[0])
    dist = [0.0] * n
    for m in range(d):
        order = sorted(range(n), key=lambda i: objectives[i][m])
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        span = objectives[order[-1]][m] - objectives[order[0]][m]
        if not math.isfinite(span) or span == 0.0:
            continue
        for pos in range(1, n - 1):
            i = order[pos]
            if math.isinf(dist[i]):
                continue
            gap = objectives[order[pos + 1]][m] - objectives[order[pos - 1]][m]
            dist[i] += gap / span
    return dist
