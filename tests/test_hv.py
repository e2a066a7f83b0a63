import itertools
import math

import numpy as np
import pytest

from protonas.errors import DimensionMismatch
from protonas.hvss import hv_monte_carlo, hypervolume


def hv_inclusion_exclusion(points, ref):
    """Union volume of the boxes [p, ref] by inclusion-exclusion.

    Exponential in len(points); independent oracle for small sets.
    """
    pts = [p for p in points if all(v <= r for v, r in zip(p, ref))]
    total = 0.0
    for r in range(1, len(pts) + 1):
        for combo in itertools.combinations(pts, r):
            corner = [max(vals) for vals in zip(*combo)]
            vol = 1.0
            for c, rr in zip(corner, ref):
                vol *= max(0.0, rr - c)
            total += (-1) ** (r + 1) * vol
    return total


def test_single_point_rectangle():
    assert hypervolume([(0.0, 0.0)], (1.0, 1.0)) == 1.0
    assert hypervolume([(0.5, 0.5)], (1.0, 1.0)) == 0.25
    assert hypervolume([(0.25,)], (1.0,)) == 0.75


def test_two_point_staircase():
    # 0.5x1 plus 1x0.5 minus the 0.5x0.5 overlap
    v = hypervolume([(0.0, 0.5), (0.5, 0.0)], (1.0, 1.0))
    assert abs(v - 0.75) < 1e-12


def test_empty_set_is_zero():
    assert hypervolume([], (1.0, 1.0)) == 0.0


def test_point_at_reference_bounds_nothing():
    assert hypervolume([(1.0, 1.0)], (1.0, 1.0)) == 0.0


def test_points_outside_box_are_dropped():
    v = hypervolume([(2.0, 0.1), (0.5, 0.5)], (1.0, 1.0))
    assert abs(v - 0.25) < 1e-12
    assert hypervolume([(2.0, 2.0)], (1.0, 1.0)) == 0.0


def test_dominated_point_adds_nothing():
    base = hypervolume([(0.2, 0.3)], (1.0, 1.0))
    v = hypervolume([(0.2, 0.3), (0.5, 0.5)], (1.0, 1.0))
    assert v == base


def test_duplicate_and_permutation_invariance():
    pts = [(0.1, 0.7, 0.3), (0.5, 0.2, 0.6), (0.8, 0.9, 0.1)]
    ref = (1.0, 1.0, 1.0)
    v = hypervolume(pts, ref)
    assert abs(hypervolume(pts[::-1], ref) - v) < 1e-12
    assert abs(hypervolume(pts + [pts[0]], ref) - v) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_matches_inclusion_exclusion_oracle(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(12):
        n = int(rng.integers(1, 9))
        pts = [tuple(rng.random(d)) for _ in range(n)]
        ref = tuple(1.0 + rng.random(d))
        want = hv_inclusion_exclusion(pts, ref)
        got = hypervolume(pts, ref)
        assert abs(got - want) < 1e-9


def test_monte_carlo_cross_check():
    rng = np.random.default_rng(5)
    pts = [tuple(rng.random(4)) for _ in range(12)]
    ref = (1.0,) * 4
    exact = hypervolume(pts, ref)
    est = hv_monte_carlo(pts, ref, samples=200_000, rng=np.random.default_rng(0))
    assert abs(est - exact) < 0.01


def broadcast_monte_carlo(points, ref, samples, rng):
    """The estimator as one broadcast comparison per chunk of samples: an
    (n, chunk, d) bool array.  Kept as the oracle of the per-point form."""
    pts = [p for p in points if all(v <= r for v, r in zip(p, ref))]
    ref_a = np.asarray(ref, dtype=float)
    if not pts:
        return 0.0
    p = np.asarray(pts, dtype=float)
    hits = done = 0
    while done < samples:
        m = min(65536, samples - done)
        u = rng.random((m, len(ref))) * ref_a
        hits += int((p[:, None, :] <= u[None, :, :]).all(axis=2).any(axis=0).sum())
        done += m
    return float(np.prod(ref_a)) * hits / samples


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_monte_carlo_equals_broadcast_formulation_bit_for_bit(d):
    """Same samples, same hit counts: the estimate keeps its bits, on sets
    with duplicates, ties, dominated and out-of-box points, and on a
    sample count that ends in a partial chunk."""
    rng = np.random.default_rng(300 + d)
    for samples in (1, 1000, 150_001):
        pts = [tuple(v) for v in np.round(rng.random((int(rng.integers(1, 15)), d)), 1)]
        pts += [pts[0], tuple(np.minimum(np.array(pts[0]) + 0.1, 1.0)), (1.5,) * d]
        ref = tuple(np.round(0.8 + rng.random(d), 1))
        seed = int(rng.integers(2**32))
        got = hv_monte_carlo(pts, ref, samples=samples, rng=np.random.default_rng(seed))
        want = broadcast_monte_carlo(pts, ref, samples, np.random.default_rng(seed))
        assert got == want


def test_monte_carlo_empty_and_validation():
    assert hv_monte_carlo([], (1.0, 1.0), samples=10) == 0.0
    with pytest.raises(ValueError):
        hv_monte_carlo([(0.5, 0.5)], (1.0, 1.0), samples=0)


def test_reference_validation():
    with pytest.raises(DimensionMismatch):
        hypervolume([(0.5, 0.5)], ())
    with pytest.raises(DimensionMismatch):
        hypervolume([(0.5, 0.5)], (1.0, math.inf))
    with pytest.raises(DimensionMismatch):
        hypervolume([(0.5, 0.5, 0.5)], (1.0, 1.0))


def test_high_dimension_feasibility():
    # the selection workload: small subsets in five objective dimensions
    rng = np.random.default_rng(2)
    pts = [tuple(rng.random(5)) for _ in range(5)]
    v = hypervolume(pts, (1.1,) * 5)
    assert 0.0 < v < 1.1**5
