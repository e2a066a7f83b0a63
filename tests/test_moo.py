import math
from dataclasses import dataclass

import numpy as np

from protonas.costmodel import Feasibility
from protonas.search import crowding_distance, nondominated_sort
from protonas.search.run import compute_pareto_indices
from conftest import constrained_dominates


@dataclass
class Rec:
    feasibility: Feasibility
    objectives: tuple


def feas(*objectives):
    return Rec(Feasibility(True, 0.0), tuple(objectives))


def infeas(violation, *objectives):
    return Rec(Feasibility(False, violation), tuple(objectives))


def test_dominance_truth_table():
    assert constrained_dominates(feas(1, 2), feas(2, 3))
    assert constrained_dominates(feas(1, 2), feas(1, 3))  # tie on one axis
    assert not constrained_dominates(feas(1, 2), feas(1, 2))  # equal vectors
    assert not constrained_dominates(feas(1, 3), feas(2, 2))  # trade-off
    assert not constrained_dominates(feas(2, 3), feas(1, 2))


def test_dominance_feasibility_first():
    good = feas(100, 100)
    bad = infeas(0.1, 0, 0)
    assert constrained_dominates(good, bad)
    assert not constrained_dominates(bad, good)
    # infeasible pair compares by violation regardless of objectives
    assert constrained_dominates(infeas(0.1, 9, 9), infeas(0.5, 0, 0))
    assert not constrained_dominates(infeas(0.5, 0, 0), infeas(0.1, 9, 9))
    assert not constrained_dominates(infeas(0.3, 1, 1), infeas(0.3, 2, 2))


def brute_fronts(records):
    """Peel non-dominated layers by direct definition."""
    remaining = list(range(len(records)))
    fronts = []
    while remaining:
        layer = [
            i
            for i in remaining
            if not any(
                constrained_dominates(records[j], records[i]) for j in remaining if j != i
            )
        ]
        fronts.append(sorted(layer))
        remaining = [i for i in remaining if i not in layer]
    return fronts


def test_sort_matches_peeling_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        records = []
        for _ in range(rng.integers(2, 25)):
            if rng.random() < 0.25:
                records.append(infeas(float(rng.integers(1, 5)) / 4, *rng.integers(0, 5, 3)))
            else:
                records.append(feas(*rng.integers(0, 5, 3).tolist()))
        got = [sorted(f) for f in nondominated_sort(records)]
        assert got == brute_fronts(records)
        assert sorted(i for f in got for i in f) == list(range(len(records)))


def test_pareto_indices_match_the_pairwise_definition():
    """The front is every feasible record that no other record dominates,
    in index order, on records with ties, duplicates, equal violations,
    inf objectives, no feasible record, or none at all."""
    rng = np.random.default_rng(1)
    values = [0.0, 1.0, 2.0, math.inf]
    sizes = [0, 1, 2] + rng.integers(3, 40, 200).tolist()
    for n in sizes:
        records = []
        share = rng.choice([0.0, 0.3, 1.0])  # all, some or no infeasible records
        for _ in range(n):
            objectives = [values[k] for k in rng.integers(0, 4, 5)]
            if records and rng.random() < 0.1:  # a duplicate
                records.append(records[rng.integers(len(records))])
            elif rng.random() < share:
                records.append(infeas(float(rng.integers(1, 3)), *objectives))
            else:
                records.append(feas(*objectives))
        want = [
            i for i, r in enumerate(records)
            if r.feasibility.feasible
            and not any(constrained_dominates(o, r) for j, o in enumerate(records) if j != i)
        ]
        assert compute_pareto_indices(records) == want


def pairwise_fronts(records):
    """NSGA-II's fast non-dominated sort as a pairwise loop: the reference
    for nondominated_sort's fronts and the order of their members."""
    n = len(records)
    dominated_by = [[] for _ in range(n)]
    count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if constrained_dominates(records[i], records[j]):
                dominated_by[i].append(j)
                count[j] += 1
            elif constrained_dominates(records[j], records[i]):
                dominated_by[j].append(i)
                count[i] += 1
    fronts = []
    current = [i for i in range(n) if count[i] == 0]
    while current:
        fronts.append(current)
        nxt = []
        for i in current:
            for j in dominated_by[i]:
                count[j] -= 1
                if count[j] == 0:
                    nxt.append(j)
        current = nxt
    return fronts


def test_sort_fronts_and_their_order_match_the_pairwise_loop():
    """Fronts compared as lists, unsorted: crowding distance breaks ties
    by position, so the order of a front's members decides survivors.
    Records have ties, duplicates, equal violations and inf objectives;
    some sets have no feasible record, some no infeasible one."""
    rng = np.random.default_rng(2)
    values = [0.0, 1.0, 2.0, math.inf]
    sizes = [0, 1, 2] + rng.integers(3, 60, 150).tolist() + [100, 200, 300]
    for n in sizes:
        records = []
        share = rng.choice([0.0, 0.3, 1.0])
        dims = rng.integers(1, 6)
        for _ in range(n):
            objectives = [values[k] for k in rng.integers(0, 4, dims)]
            if records and rng.random() < 0.1:  # a duplicate
                records.append(records[rng.integers(len(records))])
            elif rng.random() < share:
                violation = [0.5, 1.0, math.inf][rng.integers(3)]
                records.append(infeas(violation, *objectives))
            else:
                records.append(feas(*objectives))
        assert nondominated_sort(records) == pairwise_fronts(records)


def test_sort_single_front_when_incomparable():
    records = [feas(0, 3), feas(1, 2), feas(2, 1), feas(3, 0)]
    assert nondominated_sort(records) == [[0, 1, 2, 3]]


def test_sort_chain_gives_singleton_fronts():
    records = [feas(3, 3), feas(1, 1), feas(2, 2)]
    assert nondominated_sort(records) == [[1], [2], [0]]


def test_crowding_boundaries_infinite():
    pts = [(0.0, 3.0), (1.0, 2.0), (2.0, 1.0), (3.0, 0.0)]
    d = crowding_distance(pts)
    assert math.isinf(d[0]) and math.isinf(d[3])
    assert all(math.isfinite(v) for v in d[1:3])


def test_crowding_middle_point_value():
    # per objective the middle point spans the whole range: 1 + 1
    pts = [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]
    d = crowding_distance(pts)
    assert math.isinf(d[0]) and math.isinf(d[2])
    assert abs(d[1] - 2.0) < 1e-12


def test_crowding_prefers_sparse_interior():
    pts = [(0.0, 0.0), (0.1, 0.1), (0.5, 0.5), (1.0, 1.0)]
    d = crowding_distance(pts)
    assert d[2] > d[1]


def test_crowding_constant_objective_ignored():
    pts = [(0.0, 7.0), (0.5, 7.0), (1.0, 7.0)]
    d = crowding_distance(pts)
    assert math.isinf(d[0]) and math.isinf(d[2])
    assert abs(d[1] - 1.0) < 1e-12


def test_crowding_handles_infinite_objective_span():
    # the inf-valued point is a boundary; the inf span silences that
    # objective for interior points instead of poisoning them
    pts = [(0.0, 1.0), (0.3, math.inf), (0.6, 5.0), (1.0, 2.0)]
    d = crowding_distance(pts)
    assert math.isinf(d[0]) and math.isinf(d[1]) and math.isinf(d[3])
    assert abs(d[2] - 0.7) < 1e-12


def test_crowding_empty_and_tiny():
    assert crowding_distance([]) == []
    assert crowding_distance([(1.0, 2.0)]) == [math.inf]
