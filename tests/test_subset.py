import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from protonas.errors import InfeasibleK
from protonas.hvss import (
    HssConfig,
    SubsetGene,
    default_reference,
    exhaustive_subset,
    hypervolume,
    normalize_objectives,
    repair,
    select_subset,
    subset_hypervolume,
)
from protonas.hvss.hv import _hv_rec
from protonas.hvss.subset import (
    IE_MAX_POINTS,
    _box_volumes,
    _HvCache,
    _ie_hypervolume,
    _repair_population,
)


def small_cfg(seed=0):
    return HssConfig(population=60, mutation_rate=0.3, generations=200, stagnation=40, seed=seed)


def test_normalize_objectives():
    pts = [[10.0, 5.0], [20.0, 5.0], [15.0, 5.0]]
    out = normalize_objectives(pts)
    assert out[:, 0].tolist() == [0.0, 1.0, 0.5]
    # constant column maps to zero rather than dividing by zero
    assert out[:, 1].tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        normalize_objectives([1.0, 2.0])


def test_default_reference():
    assert default_reference(3) == (1.1, 1.1, 1.1)


def test_repair_is_identity_on_valid_genes():
    rng = np.random.default_rng(0)
    pts = rng.random((8, 3))
    bits = np.zeros(8, dtype=bool)
    bits[[1, 4, 6]] = True
    fixed = repair(SubsetGene(bits, 3), pts)
    assert fixed.indices() == [1, 4, 6]


def loo_keep(points, on, k, ref):
    """Reference rule: keep the k members whose removal loses the most
    hypervolume; ties keep the lower index."""
    remainder = {
        b: hypervolume([tuple(points[i]) for i in on if i != b], ref) for b in on
    }
    return sorted(sorted(on, key=lambda b: (remainder[b], b))[:k])


def test_repair_overfull_keeps_largest_individual_losses():
    pts = np.array([[0.0, 1.0], [0.45, 0.55], [1.0, 0.0]])
    ref = (1.1, 1.1)
    # dropping the middle point loses the most volume here: it owns the
    # whole box between the two corner points
    assert loo_keep(pts, [0, 1, 2], 2, ref) == [1, 2]
    fixed = repair(SubsetGene(np.ones(3, dtype=bool), 2), pts, ref=ref)
    assert fixed.indices() == [1, 2]


def test_repair_overfull_matches_reference_rule_on_random_sets():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(2, 4))
        pts = rng.random((n, d))
        ref = default_reference(d)
        on = sorted(rng.choice(n, size=int(rng.integers(3, n + 1)), replace=False).tolist())
        k = int(rng.integers(1, len(on)))
        bits = np.zeros(n, dtype=bool)
        bits[on] = True
        fixed = repair(SubsetGene(bits, k), pts, ref=ref)
        assert fixed.indices() == loo_keep(pts, on, k, ref)


def test_repair_underfull_adds_greedy_best():
    pts = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0], [0.9, 0.9]])
    bits = np.zeros(4, dtype=bool)
    fixed = repair(SubsetGene(bits, 1), pts, ref=(1.1, 1.1))
    # the single best point by hypervolume is the balanced one
    best = max(range(4), key=lambda i: hypervolume([tuple(pts[i])], (1.1, 1.1)))
    assert fixed.indices() == [best]


def test_repair_empty_to_full_k():
    rng = np.random.default_rng(1)
    pts = rng.random((10, 3))
    fixed = repair(SubsetGene(np.zeros(10, dtype=bool), 4), pts)
    assert len(fixed.indices()) == 4


def test_repair_always_yields_exactly_k():
    rng = np.random.default_rng(2)
    pts = rng.random((9, 4))
    for _ in range(200):
        bits = rng.random(9) < rng.random()
        k = int(rng.integers(1, 9))
        fixed = repair(SubsetGene(bits.copy(), k), pts)
        assert fixed.bits.sum() == k
        # repairing an already valid gene changes nothing
        again = repair(SubsetGene(fixed.bits.copy(), k), pts)
        assert (again.bits == fixed.bits).all()


def test_repair_tie_break_prefers_lower_index():
    # two duplicate points: identical contributions, lower index wins
    pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 1.0]])
    fixed = repair(SubsetGene(np.ones(3, dtype=bool), 2), pts, ref=(1.1, 1.1))
    assert fixed.indices() == [0, 2]
    under = repair(SubsetGene(np.zeros(3, dtype=bool), 1), pts, ref=(1.1, 1.1))
    assert under.indices() == [0]


def test_repair_rejects_impossible_k():
    pts = np.random.default_rng(0).random((4, 2))
    with pytest.raises(InfeasibleK):
        repair(SubsetGene(np.zeros(4, dtype=bool), 5), pts)
    with pytest.raises(InfeasibleK):
        repair(SubsetGene(np.zeros(4, dtype=bool), 0), pts)


def brute_best(points, k, ref):
    best = None
    best_hv = -1.0
    for combo in itertools.combinations(range(len(points)), k):
        h = hypervolume([tuple(points[i]) for i in combo], ref)
        if h > best_hv + 1e-15:
            best_hv = h
            best = list(combo)
    return best, best_hv


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_select_matches_exhaustive_on_small_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 11))
    d = int(rng.integers(2, 5))
    pts = rng.random((n, d))
    ref = default_reference(d)
    for k in (1, 2, 3):
        got = select_subset(pts, k, small_cfg(seed), ref)
        _, want_hv = brute_best(pts, k, ref)
        got_hv = subset_hypervolume(pts, got, ref)
        assert got_hv >= want_hv - 1e-9
        oracle = exhaustive_subset(pts, k, ref)
        assert abs(subset_hypervolume(pts, oracle, ref) - want_hv) < 1e-12


def test_select_whole_front_short_circuit():
    pts = np.random.default_rng(3).random((4, 2))
    assert select_subset(pts, 4, small_cfg()) == [0, 1, 2, 3]
    assert select_subset(pts, 9, small_cfg()) == [0, 1, 2, 3]


def test_select_rejects_bad_k():
    pts = np.random.default_rng(3).random((4, 2))
    with pytest.raises(InfeasibleK):
        select_subset(pts, 0, small_cfg())
    with pytest.raises(InfeasibleK):
        select_subset(np.zeros((0, 2)), 1, small_cfg())


def test_select_deterministic_for_fixed_seed():
    pts = np.random.default_rng(4).random((15, 5))
    a = select_subset(pts, 5, small_cfg(7))
    b = select_subset(pts, 5, small_cfg(7))
    assert a == b


def test_hypervolume_nondecreasing_in_k():
    pts = np.random.default_rng(5).random((12, 3))
    ref = default_reference(3)
    values = []
    for k in range(1, 7):
        idx = select_subset(pts, k, small_cfg(1), ref)
        assert len(idx) == k
        values.append(subset_hypervolume(pts, idx, ref))
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_exhaustive_limit_guard():
    pts = np.random.default_rng(6).random((30, 3))
    with pytest.raises(ValueError):
        exhaustive_subset(pts, 15, limit=1000)


def awkward_points(rng, m, d, ref):
    """m points with duplicates, dominated points and points outside the box."""
    p = rng.random((m, d))
    for i in range(1, m):
        kind = rng.integers(4)
        j = int(rng.integers(i))
        if kind == 0:
            p[i] = p[j]
        elif kind == 1:
            p[i] = np.minimum(p[j] + rng.random(d) * 0.3, ref)
        elif kind == 2:
            p[i, rng.integers(d)] = ref[0] + rng.random()
    return p


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_inclusion_exclusion_matches_sweep(d):
    rng = np.random.default_rng(40 + d)
    ref = np.full(d, 1.1)
    for m in range(IE_MAX_POINTS + 1):
        for _ in range(3):
            p = awkward_points(rng, m, d, ref)
            inside = [tuple(row) for row in p if (row <= ref).all()]
            want = _hv_rec(inside, d, tuple(ref))
            got = _ie_hypervolume(p, ref)
            assert abs(got - want) <= 1e-12 * abs(want), (m, got, want)


def packed_of(n, idx):
    bits = np.zeros(n, dtype=bool)
    bits[list(idx)] = True
    return np.packbits(bits).tobytes()


def test_batched_repair_steps_match_cached_hypervolume():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(4, 20))
        d = int(rng.integers(2, 6))
        ref = np.full(d, 1.1)
        pts = awkward_points(rng, n, d, ref)
        cache = _HvCache(pts, ref)
        m = int(rng.integers(0, min(n, IE_MAX_POINTS)))
        on = np.sort([rng.choice(n, size=m, replace=False) for _ in range(3)], axis=1).reshape(3, m)

        def hv(idx):
            return cache.of_packed([packed_of(n, idx)])[0]

        for row, losses, gains in zip(on, cache.removal_losses(on), cache.addition_gains(on)):
            full = hv(row)
            for j, loss in enumerate(losses):
                assert abs((full - loss) - hv(np.delete(row, j))) <= 1e-12
            assert (gains[row] == -np.inf).all()
            for b in np.setdiff1d(np.arange(n), row):
                assert abs((full + gains[b]) - hv(np.append(row, b))) <= 1e-12


# The per-gene repair that the batched one replaced, kept as the oracle:
# batching must not move a single bit of any loss, gain, repair or
# hypervolume.
ORACLE_BITS = ((np.arange(1 << IE_MAX_POINTS)[:, None] >> np.arange(IE_MAX_POINTS)) & 1).astype(float)
ORACLE_SIGN = 1.0 - 2.0 * (ORACLE_BITS.sum(axis=1) % 2)


def oracle_corners(p):
    m, d = p.shape
    corners = np.empty((1 << m, d))
    corners[0] = -np.inf
    for j in range(m):
        lo = 1 << j
        np.maximum(corners[:lo], p[j], out=corners[lo : 2 * lo])
    return corners


def oracle_volumes(corners, ref):
    return np.prod(np.clip(ref - corners, 0.0, None), axis=-1)


@pytest.mark.parametrize("d", range(1, 9))
def test_box_volumes_have_the_bytes_of_np_prod(d):
    """The left-to-right product over the objective axis is np.prod's,
    byte for byte, on sides clipped to zero, exactly zero, or tiny
    enough to underflow."""
    rng = np.random.default_rng(d)
    for scale in (1.0, 1e-100):  # sides near 1e-100 underflow from d = 4
        ref = np.full(d, 1.1 * scale)
        corners = rng.random((5, 37, d)) * 1.4 * scale  # some beyond ref: clipped sides
        corners[rng.random(corners.shape) < 0.1] = 1.1 * scale  # zero sides
        want = np.prod(np.clip(ref - corners, 0.0, None), axis=-1)
        got = _box_volumes(corners.copy(), ref)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_box_volumes_make_no_temporary_of_the_corners_size():
    """The sides overwrite the corners: a second block-sized temporary per
    call made malloc return memory to the OS and fault it in again."""
    rng = np.random.default_rng(0)
    # 256 KiB of corners, some outside the reference box
    corners = rng.random((64, 32, 16)) * 1.2
    ref = np.full(16, 1.1)
    want = oracle_volumes(corners, ref)
    tracemalloc.start()
    try:
        got = _box_volumes(corners, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < corners.nbytes // 2


def oracle_hv(pts, idx, ref):
    if len(idx) <= IE_MAX_POINTS:
        corners = oracle_corners(pts[idx])
        return -float(ORACLE_SIGN[1 : len(corners)] @ oracle_volumes(corners[1:], ref))
    return hypervolume(pts[idx], ref)


def oracle_sweep_losses(pts, on, members, ref):
    p = pts[on]
    full = hypervolume(p, ref)
    return np.array([full - hypervolume(np.delete(p, j, axis=0), ref) for j in members])


def oracle_losses(pts, on, ref):
    if len(on) > IE_MAX_POINTS:
        return oracle_sweep_losses(pts, on, range(len(on)), ref)
    p = pts[on]
    m = len(on)
    terms = np.zeros(1 << m)
    terms[1:] = ORACLE_SIGN[1 : 1 << m] * oracle_volumes(oracle_corners(p)[1:], ref)
    losses = -(terms @ ORACLE_BITS[: 1 << m, :m])
    dominated = (p[None, :, :] <= p[:, None, :]).all(axis=2)
    np.fill_diagonal(dominated, False)
    losses[dominated.any(axis=1)] = 0.0
    return losses


def oracle_gains(pts, on, cand, ref):
    if len(on) >= IE_MAX_POINTS:
        base = oracle_hv(pts, on, ref)
        return np.array([oracle_hv(pts, np.append(on, b), ref) - base for b in cand])
    corners = oracle_corners(pts[on])
    c = pts[cand]
    step = max(1, (1 << 18) // corners.size)
    volumes = [
        oracle_volumes(np.maximum(c[None, lo : lo + step], corners[:, None]), ref)
        for lo in range(0, len(c), step)
    ]
    gains = (ORACLE_SIGN[: len(corners), None] * np.concatenate(volumes, axis=1)).sum(axis=0)
    dominated = (pts[on][None, :, :] <= c[:, None, :]).all(axis=2).any(axis=1)
    gains[dominated] = 0.0
    return gains


def oracle_repair(pts, bits, k, ref, tie_cuts):
    bits = bits.copy()
    on = np.flatnonzero(bits)
    if len(on) > k:
        losses = oracle_losses(pts, on, ref)
        zero = np.flatnonzero(losses == 0.0)
        if len(on) - len(zero) < k:
            tie_cuts.append(len(on))
            losses[zero] = oracle_sweep_losses(pts, on, zero, ref)
        keep = on[np.argsort(-losses, kind="stable")[:k]]
        bits[:] = False
        bits[keep] = True
        on = keep
    while len(on) < k:
        cand = np.flatnonzero(~bits)
        bits[cand[int(np.argmax(oracle_gains(pts, on, cand, ref)))]] = True
        on = np.flatnonzero(bits)
    return bits


# A 64-element block splits every batch into single rows and candidate
# blocks of two.
@pytest.mark.parametrize("seed, block", [(0, None), (1, 64), (2, None), (3, 64)])
def test_batched_repair_equals_per_gene_repair(seed, block, monkeypatch):
    import protonas.hvss.subset as subset_mod

    if block is not None:
        monkeypatch.setattr(subset_mod, "_BLOCK", block)
    rng = np.random.default_rng(70 + seed)
    # an odd front whose last point lies inside the box, so that a lone
    # last candidate has a gain to get right
    n = 2 * int(rng.integers(7, 11)) + 1
    d = int(rng.integers(2, 6))
    ref = np.full(d, 1.1)
    pts = np.vstack([awkward_points(rng, n - 1, d, ref), rng.random(d)])
    cache = _HvCache(pts, ref)
    # losses and gains of sets of every size the batched kernels take
    for m in range(IE_MAX_POINTS + 2):
        on = np.sort([rng.choice(n, size=m, replace=False) for _ in range(5)], axis=1).reshape(5, m)
        gains = cache.addition_gains(on) if m <= IE_MAX_POINTS else [None] * 5
        for row, losses, row_gains in zip(on, cache.removal_losses(on), gains):
            assert (losses == oracle_losses(pts, row, ref)).all()
            if row_gains is not None:
                cand = np.setdiff1d(np.arange(n), row)
                assert (row_gains[cand] == oracle_gains(pts, row, cand, ref)).all()
    # whole populations: empty, valid, over-full past IE_MAX_POINTS and
    # random genes; k = 13 steps under-full genes past IE_MAX_POINTS
    tie_cuts = []
    for k, genes in ((1, 80), (3, 80), (5, 80), (13, 6)):
        pop = rng.random((genes, n)) < rng.random((genes, 1))
        pop[0] = False
        pop[1] = False
        pop[1, rng.choice(n, size=k, replace=False)] = True
        pop[2] = True
        repaired, hv = _repair_population(pop, k, cache, {})
        for gene, got, got_hv in zip(pop, repaired, hv):
            want = oracle_repair(pts, gene, k, ref, tie_cuts)
            assert (got == want).all()
            assert got_hv == oracle_hv(pts, np.flatnonzero(want), ref)
    # some over-full genes cut among members that lose nothing
    assert tie_cuts


def sphere_front(seed, n, d):
    """Seeded points on the positive unit sphere, min-max normalized."""
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        g = [abs(rng.gauss(0.0, 1.0)) for _ in range(d)]
        norm = math.sqrt(sum(v * v for v in g))
        pts.append([v / norm for v in g])
    return normalize_objectives(pts)


def test_select_default_config_on_realistic_front():
    # 350 mutually non-dominated 5-D points, the front size a 500-trial
    # search produces.  The golden indices come from the earlier
    # sweep-kernel implementation, which took over 100 s on a 2-CPU host.
    front = sphere_front(350, 350, 5)
    t0 = time.perf_counter()
    got = select_subset(front, 5, HssConfig(generations=1))
    elapsed = time.perf_counter() - t0
    assert got == [85, 148, 234, 300, 346]
    assert elapsed < 20.0, f"default-config select took {elapsed:.1f}s"


def test_select_full_default_run_on_realistic_front():
    # The default HssConfig run to stagnation (it stops at generation
    # 500) on the 350-point front above.  The earlier implementation,
    # which repaired every gene of every generation, picked the same
    # indices in 38-42 s on a 2-CPU x86 host; this one takes 5-8 s there.
    front = sphere_front(350, 350, 5)
    t0 = time.perf_counter()
    got = select_subset(front, 5, HssConfig())
    elapsed = time.perf_counter() - t0
    assert got == [85, 148, 234, 300, 346]
    assert elapsed < 15.0, f"full default-config select took {elapsed:.1f}s"


def test_repair_runs_once_per_distinct_gene(monkeypatch):
    import protonas.hvss.subset as subset_mod

    real = subset_mod._repair_rows
    seen = []

    def counting(bits, k, cache):
        seen.extend(np.packbits(row).tobytes() for row in bits)
        return real(bits, k, cache)

    monkeypatch.setattr(subset_mod, "_repair_rows", counting)
    cfg = HssConfig(population=200, generations=20, stagnation=1000, seed=3)
    got = select_subset(sphere_front(3, 16, 5), 5, cfg)
    assert len(got) == 5
    assert len(seen) == len(set(seen))
    # 21 populations of 200 genes were repaired; most of them repeat
    assert 0 < len(seen) < 21 * 200 // 2


# Selections of the implementation that repaired every gene of every
# generation; deduplicating the population must not move any of them.
DEFAULT_CFG_GOLDEN = {1: [1, 4, 6, 14, 15], 2: [5, 6, 7, 9, 10], 3: [0, 1, 4, 5, 9]}
SMALL_POP_GOLDEN = {
    (1, 1): [1, 3, 5, 7, 14], (1, 6): [1, 3, 7, 12, 14], (1, 50): [1, 3, 7, 12, 14],
    (2, 1): [1, 2, 9, 12, 13], (2, 6): [1, 2, 9, 12, 13], (2, 50): [1, 2, 9, 12, 13],
    (3, 1): [0, 1, 6, 13, 15], (3, 6): [0, 1, 5, 11, 15], (3, 50): [0, 1, 5, 11, 15],
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("generations", [1, 6, 50])
def test_deduplicated_select_keeps_earlier_selections(seed, generations):
    front = sphere_front(seed, 16, 5)
    got = select_subset(front, 5, HssConfig(generations=generations, seed=seed))
    assert got == DEFAULT_CFG_GOLDEN[seed]
    # a population of 8 on a front with dominated points: the answer
    # still changes between generations, so every step is compared
    pts = np.random.default_rng(seed).random((16, 5))
    cfg = HssConfig(population=8, generations=generations, stagnation=500, seed=seed)
    assert select_subset(pts, 5, cfg) == SMALL_POP_GOLDEN[seed, generations]
