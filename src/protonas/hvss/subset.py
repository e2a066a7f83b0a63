"""Hypervolume subset selection.

Given a Pareto front P (minimization, typically normalized to [0, 1]
per objective) pick the k points whose joint hypervolume against the
reference point is maximal.  select_subset runs a genetic algorithm
over binary membership genes, repairing and scoring each generation
once per distinct gene; exhaustive_subset is the brute-force oracle
for small instances.  Sets of at most IE_MAX_POINTS points are scored
by exact inclusion-exclusion over numpy arrays, larger ones by the
sweep kernel behind hypervolume.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch, InfeasibleK
from .hv import hypervolume

DEFAULT_REF_VALUE = 1.1


@dataclass
class HssConfig:
    population: int = 2000
    mutation_rate: float = 0.3
    generations: int = 10000
    stagnation: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if not (0.0 <= self.mutation_rate <= 1.0):
            raise ValueError("mutation_rate must lie in [0, 1]")
        if self.generations < 1 or self.stagnation < 1:
            raise ValueError("generations and stagnation must be >= 1")


@dataclass
class SubsetGene:
    """Binary membership vector over the front; repair enforces sum == k."""

    bits: np.ndarray
    k: int

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool).copy()
        if self.bits.ndim != 1:
            raise ValueError("bits must be one-dimensional")

    def indices(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.bits)]


def default_reference(d: int) -> tuple[float, ...]:
    return (DEFAULT_REF_VALUE,) * d


def _reference(p: np.ndarray, ref) -> np.ndarray:
    r = np.asarray(default_reference(p.shape[1]) if ref is None else ref, dtype=float)
    if r.shape != (p.shape[1],) or not np.isfinite(r).all():
        raise DimensionMismatch(f"reference point must hold {p.shape[1]} finite values")
    return r


def normalize_objectives(points) -> np.ndarray:
    """Min-max normalize each objective over the set; constant -> 0."""
    p = np.asarray(points, dtype=float)
    if p.ndim != 2:
        raise ValueError("expected a 2-D array of objective vectors")
    lo = p.min(axis=0)
    span = p.max(axis=0) - lo
    out = np.zeros_like(p)
    nz = span > 0
    out[:, nz] = (p[:, nz] - lo[nz]) / span[nz]
    return out


# Up to this many points, exact inclusion-exclusion over numpy arrays
# beats the sweep kernel; above it the 2^m terms cost more than the sweep.
IE_MAX_POINTS = 12
# Row t holds the bits of mask t as 0.0/1.0, and _EVEN_SIGN[t] is +1 for
# an even number of set bits, -1 for an odd number.
_MASK_BITS = ((np.arange(1 << IE_MAX_POINTS)[:, None] >> np.arange(IE_MAX_POINTS)) & 1).astype(float)
_EVEN_SIGN = 1.0 - 2.0 * (_MASK_BITS.sum(axis=1) % 2)
# Elements of one under-full gain block (masks x candidates x objectives).
_GAIN_BLOCK = 1 << 18


def _corners(p: np.ndarray) -> np.ndarray:
    """Componentwise max of every subset of the rows of p, by bitmask.

    Row t is the max over the points whose bit is set in t; row 0 (the
    empty subset) is -inf, so max(x, row 0) == x.
    """
    m, d = p.shape
    corners = np.empty((1 << m, d))
    corners[0] = -np.inf
    for j in range(m):
        lo = 1 << j
        np.maximum(corners[:lo], p[j], out=corners[lo : 2 * lo])
    return corners


def _box_volumes(corners: np.ndarray, ref: np.ndarray) -> np.ndarray:
    # Boxes [corner, ref]; a corner outside the reference box bounds nothing.
    return np.prod(np.clip(ref - corners, 0.0, None), axis=-1)


def _ie_hypervolume(p: np.ndarray, ref: np.ndarray) -> float:
    """Exact hypervolume of at most IE_MAX_POINTS points by inclusion-exclusion."""
    corners = _corners(p)
    return -float(_EVEN_SIGN[1 : len(corners)] @ _box_volumes(corners[1:], ref))


class _HvCache:
    """Hypervolume of subsets of a fixed front, memoized by membership."""

    def __init__(self, points: np.ndarray, ref: np.ndarray):
        self.points = points
        self.ref = ref
        self._table: dict[bytes, float] = {}

    def of_indices(self, idx) -> float:
        """Uncached hypervolume of the points at idx."""
        if len(idx) <= IE_MAX_POINTS:
            return _ie_hypervolume(self.points[idx], self.ref)
        return hypervolume(self.points[idx], self.ref)

    def of_packed(self, key: bytes) -> float:
        """Hypervolume of the subset whose np.packbits membership is key."""
        hit = self._table.get(key)
        if hit is None:
            bits = np.unpackbits(np.frombuffer(key, np.uint8), count=len(self.points))
            hit = self._table[key] = self.of_indices(np.flatnonzero(bits))
        return hit

    def removal_losses(self, on: np.ndarray) -> np.ndarray:
        """Hypervolume lost when each member of `on` alone is removed.

        Members that another member weakly dominates lose exactly 0.
        """
        if len(on) > IE_MAX_POINTS:
            return self.sweep_losses(on, range(len(on)))
        p = self.points[on]
        m = len(on)
        terms = np.zeros(1 << m)
        terms[1:] = _EVEN_SIGN[1 : 1 << m] * _box_volumes(_corners(p)[1:], self.ref)
        # the terms of the masks holding bit j sum to minus j's exclusive volume
        losses = -(terms @ _MASK_BITS[: 1 << m, :m])
        dominated = (p[None, :, :] <= p[:, None, :]).all(axis=2)
        np.fill_diagonal(dominated, False)
        losses[dominated.any(axis=1)] = 0.0
        return losses

    def sweep_losses(self, on: np.ndarray, members) -> np.ndarray:
        """removal_losses of on[j] for j in members, by the sweep kernel."""
        p = self.points[on]
        full = hypervolume(p, self.ref)
        return np.array([full - hypervolume(np.delete(p, j, axis=0), self.ref) for j in members])

    def addition_gains(self, on: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """Hypervolume each point of cand adds to the set `on`.

        The gain of b over S is the sum over T subset of S of
        (-1)^|T| vol(box of max(b, max T)).  Candidates a member of S
        weakly dominates gain exactly 0.
        """
        if len(on) >= IE_MAX_POINTS:
            base = self.of_indices(on)
            return np.array([self.of_indices(np.append(on, b)) - base for b in cand])
        corners = _corners(self.points[on])
        c = self.points[cand]
        step = max(1, _GAIN_BLOCK // corners.size)
        volumes = [
            _box_volumes(np.maximum(c[None, lo : lo + step], corners[:, None]), self.ref)
            for lo in range(0, len(c), step)
        ]
        # summed down axis 0, so equal candidates get bit-identical gains
        gains = (_EVEN_SIGN[: len(corners), None] * np.concatenate(volumes, axis=1)).sum(axis=0)
        dominated = (self.points[on][None, :, :] <= c[:, None, :]).all(axis=2).any(axis=1)
        gains[dominated] = 0.0
        return gains


def _repair_bits(bits: np.ndarray, k: int, cache: _HvCache) -> np.ndarray:
    """Force exactly k set bits, steered by hypervolume.

    Over-full genes keep the k members whose individual removal would
    lose the most hypervolume (ties keep the lower index).  Under-full
    genes greedily add the bit with the largest hypervolume gain (ties
    take the lowest index).
    """
    bits = bits.copy()
    on = np.flatnonzero(bits)
    if len(on) > k:
        losses = cache.removal_losses(on)
        zero = np.flatnonzero(losses == 0.0)
        if len(on) - len(zero) < k:
            # The cut falls among members whose removal loses nothing.
            # Their order is a matter of rounding: take the sweep
            # kernel's, which the leave-one-out rule has always used.
            losses[zero] = cache.sweep_losses(on, zero)
        keep = on[np.argsort(-losses, kind="stable")[:k]]
        bits[:] = False
        bits[keep] = True
        on = keep
    while len(on) < k:
        cand = np.flatnonzero(~bits)
        best_bit = cand[int(np.argmax(cache.addition_gains(on, cand)))]
        bits[best_bit] = True
        on = np.flatnonzero(bits)
    return bits


def repair(gene: SubsetGene, points, ref=None) -> SubsetGene:
    """Return a copy of gene with exactly gene.k bits set.

    Raises InfeasibleK when k exceeds the number of points.
    """
    p = np.asarray(points, dtype=float)
    if gene.bits.size != len(p):
        raise ValueError("gene length does not match the point set")
    if gene.k < 1 or gene.k > len(p):
        raise InfeasibleK(f"cannot select {gene.k} of {len(p)} points")
    cache = _HvCache(p, _reference(p, ref))
    return SubsetGene(_repair_bits(gene.bits, gene.k, cache), gene.k)


def _repair_population(genes, k, cache, memo):
    """Repair and score every row of genes, once per distinct row.

    memo maps a gene's packed bits to its repaired gene's packed bits,
    which also key the hypervolume in cache; repair is a pure function of
    the gene, so a gene seen in an earlier generation is not repaired
    again.
    """
    packed = np.packbits(genes, axis=1)
    # one opaque item per row: sorts by memcmp, far faster than axis=0
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    distinct, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    fixed = []
    for j, row in enumerate(distinct):
        key = row.tobytes()
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = np.packbits(_repair_bits(genes[first[j]], k, cache)).tobytes()
        fixed.append(hit)
    hv = np.array([cache.of_packed(f) for f in fixed])
    repaired = np.unpackbits(
        np.frombuffer(b"".join(fixed), np.uint8).reshape(len(fixed), -1),
        axis=1, count=genes.shape[1],
    ).view(bool)
    return repaired[inverse], hv[inverse]


def select_subset(points, k: int, cfg: HssConfig | None = None, ref=None) -> list[int]:
    """GA-based argmax over k-subsets of the front by hypervolume.

    Returns sorted point indices.  k >= |P| short-circuits to the whole
    front; k < 1 raises InfeasibleK.  Deterministic for a fixed cfg.seed.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or len(p) == 0:
        raise InfeasibleK("need a non-empty 2-D point set")
    n = len(p)
    if k < 1:
        raise InfeasibleK(f"cannot select {k} points")
    if k >= n:
        return list(range(n))
    cfg = cfg if cfg is not None else HssConfig()
    cache = _HvCache(p, _reference(p, ref))
    rng = np.random.default_rng(cfg.seed)

    memo: dict[bytes, bytes] = {}
    pop, fitness = _repair_population(rng.random((cfg.population, n)) < (k / n), k, cache, memo)

    best_idx = int(np.argmax(fitness))
    best_bits = pop[best_idx].copy()
    best_hv = float(fitness[best_idx])
    since_improved = 0

    for _ in range(cfg.generations):
        # binary tournaments pick each child's two parents
        cand = rng.integers(cfg.population, size=(cfg.population, 2, 2))
        left = np.where(
            fitness[cand[:, 0, 0]] >= fitness[cand[:, 0, 1]], cand[:, 0, 0], cand[:, 0, 1]
        )
        right = np.where(
            fitness[cand[:, 1, 0]] >= fitness[cand[:, 1, 1]], cand[:, 1, 0], cand[:, 1, 1]
        )
        mask = rng.random((cfg.population, n)) < 0.5
        # bitwise select: np.where on bool arrays is about 10x slower
        children = (pop[left] & mask) | (pop[right] & ~mask)
        mutate = rng.random(cfg.population) < cfg.mutation_rate
        flip_at = rng.integers(n, size=cfg.population)
        at = np.flatnonzero(mutate)
        children[at, flip_at[at]] ^= True
        children, child_fit = _repair_population(children, k, cache, memo)

        merged = np.concatenate([pop, children])
        merged_fit = np.concatenate([fitness, child_fit])
        order = np.argsort(-merged_fit, kind="stable")[: cfg.population]
        pop = merged[order]
        fitness = merged_fit[order]

        if fitness[0] > best_hv:
            best_hv = float(fitness[0])
            best_bits = pop[0].copy()
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= cfg.stagnation:
                break
    return [int(i) for i in np.flatnonzero(best_bits)]


def exhaustive_subset(points, k: int, ref=None, limit: int = 2_000_000) -> list[int]:
    """Brute-force optimal k-subset; oracle for small instances."""
    p = np.asarray(points, dtype=float)
    n = len(p)
    if k < 1 or n == 0:
        raise InfeasibleK(f"cannot select {k} of {n} points")
    if k >= n:
        return list(range(n))
    if math.comb(n, k) > limit:
        raise ValueError(f"C({n},{k}) exceeds the exhaustive search limit")
    cache = _HvCache(p, _reference(p, ref))
    best = None
    best_hv = -math.inf
    for combo in itertools.combinations(range(n), k):
        h = cache.of_indices(list(combo))
        if h > best_hv:
            best_hv = h
            best = combo
    return list(best)


def subset_hypervolume(points, indices, ref=None) -> float:
    """Hypervolume of the chosen subset (convenience for reports)."""
    p = np.asarray(points, dtype=float)
    ref_t = tuple(ref) if ref is not None else default_reference(p.shape[1])
    return hypervolume([tuple(p[i]) for i in indices], ref_t)
