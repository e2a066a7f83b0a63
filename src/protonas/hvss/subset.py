"""Hypervolume subset selection.

Given a Pareto front P (minimization, typically normalized to [0, 1]
per objective) pick the k points whose joint hypervolume against the
reference point is maximal.  select_subset runs a genetic algorithm
over binary membership genes.  Each gene is repaired to exactly k
members, steered by hypervolume (_repair_rows), and scored by the
hypervolume of its members, once per distinct gene.  Sets of at most
IE_MAX_POINTS points are scored by exact inclusion-exclusion over numpy
arrays, larger ones by the sweep kernel behind hypervolume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DimensionMismatch, InfeasibleK
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
            raise ConfigError("hss.population: must be >= 2")
        if not (0.0 <= self.mutation_rate <= 1.0):
            raise ConfigError("hss.mutation_rate: must lie in [0, 1]")
        if self.generations < 1 or self.stagnation < 1:
            raise ConfigError("hss.generations and hss.stagnation: must be >= 1")
        if self.seed < 0:
            raise ConfigError("hss.seed: must be >= 0")


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
# Elements of one batched temporary (masks x rows x candidates x
# objectives): larger blocks raise peak memory and gain no speed.
_BLOCK = 1 << 15


def _row_blocks(rows: int, per_row: int) -> list[slice]:
    """Slices over rows, each covering at most _BLOCK // per_row rows (at least one)."""
    step = max(1, _BLOCK // per_row)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _count_groups(counts: np.ndarray):
    """(m, rows) for each distinct value m of counts, ascending, with rows
    the positions where counts == m.

    np.bincount, not np.unique: on integers np.unique imports numpy.ma,
    which costs 1.5 MB of peak memory.
    """
    for m in np.flatnonzero(np.bincount(counts)):
        yield int(m), np.flatnonzero(counts == m)


def _members(bits: np.ndarray, m: int) -> np.ndarray:
    """(G, m) sorted member indices of rows of bits that each hold m set bits."""
    return np.nonzero(bits)[1].reshape(len(bits), m)


def _corners(p: np.ndarray) -> np.ndarray:
    """Componentwise max of every subset of each of G sets of m points, by bitmask.

    p is (G, m, d).  Row t of the (2^m, G, d) result is, per set, the max
    over the points whose bit is set in t; row 0 (the empty subset) is
    -inf, so max(x, row 0) == x.
    """
    g, m, d = p.shape
    corners = np.empty((1 << m, g, d))
    corners[0] = -np.inf
    for j in range(m):
        lo = 1 << j
        np.maximum(corners[:lo], p[:, j], out=corners[lo : 2 * lo])
    return corners


def _box_volumes(corners: np.ndarray, ref: np.ndarray) -> np.ndarray:
    # Boxes [corner, ref]; a corner outside the reference box bounds nothing.
    # The sides overwrite corners, which every caller builds for this
    # call: a second temporary of its size made malloc return memory to
    # the OS and fault it in again, on some heap layouts at every call.
    sides = np.clip(np.subtract(ref, corners, out=corners), 0.0, None, out=corners)
    # np.prod(sides, axis=-1)'s left-to-right product, one pass a side:
    # the reduction calls its inner loop once per box
    volumes = sides[..., 0].copy()
    for a in range(1, sides.shape[-1]):
        volumes *= sides[..., a]
    return volumes


def _volume_rows(p: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """(G, 2^m - 1): box volumes of the non-empty corners of each set in p.

    One contiguous row per set: the dot products over a row are taken
    per set, because one batched matrix product rounds differently from
    the product for a lone set.
    """
    return np.ascontiguousarray(_box_volumes(_corners(p)[1:], ref).T)


def _ie_hypervolume(p: np.ndarray, ref: np.ndarray) -> float:
    """Exact hypervolume of at most IE_MAX_POINTS points by inclusion-exclusion."""
    return -float(_EVEN_SIGN[1 : 1 << len(p)] @ _volume_rows(p[None], ref)[0])


class _HvCache:
    """Hypervolume of subsets of a fixed front, memoized by membership.

    The batched methods take G sets of m members each as a (G, m) array
    of sorted point indices.
    """

    def __init__(self, points: np.ndarray, ref: np.ndarray):
        self.points = points
        self.ref = ref
        self._table: dict[bytes, float] = {}

    def of_indices(self, idx) -> float:
        """Uncached hypervolume of the points at idx."""
        if len(idx) <= IE_MAX_POINTS:
            return _ie_hypervolume(self.points[idx], self.ref)
        return hypervolume(self.points[idx], self.ref)

    def of_rows(self, bits: np.ndarray) -> np.ndarray:
        """Uncached hypervolume of the subset marked in each row of bits."""
        hv = np.empty(len(bits))
        for m, rows in _count_groups(bits.sum(axis=1)):
            on = _members(bits[rows], m)
            if m > IE_MAX_POINTS:
                hv[rows] = [hypervolume(self.points[idx], self.ref) for idx in on]
                continue
            for blk in _row_blocks(len(on), (1 << m) * self.points.shape[1]):
                volumes = _volume_rows(self.points[on[blk]], self.ref)
                hv[rows[blk]] = [-float(_EVEN_SIGN[1 : 1 << m] @ v) for v in volumes]
        return hv

    def of_packed(self, keys: list[bytes]) -> np.ndarray:
        """Hypervolumes of the subsets whose np.packbits memberships are keys."""
        new = [key for key in dict.fromkeys(keys) if key not in self._table]
        if new:
            bits = np.unpackbits(
                np.frombuffer(b"".join(new), np.uint8).reshape(len(new), -1),
                axis=1, count=len(self.points),
            ).view(bool)
            self._table.update(zip(new, self.of_rows(bits)))
        return np.array([self._table[key] for key in keys])

    def removal_losses(self, on: np.ndarray) -> np.ndarray:
        """(G, m): hypervolume each set loses when each member alone is removed.

        Members that another member weakly dominates lose exactly 0.
        """
        g, m = on.shape
        if m > IE_MAX_POINTS:
            return np.array([self.sweep_losses(idx, range(m)) for idx in on])
        losses = np.empty((g, m))
        for blk in _row_blocks(g, (1 << m) * self.points.shape[1]):
            p = self.points[on[blk]]
            terms = np.zeros((len(p), 1 << m))
            terms[:, 1:] = _EVEN_SIGN[1 : 1 << m] * _volume_rows(p, self.ref)
            # the terms of the masks holding bit j sum to minus j's exclusive
            # volume; one product per set keeps a lone set's rounding
            losses[blk] = [-(t @ _MASK_BITS[: 1 << m, :m]) for t in terms]
            dominated = (p[:, None, :, :] <= p[:, :, None, :]).all(axis=3)
            dominated[:, range(m), range(m)] = False
            losses[blk][dominated.any(axis=2)] = 0.0
        return losses

    def sweep_losses(self, on: np.ndarray, members) -> np.ndarray:
        """removal_losses of on[j] for j in members, by the sweep kernel."""
        p = self.points[on]
        full = hypervolume(p, self.ref)
        return np.array([full - hypervolume(np.delete(p, j, axis=0), self.ref) for j in members])

    def addition_gains(self, on: np.ndarray) -> np.ndarray:
        """(G, n): hypervolume each front point adds to each set; members get -inf.

        The gain of b over S is the sum over T subset of S of
        (-1)^|T| vol(box of max(b, max T)).  Points a member of S weakly
        dominates gain exactly 0.
        """
        g, m = on.shape
        n, d = self.points.shape
        gains = np.full((g, n), -np.inf)
        if m >= IE_MAX_POINTS:
            for row, idx in zip(gains, on):
                base = self.of_indices(idx)
                free = np.ones(n, dtype=bool)
                free[idx] = False
                for b in np.flatnonzero(free):
                    row[b] = self.of_indices(np.append(idx, b)) - base
            return gains
        masks = 1 << m
        for blk in _row_blocks(g, masks * n * d):
            p = self.points[on[blk]]
            corners = _corners(p)[:, :, None, :]
            step = max(2, _BLOCK // (masks * len(p) * d))
            for lo in range(0, n, step):
                # summed mask by mask down axis 0, so equal candidates get
                # bit-identical gains; never one column, which numpy
                # would sum pairwise instead
                cols = slice(max(0, min(lo, n - 2)), lo + step)
                volumes = _box_volumes(np.maximum(self.points[cols], corners), self.ref)
                gains[blk, cols] = (_EVEN_SIGN[:masks, None, None] * volumes).sum(axis=0)
            dominated = (p[:, None, :, :] <= self.points[None, :, None, :]).all(axis=3).any(axis=2)
            gains[blk][dominated] = 0.0
            gains[blk][np.arange(len(p))[:, None], on[blk]] = -np.inf
        return gains


def _repair_rows(bits: np.ndarray, k: int, cache: _HvCache) -> np.ndarray:
    """Force exactly k set bits in each row of bits, steered by hypervolume.

    Over-full rows keep the k members whose individual removal would
    lose the most hypervolume (ties keep the lower index).  Under-full
    rows greedily add the point with the largest hypervolume gain (ties
    take the lowest index).  Rows with equal member counts are repaired
    together; each row's result is that of repairing it alone.
    """
    bits = bits.copy()
    counts = bits.sum(axis=1)
    for m, rows in _count_groups(counts):
        if m <= k:
            continue
        on = _members(bits[rows], m)
        losses = cache.removal_losses(on)
        zero = losses == 0.0
        for j in np.flatnonzero(m - zero.sum(axis=1) < k):
            # The cut falls among members whose removal loses nothing.
            # Their order is a matter of rounding: take the sweep
            # kernel's, which the leave-one-out rule has always used.
            losses[j, zero[j]] = cache.sweep_losses(on[j], np.flatnonzero(zero[j]))
        keep = np.take_along_axis(on, np.argsort(-losses, axis=1, kind="stable")[:, :k], axis=1)
        bits[rows] = False
        bits[rows[:, None], keep] = True
    counts = np.minimum(counts, k)
    for m in range(int(counts.min(initial=k)), k):
        rows = np.flatnonzero(counts == m)
        gains = cache.addition_gains(_members(bits[rows], m))
        bits[rows, np.argmax(gains, axis=1)] = True
        counts[rows] += 1
    return bits


def _repair_population(genes, k, cache, memo):
    """Repair and score every row of genes, once per distinct row.

    memo maps a gene's packed bits to its repaired gene's packed bits,
    which also key the hypervolume in cache; repair is a pure function of
    the gene, so a gene seen in an earlier generation is not repaired
    again, and the genes first seen here are repaired in one batch.
    """
    packed = np.packbits(genes, axis=1)
    # one opaque item per row: sorts by memcmp, far faster than axis=0
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    distinct, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    keys = [row.tobytes() for row in distinct]
    new = [j for j, key in enumerate(keys) if key not in memo]
    if new:
        fixed_new = np.packbits(_repair_rows(genes[first[new]], k, cache), axis=1)
        memo.update((keys[j], row.tobytes()) for j, row in zip(new, fixed_new))
    fixed = [memo[key] for key in keys]
    hv = cache.of_packed(fixed)
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

    best_hv = float(fitness.max())
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
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= cfg.stagnation:
                break
    # the elitist stable sort keeps the first best gene at pop[0]
    # (generations >= 1, so pop has been sorted at least once)
    return [int(i) for i in np.flatnonzero(pop[0])]


def subset_hypervolume(points, indices, ref=None) -> float:
    """Hypervolume of the chosen subset (convenience for reports)."""
    p = np.asarray(points, dtype=float)
    ref_t = tuple(ref) if ref is not None else default_reference(p.shape[1])
    return hypervolume([tuple(p[i]) for i in indices], ref_t)
