"""Constrained multi-objective search over the architecture space.

Generational loop: sample an initial population, then evolve by binary
tournament (rank, then crowding), gene-wise crossover, and per-gene
mutation, evaluating exactly cfg.trials candidates in total.  Every
evaluation is logged; infeasible candidates skip proxy scoring, carry
worst-case placeholder objectives, and never enter the archive.  A
candidate whose scoring fails (a linear-algebra error, a MemoryError,
a package error such as a proxy ConfigError, or a non-finite score) is
logged as an error record and treated the same way.

Objective vector (all minimized):
    [flops, -meco, -zico, -naswot, -snip]

Determinism: candidate evaluation is seeded per trial index from the
base seed, and the evolutionary bookkeeping runs in the parent process,
so results do not depend on the worker count.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from ..archspace.decode import apply_static_pruning, decode
from ..archspace.space import HyperparamVector, SearchSpaceDef, TaskSpec, sample
from ..archspace.templates import BaselineTemplate
from ..costmodel.model import CostEstimate, Feasibility, TargetProfile, check, estimate_costs
from ..errors import ConfigError, ProtonasError
from ..proxies.ensemble import ProxyBatchConfig, ProxyScores, evaluate_ensemble
from ..tensorcore.engine import init_params
from .moo import constrained_dominates, crowding_distance, nondominated_sort

log = logging.getLogger(__name__)

OBJECTIVE_LABELS = ("flops", "neg_meco", "neg_zico", "neg_naswot", "neg_snip")

CROSSOVER_RATE = 0.9


@dataclass(frozen=True)
class SearchConfig:
    space: SearchSpaceDef
    task: TaskSpec
    profile: TargetProfile
    proxy: ProxyBatchConfig = ProxyBatchConfig()
    trials: int = 500
    population_size: int = 50
    base_seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ConfigError("search.population_size: must be >= 2")
        if self.trials < self.population_size:
            raise ConfigError("search.trials: must be >= population_size")


@dataclass(frozen=True)
class EvalContext:
    space: SearchSpaceDef
    task: TaskSpec
    profile: TargetProfile
    proxy: ProxyBatchConfig
    templates: dict[str, BaselineTemplate] | None = None


@dataclass(frozen=True)
class CandidateRecord:
    trial_index: int
    seed: int
    genes: HyperparamVector
    feasibility: Feasibility
    costs: CostEstimate | None
    objectives: tuple[float, float, float, float, float]
    proxies: ProxyScores | None
    error: str | None = None


@dataclass
class ParetoArchive:
    """All evaluated trials plus the indices of the feasible front."""

    records: list[CandidateRecord]
    pareto_indices: list[int] = field(default_factory=list)

    def pareto_records(self) -> list[CandidateRecord]:
        return [self.records[i] for i in self.pareto_indices]


def derive_seed(base_seed: int, tag: str, index: int = 0) -> int:
    """Stable 63-bit stream seed from (base seed, tag, index)."""
    digest = hashlib.sha256(f"{base_seed}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def trial_seed(base_seed: int, trial_index: int) -> int:
    return derive_seed(base_seed, "trial", trial_index)


def _unscored(x, seed, trial_index, feasibility, costs, error=None) -> CandidateRecord:
    """Record of a candidate that got no proxy scores: worst-case proxy
    objectives (and flops too when there are no costs)."""
    flops = math.inf if costs is None else float(costs.flops)
    return CandidateRecord(
        trial_index=trial_index,
        seed=seed,
        genes=x,
        feasibility=feasibility,
        costs=costs,
        objectives=(flops, math.inf, math.inf, math.inf, math.inf),
        proxies=None,
        error=error,
    )


def evaluate_candidate(
    x: HyperparamVector, ctx: EvalContext, seed: int, trial_index: int = -1
) -> CandidateRecord:
    """Decode, prune, cost-check, and (if feasible) proxy-score one candidate."""
    try:
        graph = decode(x, ctx.space, ctx.task, ctx.templates)
        pruned = apply_static_pruning(graph, x.pruning_sparsity)
        costs = estimate_costs(pruned, ctx.profile)
        feas = check(costs, ctx.profile)
    except ProtonasError as exc:
        return _unscored(x, seed, trial_index, Feasibility(False, math.inf), None,
                         f"{type(exc).__name__}: {exc}")
    if not feas.feasible:
        return _unscored(x, seed, trial_index, feas, costs)
    rng = np.random.default_rng(seed)
    params = init_params(pruned, rng)
    try:
        scores = evaluate_ensemble(pruned, params, ctx.proxy, rng)
    except (np.linalg.LinAlgError, MemoryError, ProtonasError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    else:
        bad = [name for name, v in scores.as_dict().items() if not math.isfinite(v)]
        error = f"NonFiniteProxy: {', '.join(bad)}" if bad else None
    if error is not None:
        # Scoring failed: log it like a decode error and keep the
        # candidate off the front, so one bad network never ends a run.
        return _unscored(x, seed, trial_index, Feasibility(False, math.inf), costs, error)
    return CandidateRecord(
        trial_index=trial_index,
        seed=seed,
        genes=x,
        feasibility=feas,
        costs=costs,
        objectives=(
            float(costs.flops),
            -scores.meco,
            -scores.zico,
            -scores.naswot,
            -scores.snip,
        ),
        proxies=scores,
    )


def record_to_log_line(r: CandidateRecord) -> str:
    """One canonical JSON line per evaluated trial (stable key order)."""
    objectives = [
        v if math.isfinite(v) else None for v in r.objectives
    ]
    doc = {
        "trial": r.trial_index,
        "seed": r.seed,
        "genes": {
            "architecture": r.genes.architecture,
            "group_depth": list(r.genes.group_depth),
            "kernel_stride": list(r.genes.kernel_stride),
            "width_multiplier": r.genes.width_multiplier,
            "pruning_sparsity": list(r.genes.pruning_sparsity),
        },
        "feasible": r.feasibility.feasible,
        "violation": r.feasibility.violation if math.isfinite(r.feasibility.violation) else None,
        "costs": None
        if r.costs is None
        else {"flops": r.costs.flops, "rom_bytes": r.costs.rom_bytes, "ram_bytes": r.costs.ram_bytes},
        "objectives": objectives,
        "proxies": None if r.proxies is None else r.proxies.as_dict(),
        "error": r.error,
    }
    return json.dumps(doc, allow_nan=False)


def _eval_star(args) -> CandidateRecord:
    return evaluate_candidate(*args)


def _gene_domains(space: SearchSpaceDef) -> list[tuple]:
    arch = ("cat", tuple(range(len(space.baseline_pool))))
    depth = ("cat", space.depth_values)
    ks = ("cat", tuple(range(len(space.kernel_stride_values))))
    width = ("cont", *space.width_range)
    sp = ("cont", *space.sparsity_range)
    return [arch] + [depth] * 4 + [ks] * 4 + [width] + [sp] * 4


def _mutate(genes: list[float], domains, rng: np.random.Generator) -> None:
    rate = 1.0 / len(genes)
    for gi, dom in enumerate(domains):
        if rng.random() >= rate:
            continue
        if dom[0] == "cat":
            choices = dom[1]
            genes[gi] = float(choices[rng.integers(len(choices))])
        else:
            lo, hi = dom[1], dom[2]
            genes[gi] = float(np.clip(genes[gi] + rng.normal(0.0, 0.1 * (hi - lo)), lo, hi))


def _make_offspring(
    population: list[CandidateRecord],
    count: int,
    rng: np.random.Generator,
    space: SearchSpaceDef,
) -> list[HyperparamVector]:
    fronts = nondominated_sort(population)
    rank = [0] * len(population)
    crowd = [0.0] * len(population)
    for fi, front in enumerate(fronts):
        dists = crowding_distance([population[i].objectives for i in front])
        for i, dist in zip(front, dists):
            rank[i] = fi
            crowd[i] = dist

    def tournament() -> int:
        i, j = rng.integers(len(population), size=2)
        if rank[i] != rank[j]:
            return int(i if rank[i] < rank[j] else j)
        if crowd[i] != crowd[j]:
            return int(i if crowd[i] > crowd[j] else j)
        return int(i)

    domains = _gene_domains(space)
    out = []
    for _ in range(count):
        p1 = population[tournament()].genes.to_genes()
        p2 = population[tournament()].genes.to_genes()
        if rng.random() < CROSSOVER_RATE:
            child = [p1[gi] if rng.random() < 0.5 else p2[gi] for gi in range(len(p1))]
        else:
            child = list(p1)
        _mutate(child, domains, rng)
        out.append(HyperparamVector.from_genes(child))
    return out


def _select_survivors(
    candidates: list[CandidateRecord], size: int
) -> list[CandidateRecord]:
    fronts = nondominated_sort(candidates)
    chosen: list[CandidateRecord] = []
    for front in fronts:
        if len(chosen) + len(front) <= size:
            chosen.extend(candidates[i] for i in sorted(front))
            continue
        dists = crowding_distance([candidates[i].objectives for i in front])
        ranked = sorted(
            zip(front, dists), key=lambda t: (-t[1], candidates[t[0]].trial_index)
        )
        chosen.extend(candidates[i] for i, _ in ranked[: size - len(chosen)])
        break
    return chosen


def compute_pareto_indices(records: list[CandidateRecord]) -> list[int]:
    """Feasible records not constrained-dominated by any other record."""
    feasible = [i for i, r in enumerate(records) if r.feasibility.feasible]
    out = []
    for i in feasible:
        if not any(
            constrained_dominates(records[j], records[i]) for j in feasible if j != i
        ):
            out.append(i)
    return out


def run_search(cfg: SearchConfig, jobs: int = 1, log_path=None, templates=None) -> ParetoArchive:
    """Run the full exploration; returns every record plus the front.

    jobs > 1 evaluates each generation in one process pool kept for the
    whole run; trial order, seeds, and therefore all outputs are
    identical for any jobs value.  If a worker dies, the pool is rebuilt
    and that generation re-run, once per generation.
    log_path, when given, receives one JSON line per trial, appended in
    trial order.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    ctx = EvalContext(cfg.space, cfg.task, cfg.profile, cfg.proxy, templates)
    sampler = np.random.default_rng(derive_seed(cfg.base_seed, "sampler"))
    variation = np.random.default_rng(derive_seed(cfg.base_seed, "variation"))

    records: list[CandidateRecord] = []
    sink = open(log_path, "w", encoding="utf-8") if log_path is not None else None
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None

    def evaluate_batch(genes: list[HyperparamVector], start: int) -> list[CandidateRecord]:
        nonlocal pool
        args = [
            (x, ctx, trial_seed(cfg.base_seed, start + off), start + off)
            for off, x in enumerate(genes)
        ]
        if pool is None or len(args) == 1:
            batch = [_eval_star(a) for a in args]
        else:
            try:
                batch = list(pool.map(_eval_star, args))
            except BrokenProcessPool:
                # A worker died.  Seeds are per trial index, so re-running
                # the whole generation on a fresh pool gives the same
                # records; a second break in it is raised.
                log.warning("process pool broke in trials %d-%d; rebuilding it once",
                            start, start + len(args) - 1)
                pool.shutdown()
                pool = ProcessPoolExecutor(max_workers=jobs)
                batch = list(pool.map(_eval_star, args))
        for rec in batch:
            records.append(rec)
            if sink is not None:
                sink.write(record_to_log_line(rec) + "\n")
        return batch

    try:
        population = evaluate_batch(
            [sample(sampler, cfg.space) for _ in range(cfg.population_size)], 0
        )
        done = cfg.population_size
        while done < cfg.trials:
            count = min(cfg.population_size, cfg.trials - done)
            offspring_genes = _make_offspring(population, count, variation, cfg.space)
            offspring = evaluate_batch(offspring_genes, done)
            done += count
            population = _select_survivors(population + offspring, cfg.population_size)
    finally:
        if pool is not None:
            pool.shutdown()
        if sink is not None:
            sink.close()

    archive = ParetoArchive(records=records, pareto_indices=compute_pareto_indices(records))
    if not archive.pareto_indices:
        log.warning(
            "search finished with no feasible candidates under profile '%s'",
            cfg.profile.name,
        )
    return archive
