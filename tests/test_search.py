import json
import math

import numpy as np
import pytest

from protonas.archspace import sample
from protonas.costmodel import TargetProfile
from protonas.errors import ConfigError
from protonas.proxies import ProxyBatchConfig, ProxyScores
from protonas.search import (
    SearchConfig,
    compute_pareto_indices,
    derive_seed,
    evaluate_candidate,
    record_to_log_line,
    run_search,
    trial_seed,
)
from conftest import constrained_dominates


def small_search(space, task, trials=12, pop=6, seed=0):
    return SearchConfig(
        space=space,
        task=task,
        profile=TargetProfile(),
        proxy=ProxyBatchConfig(batch_size=2),
        trials=trials,
        population_size=pop,
        base_seed=seed,
    )


def test_seed_derivation_stable_and_distinct():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    seeds = {trial_seed(0, i) for i in range(200)}
    assert len(seeds) == 200
    assert trial_seed(0, 5) != trial_seed(1, 5)
    assert derive_seed(3, "other", 5) != derive_seed(3, "trial", 5)
    assert all(0 <= s < 2**63 for s in seeds)


def test_evaluate_candidate_feasible(space1d, task1d, templates):
    cfg = SearchConfig(
        space=space1d,
        task=task1d,
        profile=TargetProfile(),
        proxy=ProxyBatchConfig(batch_size=2),
    )
    x = sample(np.random.default_rng(0), space1d)
    rec = evaluate_candidate(x, cfg, templates, seed=123, trial_index=4)
    assert rec.trial_index == 4
    assert rec.seed == 123
    assert rec.feasibility.feasible
    assert rec.costs.flops > 0
    assert len(rec.objectives) == 5
    assert rec.objectives[0] == float(rec.costs.flops)
    # proxy objectives enter negated so minimization prefers high scores
    p = rec.proxies.as_dict()
    assert rec.objectives[1] == -p["meco"]
    assert rec.objectives[2] == -p["zico"]
    assert rec.objectives[3] == -p["naswot"]
    assert rec.objectives[4] == -p["snip"]


def test_evaluate_candidate_infeasible_skips_proxies(space1d, task1d, templates):
    tight = TargetProfile(name="tight", ram_max=64, rom_max=64, flops_max=64)
    cfg = SearchConfig(
        space=space1d,
        task=task1d,
        profile=tight,
        proxy=ProxyBatchConfig(batch_size=2),
    )
    x = sample(np.random.default_rng(1), space1d)
    rec = evaluate_candidate(x, cfg, templates, seed=5)
    assert not rec.feasibility.feasible
    assert rec.feasibility.violation > 0
    assert rec.proxies is None
    assert rec.objectives[0] == float(rec.costs.flops)
    assert all(math.isinf(v) for v in rec.objectives[1:])


def test_evaluate_candidate_deterministic(space1d, task1d, templates):
    cfg = SearchConfig(
        space=space1d,
        task=task1d,
        profile=TargetProfile(),
        proxy=ProxyBatchConfig(batch_size=2),
    )
    x = sample(np.random.default_rng(2), space1d)
    a = evaluate_candidate(x, cfg, templates, seed=9)
    b = evaluate_candidate(x, cfg, templates, seed=9)
    assert a.objectives == b.objectives
    c = evaluate_candidate(x, cfg, templates, seed=10)
    assert a.objectives[1:] != c.objectives[1:]


def test_log_line_schema(space1d, task1d, templates):
    cfg = SearchConfig(
        space=space1d,
        task=task1d,
        profile=TargetProfile(),
        proxy=ProxyBatchConfig(batch_size=2),
    )
    x = sample(np.random.default_rng(3), space1d)
    rec = evaluate_candidate(x, cfg, templates, seed=11, trial_index=0)
    doc = json.loads(record_to_log_line(rec))
    assert set(doc) == {
        "trial", "seed", "genes", "feasible", "violation", "costs", "objectives",
        "proxies", "error",
    }
    assert doc["genes"]["width_multiplier"] == x.width_multiplier
    assert doc["error"] is None
    # infeasible records serialize unbounded objectives as nulls
    tight = TargetProfile(name="tight", ram_max=64, rom_max=64, flops_max=64)
    cfg2 = SearchConfig(space=space1d, task=task1d, profile=tight,
                        proxy=ProxyBatchConfig(batch_size=2))
    bad = evaluate_candidate(x, cfg2, templates, seed=11, trial_index=1)
    doc2 = json.loads(record_to_log_line(bad))
    assert doc2["proxies"] is None
    assert doc2["objectives"][1:] == [None] * 4
    assert doc2["objectives"][0] == float(bad.costs.flops)


def test_run_search_archive_sound(space1d, task1d, templates, tmp_path):
    cfg = small_search(space1d, task1d, trials=14, pop=6, seed=3)
    log = tmp_path / "trials.jsonl"
    archive = run_search(cfg, log_path=log, templates=templates)
    assert len(archive.records) == cfg.trials
    lines = log.read_text().splitlines()
    assert len(lines) == cfg.trials
    assert [json.loads(l)["trial"] for l in lines] == list(range(cfg.trials))
    front = archive.pareto_records()
    assert front
    for r in front:
        assert r.feasibility.feasible
    for a in front:
        for b in front:
            assert not constrained_dominates(a, b) or a is b
    # front indices agree with an independent recomputation
    assert archive.pareto_indices == compute_pareto_indices(archive.records)


def test_run_search_deterministic_across_jobs(space1d, task1d, templates, tmp_path):
    cfg = small_search(space1d, task1d, trials=10, pop=5, seed=8)
    log1 = tmp_path / "a.jsonl"
    log2 = tmp_path / "b.jsonl"
    run_search(cfg, jobs=1, log_path=log1, templates=templates)
    run_search(cfg, jobs=2, log_path=log2, templates=templates)
    assert log1.read_bytes() == log2.read_bytes()


def test_run_search_raises_when_the_rebuilt_pool_breaks_too(
    space1d, task1d, templates, monkeypatch
):
    import multiprocessing
    import os
    from concurrent.futures.process import BrokenProcessPool

    import protonas.search.run as run_mod

    evaluate = run_mod.evaluate_candidate

    def always_dies(x, cfg, templates, seed, trial_index=-1):
        if trial_index == 6 and multiprocessing.parent_process() is not None:
            os._exit(1)
        return evaluate(x, cfg, templates, seed, trial_index)

    monkeypatch.setattr(run_mod, "evaluate_candidate", always_dies)
    with pytest.raises(BrokenProcessPool):
        run_search(small_search(space1d, task1d, trials=10, pop=5, seed=8), jobs=2, templates=templates)


def test_run_search_caps_the_pool_at_the_population_size(
    space1d, task1d, templates, monkeypatch, tmp_path
):
    from concurrent.futures.process import BrokenProcessPool

    import protonas.search.run as run_mod

    asked = []

    class FakePool:
        """Records max_workers and maps in this process; the first pool
        breaks on its first map, so run_search builds a second one."""

        def __init__(self, max_workers):
            asked.append(max_workers)
            self.first = len(asked) == 1

        def map(self, fn, args):
            if self.first:
                self.first = False
                raise BrokenProcessPool("fake worker death")
            return [fn(a) for a in args]

        def shutdown(self):
            pass

    monkeypatch.setattr(run_mod, "ProcessPoolExecutor", FakePool)
    cfg = small_search(space1d, task1d, trials=10, pop=5, seed=8)
    run_search(cfg, jobs=10000, log_path=tmp_path / "many.jsonl", templates=templates)
    assert asked == [5, 5]
    run_search(cfg, jobs=1, log_path=tmp_path / "one.jsonl", templates=templates)
    assert (tmp_path / "many.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()


def test_run_search_seed_changes_results(space1d, task1d, templates):
    a = run_search(small_search(space1d, task1d, trials=8, pop=4, seed=0), templates=templates)
    b = run_search(small_search(space1d, task1d, trials=8, pop=4, seed=1), templates=templates)
    ga = [r.genes for r in a.records]
    gb = [r.genes for r in b.records]
    assert ga != gb


def test_run_search_all_infeasible_yields_empty_front(space1d, task1d, templates):
    cfg = SearchConfig(
        space=space1d,
        task=task1d,
        profile=TargetProfile(name="zero", ram_max=1, rom_max=1, flops_max=1),
        proxy=ProxyBatchConfig(batch_size=2),
        trials=6,
        population_size=3,
        base_seed=0,
    )
    archive = run_search(cfg, templates=templates)
    assert archive.pareto_indices == []
    assert all(not r.feasibility.feasible for r in archive.records)


def test_search_config_validation(space1d, task1d):
    with pytest.raises(Exception):
        SearchConfig(
            space=space1d, task=task1d, profile=TargetProfile(), trials=2, population_size=5
        )


def test_scoring_failures_become_error_records(space1d, task1d, templates, tmp_path, monkeypatch):
    import protonas.search.run as run_mod

    real = run_mod.evaluate_ensemble
    raised = {
        "LinAlgError: Singular matrix": np.linalg.LinAlgError("Singular matrix"),
        "MemoryError: out of memory": MemoryError("out of memory"),
        "ConfigError: proxy.batch_size: too large": ConfigError("proxy.batch_size: too large"),
    }
    injected = {"NonFiniteProxy: meco": 0, **{error: 0 for error in raised}}
    plan = [*injected, None]  # the c-th call injects plan[c % len(plan)]; None passes
    calls = []

    def flaky(g, params, cfg, rng):
        calls.append(None)
        scores = real(g, params, cfg, rng)
        error = plan[len(calls) % len(plan)]
        if error is None:
            return scores
        injected[error] += 1
        if error in raised:
            raise raised[error]
        return ProxyScores(meco=math.nan, zico=scores.zico, naswot=scores.naswot,
                           snip=scores.snip)

    monkeypatch.setattr(run_mod, "evaluate_ensemble", flaky)
    cfg = small_search(space1d, task1d, trials=16, pop=6, seed=4)
    log = tmp_path / "trials.jsonl"
    archive = run_search(cfg, log_path=log, templates=templates)
    docs = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(docs) == cfg.trials
    assert all(injected.values())
    for error, count in injected.items():
        hit = [d for d in docs if d["error"] == error]
        assert len(hit) == count
        for d in hit:
            assert d["proxies"] is None and not d["feasible"]
            assert d["objectives"] == [d["costs"]["flops"], None, None, None, None]
    errored = {d["trial"] for d in docs if d["error"] is not None}
    assert len(errored) == sum(injected.values())
    assert not errored & {r.trial_index for r in archive.pareto_records()}
