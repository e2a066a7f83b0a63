"""The candidate layout pinned by literals and by hand-written oracles.

The gene table, the record dataclasses and the output columns are
derived from one another, so comparing one derived list with another
proves nothing.  These tests pin the layout as literals, and keep
per-field versions of sample, in_space, record_to_log_line and the
front CSV row as oracles for the table-driven code.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from protonas.analysis.report import FRONT_COLUMNS, _record_row
from protonas.archspace import GROUP_COUNT, HyperparamVector, SearchSpaceDef, TaskSpec, sample
from protonas.costmodel import CostEstimate, Feasibility, TargetProfile
from protonas.proxies import ProxyBatchConfig
from protonas.search import (
    OBJECTIVE_LABELS,
    CandidateRecord,
    SearchConfig,
    evaluate_candidate,
    record_to_log_line,
)

PARETO_HEADER = [
    "trial", "seed",
    "architecture", "depth_0", "depth_1", "depth_2", "depth_3",
    "ks_0", "ks_1", "ks_2", "ks_3", "width",
    "sparsity_0", "sparsity_1", "sparsity_2", "sparsity_3",
    "flops", "rom_bytes", "ram_bytes",
    "obj_flops", "obj_neg_meco", "obj_neg_zico", "obj_neg_naswot", "obj_neg_snip",
    "meco", "zico", "naswot", "snip",
]
LOG_KEYS = ["trial", "seed", "genes", "feasible", "violation", "costs", "objectives", "proxies", "error"]
GENE_KEYS = ["architecture", "group_depth", "kernel_stride", "width_multiplier", "pruning_sparsity"]
COST_KEYS = ["flops", "rom_bytes", "ram_bytes"]
PROXY_KEYS = ["meco", "zico", "naswot", "snip"]


# --- oracles: the per-field code the table-driven versions replaced ---

def oracle_sample(rng, space):
    arch = int(rng.integers(len(space.baseline_pool)))
    depth = tuple(
        int(space.depth_values[rng.integers(len(space.depth_values))]) for _ in range(GROUP_COUNT)
    )
    ks = tuple(int(rng.integers(len(space.kernel_stride_values))) for _ in range(GROUP_COUNT))
    wlo, whi = space.width_range
    width = float(rng.uniform(wlo, whi))
    slo, shi = space.sparsity_range
    sparsity = tuple(float(rng.uniform(slo, shi)) for _ in range(GROUP_COUNT))
    return HyperparamVector(arch, depth, ks, width, sparsity)


def oracle_in_space(x, space):
    wlo, whi = space.width_range
    slo, shi = space.sparsity_range
    return (
        0 <= x.architecture < len(space.baseline_pool)
        and all(d in space.depth_values for d in x.group_depth)
        and all(0 <= i < len(space.kernel_stride_values) for i in x.kernel_stride)
        and wlo <= x.width_multiplier <= whi
        and all(slo <= s <= shi for s in x.pruning_sparsity)
    )


def oracle_log_line(r):
    objectives = [v if math.isfinite(v) else None for v in r.objectives]
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
        "proxies": None if r.proxies is None else {
            "meco": r.proxies.meco, "zico": r.proxies.zico,
            "naswot": r.proxies.naswot, "snip": r.proxies.snip,
        },
        "error": r.error,
    }
    return json.dumps(doc, allow_nan=False)


def oracle_row(r):
    genes = (
        [r.genes.architecture]
        + list(r.genes.group_depth)
        + list(r.genes.kernel_stride)
        + [r.genes.width_multiplier]
        + list(r.genes.pruning_sparsity)
    )
    costs = [r.costs.flops, r.costs.rom_bytes, r.costs.ram_bytes]
    proxies = [r.proxies.meco, r.proxies.zico, r.proxies.naswot, r.proxies.snip]
    return [r.trial_index, r.seed] + genes + costs + list(r.objectives) + proxies


def csv_bytes(row):
    fh = io.StringIO()
    csv.writer(fh, lineterminator="\n").writerow(row)
    return fh.getvalue().encode()


# --- the layout as literals ---

def test_front_header_and_objective_labels_are_pinned():
    assert FRONT_COLUMNS == PARETO_HEADER
    assert OBJECTIVE_LABELS == ("flops", "neg_meco", "neg_zico", "neg_naswot", "neg_snip")


@pytest.fixture(scope="module")
def records(templates):
    """A feasible, an infeasible and an error record of one 1-D candidate."""
    space = SearchSpaceDef(baseline_pool=("mbednet1d", "inceptiontime"))
    task = TaskSpec(input_shape=(3, 64), num_classes=5)
    proxy = ProxyBatchConfig(batch_size=2)
    x = sample(np.random.default_rng(3), space)
    tight = TargetProfile(name="tight", ram_max=64, rom_max=64, flops_max=64)
    cfg = SearchConfig(space, task, TargetProfile(), proxy)
    feasible = evaluate_candidate(x, cfg, templates, 11, 0)
    infeasible = evaluate_candidate(x, SearchConfig(space, task, tight, proxy), templates, 11, 1)
    missing = SearchSpaceDef(baseline_pool=("nosuch", "inceptiontime"))
    error = evaluate_candidate(
        HyperparamVector.from_genes([0] + x.to_genes()[1:]),
        SearchConfig(missing, task, TargetProfile(), proxy), templates, 11, 2,
    )
    assert feasible.feasibility.feasible and feasible.proxies is not None
    assert not infeasible.feasibility.feasible and infeasible.costs is not None
    assert error.error is not None and error.costs is None
    return {"feasible": feasible, "infeasible": infeasible, "error": error}


@pytest.mark.parametrize("kind", ["feasible", "infeasible", "error"])
def test_log_line_matches_oracle_and_pinned_keys(records, kind):
    r = records[kind]
    line = record_to_log_line(r)
    assert line.encode() == oracle_log_line(r).encode()
    doc = json.loads(line)
    assert list(doc) == LOG_KEYS
    assert list(doc["genes"]) == GENE_KEYS
    if r.costs is not None:
        assert list(doc["costs"]) == COST_KEYS
    if r.proxies is not None:
        assert list(doc["proxies"]) == PROXY_KEYS


def test_front_row_matches_oracle(records):
    r = records["feasible"]
    assert csv_bytes(_record_row(r)) == csv_bytes(oracle_row(r))
    assert len(_record_row(r)) == len(PARETO_HEADER)
    # a hand-built record with integral widths and exact objectives
    x = HyperparamVector(1, (0, 3, 2, 1), (5, 0, 4, 1), 1.0, (0.1, 0.9, 0.5, 0.25))
    rec = CandidateRecord(
        trial_index=7, seed=2**62, genes=x, feasibility=Feasibility(True, 0.0),
        costs=CostEstimate(flops=123, rom_bytes=45, ram_bytes=6),
        objectives=(123.0, -1.5, -2.0, 3.25, -0.0), proxies=records["feasible"].proxies,
    )
    assert csv_bytes(_record_row(rec)) == csv_bytes(oracle_row(rec))
    assert record_to_log_line(rec) == oracle_log_line(rec)


# --- the gene table against the per-field oracles ---

SPACES = {
    "default": SearchSpaceDef(),
    "1d": SearchSpaceDef(baseline_pool=("mbednet1d", "inceptiontime")),
    "narrow": SearchSpaceDef(
        baseline_pool=("resnet",), depth_values=(2,), kernel_stride_values=((3, 1),),
        width_range=(0.5, 0.5), sparsity_range=(0.0, 0.0),
    ),
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_sample_matches_oracle_and_leaves_the_stream_in_step(name):
    space = SPACES[name]
    for seed in range(50):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(4):
            got, want = sample(got_rng, space), oracle_sample(want_rng, space)
            assert got == want
            assert [type(v) for v in got.to_genes()] == [type(v) for v in want.to_genes()]
        assert got_rng.random() == want_rng.random()


def one_step_outside(space):
    """(gene index, value) pairs, each one step outside that gene's domain."""
    pool, ks = len(space.baseline_pool), len(space.kernel_stride_values)
    (wlo, whi), (slo, shi) = space.width_range, space.sparsity_range
    out = [(0, -1), (0, pool)]
    for g in range(GROUP_COUNT):
        out += [(1 + g, -1), (1 + g, max(space.depth_values) + 1)]
        out += [(1 + GROUP_COUNT + g, -1), (1 + GROUP_COUNT + g, ks)]
        out += [(2 + 2 * GROUP_COUNT + g, slo - 0.01), (2 + 2 * GROUP_COUNT + g, shi + 0.01)]
    out += [(1 + 2 * GROUP_COUNT, wlo - 0.01), (1 + 2 * GROUP_COUNT, whi + 0.01)]
    return out


@pytest.mark.parametrize("name", sorted(SPACES))
def test_in_space_matches_oracle_one_step_outside_each_gene(name):
    space = SPACES[name]
    inside = sample(np.random.default_rng(5), space)
    assert inside.in_space(space) and oracle_in_space(inside, space)
    steps = one_step_outside(space)
    assert sorted({gi for gi, _ in steps}) == list(range(space.gene_count()))
    for gi, value in steps:
        genes = inside.to_genes()
        genes[gi] = value
        x = HyperparamVector.from_genes(genes)
        assert x.in_space(space) == oracle_in_space(x, space)
        assert not x.in_space(space), (gi, value)

