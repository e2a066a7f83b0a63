"""The per-kind layer rules in archspace/graph.py, checked against the
separate rules that decode, pruning, the cost model and the engine used
to write out themselves (kept here as oracles)."""

import copy
import json
import math

import numpy as np
import pytest
import yaml

from protonas.archspace import (
    SearchSpaceDef,
    TaskSpec,
    apply_static_pruning,
    decode,
    sample,
    validate,
)
from protonas.archspace.decode import _equalize_add_endpoints
from protonas.archspace.graph import ArchitectureGraph
from protonas.archspace.templates import load_templates
from protonas.cli import main
from protonas.costmodel import count_flops, estimate_rom
from protonas.errors import ShapeMismatch
from protonas.tensorcore import init_params

TASKS = {1: TaskSpec(input_shape=(3, 64), num_classes=5),
         2: TaskSpec(input_shape=(3, 32, 32), num_classes=10)}


def _oracle_group_inputs(node):
    return 1 if node.kind == "depthwise-conv" else node.in_channels


def _oracle_propagate_channels(h):
    """Channel pass that pruning ran before the shape pass gave the counts."""
    ch = []
    for i, node in enumerate(h.nodes):
        ins = [ch[p] for p in h.preds[i]] or [h.input_shape[0]]
        cin = ins[0]
        if node.kind == "conv":
            node.in_channels = cin
        elif node.kind == "depthwise-conv":
            node.in_channels = cin
            node.out_channels = cin
        elif node.kind == "linear":
            node.in_channels = cin
        elif node.kind == "add":
            if any(c != cin for c in ins):
                raise ShapeMismatch("residual endpoints disagree after pruning")
            node.in_channels = cin
            node.out_channels = cin
        elif node.kind == "concat":
            node.in_channels = cin
            node.out_channels = sum(ins)
        else:
            node.in_channels = cin
            node.out_channels = cin
        ch.append(node.out_channels)


def _oracle_prune(g, sparsity):
    h = ArchitectureGraph([copy.copy(n) for n in g.nodes], [list(p) for p in g.preds],
                          g.input_shape, g.num_classes, list(g.shapes))
    for node in h.nodes:
        if node.kind == "conv" and node.group is not None:
            c = node.out_channels
            node.out_channels = max(1, c - math.floor(sparsity[node.group] * c))
    _equalize_add_endpoints(h)
    _oracle_propagate_channels(h)
    h.infer_shapes()
    return h


def _oracle_flops(g):
    total = 0
    for node, out in zip(g.nodes, g.shapes):
        out_elems, spatial, dims = math.prod(out), math.prod(out[1:]), len(out) - 1
        if node.kind in ("conv", "depthwise-conv"):
            total += 2 * _oracle_group_inputs(node) * node.out_channels * node.kernel ** dims * spatial
            if node.bias:
                total += out_elems
        elif node.kind == "linear":
            total += 2 * node.in_channels * node.out_channels
            if node.bias:
                total += node.out_channels
        elif node.kind in ("relu", "batchnorm", "maxpool", "global-avg-pool", "add"):
            total += out_elems
    return total


def _oracle_rom(g):
    total = 0
    for node, out in zip(g.nodes, g.shapes):
        dims = len(out) - 1
        if node.kind in ("conv", "depthwise-conv"):
            weights = _oracle_group_inputs(node) * node.out_channels * node.kernel ** dims
        elif node.kind == "linear":
            weights = node.in_channels * node.out_channels
        else:
            continue
        total += weights + node.out_channels * 8 + (node.out_channels * 4 if node.bias else 0)
    return total


def _oracle_params(g, rng):
    dims = len(g.input_shape) - 1
    weights, biases = {}, {}
    for i, node in enumerate(g.nodes):
        if node.kind in ("conv", "depthwise-conv"):
            shape = (node.out_channels, _oracle_group_inputs(node)) + (node.kernel,) * dims
            fan_in = _oracle_group_inputs(node) * node.kernel ** dims
        elif node.kind == "linear":
            shape = (node.out_channels, node.in_channels)
            fan_in = node.in_channels
        else:
            continue
        weights[i] = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)
        if node.bias:
            biases[i] = np.zeros(node.out_channels)
    return weights, biases


@pytest.mark.parametrize("tid", sorted(load_templates()))
def test_layer_rules_match_the_per_module_oracles(tid, templates):
    task = TASKS[templates[tid].dimensionality]
    space = SearchSpaceDef(baseline_pool=(tid,))
    rng = np.random.default_rng(2024)
    for trial in range(6):
        x = sample(rng, space)
        g = decode(x, space, task, templates)
        assert g.shapes == copy.deepcopy(g).infer_shapes()
        # the sampled sparsities, then heavy ones that hit the width floor
        for sparsity in (x.pruning_sparsity, (0.9, 0.8, 0.7, 0.95)):
            pruned = apply_static_pruning(g, sparsity)
            want = _oracle_prune(g, sparsity)
            assert pruned.nodes == want.nodes
            assert pruned.shapes == want.shapes
            assert validate(pruned) == []
            assert count_flops(pruned) == _oracle_flops(want)
            assert estimate_rom(pruned) == _oracle_rom(want)
            params = init_params(pruned, np.random.default_rng(trial))
            weights, biases = _oracle_params(want, np.random.default_rng(trial))
            for got, ref in ((params.weights, weights), (params.biases, biases)):
                assert got.keys() == ref.keys()
                for i in ref:
                    assert got[i].shape == ref[i].shape
                    assert np.array_equal(got[i], ref[i])


# A 1-D family whose classifier is a bare linear layer on the unpooled map.
FLAT_CATALOG = {
    "version": 1,
    "templates": {
        "flat1d": {
            "dimensionality": 1,
            "group_channels": [8, 8, 16, 16],
            "stem": [{"op": "conv", "out": 8, "kernel": 3, "stride": 2}, {"op": "relu"}],
            "superblock": [{"op": "conv", "out": "C", "kernel": "K", "stride": "S"},
                           {"op": "relu"}],
            "classifier": [{"op": "linear"}],
        }
    },
}


def test_unpooled_linear_classifier_keeps_its_inputs_after_pruning(tmp_path, capsys):
    catalog = tmp_path / "catalog.yaml"
    catalog.write_text(yaml.safe_dump(FLAT_CATALOG))
    out = tmp_path / "out"
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({
        "task": {"input_shape": [3, 64], "num_classes": 5},
        "space": {"baseline_pool": ["flat1d"]},
        "search": {"trials": 6, "population_size": 3, "base_seed": 3},
        "proxy": {"batch_size": 2},
        "templates": str(catalog),
        "output_dir": str(out),
    }))
    assert main(["explore", "--config", str(cfg)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in (out / "trials.jsonl").read_text().splitlines()]
    assert len(records) == 6
    assert all(r["error"] is None and r["proxies"] is not None for r in records)

    templates = load_templates(catalog)
    space = SearchSpaceDef(baseline_pool=("flat1d",))
    task = TaskSpec(input_shape=(3, 64), num_classes=5)
    rng = np.random.default_rng(7)
    for _ in range(4):
        x = sample(rng, space)
        pruned = apply_static_pruning(decode(x, space, task, templates), (0.5,) * 4)
        assert validate(pruned) == []
        # the linear layer is the last node; drop it to isolate its cost
        i = len(pruned.nodes) - 1
        channels, length = pruned.shapes[i - 1]
        assert length > 1 and pruned.nodes[i].in_channels == channels * length
        head = ArchitectureGraph(pruned.nodes[:i], pruned.preds[:i], pruned.input_shape,
                                 pruned.num_classes, pruned.shapes[:i])
        classes = task.num_classes
        assert count_flops(pruned) - count_flops(head) == 2 * channels * length * classes + classes
        assert estimate_rom(pruned) - estimate_rom(head) == channels * length * classes + 12 * classes
