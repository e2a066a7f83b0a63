import copy
import math

import numpy as np
import pytest
import yaml

from protonas.archspace import (
    HyperparamVector,
    SearchSpaceDef,
    TaskSpec,
    apply_static_pruning,
    decode,
    load_templates,
    sample,
    scaled_channels,
    validate,
)
from protonas.archspace.templates import eval_channel_expr
from protonas.errors import ConfigError, ShapeCollapse


def test_catalog_has_six_baselines(templates):
    assert set(templates) == {
        "mbednet",
        "mobilenetv2",
        "resnet",
        "squeezenet",
        "mbednet1d",
        "inceptiontime",
    }
    for tid, t in templates.items():
        assert t.id == tid
        assert t.dimensionality in (1, 2)
        assert len(t.group_channels) == 4
    assert templates["mbednet1d"].dimensionality == 1
    assert templates["inceptiontime"].dimensionality == 1
    assert templates["resnet"].dimensionality == 2


def test_stem_cannot_merge_the_network_input(tmp_path):
    """A node's predecessors cannot name the network input, so a stem that
    opens with a branch holding an identity branch is rejected at load
    time, also one nested in another branch; after a first layer the same
    branch decodes with its skip edge."""
    skip = {"op": "branch", "merge": "concat",
            "branches": [[{"op": "conv", "out": 8, "kernel": 3}], []]}
    nested = {"op": "branch", "merge": "concat", "branches": [[skip], [{"op": "relu"}]]}

    def load(stem):
        path = tmp_path / "catalog.yaml"
        path.write_text(yaml.safe_dump({"version": 1, "templates": {"skip1d": {
            "dimensionality": 1,
            "group_channels": [8, 8, 16, 16],
            "stem": stem,
            "superblock": [{"op": "conv", "out": "C", "kernel": "K", "stride": "S"}],
            "classifier": [{"op": "global-avg-pool"}, {"op": "linear"}],
        }}}))
        return load_templates(path)

    for stem in ([skip], [nested]):
        with pytest.raises(ConfigError, match="identity"):
            load(stem)
    templates = load([{"op": "relu"}, skip])
    space = SearchSpaceDef(baseline_pool=("skip1d",))
    task = TaskSpec(input_shape=(2, 32), num_classes=3)
    g = decode(sample(np.random.default_rng(0), space), space, task, templates)
    assert g.preds[2] == [1, 0] and g.shapes[2][0] == g.shapes[1][0] + 2
    assert validate(g) == []


def test_channel_expr():
    assert eval_channel_expr(32, 64) == 32
    assert eval_channel_expr("C", 64) == 64
    assert eval_channel_expr("C/2", 64) == 32
    assert eval_channel_expr("C/4", 6) == 1
    assert eval_channel_expr("C/64", 8) == 1  # floors at one channel
    assert eval_channel_expr("C*2", 64) == 128
    assert eval_channel_expr("C*6", 4) == 24


def test_width_rule():
    # half-up rounding with a floor of four channels
    assert scaled_channels(32, 0.5) == 16
    assert scaled_channels(32, 1.0) == 32
    assert scaled_channels(31, 0.5) == 16  # 15.5 rounds up
    assert scaled_channels(32, 0.1) == 4  # 3.2 hits the floor
    assert scaled_channels(3, 1.0) == 4
    assert scaled_channels(10, 0.26) == 4  # 2.6 + 0.5 floors to 3, clamps to 4


def _vec(arch=0, depth=(0, 0, 0, 0), ks=(1, 1, 1, 1), width=1.0, sp=(0.1, 0.1, 0.1, 0.1)):
    return HyperparamVector(
        architecture=arch,
        group_depth=depth,
        kernel_stride=ks,
        width_multiplier=width,
        pruning_sparsity=sp,
    )


def _superblocks_per_group(g):
    counts = [0, 0, 0, 0]
    for node in g.nodes:
        if node.block_output and node.group is not None:
            counts[node.group] += 1
    return counts


@pytest.mark.parametrize("arch", [0, 1])
def test_depth_controls_superblock_count(arch, space1d, task1d, templates):
    g0 = decode(_vec(arch=arch), space1d, task1d, templates)
    assert _superblocks_per_group(g0) == [1, 1, 1, 1]
    g3 = decode(_vec(arch=arch, depth=(3, 3, 3, 3)), space1d, task1d, templates)
    assert _superblocks_per_group(g3) == [4, 4, 4, 4]
    g_mixed = decode(_vec(arch=arch, depth=(0, 1, 2, 3)), space1d, task1d, templates)
    assert _superblocks_per_group(g_mixed) == [1, 2, 3, 4]


def test_decoded_graphs_validate(space1d, task1d, space2d, task2d, templates):
    rng = np.random.default_rng(5)
    for space, task in ((space1d, task1d), (space2d, task2d)):
        for _ in range(25):
            g = decode(sample(rng, space), space, task, templates)
            assert validate(g) == []


def test_stride_applies_to_first_block_only(space1d, task1d, templates):
    # kernel/stride index 0 is (3, 2); with two blocks in a group only the
    # first may downsample, so shapes shrink once per group at most.
    g = decode(_vec(depth=(1, 1, 1, 1), ks=(0, 0, 0, 0)), space1d, task1d, templates)
    strided = [n for n in g.nodes if n.group is not None and n.stride == 2]
    seen_groups = [n.group for n in strided]
    assert sorted(set(seen_groups)) == sorted(seen_groups)  # one strided entry per group


def test_classifier_matches_task(space1d, task1d, templates):
    g = decode(_vec(), space1d, task1d, templates)
    out = g.nodes[g.output_node()]
    assert out.kind == "linear"
    assert out.out_channels == task1d.num_classes


def test_width_scales_group_channels(space1d, task1d, templates):
    full = decode(_vec(width=1.0), space1d, task1d, templates)
    half = decode(_vec(width=0.5), space1d, task1d, templates)
    t = load_templates()["mbednet1d"]
    full_convs = [n for n in full.nodes if n.group is not None and n.kind == "conv"]
    half_convs = [n for n in half.nodes if n.group is not None and n.kind == "conv"]
    assert len(full_convs) == len(half_convs)
    for f, h in zip(full_convs, half_convs):
        if f.block_output:
            continue
        assert h.out_channels == scaled_channels(f.out_channels, 0.5) or h.out_channels <= f.out_channels


def test_bias_is_stripped_before_batchnorm(space2d, task2d, templates):
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = decode(sample(rng, space2d), space2d, task2d, templates)
        for i, node in enumerate(g.nodes):
            if node.kind == "batchnorm":
                (p,) = g.preds[i]
                if g.nodes[p].kind in ("conv", "depthwise-conv"):
                    assert not g.nodes[p].bias


def test_small_inputs_decode_without_collapse(space2d, task2d, templates):
    # deep stacks with stride-2 genes on an 8x8 input must clamp rather
    # than collapse a spatial extent below one
    from protonas.archspace import TaskSpec

    tiny = TaskSpec(input_shape=(3, 8, 8), num_classes=4)
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = sample(rng, space2d)
        g = decode(x, space2d, tiny, templates)
        shapes = g.infer_shapes()
        assert all(all(v >= 1 for v in s) for s in shapes)


def test_prune_channel_formula(graph1d):
    pruned = apply_static_pruning(graph1d, (0.5, 0.5, 0.5, 0.5))
    for before, after in zip(graph1d.nodes, pruned.nodes):
        if before.kind == "conv" and before.group is not None:
            want = max(1, before.out_channels - math.floor(0.5 * before.out_channels))
            # residual equalization may only lower the count further
            assert 1 <= after.out_channels <= want
    assert validate(pruned) == []


def test_prune_zero_sparsity_is_identity(graph1d):
    pruned = apply_static_pruning(graph1d, (0.0, 0.0, 0.0, 0.0))
    for before, after in zip(graph1d.nodes, pruned.nodes):
        assert before.out_channels == after.out_channels
        assert before.in_channels == after.in_channels


def test_prune_preserves_classifier(graph1d, task1d):
    pruned = apply_static_pruning(graph1d, (0.8, 0.8, 0.8, 0.8))
    out = pruned.nodes[pruned.output_node()]
    assert out.out_channels == task1d.num_classes


def test_prune_keeps_add_endpoints_equal(space2d, task2d, templates):
    rng = np.random.default_rng(14)
    for _ in range(15):
        x = sample(rng, space2d)
        g = decode(x, space2d, task2d, templates)
        pruned = apply_static_pruning(g, x.pruning_sparsity)
        assert validate(pruned) == []
        shapes = pruned.infer_shapes()
        for i, node in enumerate(pruned.nodes):
            if node.kind == "add":
                widths = {shapes[p][0] for p in pruned.preds[i]}
                assert len(widths) == 1


def test_prune_leaves_input_graph_unchanged(space2d, task2d, templates):
    rng = np.random.default_rng(15)
    for _ in range(10):
        x = sample(rng, space2d)
        g = decode(x, space2d, task2d, templates)
        before = copy.deepcopy(g)
        pruned = apply_static_pruning(g, (0.6, 0.6, 0.6, 0.6))
        assert g.nodes == before.nodes
        assert g.preds == before.preds
        assert g.shapes == before.shapes
        assert not any(a is b for a, b in zip(g.nodes, pruned.nodes))
        assert not any(a is b for a, b in zip(g.preds, pruned.preds))
        assert pruned.shapes is not g.shapes


def test_prune_then_shapes_consistent(space1d, task1d, templates):
    rng = np.random.default_rng(31)
    for _ in range(15):
        x = sample(rng, space1d)
        g = decode(x, space1d, task1d, templates)
        pruned = apply_static_pruning(g, x.pruning_sparsity)
        shapes = pruned.infer_shapes()
        assert len(shapes) == len(pruned.nodes)
        assert validate(pruned) == []
