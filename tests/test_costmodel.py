import pytest

from protonas.archspace import decode, sample
from protonas.archspace.graph import ArchitectureGraph, LayerSpec
from protonas.costmodel import (
    TargetProfile,
    check,
    count_flops,
    estimate_costs,
    estimate_ram,
    estimate_rom,
)
from protonas.errors import ConfigError

from conftest import chain_graph


def _conv(cin, cout, k=3, p=1, s=1, bias=False):
    return LayerSpec(kind="conv", in_channels=cin, out_channels=cout, kernel=k, stride=s,
                     padding=p, bias=bias)


def test_conv_flops_golden():
    # 2 * 3 * 8 * 3^2 * 32 * 32 multiply-accumulate FLOPs
    g = chain_graph([_conv(3, 8)], (3, 32, 32), 2)
    assert count_flops(g) == 442368
    g_bias = chain_graph([_conv(3, 8, bias=True)], (3, 32, 32), 2)
    assert count_flops(g_bias) == 442368 + 8 * 32 * 32


def test_linear_and_pointwise_flops():
    g = chain_graph(
        [LayerSpec(kind="linear", in_channels=16, out_channels=10, bias=True)], (16,), 10
    )
    assert count_flops(g) == 2 * 16 * 10 + 10
    g1 = chain_graph([_conv(4, 4, k=1, p=0)], (4, 5, 5), 2)
    assert count_flops(g1) == 2 * 4 * 4 * 1 * 25


def test_depthwise_flops_skip_channel_product():
    g = chain_graph(
        [LayerSpec(kind="depthwise-conv", in_channels=8, out_channels=8, kernel=3, padding=1)],
        (8, 16, 16),
        2,
    )
    assert count_flops(g) == 2 * 8 * 9 * 16 * 16


def test_elementwise_kinds_cost_their_output():
    g = chain_graph([_conv(3, 4), LayerSpec(kind="relu")], (3, 8, 8), 2)
    assert count_flops(g) - count_flops(chain_graph([_conv(3, 4)], (3, 8, 8), 2)) == 4 * 8 * 8


def test_concat_is_free():
    nodes = [_conv(3, 4, k=1, p=0), _conv(3, 4, k=1, p=0), LayerSpec(kind="concat")]
    g = ArchitectureGraph(nodes=nodes, preds=[[], [], [0, 1]], input_shape=(3, 8, 8), num_classes=2)
    assert count_flops(g) == 2 * (2 * 3 * 4 * 64)


def test_one_dimensional_conv_flops():
    g = chain_graph([_conv(3, 8, k=5, p=2)], (3, 100), 2)
    assert count_flops(g) == 2 * 3 * 8 * 5 * 100


def test_rom_golden():
    # 216 weight bytes + 8 channels * 8 metadata bytes + 8 int32 biases
    g = chain_graph([_conv(3, 8, bias=True)], (3, 32, 32), 2)
    assert estimate_rom(g) == 216 + 64 + 32
    assert estimate_rom(g, code_overhead=1000) == 312 + 1000


def test_rom_ignores_foldable_and_stateless_kinds():
    g = chain_graph(
        [_conv(3, 8), LayerSpec(kind="batchnorm"), LayerSpec(kind="relu"),
         LayerSpec(kind="maxpool", kernel=2, stride=2)],
        (3, 32, 32),
        2,
    )
    assert estimate_rom(g) == estimate_rom(chain_graph([_conv(3, 8)], (3, 32, 32), 2))


def test_rom_linear_and_depthwise():
    g = chain_graph(
        [LayerSpec(kind="linear", in_channels=16, out_channels=10, bias=True)], (16,), 10
    )
    assert estimate_rom(g) == 160 + 80 + 40
    gd = chain_graph(
        [LayerSpec(kind="depthwise-conv", in_channels=8, out_channels=8, kernel=3, padding=1)],
        (8, 4, 4),
        2,
    )
    assert estimate_rom(gd) == 72 + 64


def test_ram_simple_chain_hand_trace():
    # conv out 8192 + input 3072 live together at step 0; at step 1 the
    # relu output and its operand coexist: 8192 + 8192
    g = chain_graph([_conv(3, 8), LayerSpec(kind="relu"), _conv(8, 4)], (3, 32, 32), 2)
    assert estimate_ram(g) == 16384


def test_ram_single_layer_is_in_plus_out():
    g = chain_graph([_conv(3, 8)], (3, 32, 32), 2)
    assert estimate_ram(g) == 3 * 32 * 32 + 8 * 32 * 32


def test_ram_diamond_hand_trace():
    # while the second branch runs, the input and the first branch
    # output are both still live: 128 + 48 + 128; the add step then
    # holds three 128-byte buffers
    nodes = [_conv(3, 8, k=1, p=0), _conv(3, 8, k=1, p=0), LayerSpec(kind="add")]
    g = ArchitectureGraph(nodes=nodes, preds=[[], [], [0, 1]], input_shape=(3, 4, 4), num_classes=2)
    assert estimate_ram(g) == 384


def test_ram_skip_keeps_source_alive():
    # identity skip over two convs: node0 output must survive until add
    nodes = [_conv(3, 8, k=1, p=0), _conv(8, 8, k=1, p=0), _conv(8, 8, k=1, p=0),
             LayerSpec(kind="add")]
    g = ArchitectureGraph(
        nodes=nodes, preds=[[], [0], [1], [0, 2]], input_shape=(3, 4, 4), num_classes=2
    )
    b = 8 * 16  # every intermediate buffer is 128 bytes
    # step2: out + node1 + node0 (alive for the skip) = 3 * 128
    # step3: add out + node2 + node0 = 3 * 128
    assert estimate_ram(g) == 3 * b


def test_ram_input_only_counts_while_consumed():
    # a second conv no longer needs the network input
    g = chain_graph([_conv(3, 2), _conv(2, 2)], (3, 32, 32), 2)
    step0 = 2 * 32 * 32 + 3 * 32 * 32
    step1 = 2 * 32 * 32 + 2 * 32 * 32
    assert estimate_ram(g) == max(step0, step1)


def test_check_violation_semantics():
    profile = TargetProfile(name="t", ram_max=1000, rom_max=1000, flops_max=1000)
    ok = check(CostLike(500, 500, 500), profile)
    assert ok.feasible and ok.violation == 0.0
    over = check(CostLike(1500, 500, 500), profile)
    assert not over.feasible
    assert abs(over.violation - 0.5) < 1e-12
    both = check(CostLike(1500, 2000, 500), profile)
    assert abs(both.violation - 1.5) < 1e-12
    edge = check(CostLike(1000, 1000, 1000), profile)
    assert edge.feasible


class CostLike:
    def __init__(self, flops, rom_bytes, ram_bytes):
        self.flops = flops
        self.rom_bytes = rom_bytes
        self.ram_bytes = ram_bytes


def test_profile_validation():
    with pytest.raises(ConfigError):
        TargetProfile(name="bad", ram_max=0, rom_max=1, flops_max=1)
    with pytest.raises(ConfigError):
        TargetProfile(name="bad", ram_max=1, rom_max=1, flops_max=1, rom_code_overhead=-1)
    assert TargetProfile().ram_max == 1024 * 1024


def test_costs_on_decoded_candidates(space1d, task1d, templates):
    import numpy as np

    rng = np.random.default_rng(12)
    for _ in range(10):
        g = decode(sample(rng, space1d), space1d, task1d, templates)
        c = estimate_costs(g, TargetProfile())
        assert c.flops > 0 and c.rom_bytes > 0 and c.ram_bytes > 0


def quadratic_peak_ram(g):
    """estimate_ram's liveness rule summed afresh at every step: the
    reference for its running sum."""
    import math

    shapes = g.infer_shapes()
    n = len(g.nodes)
    sizes = [math.prod(s) for s in shapes] + [math.prod(g.input_shape)]
    last_use = list(range(n)) + [-1]
    for i, ps in enumerate(g.preds):
        for p in ps or [n]:
            last_use[p] = max(last_use[p], i)
    peak = sizes[n]
    for i in range(n):
        live = sizes[i] + sum(sizes[j] for j in range(i) if last_use[j] >= i)
        peak = max(peak, live + (sizes[n] if last_use[n] >= i else 0))
    return peak


def test_ram_running_sum_equals_the_per_step_sum(space1d, task1d, space2d, task2d, templates):
    import numpy as np

    rng = np.random.default_rng(13)
    for space, task in ((space1d, task1d), (space2d, task2d)):
        for _ in range(25):
            g = decode(sample(rng, space), space, task, templates)
            assert estimate_ram(g) == quadratic_peak_ram(g)
