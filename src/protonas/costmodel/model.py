"""Static deployment cost estimation for int8 targets.

These are planning estimates, not measurements: FLOPs from layer
geometry (1 multiply-accumulate = 2 FLOPs), ROM from int8 weights plus
per-output-channel quantization metadata, RAM from peak live activation
buffers under a produce-to-last-consumer liveness model with an in-order
schedule.  A real runtime's allocator and code size will differ; the
estimates are meant to rank candidates and gate clearly oversized ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..archspace.graph import ArchitectureGraph
from ..errors import ConfigError

MAC_FLOPS = 2  # one multiply-accumulate
WEIGHT_BYTES = 1  # int8 weights
BIAS_BYTES = 4  # int32 accumulators
CHANNEL_META_BYTES = 8  # per-output-channel scale + zero point
ACTIVATION_BYTES = 1  # int8 activations


@dataclass(frozen=True)
class TargetProfile:
    """Deployment budget: peak RAM, ROM image, and per-inference FLOPs.

    The defaults describe an imxrt1062-class MCU.
    """

    name: str = "imxrt1062-like"
    ram_max: int = 1 * 1024 * 1024
    rom_max: int = 2 * 1024 * 1024
    flops_max: int = 200_000_000
    rom_code_overhead: int = 0

    def __post_init__(self):
        if min(self.ram_max, self.rom_max, self.flops_max) < 1:
            raise ConfigError(f"profile '{self.name}': limits must be positive")
        if self.rom_code_overhead < 0:
            raise ConfigError(f"profile '{self.name}': rom_code_overhead must be >= 0")


@dataclass(frozen=True)
class CostEstimate:
    flops: int
    rom_bytes: int
    ram_bytes: int


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    violation: float


def count_flops(g: ArchitectureGraph) -> int:
    """Total forward FLOPs for one input sample."""
    shapes = g.shapes or g.infer_shapes()
    dims = len(g.input_shape) - 1
    total = 0
    for node, out in zip(g.nodes, shapes):
        out_elems = math.prod(out)
        weight = node.weight_shape(dims)
        if weight is not None:
            # one MAC per weight per output position (a linear layer's one)
            total += MAC_FLOPS * math.prod(weight) * math.prod(out[1:])
            if node.bias:
                total += out_elems
        elif node.kind in ("relu", "batchnorm", "maxpool", "global-avg-pool", "add"):
            total += out_elems
        # concat moves bytes but performs no arithmetic
    return total


def estimate_rom(g: ArchitectureGraph, code_overhead: int = 0) -> int:
    """Flash footprint of the parameter image.

    int8 weights, one 8-byte quantization record per output channel,
    int32 biases where present; batchnorm is folded into the preceding
    convolution at deployment and adds nothing.
    """
    dims = len(g.input_shape) - 1
    total = int(code_overhead)
    for node in g.nodes:
        weight = node.weight_shape(dims)
        if weight is None:
            continue
        total += math.prod(weight) * WEIGHT_BYTES + node.out_channels * CHANNEL_META_BYTES
        if node.bias:
            total += node.out_channels * BIAS_BYTES
    return total


def estimate_ram(g: ArchitectureGraph) -> int:
    """Peak live activation bytes under produce-to-last-consumer liveness.

    Buffers (the network input included) stay resident from the step
    that produces them until their last consumer finishes, so a skip
    connection keeps its source buffer alive across the whole body.
    """
    shapes = g.shapes or g.infer_shapes()
    n = len(g.nodes)
    # buffer ids: 0..n-1 node outputs, n the network input
    sizes = [math.prod(s) * ACTIVATION_BYTES for s in shapes]
    sizes.append(math.prod(tuple(g.input_shape)) * ACTIVATION_BYTES)
    last_use = [i for i in range(n + 1)]
    last_use[n] = -1
    for i in range(n):
        ps = g.preds[i]
        if not ps:
            last_use[n] = max(last_use[n], i)
        for p in ps:
            last_use[p] = max(last_use[p], i)
    # freed[i]: the bytes of the node outputs before node i whose last
    # consumer is node i, which are live up to and including step i
    freed = [0] * n
    for j in range(n):
        if last_use[j] > j:
            freed[last_use[j]] += sizes[j]
    peak = sizes[n]  # the input buffer alone, before any node runs
    held = 0  # the bytes of the outputs before node i still live at step i
    for i in range(n):
        live = sizes[i] + held
        if last_use[n] >= i:
            live += sizes[n]
        peak = max(peak, live)
        held += (sizes[i] if last_use[i] > i else 0) - freed[i]
    return peak


def check(c: CostEstimate, t: TargetProfile) -> Feasibility:
    """Budget check; violation sums the relative overshoot per resource."""
    violation = 0.0
    for value, limit in (
        (c.ram_bytes, t.ram_max),
        (c.rom_bytes, t.rom_max),
        (c.flops, t.flops_max),
    ):
        if value > limit:
            violation += (value - limit) / limit
    return Feasibility(feasible=violation == 0.0, violation=violation)


def estimate_costs(g: ArchitectureGraph, profile: TargetProfile | None = None) -> CostEstimate:
    overhead = profile.rom_code_overhead if profile is not None else 0
    return CostEstimate(
        flops=count_flops(g),
        rom_bytes=estimate_rom(g, overhead),
        ram_bytes=estimate_ram(g),
    )
