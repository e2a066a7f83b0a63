"""Layer-level architecture graphs.

A graph is a flat list of layer nodes plus a predecessor list.  Nodes
with no predecessors read the network input; exactly one such node may
exist.  Spatial shapes use channels-first layout without the batch axis.
A graph is made with every node's output shape: its one shape pass runs
when it is made, and pruning, the cost model and the engine read
ArchitectureGraph.shapes.

The per-kind rules live here, and decode, pruning, the cost model, the
engine and zico read them: weights (WEIGHTED_KINDS, LayerSpec.weight_shape),
inputs read (input_count) and output shapes (layer_out_shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ShapeCollapse, ShapeMismatch

LAYER_KINDS = (
    "conv",
    "depthwise-conv",
    "linear",
    "relu",
    "batchnorm",
    "maxpool",
    "global-avg-pool",
    "add",
    "concat",
)

CONV_KINDS = ("conv", "depthwise-conv")
# Kinds that carry a weight tensor (shaped by LayerSpec.weight_shape) and,
# when their bias flag is set, one bias per output channel.
WEIGHTED_KINDS = CONV_KINDS + ("linear",)
# Kinds that slide a kernel window over the spatial axes.
WINDOWED_KINDS = CONV_KINDS + ("maxpool",)

# Kinds that neither create nor mix channels; pruning walks through them
# when it looks for the node that decides a tensor's channel count.
PASSTHROUGH_KINDS = ("relu", "batchnorm", "maxpool", "global-avg-pool", "depthwise-conv")


def input_count(kind: str, in_shape: tuple[int, ...]) -> int:
    """The in_channels of a `kind` node reading a tensor of in_shape: every
    element for linear (it flattens its input), the channel count otherwise."""
    return math.prod(in_shape) if kind == "linear" else in_shape[0]


@dataclass
class LayerSpec:
    """One node of an architecture graph.

    kernel/stride/padding only apply to windowed kinds; group marks
    which backbone group the node belongs to (None for stem and
    classifier); block_output tags each superblock's final node.
    """

    kind: str
    in_channels: int = 1
    out_channels: int = 1
    kernel: int = 1
    stride: int = 1
    padding: int = 0
    bias: bool = False
    group: int | None = None
    block_output: bool = False
    name: str = ""

    def weight_shape(self, dims: int) -> tuple[int, ...] | None:
        """(out, in) for linear; (out, inputs per group, k...) over `dims`
        spatial axes for a convolution, with one input per group for
        depthwise; None for kinds without weights."""
        if self.kind == "linear":
            return (self.out_channels, self.in_channels)
        if self.kind not in CONV_KINDS:
            return None
        group_inputs = 1 if self.kind == "depthwise-conv" else self.in_channels
        return (self.out_channels, group_inputs) + (self.kernel,) * dims


@dataclass
class ArchitectureGraph:
    """Layer nodes, each node's predecessors, and each node's output shape.

    Made without shapes, the graph runs its shape pass (infer_shapes);
    shapes given to it, as decode's builder gives them, are taken as that
    pass's result.
    """

    nodes: list[LayerSpec]
    preds: list[list[int]]
    input_shape: tuple[int, ...]
    num_classes: int
    shapes: list[tuple[int, ...]] = field(default_factory=list)

    def __post_init__(self):
        if not self.shapes:
            self.infer_shapes()

    def successors(self) -> list[list[int]]:
        succ: list[list[int]] = [[] for _ in self.nodes]
        for i, ps in enumerate(self.preds):
            for p in ps:
                succ[p].append(i)
        return succ

    def infer_shapes(self) -> list[tuple[int, ...]]:
        """Compute every node's output shape in node order into self.shapes.

        The one check of node order: ShapeMismatch unless every
        predecessor is an earlier node (0 <= p < i).  Raises ShapeCollapse
        if a spatial extent would drop below 1 and ShapeMismatch on
        inconsistent predecessor shapes.
        """
        shapes: list[tuple[int, ...]] = []
        for i, node in enumerate(self.nodes):
            if not all(0 <= p < i for p in self.preds[i]):
                raise ShapeMismatch(f"node {i}: a predecessor is not an earlier node")
            ins = [shapes[p] for p in self.preds[i]] or [tuple(self.input_shape)]
            shapes.append(layer_out_shape(node, ins))
        self.shapes = shapes
        return shapes


def windowed_extent(n: int, kernel: int, stride: int, padding: int) -> int:
    """Output extent of a window sliding over n cells; below 1 when the
    window does not fit."""
    return (n + 2 * padding - kernel) // stride + 1


def layer_out_shape(node: LayerSpec, in_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Output shape of one node given its predecessors' output shapes."""
    kind = node.kind
    first = in_shapes[0]
    if kind in WINDOWED_KINDS:
        sp = tuple(windowed_extent(n, node.kernel, node.stride, node.padding) for n in first[1:])
        for n, m in zip(first[1:], sp):
            if m < 1:
                raise ShapeCollapse(
                    f"spatial extent {n} collapses under kernel {node.kernel} stride {node.stride}"
                )
        return (node.out_channels if kind == "conv" else first[0],) + sp
    if kind in ("relu", "batchnorm"):
        return first
    if kind == "global-avg-pool":
        return (first[0],) + (1,) * (len(first) - 1)
    if kind == "linear":
        return (node.out_channels,)
    if kind == "add":
        for s in in_shapes[1:]:
            if s != first:
                raise ShapeMismatch(f"add inputs disagree: {first} vs {s}")
        return first
    if kind == "concat":
        for s in in_shapes[1:]:
            if s[1:] != first[1:]:
                raise ShapeMismatch(f"concat spatial extents disagree: {first} vs {s}")
        return (sum(s[0] for s in in_shapes),) + first[1:]
    raise ShapeMismatch(f"unknown layer kind '{kind}'")

