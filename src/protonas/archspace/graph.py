"""Layer-level architecture graphs.

A graph is a flat list of layer nodes plus a predecessor list.  Nodes
with no predecessors read the network input; exactly one such node may
exist.  Spatial shapes use channels-first layout without the batch axis.

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
    nodes: list[LayerSpec]
    preds: list[list[int]]
    input_shape: tuple[int, ...]
    num_classes: int
    shapes: list[tuple[int, ...]] = field(default_factory=list)

    def successors(self) -> list[list[int]]:
        succ: list[list[int]] = [[] for _ in self.nodes]
        for i, ps in enumerate(self.preds):
            for p in ps:
                if 0 <= p < len(self.nodes):
                    succ[p].append(i)
        return succ

    def input_nodes(self) -> list[int]:
        return [i for i, ps in enumerate(self.preds) if not ps]

    def output_node(self) -> int:
        succ = self.successors()
        sinks = [i for i, s in enumerate(succ) if not s]
        if len(sinks) != 1:
            raise ShapeMismatch(f"graph has {len(sinks)} output nodes, expected 1")
        return sinks[0]

    def infer_shapes(self) -> list[tuple[int, ...]]:
        """Recompute per-node output shapes in node order.

        Node order must be topological (construction guarantees this);
        raises ShapeCollapse if a spatial extent would drop below 1 and
        ShapeMismatch on inconsistent predecessor shapes.
        """
        shapes: list[tuple[int, ...]] = []
        for i, node in enumerate(self.nodes):
            ins = [shapes[p] if p < i else None for p in self.preds[i]]
            if any(s is None for s in ins):
                raise ShapeMismatch(f"node {i}: predecessor computed after the node itself")
            if not ins:
                ins = [tuple(self.input_shape)]
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


def _find_cycle(preds: list[list[int]]) -> bool:
    n = len(preds)
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done
    for start in range(n):
        if state[start]:
            continue
        stack = [(start, 0)]
        state[start] = 1
        while stack:
            node, idx = stack[-1]
            if idx < len(preds[node]):
                stack[-1] = (node, idx + 1)
                p = preds[node][idx]
                if 0 <= p < n:
                    if state[p] == 1:
                        return True
                    if state[p] == 0:
                        state[p] = 1
                        stack.append((p, 0))
            else:
                state[node] = 2
                stack.pop()
    return False


def validate(g: ArchitectureGraph) -> list[str]:
    """Structural and shape checks; returns a list of violation strings."""
    out: list[str] = []
    n = len(g.nodes)
    if n == 0:
        return ["graph is empty"]
    for i, node in enumerate(g.nodes):
        if node.kind not in LAYER_KINDS:
            out.append(f"node {i}: unknown kind '{node.kind}'")
        if node.in_channels < 1 or node.out_channels < 1:
            out.append(f"node {i}: channel count below 1")
        if node.kind in CONV_KINDS and node.kernel % 2 == 0:
            out.append(f"node {i}: even kernel {node.kernel}")
        if node.stride not in (1, 2):
            out.append(f"node {i}: stride {node.stride} outside {{1, 2}}")
        for p in g.preds[i]:
            if not (0 <= p < n):
                out.append(f"node {i}: dangling edge to {p}")
    if out:
        return out
    if _find_cycle(g.preds):
        return ["graph is not acyclic"]
    inputs = g.input_nodes()
    if len(inputs) != 1:
        out.append(f"graph has {len(inputs)} input nodes, expected 1")
    succ = g.successors()
    sinks = [i for i, s in enumerate(succ) if not s]
    if len(sinks) != 1:
        out.append(f"graph has {len(sinks)} output nodes, expected 1")
    # Shape pass: needs node order to be topological.
    order_ok = all(all(p < i for p in ps) for i, ps in enumerate(g.preds))
    if not order_ok:
        out.append("node order is not topological")
        return out
    shapes: list[tuple[int, ...]] = []
    for i, node in enumerate(g.nodes):
        ins = [shapes[p] for p in g.preds[i]] or [tuple(g.input_shape)]
        if node.kind in WEIGHTED_KINDS:
            expect = input_count(node.kind, ins[0])
            if node.in_channels != expect:
                out.append(
                    f"node {i}: channel mismatch (declares {node.in_channels}, gets {expect})"
                )
        if node.kind == "depthwise-conv" and node.out_channels != node.in_channels:
            out.append(f"node {i}: depthwise out {node.out_channels} != in {node.in_channels}")
        if node.kind == "add" and len(g.preds[i]) < 2:
            out.append(f"node {i}: add needs at least two inputs")
        try:
            shapes.append(layer_out_shape(node, ins))
        except (ShapeMismatch, ShapeCollapse) as exc:
            out.append(f"node {i}: {exc}")
            return out
    final = g.nodes[sinks[0]] if len(sinks) == 1 else None
    if final is not None and final.kind == "linear" and final.out_channels != g.num_classes:
        out.append(f"classifier emits {final.out_channels} logits for {g.num_classes} classes")
    return out

