"""Gene decoding and static channel pruning.

decode() turns a hyperparameter vector into a concrete layer graph:
stem, four groups of (1 + depth) superblocks, classifier.  Within a
group the stride gene applies to the first superblock only; remaining
blocks run at stride 1.  Convolutions use same-style padding (k // 2),
so spatial extents never collapse.

apply_static_pruning() shrinks the regular convolutions of each group
by the group's sparsity gene, re-equalizes residual endpoints to the
minimum of their coupled channel counts, and then reads every node's
channel counts off one shape pass (ArchitectureGraph.infer_shapes).
"""

from __future__ import annotations

import math

from ..errors import ConfigError, ShapeMismatch
from .graph import PASSTHROUGH_KINDS, WEIGHTED_KINDS, WINDOWED_KINDS, ArchitectureGraph, LayerSpec
from .graph import input_count, layer_out_shape
from .space import GROUP_COUNT, HyperparamVector, SearchSpaceDef, TaskSpec
from .templates import BaselineTemplate, eval_channel_expr


def scaled_channels(raw: int, width: float) -> int:
    """Width-scaled channel count: max(4, round-half-up(width * raw))."""
    return max(4, int(math.floor(width * raw + 0.5)))


class _Builder:
    """Accumulates nodes while tracking output shapes incrementally."""

    def __init__(self, input_shape: tuple[int, ...], num_classes: int):
        self.nodes: list[LayerSpec] = []
        self.preds: list[list[int]] = []
        self.shapes: list[tuple[int, ...]] = []
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes

    def shape_of(self, node_id: int) -> tuple[int, ...]:
        return self.input_shape if node_id < 0 else self.shapes[node_id]

    def add(self, spec: LayerSpec, pred_ids: list[int]) -> int:
        ins = [self.shape_of(p) for p in pred_ids] or [self.input_shape]
        self.nodes.append(spec)
        self.preds.append([p for p in pred_ids if p >= 0])
        self.shapes.append(layer_out_shape(spec, ins))
        return len(self.nodes) - 1


def _gene_or_literal(value, ctx: dict) -> int:
    if value == "K":
        return ctx["kernel"]
    if value == "S":
        return ctx["stride"]
    return int(value)


def _make_layer(b: _Builder, entry: int, layer: dict, ctx: dict) -> int:
    op = layer["op"]
    cin = input_count(op, b.shape_of(entry))
    spec = LayerSpec(op, cin, cin, bias=op in WEIGHTED_KINDS, group=ctx.get("group"))
    if op in WINDOWED_KINDS:
        k = _gene_or_literal(layer.get("kernel", 1), ctx)
        spec.kernel, spec.padding = k, k // 2
        spec.stride = _gene_or_literal(layer.get("stride", 1), ctx)
        if op == "conv":
            raw = eval_channel_expr(layer["out"], ctx["base_channels"])
            spec.out_channels = scaled_channels(raw, ctx["width"])
    elif op == "linear":
        spec.out_channels = b.num_classes
    elif op not in ("relu", "batchnorm", "global-avg-pool"):
        raise ConfigError(f"cannot instantiate op '{op}'")
    return b.add(spec, [entry])


def _project(b: _Builder, end: int, target: tuple[int, ...], ctx: dict) -> int:
    """1x1 projection used when a skip path disagrees with the body."""
    sh = b.shape_of(end)
    stride = 1 if sh[1:] == target[1:] else 2
    spec = LayerSpec(
        "conv", sh[0], target[0], kernel=1, stride=stride, padding=0,
        bias=True, group=ctx.get("group"), name="proj",
    )
    nid = b.add(spec, [end])
    if b.shape_of(nid) != target:
        raise ShapeMismatch(f"projection cannot reconcile {sh} with {target}")
    return nid


def _build_pattern(b: _Builder, pattern, entry: int, ctx: dict) -> int:
    node = entry
    for layer in pattern:
        if layer["op"] == "branch":
            node = _build_branch(b, layer, node, ctx)
        else:
            node = _make_layer(b, node, layer, ctx)
    return node


def _build_branch(b: _Builder, layer: dict, entry: int, ctx: dict) -> int:
    ends = [_build_pattern(b, br, entry, ctx) for br in layer["branches"]]
    group = ctx.get("group")
    if layer["merge"] == "concat":
        shapes = [b.shape_of(e) for e in ends]
        spec = LayerSpec(
            "concat", shapes[0][0], sum(s[0] for s in shapes), group=group,
        )
        return b.add(spec, ends)
    # add: the first branch fixes the target shape; other branches get a
    # projection when their shape disagrees (identity skips around a
    # strided or channel-changing body).
    target = b.shape_of(ends[0])
    joined = [
        e if b.shape_of(e) == target else _project(b, e, target, ctx) for e in ends
    ]
    spec = LayerSpec("add", target[0], target[0], group=group)
    return b.add(spec, joined)


def decode(
    x: HyperparamVector,
    space: SearchSpaceDef,
    task: TaskSpec,
    templates: dict[str, BaselineTemplate],
) -> ArchitectureGraph:
    """Instantiate the backbone described by a hyperparameter vector.

    Deterministic and side-effect free: equal inputs yield equal graphs.
    Raises ConfigError for genes outside the space or a template whose
    dimensionality disagrees with the task.
    """
    if not x.in_space(space):
        raise ConfigError("hyperparameter vector lies outside the search space")
    tid = space.baseline_pool[x.architecture]
    if tid not in templates:
        raise ConfigError(f"baseline '{tid}' not in template catalog")
    tpl = templates[tid]
    if tpl.dimensionality != task.dimensionality:
        raise ConfigError(
            f"template '{tid}' is {tpl.dimensionality}d but the task input is "
            f"{task.dimensionality}d"
        )

    b = _Builder(task.input_shape, task.num_classes)
    stem_ctx = {"base_channels": 1, "width": x.width_multiplier, "kernel": 1, "stride": 1}
    node = _build_pattern(b, tpl.stem, -1, stem_ctx)
    for g in range(GROUP_COUNT):
        kernel, stride = space.kernel_stride_values[x.kernel_stride[g]]
        for blk in range(1 + x.group_depth[g]):
            ctx = {
                "base_channels": tpl.group_channels[g],
                "width": x.width_multiplier,
                "kernel": kernel,
                "stride": stride if blk == 0 else 1,
                "group": g,
            }
            node = _build_pattern(b, tpl.superblock, node, ctx)
            b.nodes[node].block_output = True
    node = _build_pattern(b, tpl.classifier, node, stem_ctx)

    graph = ArchitectureGraph(b.nodes, b.preds, b.input_shape, task.num_classes, b.shapes)
    # A bias feeding straight into batchnorm is redundant at inference.
    for node, succ in zip(graph.nodes, graph.successors()):
        if node.bias and len(succ) == 1 and graph.nodes[succ[0]].kind == "batchnorm":
            node.bias = False
    return graph


def _channel_driver(h: ArchitectureGraph, i: int) -> int:
    """Index of the node that decides the channel count seen at node i.

    Walks backwards through channel-preserving kinds; -1 denotes the
    graph input.
    """
    while i >= 0 and h.nodes[i].kind in PASSTHROUGH_KINDS:
        preds = h.preds[i]
        if not preds:
            return -1
        i = preds[0]
    return i


def _copy(node: LayerSpec) -> LayerSpec:
    """A shallow copy, which suffices as LayerSpec holds only scalars:
    copy.copy's result, without its protocol lookups."""
    twin = object.__new__(LayerSpec)
    twin.__dict__.update(node.__dict__)
    return twin


def apply_static_pruning(g: ArchitectureGraph, sparsity) -> ArchitectureGraph:
    """Shrink each group's regular convolutions by its sparsity gene.

    Every pruned width is max(1, c - floor(s * c)).  Residual-add
    endpoints coupled through identity skips are then re-equalized to
    the minimum width of their coupled group.  One shape pass over the
    result then gives every node its in/out counts: out_channels is its
    output's channel count, in_channels is input_count of its first
    input (every element of it for a linear layer).  Pure: returns a
    new graph.
    """
    sparsity = tuple(float(s) for s in sparsity)
    if len(sparsity) != 4:
        raise ConfigError("expected four per-group sparsities")
    if any(not (0.0 <= s < 1.0) for s in sparsity):
        raise ConfigError("sparsities must lie in [0, 1)")
    # the shape pass below gives h its shapes
    h = ArchitectureGraph([_copy(node) for node in g.nodes], [list(p) for p in g.preds],
                          g.input_shape, g.num_classes)
    for node in h.nodes:
        if node.kind == "conv" and node.group is not None:
            c = node.out_channels
            node.out_channels = max(1, c - math.floor(sparsity[node.group] * c))

    _equalize_add_endpoints(h)
    shapes = h.infer_shapes()
    for node, preds, shape in zip(h.nodes, h.preds, shapes):
        node.in_channels = input_count(node.kind, shapes[preds[0]] if preds else h.input_shape)
        node.out_channels = shape[0]
    return h


def _equalize_add_endpoints(h: ArchitectureGraph) -> None:
    n = len(h.nodes)
    parent = list(range(n + 1))  # slot n stands for the graph input

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    def slot(i: int) -> int:
        return n if i < 0 else i

    for i, node in enumerate(h.nodes):
        if node.kind == "add":
            for p in h.preds[i]:
                union(slot(i), slot(_channel_driver(h, p)))

    classes: dict[int, list[int]] = {}
    for i in range(n + 1):
        classes.setdefault(find(i), []).append(i)
    for members in classes.values():
        if not any(m < n and h.nodes[m].kind == "add" for m in members):
            continue
        convs = [m for m in members if m < n and h.nodes[m].kind == "conv"]
        if not convs:
            raise ShapeMismatch("residual join has no adjustable channel source")
        target = min(h.nodes[m].out_channels for m in convs)
        for m in convs:
            h.nodes[m].out_channels = target
