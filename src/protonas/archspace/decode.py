"""Gene decoding and static channel pruning.

decode() turns a hyperparameter vector into a concrete layer graph:
stem, four groups of (1 + depth) superblocks, classifier.  Within a
group the stride gene applies to the first superblock only; remaining
blocks run at stride 1.  Convolutions use same-style padding (k // 2),
so spatial extents never collapse; the stride clamp below is defensive.

apply_static_pruning() shrinks the regular convolutions of each group
by the group's sparsity gene and re-equalizes residual endpoints to the
minimum of their coupled channel counts.
"""

from __future__ import annotations

import copy
import math

from ..errors import ConfigError, ShapeMismatch
from .graph import ArchitectureGraph, LayerSpec, PASSTHROUGH_KINDS, layer_out_shape
from .space import HyperparamVector, SearchSpaceDef, TaskSpec
from .templates import BaselineTemplate, eval_channel_expr, load_templates


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


def _resolve(value, ctx: dict) -> int:
    if value == "K":
        return ctx["kernel"]
    if value == "S":
        return ctx["stride"]
    return int(value)


def _clamped_stride(in_shape: tuple[int, ...], kernel: int, stride: int, padding: int) -> int:
    if stride == 1:
        return 1
    for n in in_shape[1:]:
        if (n + 2 * padding - kernel) // stride + 1 < 1:
            return 1
    return stride


def _make_layer(b: _Builder, entry: int, layer: dict, ctx: dict) -> int:
    op = layer["op"]
    in_shape = b.shape_of(entry)
    cin = in_shape[0]
    group = ctx.get("group")
    if op == "conv":
        raw = eval_channel_expr(layer["out"], ctx["base_channels"])
        cout = scaled_channels(raw, ctx["width"])
        k = _resolve(layer.get("kernel", 1), ctx)
        s = _resolve(layer.get("stride", 1), ctx)
        pad = k // 2
        spec = LayerSpec(
            "conv", cin, cout, kernel=k, stride=_clamped_stride(in_shape, k, s, pad),
            padding=pad, bias=True, group=group,
        )
    elif op == "depthwise-conv":
        k = _resolve(layer.get("kernel", 1), ctx)
        s = _resolve(layer.get("stride", 1), ctx)
        pad = k // 2
        spec = LayerSpec(
            "depthwise-conv", cin, cin, kernel=k, stride=_clamped_stride(in_shape, k, s, pad),
            padding=pad, bias=True, group=group,
        )
    elif op == "maxpool":
        k = _resolve(layer.get("kernel", 1), ctx)
        s = _resolve(layer.get("stride", 1), ctx)
        pad = k // 2
        spec = LayerSpec(
            "maxpool", cin, cin, kernel=k, stride=_clamped_stride(in_shape, k, s, pad),
            padding=pad, group=group,
        )
    elif op in ("relu", "batchnorm"):
        spec = LayerSpec(op, cin, cin, group=group)
    elif op == "global-avg-pool":
        spec = LayerSpec(op, cin, cin, group=group)
    elif op == "linear":
        feat = 1
        for v in in_shape:
            feat *= v
        spec = LayerSpec("linear", feat, b.num_classes, bias=True, group=group)
    else:
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


def _strip_bias_before_batchnorm(b: _Builder) -> None:
    # A bias feeding straight into batchnorm is redundant at inference.
    succ: list[list[int]] = [[] for _ in b.nodes]
    for i, ps in enumerate(b.preds):
        for p in ps:
            succ[p].append(i)
    for i, node in enumerate(b.nodes):
        if node.bias and len(succ[i]) == 1 and b.nodes[succ[i][0]].kind == "batchnorm":
            node.bias = False


def decode(
    x: HyperparamVector,
    space: SearchSpaceDef,
    task: TaskSpec,
    templates: dict[str, BaselineTemplate] | None = None,
) -> ArchitectureGraph:
    """Instantiate the backbone described by a hyperparameter vector.

    Deterministic and side-effect free: equal inputs yield equal graphs.
    Raises ConfigError for genes outside the space or a template whose
    dimensionality disagrees with the task.
    """
    if templates is None:
        templates = load_templates()
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
    for g in range(space.group_count):
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

    _strip_bias_before_batchnorm(b)
    graph = ArchitectureGraph(b.nodes, b.preds, tuple(task.input_shape), task.num_classes)
    graph.infer_shapes()
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


def apply_static_pruning(g: ArchitectureGraph, sparsity) -> ArchitectureGraph:
    """Shrink each group's regular convolutions by its sparsity gene.

    Every pruned width is max(1, c - floor(s * c)).  Residual-add
    endpoints coupled through identity skips are then re-equalized to
    the minimum width of their coupled group, and channel counts are
    re-propagated downstream.  Pure: returns a new graph.
    """
    sparsity = tuple(float(s) for s in sparsity)
    if len(sparsity) != 4:
        raise ConfigError("expected four per-group sparsities")
    if any(not (0.0 <= s < 1.0) for s in sparsity):
        raise ConfigError("sparsities must lie in [0, 1)")
    # LayerSpec holds only scalars, so a shallow copy per node suffices
    h = ArchitectureGraph(
        [copy.copy(node) for node in g.nodes],
        [list(p) for p in g.preds],
        g.input_shape,
        g.num_classes,
        list(g.shapes),
    )
    for node in h.nodes:
        if node.kind == "conv" and node.group is not None:
            c = node.out_channels
            node.out_channels = max(1, c - math.floor(sparsity[node.group] * c))

    _equalize_add_endpoints(h)
    _propagate_channels(h)
    h.infer_shapes()
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


def _propagate_channels(h: ArchitectureGraph) -> None:
    ch: list[int] = []
    for i, node in enumerate(h.nodes):
        ins = [ch[p] for p in h.preds[i]] or [h.input_shape[0]]
        cin = ins[0]
        if node.kind == "conv":
            node.in_channels = cin
        elif node.kind == "depthwise-conv":
            node.in_channels = cin
            node.out_channels = cin
        elif node.kind == "linear":
            node.in_channels = cin  # classifier input is pooled to 1 spatially
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
