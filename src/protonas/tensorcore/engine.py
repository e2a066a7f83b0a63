"""Double-precision forward/backward engine for architecture graphs.

Runs decoded graphs directly from their LayerSpec nodes on float64
numpy arrays, with archspace/graph.py's kinds and weight shapes.
Convolutions are lowered to matrix products over im2col columns: a row
chunk's kernel-offset windows are copied once into a
(rows, channels, taps, positions) buffer (_columns), and the kernel pair
_conv_fwd/_conv_bwd makes one product per chunk for the output and one
for the weight gradient.  Input gradients are still scattered back one
kernel offset at a time.

One kernel pair serves both convolution kinds.  A convolution reads its
group count from the weight, cin // w.shape[1]: one group for a regular
convolution, one per channel for a depthwise (c, 1, k...) weight.  Every
product is batched over the groups.  Where each group has one output
channel (any depthwise layer), the input gradient's per-offset product
has an inner dimension of 1 and runs as a broadcast multiply: the same
bits, and faster than numpy's matmul over stacks of 1x1 matrices.

The spatial kernels (convolution and max pooling) work through the
batch in row chunks of about _CHUNK_BYTES (_row_chunks):
of column buffer for the convolutions, of padded input for pooling
(max-pool forward pads each chunk into one reused buffer).  A
row whose columns exceed the budget is a chunk of its own.  A batch that
fits, such as any 1-D batch here, is one chunk.  Rows never mix and
every matrix product keeps its per-row shape, so the results are the
same bits as a whole-batch pass.

Backward is reverse-mode over the recorded forward activations.  It
reads only the inputs of weighted nodes (backward_reads), the
ReLU patterns and the max-pool argmaxes; every other node's output shape
comes from the trace.  forward can keep just the outputs a caller names
and drops every other one once its last consumer has run, and backward
drops each array once the last node that reads it has run, so a trace
that nobody else holds is freed as backward goes.
Batchnorm runs in initialization-statistics mode (zero mean, unit
variance, identity affine) and carries no parameters.

Loss is softmax cross-entropy.  Batch rows never mix (batchnorm uses
fixed statistics), so one backward pass yields per-sample gradients:
the loss gradient is seeded per row and every weight/bias gradient keeps
the leading batch axis.  Averaging that axis gives the gradient of the
mean loss over the batch.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from ..archspace.graph import CONV_KINDS, WEIGHTED_KINDS, ArchitectureGraph, windowed_extent
from ..errors import ShapeMismatch

_BN_EPS = 1e-5
_BN_SCALE = 1.0 / math.sqrt(1.0 + _BN_EPS)
# Bytes of im2col columns (convolutions) or padded input (pooling) per
# row chunk of the spatial kernels, so a chunk's buffers stay in cache.
# Budgets from 128 KiB to 2 MiB time within about 20% of each other on
# the default space's layers; whole 8-row batches are 25-60% slower, and
# their columns take 8 times the memory.
_CHUNK_BYTES = 1 << 20


@dataclass
class ParamSet:
    """Per-node weight and bias tensors, keyed by node index."""

    weights: dict[int, np.ndarray]
    biases: dict[int, np.ndarray]

    def count(self) -> int:
        total = sum(w.size for w in self.weights.values())
        return total + sum(b.size for b in self.biases.values())


@dataclass
class ForwardTrace:
    """The kept node outputs, the logits, every ReLU activation pattern
    and max-pool argmax, and every node's output shape (batch axis
    first)."""

    outputs: dict[int, np.ndarray]
    relu_patterns: dict[int, np.ndarray]
    logits: np.ndarray
    pool_argmax: dict[int, np.ndarray] = field(default_factory=dict)
    shapes: list[tuple[int, ...]] = field(default_factory=list)


@dataclass
class GradientRecord:
    """Per-sample loss gradients per parameter tensor.

    Each array has a leading batch axis; row b is the gradient of the
    loss on sample b alone.
    """

    weight_grads: dict[int, np.ndarray]
    bias_grads: dict[int, np.ndarray]


def init_params(g: ArchitectureGraph, rng: np.random.Generator) -> ParamSet:
    """He fan-in normal weights of each node's weight_shape (fan-in: all
    axes but the first), zero biases; draw order is node order."""
    dims = len(g.input_shape) - 1
    weights: dict[int, np.ndarray] = {}
    biases: dict[int, np.ndarray] = {}
    for i, node in enumerate(g.nodes):
        shape = node.weight_shape(dims)
        if shape is None:
            continue
        weights[i] = rng.normal(0.0, math.sqrt(2.0 / math.prod(shape[1:])), size=shape)
        if node.bias:
            biases[i] = np.zeros(node.out_channels)
    return ParamSet(weights, biases)


def _interior(padding: int, spatial: tuple[int, ...]) -> tuple[slice, ...]:
    """Index of the unpadded region inside an array padded by `padding`."""
    return (slice(None), slice(None)) + tuple(slice(padding, padding + n) for n in spatial)


def _pad(x: np.ndarray, padding: int, value: float = 0.0) -> np.ndarray:
    """x with `padding` cells of `value` on both sides of every spatial axis."""
    if padding == 0:
        return x
    shape = x.shape[:2] + tuple(n + 2 * padding for n in x.shape[2:])
    # np.zeros gets pre-zeroed memory, which is faster than filling
    xp = np.zeros(shape, x.dtype) if value == 0.0 else np.full(shape, value, x.dtype)
    xp[_interior(padding, x.shape[2:])] = x
    return xp


def _offsets(kernel: int, dims: int):
    if dims == 1:
        return [(d,) for d in range(kernel)]
    return [(dy, dx) for dy in range(kernel) for dx in range(kernel)]


def _window(xp: np.ndarray, off: tuple[int, ...], stride: int, out_sp: tuple[int, ...]):
    sl = [slice(None), slice(None)]
    for o, n in zip(off, out_sp):
        sl.append(slice(o, o + stride * n, stride))
    return xp[tuple(sl)]


def _row_chunks(rows: int, row_bytes: int) -> list[slice]:
    """Slices over `rows` batch rows of row_bytes each, each slice covering
    at most _CHUNK_BYTES or one row; one slice over the whole batch when it
    fits."""
    step = max(1, _CHUNK_BYTES // max(row_bytes, 1))
    if step >= rows:
        return [slice(None)]
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _columns(xp: np.ndarray, kernel: int, stride: int, out_sp: tuple[int, ...]):
    """Yield (rows, cols) per row chunk of the padded input xp.

    cols has shape (n, c, taps, length): cols[:, :, t] is the window of
    tap t (in _offsets order) flattened over the output positions.  The
    chunks share one buffer of at most _CHUNK_BYTES, or of one row's
    columns if that is larger, so each cols is only valid until the next
    one is yielded.  A 1x1 stride-1 kernel's only window is xp itself,
    which is yielded whole without a copy.
    """
    B, c = xp.shape[:2]
    dims = xp.ndim - 2
    taps = kernel**dims
    length = math.prod(out_sp)
    if kernel == 1 and stride == 1:
        yield slice(None), xp.reshape(B, c, 1, length)
        return
    # a view of every window: [b, ch, *off, *pos] is xp[b, ch, *(off + stride * pos)]
    spatial_strides = xp.strides[2:]
    windows = np.lib.stride_tricks.as_strided(
        xp,
        xp.shape[:2] + (kernel,) * dims + tuple(out_sp),
        xp.strides[:2] + spatial_strides + tuple(s * stride for s in spatial_strides),
        writeable=False,
    )
    chunks = _row_chunks(B, xp.itemsize * c * taps * length)
    buf = np.empty(windows[chunks[0]].shape)
    for rows in chunks:
        win = windows[rows]
        n = len(win)
        np.copyto(buf[:n], win)
        yield rows, buf[:n].reshape(n, c, taps, length)


def _conv_fwd(x, w, b, stride, padding):
    B, cin = x.shape[:2]
    cout, kernel = w.shape[0], w.shape[2]
    groups = cin // w.shape[1]
    dims = x.ndim - 2
    out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in x.shape[2:])
    length = math.prod(out_sp)
    wmat = w.reshape(groups, cout // groups, -1)
    out = np.empty((B, groups, cout // groups, length))
    for rows, cols in _columns(_pad(x, padding), kernel, stride, out_sp):
        np.matmul(wmat, cols.reshape(len(cols), groups, -1, length), out=out[rows])
    out = out.reshape(B, cout, *out_sp)
    if b is not None:
        out += b.reshape((1, cout) + (1,) * dims)
    return out


def _conv_bwd(x, w, dout, stride, padding, want_bias, want_dx=True):
    """Input and per-sample weight and bias gradients; dx is None unless want_dx."""
    B, cin = x.shape[:2]
    cout, kernel = w.shape[0], w.shape[2]
    groups = cin // w.shape[1]
    dims = x.ndim - 2
    xp = _pad(x, padding)
    out_sp = dout.shape[2:]
    length = math.prod(out_sp)
    dflat = dout.reshape(B, groups, cout // groups, length)
    dxp = np.zeros_like(xp) if want_dx else None
    dw = np.empty((B,) + w.shape)
    dw_flat = dw.reshape(B, groups, cout // groups, -1)
    offsets = _offsets(kernel, dims)
    # per offset, the (groups, cin/groups, cout/groups) transposed tap;
    # with one output channel per group its product is a broadcast multiply
    wg = w.reshape(groups, cout // groups, cin // groups, -1)
    taps_t = [wg[..., t].transpose(0, 2, 1) for t in range(len(offsets))]
    tap_product = np.multiply if cout == groups else np.matmul
    buf = None
    for rows, cols in _columns(xp, kernel, stride, out_sp):
        dc = dflat[rows]
        n = len(dc)
        cols_t = cols.reshape(n, groups, -1, length).transpose(0, 1, 3, 2)
        np.matmul(dc, cols_t, out=dw_flat[rows])
        if want_dx:
            # one product per offset: a single (cin*taps, length) product
            # followed by a scatter of its columns was slower
            if buf is None:  # the first chunk is the largest
                buf = np.empty((n, groups, cin // groups, length))
            tmp, dxc = buf[:n], dxp[rows]
            for off, tap_t in zip(offsets, taps_t):
                tap_product(tap_t, dc, out=tmp)
                _window(dxc, off, stride, out_sp)[...] += tmp.reshape(n, cin, *out_sp)
    dx = dxp if padding == 0 or not want_dx else dxp[_interior(padding, x.shape[2:])]
    db = dout.sum(axis=tuple(range(2, dout.ndim))) if want_bias else None
    return dx, dw, db


def _maxpool_fwd(x, kernel, stride, padding):
    dims = x.ndim - 2
    out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in x.shape[2:])
    offsets = _offsets(kernel, dims)
    out = np.empty(x.shape[:2] + out_sp)
    # one byte a cell up to 256 taps: forward's trace holds it until backward
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(len(offsets) - 1))
    # each row chunk is padded into one reused buffer, whose -inf border
    # is written once, rather than padding the whole batch
    padded = x.shape[1:2] + tuple(n + 2 * padding for n in x.shape[2:])
    chunks = _row_chunks(len(x), x.itemsize * math.prod(padded))
    greater = np.empty(out[chunks[0]].shape, dtype=bool)
    xp = np.full((len(greater),) + padded, -np.inf) if padding else None
    for rows in chunks:
        oc, ac = out[rows], arg[rows]
        n = len(oc)
        if padding:
            xc = xp[:n]
            xc[_interior(padding, x.shape[2:])] = x[rows]
        else:
            xc = x[rows]
        gt = greater[:n]
        oc[...] = _window(xc, offsets[0], stride, out_sp)
        for idx, off in enumerate(offsets[1:], start=1):
            win = _window(xc, off, stride, out_sp)
            # strictly greater: ties resolve to the first offset, and
            # maximum(win, out) returns out on a tie, so a tie keeps the
            # first offset's value too
            np.greater(win, oc, out=gt)
            np.putmask(ac, gt, idx)
            np.maximum(win, oc, out=oc)
    return out, arg


def _maxpool_bwd(x_shape, arg, dout, kernel, stride, padding):
    dims = len(x_shape) - 2
    padded = list(x_shape)
    for ax in range(2, len(x_shape)):
        padded[ax] += 2 * padding
    dxp = np.zeros(tuple(padded))
    out_sp = dout.shape[2:]
    offsets = _offsets(kernel, dims)
    chunks = _row_chunks(len(dxp), dxp.itemsize * math.prod(dxp.shape[1:]))
    prod = np.empty(dout[chunks[0]].shape)
    hit = np.empty(prod.shape, dtype=bool)
    for rows in chunks:
        dc, ac, dxc = dout[rows], arg[rows], dxp[rows]
        tmp, h = prod[: len(dc)], hit[: len(dc)]
        for idx, off in enumerate(offsets):
            np.equal(ac, idx, out=h)
            np.multiply(dc, h, out=tmp)
            _window(dxc, off, stride, out_sp)[...] += tmp
    return dxp if padding == 0 else dxp[_interior(padding, x_shape[2:])]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy."""
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(len(labels)), labels]
    return float(np.mean(lse - picked))


def _ce_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row loss gradient w.r.t. the logits.

    Row b is the gradient of sample b's own cross-entropy, so no 1/B
    factor.
    """
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    p[np.arange(len(labels)), labels] -= 1.0
    return p


def _as_batch(g: ArchitectureGraph, batch: np.ndarray) -> np.ndarray:
    x = np.asarray(batch, dtype=float)
    if x.ndim != len(g.input_shape) + 1 or x.shape[1:] != tuple(g.input_shape):
        raise ShapeMismatch(
            f"batch shape {x.shape} does not match input {tuple(g.input_shape)}"
        )
    return x


def backward_reads(g: ArchitectureGraph) -> dict[int, int]:
    """The nodes whose outputs backward reads: the inputs of weighted
    nodes.  Each maps to the first node in node order that reads
    it, which is the last reader to run in backward."""
    reads: dict[int, int] = {}
    for i, node in enumerate(g.nodes):
        if node.kind in WEIGHTED_KINDS and g.preds[i]:
            reads.setdefault(g.preds[i][0], i)
    return reads


def forward(
    g: ArchitectureGraph,
    params: ParamSet,
    batch: np.ndarray,
    keep: Collection[int] | None = None,
) -> ForwardTrace:
    """Run the graph on a batch shaped (B, *input_shape).

    keep names the nodes whose outputs the trace holds; by default it
    holds all of them.  Any other output is dropped as soon as its last
    consumer has run.  The logits, ReLU patterns, max-pool argmaxes and
    output shapes are always recorded.
    """
    x = _as_batch(g, batch)
    outputs: dict[int, np.ndarray] = {}
    relu_patterns: dict[int, np.ndarray] = {}
    pool_argmax: dict[int, np.ndarray] = {}
    shapes: list[tuple[int, ...]] = []
    # drop_after[i]: the unkept outputs whose last consumer is node i
    drop_after: list[list[int]] = [[] for _ in g.nodes]
    if keep is not None:
        keep = set(keep)
        for p, succ in enumerate(g.successors()):
            if p not in keep:
                drop_after[max(succ, default=p)].append(p)
    for i, node in enumerate(g.nodes):
        if any(p >= i for p in g.preds[i]):
            raise ShapeMismatch("node order is not topological")
        ins = [outputs[p] for p in g.preds[i]] or [x]
        a = ins[0]
        kind = node.kind
        if kind in CONV_KINDS:
            out = _conv_fwd(a, params.weights[i], params.biases.get(i), node.stride, node.padding)
        elif kind == "linear":
            flat = a.reshape(len(a), -1)
            out = flat @ params.weights[i].T
            if i in params.biases:
                out = out + params.biases[i]
        elif kind == "relu":
            relu_patterns[i] = a > 0
            out = np.maximum(a, 0.0)
        elif kind == "batchnorm":
            out = a * _BN_SCALE
        elif kind == "maxpool":
            out, pool_argmax[i] = _maxpool_fwd(a, node.kernel, node.stride, node.padding)
        elif kind == "global-avg-pool":
            out = a.mean(axis=tuple(range(2, a.ndim)), keepdims=True)
        elif kind == "add":
            out = ins[0].copy()
            for other in ins[1:]:
                out += other
        elif kind == "concat":
            out = np.concatenate(ins, axis=1)
        else:
            raise ShapeMismatch(f"unknown layer kind '{kind}'")
        outputs[i] = out
        shapes.append(out.shape)
        for p in drop_after[i]:
            del outputs[p]
    return ForwardTrace(
        outputs=outputs,
        relu_patterns=relu_patterns,
        logits=out,
        pool_argmax=pool_argmax,
        shapes=shapes,
    )


def backward(
    g: ArchitectureGraph,
    params: ParamSet,
    batch: np.ndarray,
    labels: np.ndarray,
    trace: ForwardTrace | None = None,
) -> GradientRecord:
    """Per-sample cross-entropy gradients w.r.t. all parameters.

    Every array has a leading batch axis, and row b holds the gradient
    of the loss evaluated on sample b alone; the mean over that axis is
    the gradient of the mean loss over the batch.  trace, when given,
    must be forward(g, params, batch) keeping at least backward_reads(g);
    backward then reuses it instead of running the forward pass again,
    and leaves it intact.  Without a trace, the forward pass keeps only
    what backward reads.
    """
    x = _as_batch(g, batch)
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) != len(x):
        raise ShapeMismatch("labels must be one per batch row")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= g.num_classes:
        raise ShapeMismatch("label outside class range")
    reads = backward_reads(g)
    if trace is None:
        trace = forward(g, params, x, keep=reads)
    elif len(trace.logits) != len(x):
        raise ShapeMismatch("trace was not recorded on this batch")
    elif not reads.keys() <= trace.outputs.keys():
        raise ShapeMismatch("trace does not keep the outputs backward reads")
    # Work from copies of the trace's dicts and let go of the trace: the
    # caller's trace stays intact, and an array that nobody else holds is
    # freed once the last node that reads it has run.
    outputs = {p: trace.outputs[p] for p in reads}
    relu_patterns = dict(trace.relu_patterns)
    pool_argmax = dict(trace.pool_argmax)
    shapes = trace.shapes
    n = len(g.nodes)
    douts: dict[int, np.ndarray] = {n - 1: _ce_grad(trace.logits, labels)}
    del trace
    wgrads: dict[int, np.ndarray] = {}
    bgrads: dict[int, np.ndarray] = {}

    def push(p: int, grad: np.ndarray) -> None:
        if p in douts:
            douts[p] = douts[p] + grad
        else:
            douts[p] = grad

    def node_input(i: int) -> np.ndarray:
        """The input of conv or linear node i, released after its last reader."""
        if not g.preds[i]:
            return x
        p = g.preds[i][0]
        return outputs.pop(p) if reads[p] == i else outputs[p]

    for i in range(n - 1, -1, -1):
        node = g.nodes[i]
        dout = douts.pop(i, None)
        if dout is None:
            continue
        in_shape = shapes[g.preds[i][0]] if g.preds[i] else x.shape
        kind = node.kind
        if kind in CONV_KINDS:
            # a convolution reading the graph input has no input gradient to pass on
            dx, dw, db = _conv_bwd(node_input(i), params.weights[i], dout, node.stride,
                                   node.padding, i in params.biases, want_dx=bool(g.preds[i]))
            wgrads[i] = dw
            if db is not None:
                bgrads[i] = db
        elif kind == "linear":
            flat = node_input(i).reshape(len(x), -1)
            wgrads[i] = dout[:, :, None] * flat[:, None, :]
            if i in params.biases:
                bgrads[i] = dout
            dx = (dout @ params.weights[i]).reshape(in_shape)
        elif kind == "relu":
            dx = dout * relu_patterns.pop(i)
        elif kind == "batchnorm":
            dx = dout * _BN_SCALE
        elif kind == "maxpool":
            dx = _maxpool_bwd(in_shape, pool_argmax.pop(i), dout, node.kernel, node.stride,
                              node.padding)
        elif kind == "global-avg-pool":
            spatial = math.prod(in_shape[2:])
            dx = np.broadcast_to(dout / spatial, in_shape).copy()
        elif kind == "add":
            for p in g.preds[i]:
                push(p, dout)
            continue
        elif kind == "concat":
            start = 0
            for p in g.preds[i]:
                c = shapes[p][1]
                push(p, dout[:, start : start + c])
                start += c
            continue
        else:
            raise ShapeMismatch(f"unknown layer kind '{kind}'")
        if g.preds[i]:
            push(g.preds[i][0], dx)
    return GradientRecord(weight_grads=wgrads, bias_grads=bgrads)
