"""Double-precision forward/backward engine for architecture graphs.

Runs decoded graphs directly from their LayerSpec nodes on float64
numpy arrays; convolutions are computed as direct shifted products (no
im2col buffers or FFT), which keeps the arithmetic order obvious and
the memory profile flat.  Backward is reverse-mode over the recorded
forward activations.  Batchnorm runs in initialization-statistics mode
(zero mean, unit variance, identity affine) and carries no parameters.

Loss is softmax cross-entropy.  Batch rows never mix (batchnorm uses
fixed statistics), so one backward pass yields per-sample gradients:
the loss gradient is seeded per row and every weight/bias gradient keeps
the leading batch axis.  Averaging that axis gives the gradient of the
mean loss over the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..archspace.graph import ArchitectureGraph
from ..errors import ShapeMismatch

_BN_EPS = 1e-5
_BN_SCALE = 1.0 / math.sqrt(1.0 + _BN_EPS)


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
    """All node outputs plus the ReLU activation patterns."""

    outputs: dict[int, np.ndarray]
    relu_patterns: dict[int, np.ndarray]
    logits: np.ndarray
    pool_argmax: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class GradientRecord:
    """Per-sample loss gradients per parameter tensor.

    Each array has a leading batch axis; row b is the gradient of the
    loss on sample b alone.
    """

    weight_grads: dict[int, np.ndarray]
    bias_grads: dict[int, np.ndarray]


def init_params(g: ArchitectureGraph, rng: np.random.Generator) -> ParamSet:
    """He fan-in normal weights, zero biases; draw order is node order."""
    dims = len(g.input_shape) - 1
    weights: dict[int, np.ndarray] = {}
    biases: dict[int, np.ndarray] = {}
    for i, node in enumerate(g.nodes):
        if node.kind == "conv":
            shape = (node.out_channels, node.in_channels) + (node.kernel,) * dims
            fan_in = node.in_channels * node.kernel ** dims
        elif node.kind == "depthwise-conv":
            shape = (node.out_channels, 1) + (node.kernel,) * dims
            fan_in = node.kernel ** dims
        elif node.kind == "linear":
            shape = (node.out_channels, node.in_channels)
            fan_in = node.in_channels
        else:
            continue
        weights[i] = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)
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


def _out_extent(n: int, kernel: int, stride: int, padding: int) -> int:
    return (n + 2 * padding - kernel) // stride + 1


def _offsets(kernel: int, dims: int):
    if dims == 1:
        return [(d,) for d in range(kernel)]
    return [(dy, dx) for dy in range(kernel) for dx in range(kernel)]


def _window(xp: np.ndarray, off: tuple[int, ...], stride: int, out_sp: tuple[int, ...]):
    sl = [slice(None), slice(None)]
    for o, n in zip(off, out_sp):
        sl.append(slice(o, o + stride * n, stride))
    return xp[tuple(sl)]


def _conv_fwd(x, w, b, stride, padding):
    B, cin = x.shape[:2]
    cout, _, kernel = w.shape[0], w.shape[1], w.shape[2]
    dims = x.ndim - 2
    xp = _pad(x, padding)
    out_sp = tuple(_out_extent(n, kernel, stride, padding) for n in x.shape[2:])
    length = math.prod(out_sp)
    acc = np.zeros((B, cout, length))
    for off in _offsets(kernel, dims):
        patch = _window(xp, off, stride, out_sp).reshape(B, cin, length)
        acc += w[(slice(None), slice(None), *off)] @ patch
    out = acc.reshape(B, cout, *out_sp)
    if b is not None:
        out += b.reshape((1, cout) + (1,) * dims)
    return out


def _conv_bwd(x, w, dout, stride, padding, want_bias, want_dx=True):
    """Input and per-sample weight and bias gradients; dx is None unless want_dx."""
    B, cin = x.shape[:2]
    cout, kernel = w.shape[0], w.shape[2]
    dims = x.ndim - 2
    xp = _pad(x, padding)
    out_sp = dout.shape[2:]
    length = math.prod(out_sp)
    dflat = dout.reshape(B, cout, length)
    dxp = np.zeros_like(xp) if want_dx else None
    dw = np.zeros((B,) + w.shape)
    for off in _offsets(kernel, dims):
        patch = _window(xp, off, stride, out_sp).reshape(B, cin, length)
        dw[(slice(None),) * 3 + off] = dflat @ patch.transpose(0, 2, 1)
        if want_dx:
            dpatch = (w[(slice(None), slice(None), *off)].T @ dflat).reshape(B, cin, *out_sp)
            _window(dxp, off, stride, out_sp)[...] += dpatch
    dx = dxp if padding == 0 or not want_dx else dxp[_interior(padding, x.shape[2:])]
    db = dout.sum(axis=tuple(range(2, dout.ndim))) if want_bias else None
    return dx, dw, db


def _dwconv_fwd(x, w, b, stride, padding):
    B, c = x.shape[:2]
    kernel = w.shape[2]
    dims = x.ndim - 2
    xp = _pad(x, padding)
    out_sp = tuple(_out_extent(n, kernel, stride, padding) for n in x.shape[2:])
    out = np.zeros((B, c) + out_sp)
    for off in _offsets(kernel, dims):
        coeff = w[(slice(None), 0, *off)].reshape((1, c) + (1,) * dims)
        out += _window(xp, off, stride, out_sp) * coeff
    if b is not None:
        out += b.reshape((1, c) + (1,) * dims)
    return out


def _dwconv_bwd(x, w, dout, stride, padding, want_bias):
    """Input and per-sample weight and bias gradients."""
    B, c = x.shape[:2]
    kernel = w.shape[2]
    dims = x.ndim - 2
    xp = _pad(x, padding)
    out_sp = dout.shape[2:]
    dxp = np.zeros_like(xp)
    dw = np.zeros((B,) + w.shape)
    spatial = tuple(range(2, dout.ndim))
    for off in _offsets(kernel, dims):
        patch = _window(xp, off, stride, out_sp)
        dw[(slice(None), slice(None), 0) + off] = (dout * patch).sum(axis=spatial)
        coeff = w[(slice(None), 0, *off)].reshape((1, c) + (1,) * dims)
        _window(dxp, off, stride, out_sp)[...] += dout * coeff
    dx = dxp if padding == 0 else dxp[_interior(padding, x.shape[2:])]
    db = dout.sum(axis=spatial) if want_bias else None
    return dx, dw, db


def _maxpool_fwd(x, kernel, stride, padding):
    dims = x.ndim - 2
    xp = _pad(x, padding, value=-np.inf)
    out_sp = tuple(_out_extent(n, kernel, stride, padding) for n in x.shape[2:])
    stack = np.stack(
        [_window(xp, off, stride, out_sp) for off in _offsets(kernel, dims)], axis=0
    )
    arg = stack.argmax(axis=0)  # ties resolve to the first offset
    out = np.take_along_axis(stack, arg[None], axis=0)[0]
    return out, arg


def _maxpool_bwd(x_shape, arg, dout, kernel, stride, padding):
    dims = len(x_shape) - 2
    padded = list(x_shape)
    for ax in range(2, len(x_shape)):
        padded[ax] += 2 * padding
    dxp = np.zeros(tuple(padded))
    out_sp = dout.shape[2:]
    for idx, off in enumerate(_offsets(kernel, dims)):
        _window(dxp, off, stride, out_sp)[...] += dout * (arg == idx)
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


def forward(g: ArchitectureGraph, params: ParamSet, batch: np.ndarray) -> ForwardTrace:
    """Run the graph on a batch shaped (B, *input_shape)."""
    x = _as_batch(g, batch)
    outputs: dict[int, np.ndarray] = {}
    relu_patterns: dict[int, np.ndarray] = {}
    pool_argmax: dict[int, np.ndarray] = {}
    last = 0
    for i, node in enumerate(g.nodes):
        if any(p >= i for p in g.preds[i]):
            raise ShapeMismatch("node order is not topological")
        ins = [outputs[p] for p in g.preds[i]] or [x]
        a = ins[0]
        kind = node.kind
        if kind == "conv":
            out = _conv_fwd(a, params.weights[i], params.biases.get(i), node.stride, node.padding)
        elif kind == "depthwise-conv":
            out = _dwconv_fwd(a, params.weights[i], params.biases.get(i), node.stride, node.padding)
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
            out, arg = _maxpool_fwd(a, node.kernel, node.stride, node.padding)
            pool_argmax[i] = arg
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
        last = i
    return ForwardTrace(
        outputs=outputs,
        relu_patterns=relu_patterns,
        logits=outputs[last],
        pool_argmax=pool_argmax,
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
    must be forward(g, params, batch); backward then reuses it instead
    of running the forward pass again.
    """
    x = _as_batch(g, batch)
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) != len(x):
        raise ShapeMismatch("labels must be one per batch row")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= g.num_classes:
        raise ShapeMismatch("label outside class range")
    if trace is None:
        trace = forward(g, params, x)
    elif len(trace.logits) != len(x):
        raise ShapeMismatch("trace was not recorded on this batch")
    n = len(g.nodes)
    douts: dict[int, np.ndarray] = {n - 1: _ce_grad(trace.logits, labels)}
    wgrads: dict[int, np.ndarray] = {}
    bgrads: dict[int, np.ndarray] = {}

    def push(p: int, grad: np.ndarray) -> None:
        if p in douts:
            douts[p] = douts[p] + grad
        else:
            douts[p] = grad

    for i in range(n - 1, -1, -1):
        node = g.nodes[i]
        dout = douts.pop(i, None)
        if dout is None:
            continue
        ins = [trace.outputs[p] for p in g.preds[i]] or [x]
        a = ins[0]
        kind = node.kind
        if kind == "conv":
            # a conv reading the graph input has no input gradient to pass on
            dx, dw, db = _conv_bwd(a, params.weights[i], dout, node.stride, node.padding,
                                   i in params.biases, want_dx=bool(g.preds[i]))
            wgrads[i] = dw
            if db is not None:
                bgrads[i] = db
        elif kind == "depthwise-conv":
            dx, dw, db = _dwconv_bwd(a, params.weights[i], dout, node.stride, node.padding,
                                     i in params.biases)
            wgrads[i] = dw
            if db is not None:
                bgrads[i] = db
        elif kind == "linear":
            flat = a.reshape(len(a), -1)
            wgrads[i] = dout[:, :, None] * flat[:, None, :]
            if i in params.biases:
                bgrads[i] = dout
            dx = (dout @ params.weights[i]).reshape(a.shape)
        elif kind == "relu":
            dx = dout * trace.relu_patterns[i]
        elif kind == "batchnorm":
            dx = dout * _BN_SCALE
        elif kind == "maxpool":
            dx = _maxpool_bwd(a.shape, trace.pool_argmax[i], dout, node.kernel, node.stride, node.padding)
        elif kind == "global-avg-pool":
            spatial = math.prod(a.shape[2:])
            dx = np.broadcast_to(dout / spatial, a.shape).copy()
        elif kind == "add":
            for p in g.preds[i]:
                push(p, dout)
            continue
        elif kind == "concat":
            start = 0
            for p in g.preds[i]:
                c = trace.outputs[p].shape[1]
                push(p, dout[:, start : start + c])
                start += c
            continue
        else:
            raise ShapeMismatch(f"unknown layer kind '{kind}'")
        if g.preds[i]:
            push(g.preds[i][0], dx)
    return GradientRecord(weight_grads=wgrads, bias_grads=bgrads)
