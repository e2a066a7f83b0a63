"""Double-precision forward/backward engine for architecture graphs.

Runs decoded graphs from their LayerSpec nodes on float64 numpy arrays,
with archspace/graph.py's kinds and weight shapes.  A convolution, with
cin // w.shape[1] groups (one per channel for a depthwise layer), is
lowered to im2col column products batched over its groups (_columns):
for the output, the weight gradient and the input gradient, a stride-1
convolution of dout with the phases' kernels stacked (_phases).

Bits: batch rows never mix, and every product keeps its per-row shape,
its operands' layout and its order, so the results are those of one
whole-batch pass.  The nodes that work in place give every ufunc the
operands and order of fresh outputs.  Memory: convolution and max
pooling work in blocks whose buffers stay within _CHUNK_BYTES where
they can: a cached plan per channel-free layer geometry holds the line
blocks (_plan, _grad_plan), and each call cuts them into blocks of rows
and groups by arithmetic (_blocks), so a plan serves every width.

Forward keeps the outputs a caller names, drops the others after their
last consumer (a relu, batchnorm or add may write over them), and keeps
the logits, max-pool argmaxes, shapes and relu patterns, but not the
pattern of a relu whose kept output holds it.  Backward has one mode:
it reads forward's trace, drops each array after its last reader, never
writes the trace, and hands each weighted node's per-sample gradients
to a consumer as soon as they are made.  The loss is softmax
cross-entropy seeded per row; batchnorm uses fixed statistics (zero
mean, unit variance, identity affine) and has no parameters.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import itertools
import math
import platform
from collections.abc import Callable, Collection
from dataclasses import dataclass, field

import numpy as np

from ..archspace.graph import CONV_KINDS, WEIGHTED_KINDS, ArchitectureGraph, windowed_extent
from ..errors import ShapeMismatch

_BN_EPS = 1e-5
_BN_SCALE = 1.0 / math.sqrt(1.0 + _BN_EPS)
# Bytes of a block's buffer (_blocks), to stay in cache: budgets of 128 KiB
# to 2 MiB time within 20% on the default space, whole batches 25-60% slower.
_CHUNK_BYTES = 1 << 20
# glibc's mallopt parameter numbers.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def retain_freed_memory() -> None:
    """Keep the memory the engine frees mapped in this process.

    Every candidate allocates and frees activations, gradients, column
    and product buffers of up to several MB.  By default glibc serves
    such blocks with mmap and unmaps them on free, or trims them off the
    heap top, so the next candidate faults its whole working set in
    again page by page.  Pinning the mmap threshold at its cap (which
    also stops glibc's dynamic adjustment of it) and raising the trim
    threshold keeps those pages for reuse.  No result changes.  Does
    nothing off glibc; calling it again is harmless.  init_params and
    forward call it once per process, before a scorer allocates its batch.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # the largest glibc takes on 64-bit hosts
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_retain_once = functools.cache(retain_freed_memory)  # not at import: select never scores


@dataclass
class ParamSet:
    """Per-node weight and bias tensors, keyed by node index."""

    weights: dict[int, np.ndarray]
    biases: dict[int, np.ndarray]


@dataclass
class ForwardTrace:
    """The kept node outputs, the logits, every relu's activation
    pattern and max-pool argmax, and every node's output shape (batch
    axis first).

    relu_patterns maps every relu node to its pattern, or to None where
    the pattern is read from the relu's kept output (relu_mask_blocks).
    """

    outputs: dict[int, np.ndarray]
    relu_patterns: dict[int, np.ndarray | None]
    logits: np.ndarray
    pool_argmax: dict[int, np.ndarray] = field(default_factory=dict)
    shapes: list[tuple[int, ...]] = field(default_factory=list)

    def relu_mask_blocks(self, i: int, rows: int, units: int):
        """Yield relu node i's activation pattern a > 0 on the first
        `rows` samples, flattened per sample, in blocks of at most `units`
        columns, as truth values: views of a stored boolean pattern, and
        otherwise made a block at a time: a stored pattern's nonzero
        entries, or the kept output's max(a, 0) > 0, which is the same
        exactly (NaN and -0.0 give False either way)."""
        pattern = self.relu_patterns.get(i)
        if pattern is None and (i not in self.relu_patterns or i not in self.outputs):
            raise ShapeMismatch(f"trace holds no activation pattern of node {i}")
        flat = (self.outputs[i] if pattern is None else pattern)[:rows].reshape(rows, -1)
        for lo in range(0, flat.shape[1], units):
            block = flat[:, lo : lo + units]
            if pattern is None:
                yield block > 0
            else:
                yield block if block.dtype == bool else block != 0


def init_params(g: ArchitectureGraph, rng: np.random.Generator) -> ParamSet:
    """He fan-in normal weights of each node's weight_shape (fan-in: all
    axes but the first), zero biases; draw order is node order."""
    _retain_once()
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


def _offsets(kernel: int, dims: int):
    return list(itertools.product(range(kernel), repeat=dims))


def _window(xp: np.ndarray, off: tuple[int, ...], stride: int, out_sp: tuple[int, ...]):
    sl = [slice(None), slice(None)]
    for o, n in zip(off, out_sp):
        sl.append(slice(o, o + stride * n, stride))
    return xp[tuple(sl)]


# _phases, _plan, _grad_plan and _pool_taps are keyed by channel-free layer
# geometry (_grad_plan also by a line count), which a search bounds: on
# pipebench's seed-2101 round-0 inputs an explore-2d command makes at most
# 17, 18, 17 and 1 keys, an explore-1d command 28, 29, 28 and 7, and 16
# default-space trials (base seeds 5, 6) 23-32, 24-33, 29-35 and 0-1.
@functools.cache
def _phases(spatial: tuple[int, ...], kernel: int, stride: int, padding: int):
    """The phase-stacked form of a convolution's input gradient.

    Along an axis, input i = r + s*m (phase r, 0 <= r < s) receives the
    gradient of output m + d through tap t = r + p - s*d.  So phase r's
    input gradient is a stride-1 convolution of dout over the offsets
    d = lo..hi whose taps are the kernel's taps r + p - s*d, or zero where
    that falls outside the kernel.  A phase is reached only if some tap
    is, that is if (r + p) mod s < k; the others get no gradient.  At
    stride 1 the one phase's kernel is the whole kernel flipped, at
    offsets p - k + 1..p.

    Returns (lo, span, taps, extent, phases): the first offset; the
    offsets' count hi - lo + 1; per stacked phase and offset (in _offsets
    order over span), the flat index of its tap in the kernel, or
    kernel**dims for a zero tap; the phase outputs' extent, ceil(n / s)
    per axis; and the stacked phases, one per combination of reached
    axis phases.
    """
    dims = len(spatial)
    reached = [r for r in range(stride) if (r + padding) % stride < kernel]
    lo = min(-((kernel - 1 - r - padding) // stride) for r in reached)
    span = max((r + padding) // stride for r in reached) - lo + 1
    phases = tuple(itertools.product(reached, repeat=dims))
    taps = np.full((len(phases), span**dims), kernel**dims)
    for i, phase in enumerate(phases):
        for j, off in enumerate(_offsets(span, dims)):
            tap = [r + padding - stride * (lo + d) for r, d in zip(phase, off)]
            if all(0 <= t < kernel for t in tap):
                taps[i, j] = np.ravel_multi_index(tap, (kernel,) * dims)
    taps.flags.writeable = False  # the cache hands the same array to every caller
    extent = tuple(-(-n // stride) for n in spatial)
    return lo, span, taps, extent, phases


# One line block of a pass over a layer's input (_plan), for any channels: its
# output positions, input-gradient copies, a channel's im2col columns and
# padded cells, the index of the input cells it reads and of where they land
# in its padded buffer (shaped ext after the row and channel axes), whether
# that buffer has a border, and whether the input is its own columns (1x1,
# stride 1, unpadded: a convolution then reads no buffer).
_Lines = collections.namedtuple("_Lines", "out_sp copies columns cells src dst ext border own")


def _line_blocks(sp, k, s, pads, out, lines=0, copies=lambda a, block: None):
    """The line blocks of k-tap windows at stride s making `out` outputs
    over `sp` cells with pads[a] before axis a (negative crops): `lines`
    lines of the first axis a block, all of them by default."""
    parts = []
    for a in range(0, out[0], lines or out[0]):
        o = (min(lines or out[0], out[0] - a),) + out[1:]
        p = (pads[0] - a * s,) + pads[1:]
        ext = tuple((m - 1) * s + k for m in o)
        src = tuple(slice(max(-q, 0), e - q) for q, e in zip(p, ext))
        dst = tuple(slice(max(q, 0), min(e, n + q)) for q, e, n in zip(p, ext, sp))
        border = any(q > 0 or e - q > n for q, e, n in zip(p, ext, sp))
        own = k == 1 and s == 1 and not any(p) and o == sp
        parts.append(_Lines(o, copies(a, o), k ** len(o) * math.prod(o), math.prod(ext), src,
                            (slice(None),) * 2 + dst, ext, border, own))
    return tuple(parts)


@functools.cache
def _plan(spatial: tuple[int, ...], kernel: int, stride: int, padding: int) -> tuple:
    """A layer geometry's passes over its input, for any batch rows and
    channels: (out_sp, x, planes), the output extent and the line block
    of the pass over x (convolution forward and weight gradient, max-pool
    forward) and of max-pool backward's padded planes.  _grad_plan holds
    the input gradient's pass over dout; _blocks cuts a line block."""
    pads = (padding,) * len(spatial)
    out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in spatial)
    padded = tuple(n + 2 * padding for n in spatial)
    (x,) = _line_blocks(spatial, kernel, stride, pads, out_sp)
    (planes,) = _line_blocks(spatial, 1, 1, pads, padded)
    return out_sp, x, planes


@functools.cache
def _grad_plan(spatial: tuple[int, ...], kernel: int, stride: int, padding: int, lines: int):
    """The line blocks of a convolution's input gradient (_input_gradient)
    over dout, `lines` lines of its phase outputs a block, each with its
    copies: per stacked phase, the index of its inputs in dx and of their
    gradients in the (rows, groups, phases, group inputs, *lines) product;
    at stride 1 with one line block they are None: the product is dx."""
    dims = len(spatial)
    lo, span, _, extent, phases = _phases(spatial, kernel, stride, padding)
    out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in spatial)

    def copies(a, block):
        if stride == 1 and block[0] == extent[0]:
            return None
        index = []
        for i, phase in enumerate(phases):
            dst = tuple(slice(r + stride * o, r + stride * (o + m), stride)
                        for r, o, m in zip(phase, (a,) + (0,) * (dims - 1), block))
            src = tuple(slice(0, len(range(n)[d])) for d, n in zip(dst, spatial))
            index.append(((Ellipsis,) + dst, (slice(None), slice(None), i, Ellipsis) + src))
        return tuple(index)

    return _line_blocks(out_sp, span, 1, (-lo,) * dims, extent, lines, copies)


def _blocks(shape: tuple[int, ...], groups: int, cells: int) -> tuple:
    """The blocks of one line block over an input of `shape` in `groups`
    groups, `cells` cells of a block's buffer a channel: (rows, groups,
    channels) slices, under the one blocking rule.

    A block's buffer holds (float64) im2col columns for a convolution (of
    x in forward and the weight gradient, of dout in the input gradient),
    the padded input for max-pool forward, the padded planes for max-pool
    backward, and the rule keeps it within _CHUNK_BYTES where it can.  A
    batch row still over the budget is cut into the fewest blocks of
    whole groups that fit (one at least), their sizes at most one apart,
    the larger first; the batch goes in chunks of as many rows as fit
    (one at least).  Blocks come by group block, then row chunk, so the
    first is the largest and its buffers serve them all.  (The input
    gradient's line blocks are cut by _input_gradient, to keep a row of
    dout's columns within the budget or within a row of x's columns.)
    The blocks depend on a row's shapes only, so every product keeps its
    per-row shape and operand layout: the bits of a whole-batch pass.
    """
    rows, channels = shape[:2]
    row = 8 * channels * cells
    if rows * row <= _CHUNK_BYTES:  # one block, as the rule below gives it
        return ((slice(0, rows), slice(0, groups), slice(0, channels)),)
    step = min(rows, max(1, _CHUNK_BYTES // row))
    count = -(-groups // max(1, _CHUNK_BYTES * groups // row))
    size, larger = divmod(groups, count)
    bounds = [j * size + min(j, larger) for j in range(count + 1)]
    width = channels // groups
    return tuple((slice(r, r + step), slice(g0, g1), slice(width * g0, width * g1))
                 for g0, g1 in zip(bounds, bounds[1:]) for r in range(0, rows, step))


def _padded(x, lines: _Lines, blocks: tuple, value=0.0):
    """Yield (rows, groups, xc) per block (_blocks) of a line block: the
    cells of x the block reads in the line block's padded buffer, `value`
    around them; each xc is only valid until the next one is yielded."""
    rows, _, chans = blocks[0]
    buf = np.empty((rows.stop, chans.stop) + lines.ext)
    if lines.border:
        buf.fill(value)  # np.full's fill, without its Python wrapper
    for rows, gs, chans in blocks:
        xs = x[(rows, chans) + lines.src]
        xc = buf[: len(xs), : xs.shape[1]]
        xc[lines.dst] = xs
        yield rows, gs, xc


def _columns(x: np.ndarray, kernel: int, stride: int, lines: _Lines, groups: int):
    """Yield (rows, groups, cols) per block of x in a line block (_blocks):
    cols[:, g, ch * taps + t] is the block's group g's channel ch's window
    of tap t (in _offsets order) over its output positions, copied from
    the padded block into a buffer for the line block, and only valid
    until the next yield; a line block that is its own columns yields x."""
    length = math.prod(lines.out_sp)
    if lines.own:
        yield slice(0, len(x)), slice(0, groups), x.reshape(len(x), groups, -1, length)
        return
    blocks = _blocks(x.shape, groups, lines.columns)
    rows, _, chans = blocks[0]
    buf = np.empty((rows.stop, chans.stop) + (kernel,) * (x.ndim - 2) + lines.out_sp)
    for rows, gs, xc in _padded(x, lines, blocks):
        cols = buf[: len(xc), : xc.shape[1]]
        # a view of every window: [b, ch, *off, *pos] is xc[b, ch, *(off + stride * pos)]
        # (xc is contiguous, so np.ndarray takes it without as_strided's overhead)
        spatial = xc.strides[2:]
        strides = xc.strides[:2] + spatial + tuple(s * stride for s in spatial)
        np.copyto(cols, np.ndarray(cols.shape, xc.dtype, xc, 0, strides))
        yield rows, gs, cols.reshape(len(cols), gs.stop - gs.start, -1, length)


def _conv_fwd(x, w, b, stride, padding):
    B, cin = x.shape[:2]
    cout, kernel = w.shape[0], w.shape[2]
    groups = cin // w.shape[1]
    out_sp, lines, _ = _plan(x.shape[2:], kernel, stride, padding)
    wmat = w.reshape(groups, cout // groups, -1)
    out = np.empty((B, groups, cout // groups, math.prod(out_sp)))
    for rows, gs, cols in _columns(x, kernel, stride, lines, groups):
        np.matmul(wmat[gs], cols, out=out[rows, gs])
    out = out.reshape(B, cout, *out_sp)
    if b is not None:
        out += b.reshape((1, cout) + (1,) * len(out_sp))
    return out


def _phase_kernels(w, groups: int, stride: int, taps) -> np.ndarray:
    """The stacked phases' kernels of a convolution's input gradient, for
    _phases' taps: (groups, phases * group inputs, group outputs * taps),
    in C order whatever the transpose leaves (a product's bits can depend
    on its operands' layout)."""
    cout, group_inputs = w.shape[:2]
    wg = w.reshape(groups, cout // groups, group_inputs, -1)
    if stride == 1:  # the one phase's kernel is the whole kernel flipped
        wphase = wg[..., ::-1].transpose(0, 2, 1, 3)
    else:  # a gather from the taps, with a zero tap appended
        wz = np.concatenate((wg, np.zeros(wg.shape[:3] + (1,))), axis=3)
        wphase = np.take(wz, taps, axis=3).transpose(0, 3, 2, 1, 4)
    return np.ascontiguousarray(wphase).reshape(groups, len(taps) * group_inputs, -1)


def _input_gradient(w, dout, stride, padding, x_shape):
    """A convolution's input gradient as one stride-1 convolution of dout
    with every reached phase's kernel (_phases) stacked as extra output
    channels of each group: one product per block of dout, in line
    blocks of as many whole lines of the phase outputs as keep a row of
    dout's columns within _CHUNK_BYTES or within a row of x's columns,
    forward's bound (one line at least).  Each product's phases are
    copied into dx[..., r::s] unless it is dx itself (_grad_plan)."""
    cout, group_inputs, kernel = w.shape[:3]
    groups = x_shape[1] // group_inputs
    spatial = x_shape[2:]
    dims = len(spatial)
    _, span, taps, extent, phases = _phases(spatial, kernel, stride, padding)
    wphase = _phase_kernels(w, groups, stride, taps)
    # inputs of phases that no tap reaches get no gradient
    dx = np.empty(x_shape) if len(phases) == stride**dims else np.zeros(x_shape)
    dxg = dx.reshape(len(dx), groups, group_inputs, -1)
    x_columns = 8 * x_shape[1] * kernel**dims * math.prod(dout.shape[2:])
    line = 8 * cout * span**dims * math.prod(extent[1:])
    lines = min(extent[0], max(1, max(_CHUNK_BYTES, x_columns) // line))
    for block in _grad_plan(spatial, kernel, stride, padding, lines):
        prod = None
        for rows, gs, cols in _columns(dout, span, 1, block, groups):
            if block.copies is None:  # the product is dx
                np.matmul(wphase[gs], cols, out=dxg[rows, gs])
                continue
            n = len(cols)
            if prod is None:  # the line block's first block is its largest
                prod = np.empty((n, cols.shape[1], wphase.shape[1], cols.shape[-1]))
            pc = np.matmul(wphase[gs], cols, out=prod[:n, : gs.stop - gs.start])
            pc = pc.reshape(pc.shape[:2] + (len(phases), group_inputs) + block.out_sp)
            dxc = dx[rows].reshape((n, groups, group_inputs) + spatial)[:, gs]
            for dst, src in block.copies:
                dxc[dst] = pc[src]
    return dx


def _conv_bwd(x, w, dout, stride, padding, want_bias, want_dx=True):
    """Input and per-sample weight and bias gradients; dx is None unless want_dx."""
    B, cin = x.shape[:2]
    cout, kernel = w.shape[0], w.shape[2]
    groups = cin // w.shape[1]
    dflat = dout.reshape(B, groups, cout // groups, -1)
    dw = np.empty((B,) + w.shape)
    dw_flat = dw.reshape(B, groups, cout // groups, -1)
    _, lines, _ = _plan(x.shape[2:], kernel, stride, padding)
    for rows, gs, cols in _columns(x, kernel, stride, lines, groups):
        np.matmul(dflat[rows, gs], cols.transpose(0, 1, 3, 2), out=dw_flat[rows, gs])
    dx = _input_gradient(w, dout, stride, padding, x.shape) if want_dx else None
    # dout.sum(axis=...)'s arithmetic, without its Python wrapper
    db = np.add.reduce(dout, axis=tuple(range(2, dout.ndim))) if want_bias else None
    return dx, dw, db


def _maxpool_fwd(x, kernel, stride, padding):
    out_sp, lines, _ = _plan(x.shape[2:], kernel, stride, padding)
    offsets = _offsets(kernel, x.ndim - 2)
    out = np.empty(x.shape[:2] + out_sp)
    # one byte a cell up to 256 taps: forward's trace holds it until backward
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(len(offsets) - 1))
    for rows, _, xc in _padded(x, lines, _blocks(x.shape, 1, lines.cells), -np.inf):
        oc, ac = out[rows], arg[rows]
        gt, mv = np.empty(oc.shape, dtype=bool), np.empty(oc.shape, dtype=arg.dtype)
        oc[...] = _window(xc, offsets[0], stride, out_sp)
        for idx, off in enumerate(offsets[1:], start=1):
            win = _window(xc, off, stride, out_sp)
            # strictly greater: ties resolve to the first offset, and
            # maximum(win, out) returns out on a tie, so a tie keeps the
            # first offset's value too
            np.greater(win, oc, out=gt)
            # the offsets come in increasing order, so idx exceeds every
            # argmax so far and the maximum sets it exactly where gt holds
            np.multiply(gt, arg.dtype.type(idx), out=mv)
            np.maximum(ac, mv, out=ac)
            np.maximum(win, oc, out=oc)
    return out, arg


@functools.cache  # keyed by geometry, like _phases
def _pool_taps(padded: tuple[int, ...], out_sp: tuple[int, ...], kernel: int, stride: int):
    """Flat indices within one padded plane: of each output's window
    origin, and of each tap (in _offsets order) from its origin."""
    grid = np.meshgrid(*(np.arange(n) * stride for n in out_sp), indexing="ij")
    origins = np.ravel_multi_index(grid, padded).ravel()
    taps = np.ravel_multi_index(np.array(_offsets(kernel, len(padded))).T, padded)
    # the cache hands the same arrays to every caller
    origins.flags.writeable = taps.flags.writeable = False
    return origins, taps


def _maxpool_bwd(x_shape, arg, dout, kernel, stride, padding):
    """Each output's gradient goes to its argmax: one weighted bincount per
    block of rows over the flat padded indices (plane, window origin and
    tap), whose interior is then copied into dx."""
    out_sp, _, lines = _plan(x_shape[2:], kernel, stride, padding)
    plane = lines.cells
    origins, taps = _pool_taps(lines.ext, out_sp, kernel, stride)
    dx = np.empty(x_shape)
    for rows, _, _ in _blocks(x_shape, 1, plane):
        ac = arg[rows]
        idx = taps[ac.reshape(ac.shape[0] * ac.shape[1], -1)]
        idx += origins
        idx += np.arange(0, idx.shape[0] * plane, plane)[:, None]
        acc = np.bincount(idx.ravel(), weights=dout[rows].ravel(), minlength=idx.shape[0] * plane)
        dx[rows] = acc.reshape((-1, x_shape[1]) + lines.ext)[lines.dst]
    return dx


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
    consumer has run, and a relu, batchnorm or add that is that last
    consumer writes its result over it (an add only if no other operand
    is the same output).  The batch and the kept outputs are never
    written.  The logits, max-pool argmaxes and output shapes are always
    recorded, and so is each relu's pattern, except that of a relu whose
    output is kept and read by backward (backward_reads): relu_mask_blocks
    reads that one from the output.
    """
    _retain_once()
    x = _as_batch(g, batch)
    outputs: dict[int, np.ndarray] = {}
    relu_patterns: dict[int, np.ndarray | None] = {}
    # the relus whose pattern their kept output holds
    derived = backward_reads(g).keys()
    pool_argmax: dict[int, np.ndarray] = {}
    shapes: list[tuple[int, ...]] = []
    # drop_after[i]: the unkept outputs whose last consumer is node i
    drop_after: list[list[int]] = [[] for _ in g.nodes]
    if keep is not None:
        keep = set(keep)
        derived = derived & keep
        for p, succ in enumerate(g.successors()):
            if p not in keep:
                drop_after[max(succ, default=p)].append(p)
    for i, node in enumerate(g.nodes):
        if any(p >= i for p in g.preds[i]):
            raise ShapeMismatch("node order is not topological")
        ins = [outputs[p] for p in g.preds[i]] or [x]
        a = ins[0]
        # a may be written over: it is not the batch, not kept, and read by no later node
        free = bool(g.preds[i]) and g.preds[i][0] in drop_after[i]
        kind = node.kind
        if kind in CONV_KINDS:
            out = _conv_fwd(a, params.weights[i], params.biases.get(i), node.stride, node.padding)
        elif kind == "linear":
            flat = a.reshape(len(a), -1)
            out = flat @ params.weights[i].T
            if i in params.biases:
                out = out + params.biases[i]
        elif kind == "relu":
            relu_patterns[i] = None if i in derived else a > 0
            out = np.maximum(a, 0.0, out=a if free else None)
        elif kind == "batchnorm":
            out = np.multiply(a, _BN_SCALE, out=a if free else None)
        elif kind == "maxpool":
            out, pool_argmax[i] = _maxpool_fwd(a, node.kernel, node.stride, node.padding)
        elif kind == "global-avg-pool":
            out = a.mean(axis=tuple(range(2, a.ndim)), keepdims=True)
        elif kind == "add":
            reread = g.preds[i][0] in g.preds[i][1:]
            out = a if free and not reread else a.copy()
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
    trace: ForwardTrace,
    consumer: Callable[[int, np.ndarray, np.ndarray | None], None],
) -> None:
    """Per-sample cross-entropy gradients w.r.t. all parameters, to consumer.

    trace must be forward(g, params, batch) keeping at least
    backward_reads(g), and is left intact.  consumer(i, dw, db) gets
    weighted node i's gradients as soon as they are made, in decreasing
    node order, db None for a node without a bias; backward keeps
    neither.  Each array's row b is the gradient of the loss on sample b
    alone, and their mean the gradient of the mean loss over the batch.

    A pending output gradient is exclusive when no other pending gradient
    shares its memory: an add hands the same array to each of its inputs,
    which makes it shared; a concat's disjoint views of an exclusive
    gradient stay exclusive; every kernel's input gradient and every sum
    is exclusive.  relu and batchnorm scale an exclusive gradient in
    place, and a gradient arriving at an input that already has one is
    added into whichever of the two is exclusive.
    """
    x = _as_batch(g, batch)
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) != len(x):
        raise ShapeMismatch("labels must be one per batch row")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= g.num_classes:
        raise ShapeMismatch("label outside class range")
    reads = backward_reads(g)
    if len(trace.logits) != len(x):
        raise ShapeMismatch("trace was not recorded on this batch")
    # the relus whose pattern is read from their output, at their own step
    derived = {i for i, pattern in trace.relu_patterns.items() if pattern is None}
    if not (reads.keys() | derived) <= trace.outputs.keys():
        raise ShapeMismatch("trace does not keep the outputs backward reads")
    if any(node.kind == "relu" and i not in trace.relu_patterns for i, node in enumerate(g.nodes)):
        raise ShapeMismatch("trace holds no activation pattern of a relu")
    # Work from copies of the trace's dicts and let go of the trace: the
    # caller's trace stays intact, and an array that nobody else holds is
    # freed once the last node that reads it has run.
    outputs = {p: trace.outputs[p] for p in reads.keys() | derived}
    relu_patterns = dict(trace.relu_patterns)
    pool_argmax = dict(trace.pool_argmax)
    shapes = trace.shapes
    n = len(g.nodes)
    douts: dict[int, np.ndarray] = {n - 1: _ce_grad(trace.logits, labels)}
    exclusive = {n - 1}  # the nodes in douts whose gradient may be written over
    del trace

    def push(p: int, grad: np.ndarray, own: bool = True) -> None:
        """Add grad to p's pending gradient; own: grad is exclusive."""
        if p not in douts:
            douts[p] = grad
        elif p in exclusive:
            douts[p] += grad
        else:
            douts[p] = np.add(douts[p], grad, out=grad if own else None)
            own = True
        if own:
            exclusive.add(p)

    def node_input(i: int) -> np.ndarray:
        """The input of conv or linear node i, released after its last reader."""
        if not g.preds[i]:
            return x
        p = g.preds[i][0]
        return outputs.pop(p) if reads[p] == i and p not in derived else outputs[p]

    for i in range(n - 1, -1, -1):
        node = g.nodes[i]
        dout = douts.pop(i, None)
        if dout is None:
            continue
        own = i in exclusive
        in_shape = shapes[g.preds[i][0]] if g.preds[i] else x.shape
        kind = node.kind
        if kind in CONV_KINDS:
            # a convolution reading the graph input has no input gradient to pass on
            dx, dw, db = _conv_bwd(node_input(i), params.weights[i], dout, node.stride,
                                   node.padding, i in params.biases, want_dx=bool(g.preds[i]))
            consumer(i, dw, db)
            del dw, db  # freed here, unless the consumer keeps them
        elif kind == "linear":
            consumer(i, dout[:, :, None] * node_input(i).reshape(len(x), 1, -1),
                     dout if i in params.biases else None)
            dx = (dout @ params.weights[i]).reshape(in_shape)
        elif kind == "relu":
            mask = relu_patterns.pop(i)
            if mask is None:
                mask = outputs.pop(i) > 0
            dx = np.multiply(dout, mask, out=dout if own else None)
            del mask
        elif kind == "batchnorm":
            dx = np.multiply(dout, _BN_SCALE, out=dout if own else None)
        elif kind == "maxpool":
            dx = _maxpool_bwd(in_shape, pool_argmax.pop(i), dout, node.kernel, node.stride,
                              node.padding)
        elif kind == "global-avg-pool":
            spatial = math.prod(in_shape[2:])
            dx = np.broadcast_to(dout / spatial, in_shape).copy()
        elif kind == "add":
            for p in g.preds[i]:
                push(p, dout, own and len(g.preds[i]) == 1)
            continue
        elif kind == "concat":
            start = 0
            for p in g.preds[i]:
                c = shapes[p][1]
                push(p, dout[:, start : start + c], own)
                start += c
            continue
        else:
            raise ShapeMismatch(f"unknown layer kind '{kind}'")
        if g.preds[i]:
            push(g.preds[i][0], dx)
