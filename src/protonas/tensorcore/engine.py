"""Double-precision forward/backward engine for architecture graphs.

Runs decoded graphs directly from their LayerSpec nodes on float64
numpy arrays, with archspace/graph.py's kinds and weight shapes.
Convolutions are lowered to matrix products over im2col columns: a row
chunk's kernel-offset windows are copied once into a
(rows, channels, taps, positions) buffer (_columns), and the kernel pair
_conv_fwd/_conv_bwd makes one product per chunk for the output and one
for the weight gradient.  The input gradient is a forward convolution
too, at any stride (_phases): input phase r along an axis (the inputs
r, r + s, r + 2s, ...) reads the output gradient through the taps
t = r + p (mod s) only, each shifted by whole positions, so every
phase's gradient is a stride-1 convolution of the output gradient.  The
phases are stacked as extra output channels of each group, and one
column product per chunk yields all of them; each is then copied into
its strided slice of dx.  At stride 1 the one phase's kernel is the
kernel flipped in space with its in and out channels swapped, and the
phase is dx itself: where one block of lines (below) covers the input,
the product is written straight into dx, with no product buffer and no
copy.

One kernel pair serves both convolution kinds.  A convolution reads its
group count from the weight, cin // w.shape[1]: one group for a regular
convolution, one per channel for a depthwise (c, 1, k...) weight.  Every
product is batched over the groups.

The spatial kernels (convolution and max pooling) work through the
batch in row chunks of about _CHUNK_BYTES (_row_chunks): of column
buffer for the convolutions, of padded input for pooling.  A row whose
columns exceed the budget is a chunk of its own; the input gradient's
columns of dout are cut further, into blocks of lines, where a row of
them outgrows a row of x's columns.  Such a row of a grouped
convolution (a depthwise layer) is also cut into blocks of whole groups
(_group_blocks): as few as keep a block's columns within the budget,
one group at least, their sizes at most one group apart.  Each block is
padded and copied on its own and has its own product over its groups,
so its columns stay in cache: a k7 depthwise row of (36, 64, 64) holds
58 MB of columns.  A row that fits, and every regular convolution, has
one product per row chunk.  A batch that fits, such as any 1-D batch
here, is one chunk.  No kernel pads the whole batch: each pads a chunk
into one reused buffer, whose border is written once.  Max-pool forward
visits the kernel offsets in increasing order and updates the argmax
with maximum(argmax, (window > out) * idx): idx exceeds every offset
recorded before it, so the maximum takes it exactly where the window is
strictly greater.  Max-pool backward adds
each output's gradient at its argmax with one weighted bincount per
chunk over flat padded indices, and copies the interior out.  Rows never
mix and every matrix product keeps its per-row shape, so the results are
the same bits as a whole-batch pass.

Backward is reverse-mode over the recorded forward activations.  It
reads only the inputs of weighted nodes (backward_reads), the ReLU
patterns and the max-pool argmaxes; every other node's output shape
comes from the trace.  forward can keep just the outputs a caller names
and drops every other one once its last consumer has run.  The trace
holds those outputs, the logits, the argmaxes, every shape, and each
relu's pattern a > 0 except where it keeps the relu's output and
backward reads that output: there max(a, 0) > 0 is the same pattern
(ForwardTrace.relu_mask_blocks), so it is not stored twice.  Backward
drops each array once the last node that reads it has run (such a relu's
output at the relu's own step), so a trace that nobody else holds is
freed as backward goes.  It hands each weighted node's per-sample
gradients to a consumer as soon as they are made, or collects them all
into a GradientRecord.
Batchnorm runs in initialization-statistics mode (zero mean, unit
variance, identity affine) and carries no parameters.

The elementwise nodes (relu, batchnorm, add) make no new array where
they can reuse one.  In forward, such a node writes its result over its
first input when that input is neither the batch nor a kept output and
the node is its last reader; nothing is overwritten when forward keeps
every output.  In backward, relu and batchnorm scale their output
gradient in place, and a gradient reaching an input that already has
one is added into the other, whenever the array written is exclusive:
shared with no other pending gradient (see backward).  Backward never
writes the trace.  Every ufunc gets the same operands in the same order
as with fresh outputs, so the bits do not change.

Loss is softmax cross-entropy.  Batch rows never mix (batchnorm uses
fixed statistics), so one backward pass yields per-sample gradients:
the loss gradient is seeded per row and every weight/bias gradient keeps
the leading batch axis.  Averaging that axis gives the gradient of the
mean loss over the batch.
"""

from __future__ import annotations

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
# Bytes of im2col columns (convolutions) or padded input (pooling) per
# row chunk of the spatial kernels, so a chunk's buffers stay in cache.
# Budgets from 128 KiB to 2 MiB time within about 20% of each other on
# the default space's layers; whole 8-row batches are 25-60% slower, and
# their columns take 8 times the memory.
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
    nothing off glibc; calling it again is harmless.
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
        src = self._relu_output(i) if pattern is None else pattern
        flat = src[:rows].reshape(rows, -1)
        for lo in range(0, flat.shape[1], units):
            block = flat[:, lo : lo + units]
            if pattern is None:
                yield block > 0
            else:
                yield block if block.dtype == bool else block != 0

    def _relu_output(self, i: int) -> np.ndarray:
        if i not in self.relu_patterns or i not in self.outputs:
            raise ShapeMismatch(f"trace holds no activation pattern of node {i}")
        return self.outputs[i]


@dataclass
class GradientRecord:
    """Per-sample loss gradients per parameter tensor, in the order
    backward makes them.

    Each array has a leading batch axis; row b is the gradient of the
    loss on sample b alone.
    """

    weight_grads: dict[int, np.ndarray]
    bias_grads: dict[int, np.ndarray]

    def add(self, i: int, dw: np.ndarray, db: np.ndarray | None) -> None:
        """Collect node i's gradients: backward's consumer by default."""
        self.weight_grads[i] = dw
        if db is not None:
            self.bias_grads[i] = db


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


@functools.cache  # keyed by geometry, like _phases
def _shift(spatial: tuple[int, ...], pads: tuple[int, ...], extent: tuple[int, ...]):
    """For _padded_rows: the index of x's cells that are kept, and of
    where they land in the buffer, or None when no cell needs filling
    (the kept cells are then a view of x)."""
    src = (slice(None),) * 2 + tuple(slice(max(-p, 0), e - p) for p, e in zip(pads, extent))
    if all(p <= 0 and e - p <= n for p, e, n in zip(pads, extent, spatial)):
        return src, None
    dst = (slice(None),) * 2 + tuple(
        slice(max(p, 0), min(e, n + p)) for p, e, n in zip(pads, extent, spatial)
    )
    return src, dst


def _padded_rows(x, padding, extent: tuple[int, ...], chunks: list[slice], value=0.0):
    """Yield (rows, xc) per chunk: x[rows] shifted by `padding` cells along
    every spatial axis (by padding[a] along axis a, if a tuple), cut or
    filled with `value` to `extent` cells.

    A positive padding puts that many cells of `value` before x, a
    negative one crops that many of x's first cells.  Chunks that need
    filling are copied into one reused buffer, whose border is written
    once, so each xc is only valid until the next one is yielded; the
    others are views of x.
    """
    spatial = x.shape[2:]
    pads = padding if isinstance(padding, tuple) else (padding,) * len(spatial)
    src, dst = _shift(spatial, pads, extent)
    if dst is None:
        for rows in chunks:
            yield rows, x[rows][src]
        return
    buf = np.empty((len(x[chunks[0]]), x.shape[1]) + extent)
    buf.fill(value)
    for rows in chunks:
        xc = buf[: len(x[rows])]
        xc[dst] = x[rows][src]
        yield rows, xc


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


def _group_blocks(groups: int, row_bytes: int) -> list[slice] | None:
    """Blocks of whole groups for _columns: None where one row's columns
    (row_bytes) fit _CHUNK_BYTES or there is one group; otherwise slices
    over the groups, as few as keep each block within _CHUNK_BYTES (one
    group at least), the first ones one group larger where they do not
    divide evenly."""
    if groups == 1 or row_bytes <= _CHUNK_BYTES:
        return None
    fit = max(1, _CHUNK_BYTES * groups // row_bytes)
    count = -(-groups // fit)
    size, larger = divmod(groups, count)
    bounds = [k * size + min(k, larger) for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _columns(x: np.ndarray, kernel: int, stride: int, padding, out_sp: tuple[int, ...],
             groups: int = 1):
    """Yield (rows, gs, cols) per row chunk of x with `padding` zeros
    before every spatial axis (padding[a] before axis a, if a tuple; a
    negative padding crops) and as many after as the windows of out_sp
    reach.

    cols has shape (n, groups, group channels * taps, length), its
    channels split into `groups` equal groups: cols[:, g, ch * taps + t]
    is group g's channel ch's window of tap t (in _offsets order),
    flattened over the output positions.  Each padded chunk
    (_padded_rows) has its windows copied into one reused column buffer
    of at most _CHUNK_BYTES, or of one row's columns if that is larger,
    so each cols is only valid until the next one is yielded.  gs is the
    slice of groups whose columns cols holds: all of them, unless one
    row's columns exceed the budget and there are several groups, where
    the row is also cut into blocks of whole groups (_group_blocks).  An
    unpadded 1x1 stride-1 kernel over all of x has x itself as its only
    window, which is yielded whole without a copy.
    """
    B, c = x.shape[:2]
    dims = x.ndim - 2
    length = math.prod(out_sp)
    pads = padding if isinstance(padding, tuple) else (padding,) * dims
    if kernel == 1 and stride == 1 and not any(pads) and tuple(out_sp) == x.shape[2:]:
        yield slice(None), slice(0, groups), x.reshape(B, groups, -1, length)
        return
    row_bytes = x.itemsize * c * kernel**dims * length
    chunks = _row_chunks(B, row_bytes)
    blocks = _group_blocks(groups, row_bytes)
    if blocks is None:
        parts = [(slice(0, groups), x)]
    else:  # a row a chunk; each block of groups is padded on its own
        cg = c // groups
        parts = [(gs, x[:, cg * gs.start : cg * gs.stop]) for gs in blocks]
    buf = np.empty((len(x[chunks[0]]), parts[0][1].shape[1]) + (kernel,) * dims + tuple(out_sp))
    extent = tuple((n - 1) * stride + kernel for n in out_sp)
    for gs, xs in parts:
        for rows, xc in _padded_rows(xs, pads, extent, chunks):
            n, width = xc.shape[:2]
            cols = buf[:n, :width]
            # a view of every window: [b, ch, *off, *pos] is xc[b, ch, *(off + stride * pos)]
            spatial_strides = xc.strides[2:]
            strides = xc.strides[:2] + spatial_strides + tuple(s * stride for s in spatial_strides)
            if xc.flags.c_contiguous:  # as_strided's generic path costs microseconds a call
                windows = np.ndarray(cols.shape, xc.dtype, xc, 0, strides)
            else:
                windows = np.lib.stride_tricks.as_strided(xc, cols.shape, strides, writeable=False)
            np.copyto(cols, windows)
            yield rows, gs, cols.reshape(n, gs.stop - gs.start, -1, length)


def _conv_fwd(x, w, b, stride, padding):
    B, cin = x.shape[:2]
    cout, kernel = w.shape[0], w.shape[2]
    groups = cin // w.shape[1]
    dims = x.ndim - 2
    out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in x.shape[2:])
    length = math.prod(out_sp)
    wmat = w.reshape(groups, cout // groups, -1)
    out = np.empty((B, groups, cout // groups, length))
    for rows, gs, cols in _columns(x, kernel, stride, padding, out_sp, groups):
        np.matmul(wmat[gs], cols, out=out[rows, gs])
    out = out.reshape(B, cout, *out_sp)
    if b is not None:
        out += b.reshape((1, cout) + (1,) * dims)
    return out


# The engine's table caches are keyed by layer geometry, which a search
# bounds: per process, at most 17-19 keys a cache on the benchmark's
# explore-2d commands and 32-35 on explore-1d's, 29-41 over 16 trials of
# the default space (max-pool taps: 1, 9 and 1).
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


@functools.cache  # keyed by geometry, like _phases
def _phase_blocks(spatial: tuple[int, ...], kernel: int, stride: int, padding: int, lines: int):
    """_phases' outputs cut along their first axis into blocks of `lines`
    lines (the last one shorter where they do not divide).

    Per block: the padding of dout before each axis for the block's
    columns (a negative one crops), the block's extent, and per stacked
    phase the index of its inputs on the block's lines in dx and of their
    gradients in the (rows, groups, phases, group inputs, *block) product.
    """
    dims = len(spatial)
    lo, _, _, extent, phases = _phases(spatial, kernel, stride, padding)
    blocks = []
    for start in range(0, extent[0], lines):
        block = (min(lines, extent[0] - start),) + extent[1:]
        at = (start,) + (0,) * (dims - 1)
        copies = []
        for i, phase in enumerate(phases):
            inputs = [
                range(r + stride * o, min(n, r + stride * (o + m)), stride)
                for r, o, m, n in zip(phase, at, block, spatial)
            ]
            copies.append((
                (Ellipsis,) + tuple(slice(q.start, q.stop, stride) for q in inputs),
                (slice(None), slice(None), i, Ellipsis) + tuple(slice(0, len(q)) for q in inputs),
            ))
        blocks.append((tuple(-lo - o for o in at), block, tuple(copies)))
    return tuple(blocks)


def _input_gradient(w, dout, stride, padding, x_shape):
    """A convolution's input gradient as one stride-1 convolution of dout
    with every reached phase's kernel (_phases) stacked as extra output
    channels of each group: one column product per row chunk (and block
    of groups) of dout, whose phases are copied into dx[..., r::s].

    A row of dout's columns (cout channels over the phase offsets) can
    outgrow a row of x's (cin channels over the taps), so the phase
    outputs are cut along their first axis into blocks of whole lines
    that keep a row's columns within the budget or a row of x's columns,
    the bound forward's columns keep (one line, if even that is larger);
    _columns cuts a block's row into blocks of groups under the same
    budget, as it does x's.  The blocks depend on a row's shapes only, so
    every product keeps its per-row shape whatever the batch.  At stride
    1 with one block of lines, the one phase is dx itself, and the
    product is written straight into dx.
    """
    cin = x_shape[1]
    cout, group_inputs, kernel = w.shape[:3]
    groups = cin // group_inputs
    dims = len(x_shape) - 2
    lo, span, taps, extent, phases = _phases(x_shape[2:], kernel, stride, padding)
    # the phase kernels in one gather from the taps, with a zero tap appended:
    # (groups, out, in, phases, offsets) -> (groups, phases * in, out * offsets),
    # in C order whatever the reshape would leave (a product's bits can
    # depend on its operands' layout)
    wg = w.reshape(groups, cout // groups, group_inputs, -1)
    wz = np.concatenate((wg, np.zeros(wg.shape[:3] + (1,))), axis=3)
    wphase = np.take(wz, taps, axis=3).transpose(0, 3, 2, 1, 4)
    wphase = np.ascontiguousarray(wphase.reshape(groups, len(phases) * group_inputs, -1))
    # inputs of phases that no tap reaches get no gradient
    dx = np.empty(x_shape) if len(phases) == stride**dims else np.zeros(x_shape)
    line_bytes = dout.itemsize * cout * span**dims * math.prod(extent[1:])
    x_columns = dout.itemsize * cin * kernel**dims * math.prod(dout.shape[2:])
    lines = min(extent[0], max(1, max(_CHUNK_BYTES, x_columns) // line_bytes))
    if stride == 1 and lines == extent[0]:
        # dx's rows, (rows, groups, group inputs, positions), are the product
        dxg = dx.reshape(len(dx), groups, group_inputs, -1)
        for rows, gs, cols in _columns(dout, span, 1, -lo, x_shape[2:], groups):
            np.matmul(wphase[gs], cols, out=dxg[rows, gs])
        return dx
    for pads, block, copies in _phase_blocks(x_shape[2:], kernel, stride, padding, lines):
        length = math.prod(block)
        prod = None
        for rows, gs, cols in _columns(dout, span, 1, pads, block, groups):
            n = len(cols)
            if prod is None:  # the first chunk (and block of groups) is the largest
                prod = np.empty((n, cols.shape[1], wphase.shape[1], length))
            pc = prod[:n, : gs.stop - gs.start]
            np.matmul(wphase[gs], cols, out=pc)
            dxc = dx[rows].reshape((n, groups, group_inputs) + x_shape[2:])[:, gs]
            pc = pc.reshape(pc.shape[:2] + (len(phases), group_inputs) + block)
            for dst, src in copies:
                dxc[dst] = pc[src]
    return dx


def _conv_bwd(x, w, dout, stride, padding, want_bias, want_dx=True):
    """Input and per-sample weight and bias gradients; dx is None unless want_dx."""
    B, cin = x.shape[:2]
    cout, kernel = w.shape[0], w.shape[2]
    groups = cin // w.shape[1]
    out_sp = dout.shape[2:]
    length = math.prod(out_sp)
    dflat = dout.reshape(B, groups, cout // groups, length)
    dw = np.empty((B,) + w.shape)
    dw_flat = dw.reshape(B, groups, cout // groups, -1)
    for rows, gs, cols in _columns(x, kernel, stride, padding, out_sp, groups):
        np.matmul(dflat[rows, gs], cols.transpose(0, 1, 3, 2), out=dw_flat[rows, gs])
    dx = _input_gradient(w, dout, stride, padding, x.shape) if want_dx else None
    db = dout.sum(axis=tuple(range(2, dout.ndim))) if want_bias else None
    return dx, dw, db


def _maxpool_fwd(x, kernel, stride, padding):
    dims = x.ndim - 2
    out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in x.shape[2:])
    offsets = _offsets(kernel, dims)
    out = np.empty(x.shape[:2] + out_sp)
    # one byte a cell up to 256 taps: forward's trace holds it until backward
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(len(offsets) - 1))
    extent = tuple((n - 1) * stride + kernel for n in out_sp)
    chunks = _row_chunks(len(x), x.itemsize * x.shape[1] * math.prod(extent))
    greater = np.empty(out[chunks[0]].shape, dtype=bool)
    moved = np.empty(greater.shape, dtype=arg.dtype)
    for rows, xc in _padded_rows(x, padding, extent, chunks, -np.inf):
        oc, ac = out[rows], arg[rows]
        gt, mv = greater[: len(oc)], moved[: len(oc)]
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
    row chunk over the flat padded indices (plane, window origin and tap),
    whose interior is then copied into dx."""
    c = x_shape[1]
    padded = tuple(n + 2 * padding for n in x_shape[2:])
    plane = math.prod(padded)
    origins, taps = _pool_taps(padded, dout.shape[2:], kernel, stride)
    dx = np.empty(x_shape)
    inner = (slice(None),) * 2 + tuple(slice(padding, padding + n) for n in x_shape[2:])
    for rows in _row_chunks(x_shape[0], dout.itemsize * c * plane):
        ac = arg[rows]
        n = len(ac)
        idx = taps[ac.reshape(n * c, -1)]
        idx += origins
        idx += np.arange(0, n * c * plane, plane)[:, None]
        acc = np.bincount(idx.ravel(), weights=dout[rows].ravel(), minlength=n * c * plane)
        dx[rows] = acc.reshape((n, c) + padded)[inner]
    return dx


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
    consumer has run, and a relu, batchnorm or add that is that last
    consumer writes its result over it (an add only if no other operand
    is the same output).  The batch and the kept outputs are never
    written.  The logits, max-pool argmaxes and output shapes are always
    recorded, and so is each relu's pattern, except that of a relu whose
    output is kept and read by backward (backward_reads): relu_mask_blocks
    reads that one from the output.
    """
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
    trace: ForwardTrace | None = None,
    consumer: Callable[[int, np.ndarray, np.ndarray | None], None] | None = None,
) -> GradientRecord | None:
    """Per-sample cross-entropy gradients w.r.t. all parameters.

    Every array has a leading batch axis, and row b holds the gradient
    of the loss evaluated on sample b alone; the mean over that axis is
    the gradient of the mean loss over the batch.  trace, when given,
    must be forward(g, params, batch) keeping at least backward_reads(g);
    backward then reuses it instead of running the forward pass again,
    and leaves it intact.  Without a trace, the forward pass keeps only
    what backward reads.

    consumer, when given, is called as consumer(i, dw, db) as soon as
    weighted node i's gradients are made, in decreasing node order, with
    db None for a node without a bias; backward keeps neither array and
    returns None.  Without a consumer, every gradient is collected into
    the GradientRecord returned.

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
    if trace is None:
        trace = forward(g, params, x, keep=reads)
    elif len(trace.logits) != len(x):
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
    rec = None
    if consumer is None:
        rec = GradientRecord(weight_grads={}, bias_grads={})
        consumer = rec.add

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
    return rec
