import itertools
import math
import tracemalloc

import numpy as np
import pytest

from protonas.archspace import decode, sample
from protonas.archspace.graph import ArchitectureGraph, LayerSpec, windowed_extent
from protonas.errors import ShapeMismatch
from protonas.tensorcore import backward, cross_entropy, forward, init_params
import protonas.tensorcore.engine as engine
from protonas.tensorcore.engine import (
    _conv_bwd,
    _interior,
    _maxpool_fwd,
    _offsets,
    _padded_buffer,
    _window,
)

from conftest import chain_graph, tiny_classifier


def fd_gradient(g, params, batch, labels, node, idx, h=1e-5, bias=False):
    """Central-difference loss derivative for one scalar parameter."""
    store = params.biases if bias else params.weights
    flat = store[node].reshape(-1)
    keep = flat[idx]
    flat[idx] = keep + h
    up = cross_entropy(forward(g, params, batch).logits, labels)
    flat[idx] = keep - h
    down = cross_entropy(forward(g, params, batch).logits, labels)
    flat[idx] = keep
    return (up - down) / (2 * h)


def max_rel_error(g, params, batch, labels, rng, probes=12):
    """Worst relative gap between finite differences of the mean loss and
    the batch mean of the per-sample gradients."""
    grads = backward(g, params, batch, labels)
    worst = 0.0
    nodes = sorted(params.weights)
    for _ in range(probes):
        node = nodes[rng.integers(len(nodes))]
        for bias in (False, True):
            store = params.biases if bias else params.weights
            gstore = grads.bias_grads if bias else grads.weight_grads
            if node not in store or store[node].size == 0:
                continue
            idx = int(rng.integers(store[node].size))
            num = fd_gradient(g, params, batch, labels, node, idx, bias=bias)
            ana = gstore[node].mean(axis=0).reshape(-1)[idx]
            denom = max(abs(num), abs(ana), 1e-8)
            worst = max(worst, abs(num - ana) / denom)
    return worst


def test_gradients_match_finite_differences_on_chain():
    g = tiny_classifier()
    rng = np.random.default_rng(0)
    params = init_params(g, rng)
    batch = rng.standard_normal((3, *g.input_shape))
    labels = np.array([0, 2, 1])
    assert max_rel_error(g, params, batch, labels, rng) < 1e-5


def test_gradients_match_finite_differences_on_depthwise_first_chain():
    """A depthwise conv reading the graph input skips its input gradient;
    every one of its weight and bias gradients still matches."""
    g = chain_graph(
        [
            LayerSpec(kind="depthwise-conv", in_channels=3, out_channels=3, kernel=3,
                      stride=2, padding=1, bias=True),
            LayerSpec(kind="relu"),
            LayerSpec(kind="conv", in_channels=3, out_channels=4, kernel=1, bias=True),
            LayerSpec(kind="global-avg-pool"),
            LayerSpec(kind="linear", in_channels=4, out_channels=3, bias=True),
        ],
        (3, 7, 7),
        3,
    )
    rng = np.random.default_rng(3)
    params = init_params(g, rng)
    batch = rng.standard_normal((3, *g.input_shape))
    labels = np.array([2, 0, 1])
    assert max_rel_error(g, params, batch, labels, rng) < 1e-5
    grads = backward(g, params, batch, labels)
    for store, gstore, bias in (
        (params.weights, grads.weight_grads, False),
        (params.biases, grads.bias_grads, True),
    ):
        ana = gstore[0].mean(axis=0).reshape(-1)
        for idx in range(store[0].size):
            num = fd_gradient(g, params, batch, labels, 0, idx, bias=bias)
            assert abs(num - ana[idx]) <= 1e-5 * max(abs(num), abs(ana[idx]), 1e-8)


def branchy_graph():
    """conv trunk with an additive skip and a concat side branch."""
    nodes = [
        LayerSpec(kind="conv", in_channels=2, out_channels=3, kernel=3, padding=1, bias=True),
        LayerSpec(kind="relu"),
        LayerSpec(kind="conv", in_channels=3, out_channels=3, kernel=3, padding=1, bias=False),
        LayerSpec(kind="batchnorm", in_channels=3, out_channels=3),
        LayerSpec(kind="add"),
        LayerSpec(kind="conv", in_channels=3, out_channels=2, kernel=1, bias=True),
        LayerSpec(kind="concat"),
        LayerSpec(kind="depthwise-conv", in_channels=5, out_channels=5, kernel=3, padding=1),
        LayerSpec(kind="maxpool", kernel=2, stride=2),
        LayerSpec(kind="global-avg-pool"),
        LayerSpec(kind="linear", in_channels=5, out_channels=4, bias=True),
    ]
    preds = [[], [0], [1], [2], [1, 3], [4], [4, 5], [6], [7], [8], [9]]
    g = ArchitectureGraph(nodes=nodes, preds=preds, input_shape=(2, 8, 8), num_classes=4)
    g.infer_shapes()
    return g


def test_gradients_match_finite_differences_on_branchy_graph():
    g = branchy_graph()
    rng = np.random.default_rng(7)
    params = init_params(g, rng)
    batch = rng.standard_normal((2, 2, 8, 8))
    labels = np.array([1, 3])
    assert max_rel_error(g, params, batch, labels, rng) < 1e-5


def test_forward_shapes_match_graph():
    g = tiny_classifier()
    rng = np.random.default_rng(1)
    params = init_params(g, rng)
    batch = rng.standard_normal((4, *g.input_shape))
    trace = forward(g, params, batch)
    for i, shape in enumerate(g.shapes):
        assert trace.outputs[i].shape == (4, *shape)
    assert trace.logits.shape == (4, g.num_classes)


def test_forward_rejects_wrong_input_shape():
    g = tiny_classifier()
    params = init_params(g, np.random.default_rng(0))
    with pytest.raises(ShapeMismatch):
        forward(g, params, np.zeros((2, 3, 6, 6)))


def _assert_per_sample_matches_rows(g, params, batch, labels):
    per = backward(g, params, batch, labels)
    for b in range(len(batch)):
        row = backward(g, params, batch[b : b + 1], labels[b : b + 1])
        for got, want in ((per.weight_grads, row.weight_grads), (per.bias_grads, row.bias_grads)):
            assert got.keys() == want.keys()
            for node in want:
                assert got[node].shape == (len(batch), *want[node].shape[1:])
                err = np.abs(got[node][b] - want[node][0]).max(initial=0.0)
                assert err <= 1e-12 * max(1.0, np.abs(want[node]).max(initial=0.0))


def test_batched_per_sample_gradients_equal_one_row_backward():
    g = branchy_graph()
    rng = np.random.default_rng(11)
    params = init_params(g, rng)
    for nid in params.biases:
        params.biases[nid] = rng.standard_normal(params.biases[nid].shape)
    batch = rng.standard_normal((5, 2, 8, 8))
    _assert_per_sample_matches_rows(g, params, batch, np.array([0, 3, 1, 2, 3]))


def test_batched_per_sample_gradients_on_decoded_candidate(space1d, task1d, templates):
    x = sample(np.random.default_rng(12), space1d)
    g = decode(x, space1d, task1d, templates)
    g.infer_shapes()
    rng = np.random.default_rng(13)
    params = init_params(g, rng)
    batch = rng.standard_normal((6, *task1d.input_shape))
    _assert_per_sample_matches_rows(g, params, batch, rng.integers(0, task1d.num_classes, 6))


@pytest.mark.parametrize("reuse_twice", [False, True])
def test_backward_reuses_a_given_trace_exactly(reuse_twice):
    """A given trace yields the gradients of a fresh forward; with reuse_twice
    a second backward from the same trace checks the first left it intact."""
    g = branchy_graph()
    rng = np.random.default_rng(14)
    params = init_params(g, rng)
    batch = rng.standard_normal((3, 2, 8, 8))
    labels = np.array([2, 0, 1])
    fresh = backward(g, params, batch, labels)
    trace = forward(g, params, batch)
    reused = backward(g, params, batch, labels, trace=trace)
    if reuse_twice:
        reused = backward(g, params, batch, labels, trace=trace)
    for got, want in ((reused.weight_grads, fresh.weight_grads), (reused.bias_grads, fresh.bias_grads)):
        assert got.keys() == want.keys()
        for node in want:
            assert np.array_equal(got[node], want[node])


def test_backward_rejects_trace_of_another_batch_size():
    g = tiny_classifier()
    params = init_params(g, np.random.default_rng(0))
    batch = np.random.default_rng(1).standard_normal((3, *g.input_shape))
    with pytest.raises(ShapeMismatch):
        backward(g, params, batch, np.array([0, 1, 2]), trace=forward(g, params, batch[:2]))


@pytest.mark.parametrize("value", [0.0, -np.inf])
@pytest.mark.parametrize("shape", [(2, 3, 5), (2, 3, 4, 5)])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_pad_matches_np_pad(value, shape, padding):
    """The kernels pad a row chunk by filling a buffer of `value` once and
    copying the chunk into its interior."""
    x = np.random.default_rng(0).normal(size=shape)
    spec = [(0, 0), (0, 0)] + [(padding, padding)] * (len(shape) - 2)
    want = np.pad(x, spec, constant_values=value)
    got = _padded_buffer(len(x), x.shape, padding, value)
    got[_interior(padding, x.shape[2:])] = x
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("cout, group_inputs", [(4, 2), (2, 1)], ids=["conv", "depthwise-conv"])
def test_conv_bwd_without_input_gradient_keeps_parameter_gradients(cout, group_inputs):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 2, 7, 7))
    w = rng.normal(size=(cout, group_inputs, 3, 3))
    dout = rng.normal(size=(3, cout, 4, 4))
    dx, dw, db = _conv_bwd(x, w, dout, 2, 1, True)
    none, dw_only, db_only = _conv_bwd(x, w, dout, 2, 1, True, want_dx=False)
    assert dx.shape == x.shape and none is None
    assert np.array_equal(dw, dw_only) and np.array_equal(db, db_only)


def test_cross_entropy_uniform_logits():
    logits = np.zeros((4, 7))
    labels = np.array([0, 1, 2, 3])
    assert math.isclose(cross_entropy(logits, labels), math.log(7.0), rel_tol=1e-12)


def test_cross_entropy_saturated_logits_is_finite():
    logits = np.array([[1000.0, 0.0, -1000.0], [-1000.0, 1000.0, 0.0]])
    labels = np.array([0, 1])
    loss = cross_entropy(logits, labels)
    assert math.isfinite(loss)
    assert loss < 1e-6
    wrong = cross_entropy(logits, np.array([2, 0]))
    assert math.isfinite(wrong)
    assert wrong > 100.0


def test_maxpool_ties_resolve_to_first_window_offset():
    g = chain_graph(
        [
            LayerSpec(kind="maxpool", kernel=2, stride=2),
            LayerSpec(kind="global-avg-pool"),
            LayerSpec(kind="linear", in_channels=1, out_channels=2, bias=False),
        ],
        (1, 4, 4),
        2,
    )
    params = init_params(g, np.random.default_rng(0))
    # constant plane: every window position ties, the first offset wins
    trace = forward(g, params, np.ones((1, 1, 4, 4)))
    assert (trace.pool_argmax[0] == 0).all()
    # breaking one tie moves only that window's argmax
    bumped = np.ones((1, 1, 4, 4))
    bumped[0, 0, 0, 1] = 2.0  # second offset of the top-left window
    trace2 = forward(g, params, bumped)
    assert trace2.pool_argmax[0][0, 0, 0, 0] == 1
    assert trace2.pool_argmax[0][0, 0, 0, 1] == 0
    assert trace2.outputs[0][0, 0, 0, 0] == 2.0


def stacked_maxpool(x, kernel, stride, padding):
    """Reference max pooling: stack every window offset, take the argmax."""
    spatial = x.shape[2:]
    xp = np.pad(x, [(0, 0), (0, 0)] + [(padding, padding)] * len(spatial), constant_values=-np.inf)
    out_sp = [(n + 2 * padding - kernel) // stride + 1 for n in spatial]
    windows = [
        xp[(slice(None), slice(None)) + tuple(slice(o, o + stride * n, stride) for o, n in zip(off, out_sp))]
        for off in itertools.product(range(kernel), repeat=len(spatial))
    ]
    stack = np.stack(windows)
    arg = stack.argmax(axis=0)
    return np.take_along_axis(stack, arg[None], axis=0)[0], arg


@pytest.mark.parametrize("shape", [(2, 3, 9), (2, 3, 7, 8)])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
def test_maxpool_fwd_matches_stacked_argmax(shape, stride, padding):
    rng = np.random.default_rng(len(shape) + 2 * stride + padding)
    # five distinct values: most windows tie, also between 0.0 and -0.0
    x = rng.integers(-2, 3, size=shape) * 0.5
    x[x == 0.0] *= rng.choice([1.0, -1.0], size=int((x == 0.0).sum()))
    x[rng.random(shape) < 0.2] = -np.inf
    for kernel in (2, 3):
        want_out, want_arg = stacked_maxpool(x, kernel, stride, padding)
        got_out, got_arg = _maxpool_fwd(x, kernel, stride, padding)
        # the argmax is kept in the smallest type that holds kernel**dims - 1
        assert got_arg.dtype == np.uint8 and np.array_equal(got_arg, want_arg)
        assert np.array_equal(got_out, want_out)
        assert np.array_equal(np.signbit(got_out), np.signbit(want_out))


def test_init_params_he_scale():
    g = tiny_classifier(in_shape=(8, 6, 6), hidden=64)
    params = init_params(g, np.random.default_rng(0))
    w = params.weights[0]
    fan_in = 8 * 3 * 3
    assert abs(w.std() - math.sqrt(2.0 / fan_in)) < 0.01
    assert all(not b.any() for b in params.biases.values())


def test_init_params_deterministic():
    g = tiny_classifier()
    a = init_params(g, np.random.default_rng(42))
    b = init_params(g, np.random.default_rng(42))
    for node in a.weights:
        assert np.array_equal(a.weights[node], b.weights[node])


def test_forward_on_decoded_candidates(space1d, task1d, templates):
    rng = np.random.default_rng(8)
    for _ in range(3):
        x = sample(rng, space1d)
        g = decode(x, space1d, task1d, templates)
        g.infer_shapes()
        params = init_params(g, rng)
        batch = rng.standard_normal((2, *task1d.input_shape))
        trace = forward(g, params, batch)
        assert trace.logits.shape == (2, task1d.num_classes)
        assert np.isfinite(trace.logits).all()
        grads = backward(g, params, batch, np.array([0, 1]))
        assert all(np.isfinite(v).all() for v in grads.weight_grads.values())


def pad(x, padding, value=0.0):
    """x with `padding` cells of `value` on both sides of every spatial axis."""
    return np.pad(x, [(0, 0), (0, 0)] + [(padding, padding)] * (x.ndim - 2),
                  constant_values=value)


# Per-offset oracles: the convolution kernels as they were before the
# column lowering, one whole-batch product or multiply per kernel offset.


def offset_conv_fwd(x, w, b, stride, padding):
    B, cin = x.shape[:2]
    cout, _, kernel = w.shape[0], w.shape[1], w.shape[2]
    dims = x.ndim - 2
    xp = pad(x, padding)
    out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in x.shape[2:])
    length = math.prod(out_sp)
    acc = np.zeros((B, cout, length))
    for off in _offsets(kernel, dims):
        patch = _window(xp, off, stride, out_sp).reshape(B, cin, length)
        acc += w[(slice(None), slice(None), *off)] @ patch
    out = acc.reshape(B, cout, *out_sp)
    if b is not None:
        out += b.reshape((1, cout) + (1,) * dims)
    return out


def offset_conv_bwd(x, w, dout, stride, padding, want_bias, want_dx=True):
    B, cin = x.shape[:2]
    cout, kernel = w.shape[0], w.shape[2]
    dims = x.ndim - 2
    xp = pad(x, padding)
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


def offset_dwconv_fwd(x, w, b, stride, padding):
    B, c = x.shape[:2]
    kernel = w.shape[2]
    dims = x.ndim - 2
    xp = pad(x, padding)
    out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in x.shape[2:])
    out = np.zeros((B, c) + out_sp)
    for off in _offsets(kernel, dims):
        coeff = w[(slice(None), 0, *off)].reshape((1, c) + (1,) * dims)
        out += _window(xp, off, stride, out_sp) * coeff
    if b is not None:
        out += b.reshape((1, c) + (1,) * dims)
    return out


def offset_dwconv_bwd(x, w, dout, stride, padding, want_bias):
    B, c = x.shape[:2]
    kernel = w.shape[2]
    dims = x.ndim - 2
    xp = pad(x, padding)
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


def max_rel_diff(got, want):
    """Largest absolute difference relative to the largest |want|."""
    if want is None:
        assert got is None
        return 0.0
    assert got.shape == want.shape
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("spatial", [(13,), (9, 10)])
def test_column_kernels_match_per_offset_kernels(spatial, stride):
    """The im2col kernels sum each output in another order than the
    per-offset kernels, so they agree to rounding, not bit for bit."""
    rng = np.random.default_rng(len(spatial) * 10 + stride)
    B, cin, cout = 3, 4, 5
    dims = len(spatial)
    x = np.maximum(rng.standard_normal((B, cin) + spatial), 0.0)
    for kernel in (1, 3, 5, 7):
        for padding in range(kernel // 2 + 1):
            for bias in (True, False):
                w = rng.standard_normal((cout, cin) + (kernel,) * dims)
                b = rng.standard_normal(cout) if bias else None
                out = offset_conv_fwd(x, w, b, stride, padding)
                assert max_rel_diff(engine._conv_fwd(x, w, b, stride, padding), out) <= 1e-12
                # a channel slice of a wider gradient, as concat's backward passes on
                dout = rng.standard_normal((B, cout + 2) + out.shape[2:])[:, 1 : 1 + cout]
                for want_dx in (True, False):
                    got = engine._conv_bwd(x, w, dout, stride, padding, bias, want_dx)
                    want = offset_conv_bwd(x, w, dout, stride, padding, bias, want_dx)
                    assert all(max_rel_diff(g_, w_) <= 1e-12 for g_, w_ in zip(got, want))

                wd = rng.standard_normal((cin, 1) + (kernel,) * dims)
                bd = rng.standard_normal(cin) if bias else None
                out = offset_dwconv_fwd(x, wd, bd, stride, padding)
                assert max_rel_diff(engine._conv_fwd(x, wd, bd, stride, padding), out) <= 1e-12
                dout = rng.standard_normal((B, cin + 2) + out.shape[2:])[:, 1 : 1 + cin]
                got = engine._conv_bwd(x, wd, dout, stride, padding, bias)
                want = offset_dwconv_bwd(x, wd, dout, stride, padding, bias)
                assert all(max_rel_diff(g_, w_) <= 1e-12 for g_, w_ in zip(got, want))


def buffer_bytes(a):
    """Bytes of the allocation behind array a."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


@pytest.mark.parametrize(
    "kind, shape, kernel, stride",
    [
        ("depthwise-conv", (8, 36, 64, 64), 7, 1),  # the default space's largest taps
        ("conv", (8, 3, 128, 128), 3, 2),  # the default task's stem
    ],
)
def test_column_buffers_stay_within_chunk_budget(kind, shape, kernel, stride, monkeypatch):
    sizes = []
    columns = engine._columns

    def recording_columns(x, kernel, stride, padding, out_sp):
        for rows, cols in columns(x, kernel, stride, padding, out_sp):
            sizes.append(buffer_bytes(cols))
            yield rows, cols

    monkeypatch.setattr(engine, "_columns", recording_columns)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape)
    padding = kernel // 2
    if kind == "conv":
        w = rng.standard_normal((16, shape[1], kernel, kernel))
    else:
        w = rng.standard_normal((shape[1], 1, kernel, kernel))
    out = engine._conv_fwd(x, w, None, stride, padding)
    engine._conv_bwd(x, w, out, stride, padding, False)
    row_columns = 8 * shape[1] * kernel**2 * math.prod(out.shape[2:])
    assert sizes and max(sizes) <= max(engine._CHUNK_BYTES, row_columns)


def test_pointwise_conv_reads_its_input_without_a_column_copy():
    x = np.random.default_rng(0).standard_normal((4, 3, 5, 6))
    [(rows, cols)] = engine._columns(x, 1, 1, 0, (5, 6))
    assert rows == slice(None) and np.shares_memory(cols, x)


def traced_peak(call):
    """call()'s result and the peak bytes traced during it, above what was
    traced before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("group_inputs", [2, 1], ids=["conv", "depthwise-conv"])
def test_conv_kernels_pad_row_chunks_not_the_batch(group_inputs, stride, monkeypatch):
    """Over a batch of many row chunks, neither kernel allocates an array
    the size of the padded batch: beside its results, a call's traced
    peak stays below one padded batch."""
    monkeypatch.setattr(engine, "_CHUNK_BYTES", 1 << 14)  # one row a chunk
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 2, 16, 16))
    padded_batch = x.itemsize * 32 * 2 * 18 * 18
    w = rng.standard_normal((2, group_inputs, 3, 3))
    out, peak = traced_peak(lambda: engine._conv_fwd(x, w, None, stride, 1))
    assert peak - out.nbytes < padded_batch
    grads, peak = traced_peak(lambda: engine._conv_bwd(x, w, out, stride, 1, True))
    assert peak - sum(g_.nbytes for g_ in grads) < padded_batch


# Whole-batch references for the row-chunk test: the column formulation
# of the convolution kernels in one pass over the batch (a stride-1 input
# gradient as a forward convolution), and the max pooling kernels as they
# were before row chunking.


def im2col(xp, kernel, stride, out_sp):
    """(B, c, taps, length) columns, tap order as in _offsets."""
    B, c = xp.shape[:2]
    wins = [_window(xp, off, stride, out_sp) for off in _offsets(kernel, xp.ndim - 2)]
    return np.stack(wins, axis=2).reshape(B, c, len(wins), math.prod(out_sp))


def whole_conv_fwd(x, w, b, stride, padding):
    B, cout, kernel = len(x), w.shape[0], w.shape[2]
    out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in x.shape[2:])
    length = math.prod(out_sp)
    cols = im2col(pad(x, padding), kernel, stride, out_sp).reshape(B, -1, length)
    out = (w.reshape(cout, -1) @ cols).reshape(B, cout, *out_sp)
    if b is not None:
        out += b.reshape((1, cout) + (1,) * len(out_sp))
    return out


def stride1_input_gradient(conv_fwd, dout, w_t, padding):
    """A stride-1 convolution's input gradient: the forward convolution
    conv_fwd of dout with w_t, the kernel flipped in space with its in and
    out channels swapped, at padding k - 1 - p (dout cropped where that
    is negative)."""
    reach = w_t.shape[2] - 1 - padding
    if reach < 0:
        dout = dout[(slice(None),) * 2 + (slice(-reach, reach),) * (dout.ndim - 2)]
    return conv_fwd(dout, w_t, None, 1, max(reach, 0))


def whole_conv_bwd(x, w, dout, stride, padding, want_bias, want_dx=True):
    B, cout = len(x), w.shape[0]
    xp = pad(x, padding)
    out_sp = dout.shape[2:]
    length = math.prod(out_sp)
    dflat = dout.reshape(B, cout, length)
    cols = im2col(xp, w.shape[2], stride, out_sp).reshape(B, -1, length)
    dw = (dflat @ cols.transpose(0, 2, 1)).reshape((B,) + w.shape)
    dx = None
    if want_dx and stride == 1:
        w_t = np.flip(w.swapaxes(0, 1), axis=tuple(range(2, w.ndim)))
        dx = stride1_input_gradient(whole_conv_fwd, dout, w_t, padding)
    elif want_dx:
        dxp = np.zeros_like(xp)
        for off in _offsets(w.shape[2], len(out_sp)):
            dpatch = (w[(slice(None), slice(None), *off)].T @ dflat).reshape(x.shape[:2] + out_sp)
            _window(dxp, off, stride, out_sp)[...] += dpatch
        dx = np.ascontiguousarray(dxp[_interior(padding, x.shape[2:])])
    db = dout.sum(axis=tuple(range(2, dout.ndim))) if want_bias else None
    return dx, dw, db


def whole_dwconv_fwd(x, w, b, stride, padding):
    B, c, kernel = len(x), w.shape[0], w.shape[2]
    out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in x.shape[2:])
    cols = im2col(pad(x, padding), kernel, stride, out_sp)
    out = (w.reshape(c, 1, -1) @ cols).reshape((B, c) + out_sp)
    if b is not None:
        out += b.reshape((1, c) + (1,) * len(out_sp))
    return out


def whole_dwconv_bwd(x, w, dout, stride, padding, want_bias):
    B, c, kernel = len(x), w.shape[0], w.shape[2]
    xp = pad(x, padding)
    out_sp = dout.shape[2:]
    cols = im2col(xp, kernel, stride, out_sp)
    dw = (cols @ dout.reshape(B, c, -1, 1)).reshape((B,) + w.shape)
    if stride == 1:
        w_t = np.flip(w, axis=tuple(range(2, w.ndim)))
        dx = stride1_input_gradient(whole_dwconv_fwd, dout, w_t, padding)
    else:
        dxp = np.zeros_like(xp)
        for off in _offsets(kernel, len(out_sp)):
            coeff = w[(slice(None), 0, *off)].reshape((1, c) + (1,) * len(out_sp))
            _window(dxp, off, stride, out_sp)[...] += dout * coeff
        dx = np.ascontiguousarray(dxp[_interior(padding, x.shape[2:])])
    db = dout.sum(axis=tuple(range(2, dout.ndim))) if want_bias else None
    return dx, dw, db


def whole_maxpool_fwd(x, kernel, stride, padding):
    dims = x.ndim - 2
    xp = pad(x, padding, value=-np.inf)
    out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in x.shape[2:])
    offsets = _offsets(kernel, dims)
    out = _window(xp, offsets[0], stride, out_sp).copy()
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(len(offsets) - 1))
    for idx, off in enumerate(offsets[1:], start=1):
        win = _window(xp, off, stride, out_sp)
        np.putmask(arg, win > out, idx)
        np.maximum(win, out, out=out)
    return out, arg


def whole_maxpool_bwd(x_shape, arg, dout, kernel, stride, padding):
    dims = len(x_shape) - 2
    padded = list(x_shape)
    for ax in range(2, len(x_shape)):
        padded[ax] += 2 * padding
    dxp = np.zeros(tuple(padded))
    out_sp = dout.shape[2:]
    for idx, off in enumerate(_offsets(kernel, dims)):
        _window(dxp, off, stride, out_sp)[...] += dout * (arg == idx)
    return np.ascontiguousarray(dxp[_interior(padding, x_shape[2:])])


def assert_same_bits(got, want):
    """Equal values, signs of zero and memory layout (later reductions
    depend on the layout of the arrays they read)."""
    if want is None:
        assert got is None
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.strides == want.strides


@pytest.mark.parametrize("rows_per_chunk", [1, 2, None])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("spatial", [(11,), (9, 10)])
def test_row_chunked_kernels_equal_whole_batch_kernels(
    spatial, stride, rows_per_chunk, monkeypatch
):
    """Five rows in chunks of one, of two (the last chunk short) or as one
    chunk give the same bits as one whole-batch pass."""
    rng = np.random.default_rng(len(spatial) * 10 + stride)
    B, cin, cout = 5, 3, 4
    dims = len(spatial)
    # relu-like inputs: many exact zeros
    x = np.maximum(rng.standard_normal((B, cin) + spatial), 0.0)
    # max pooling inputs: five values with 0.0/-0.0 ties, and -inf cells
    xm = rng.integers(-2, 3, size=x.shape) * 0.5
    xm[xm == 0.0] *= rng.choice([1.0, -1.0], size=int((xm == 0.0).sum()))
    xm[rng.random(x.shape) < 0.2] = -np.inf
    default_budget = engine._CHUNK_BYTES

    def chunk_rows_of(row_bytes):
        """Set the budget to rows_per_chunk rows of row_bytes (the default
        budget, which holds the whole batch, when None)."""
        budget = row_bytes * rows_per_chunk if rows_per_chunk else default_budget
        monkeypatch.setattr(engine, "_CHUNK_BYTES", budget)
        want = -(-B // rows_per_chunk) if rows_per_chunk else 1
        assert len(engine._row_chunks(B, row_bytes)) == want

    for kernel in (1, 3, 5):
        for padding in (0, 1, 2):
            if spatial[0] + 2 * padding < kernel:
                continue
            out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in spatial)
            # convolution chunks count column bytes, max pooling padded input
            chunk_rows_of(8 * cin * kernel**dims * math.prod(out_sp))

            # cout = 1 takes the broadcast-product path for dx with one group
            for outs in (cout, 1):
                w = rng.standard_normal((outs, cin) + (kernel,) * dims)
                b = rng.standard_normal(outs)
                out = whole_conv_fwd(x, w, b, stride, padding)
                assert_same_bits(engine._conv_fwd(x, w, b, stride, padding), out)
                # relu-like gradients: zeros of both signs
                dout = np.maximum(rng.standard_normal(out.shape), 0.0)
                dout *= rng.choice([1.0, -1.0], out.shape)
                for want_dx in (True, False):
                    got = engine._conv_bwd(x, w, dout, stride, padding, True, want_dx)
                    want = whole_conv_bwd(x, w, dout, stride, padding, True, want_dx)
                    for g_, w_ in zip(got, want):
                        assert_same_bits(g_, w_)

            wd = rng.standard_normal((cin, 1) + (kernel,) * dims)
            bd = rng.standard_normal(cin)
            out = whole_dwconv_fwd(x, wd, bd, stride, padding)
            assert_same_bits(engine._conv_fwd(x, wd, bd, stride, padding), out)
            # a channel slice of a wider gradient, as concat's backward passes on
            dout = rng.standard_normal((B, 2 * cin) + out.shape[2:])[:, 1 : 1 + cin]
            got = engine._conv_bwd(x, wd, dout, stride, padding, True)
            for g_, w_ in zip(got, whole_dwconv_bwd(x, wd, dout, stride, padding, True)):
                assert_same_bits(g_, w_)

            chunk_rows_of(8 * cin * math.prod(n + 2 * padding for n in spatial))
            out, arg = whole_maxpool_fwd(xm, kernel, stride, padding)
            got_out, got_arg = engine._maxpool_fwd(xm, kernel, stride, padding)
            assert_same_bits(got_out, out)
            assert_same_bits(got_arg, arg)
            dout = rng.standard_normal(out.shape)
            assert_same_bits(
                engine._maxpool_bwd(xm.shape, arg, dout, kernel, stride, padding),
                whole_maxpool_bwd(xm.shape, arg, dout, kernel, stride, padding),
            )


def depthwise_chain():
    return chain_graph(
        [
            LayerSpec(kind="conv", in_channels=3, out_channels=6, kernel=3, stride=2, padding=1),
            LayerSpec(kind="batchnorm", in_channels=6, out_channels=6),
            LayerSpec(kind="relu"),
            LayerSpec(kind="depthwise-conv", in_channels=6, out_channels=6, kernel=5, padding=2,
                      bias=True),
            LayerSpec(kind="relu"),
            LayerSpec(kind="depthwise-conv", in_channels=6, out_channels=6, kernel=3, stride=2,
                      padding=1),
            LayerSpec(kind="conv", in_channels=6, out_channels=4, kernel=1, bias=True),
            LayerSpec(kind="global-avg-pool"),
            LayerSpec(kind="linear", in_channels=4, out_channels=3, bias=True),
        ],
        (3, 12, 12),
        3,
    )


def test_forward_trace_holds_exactly_the_kept_outputs():
    g = branchy_graph()
    rng = np.random.default_rng(15)
    params = init_params(g, rng)
    batch = rng.standard_normal((3, 2, 8, 8))
    full = forward(g, params, batch)
    for keep in (set(), {2, 5}, set(engine.backward_reads(g)), {0, len(g.nodes) - 1}):
        kept = forward(g, params, batch, keep=keep)
        assert kept.outputs.keys() == keep
        for i in keep:
            assert np.array_equal(kept.outputs[i], full.outputs[i])
        assert np.array_equal(kept.logits, full.logits)
        assert kept.shapes == [full.outputs[i].shape for i in range(len(g.nodes))]
        assert kept.relu_patterns.keys() == full.relu_patterns.keys()
        for i, pattern in full.relu_patterns.items():
            assert np.array_equal(kept.relu_patterns[i], pattern)
    # the max-pool argmax is held in one byte a cell, with the kernel's values
    (node,) = full.pool_argmax
    arg = full.pool_argmax[node]
    _, want = _maxpool_fwd(full.outputs[node - 1], 2, 2, 0)
    assert arg.dtype == np.uint8 and np.array_equal(arg, want)


@pytest.mark.parametrize("graph", [branchy_graph, depthwise_chain], ids=["branchy", "depthwise"])
def test_backward_from_a_kept_trace_equals_backward_from_a_full_trace(graph):
    g = graph()
    rng = np.random.default_rng(16)
    params = init_params(g, rng)
    for nid in params.biases:
        params.biases[nid] = rng.standard_normal(params.biases[nid].shape)
    batch = rng.standard_normal((4, *g.input_shape))
    labels = rng.integers(0, g.num_classes, 4)
    want = backward(g, params, batch, labels, trace=forward(g, params, batch))
    kept = forward(g, params, batch, keep=engine.backward_reads(g))
    held = dict(kept.outputs)
    for got in (
        backward(g, params, batch, labels, trace=kept),
        backward(g, params, batch, labels),
    ):
        pairs = ((got.weight_grads, want.weight_grads), (got.bias_grads, want.bias_grads))
        for got_grads, want_grads in pairs:
            assert got_grads.keys() == want_grads.keys()
            for node in want_grads:
                assert_same_bits(got_grads[node], want_grads[node])
    # the caller's trace is left as it was
    assert kept.outputs.keys() == held.keys()
    assert all(kept.outputs[i] is held[i] for i in held)


def test_backward_rejects_a_trace_without_the_outputs_it_reads():
    g = branchy_graph()
    params = init_params(g, np.random.default_rng(0))
    batch = np.random.default_rng(1).standard_normal((2, 2, 8, 8))
    trace = forward(g, params, batch, keep=set())
    with pytest.raises(ShapeMismatch):
        backward(g, params, batch, np.array([0, 1]), trace=trace)
