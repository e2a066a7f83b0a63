import itertools
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from protonas.archspace import decode, sample
from protonas.archspace.graph import ArchitectureGraph, LayerSpec, windowed_extent
from protonas.errors import ShapeMismatch
from protonas.tensorcore import backward, forward, init_params
import protonas.tensorcore.engine as engine
from protonas.tensorcore.engine import (
    _conv_bwd,
    _maxpool_fwd,
    _offsets,
    _window,
)

from conftest import chain_graph, cross_entropy, record_gradients, tiny_classifier


def set_budget(monkeypatch, budget):
    """Set the spatial kernels' block budget, which every call reads (a
    plan holds no budget and no channel count)."""
    monkeypatch.setattr(engine, "_CHUNK_BYTES", budget)


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
    grads = record_gradients(g, params, batch, labels)
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
    grads = record_gradients(g, params, batch, labels)
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


def sharing_graph():
    """Elementwise nodes on arrays that are shared or read twice: a relu
    on the graph input; a batchnorm reading last an output that a
    convolution reads too (so a kept trace holds it); adds handing one
    gradient to a relu and a batchnorm, where the later one runs first in
    backward; an add whose first input gets another gradient after it
    ran; an add and a concat that read one node twice, the concat's
    gradient shared with a convolution's by the add after them."""
    bn = LayerSpec(kind="batchnorm", in_channels=4, out_channels=4)
    relu, add = LayerSpec(kind="relu"), LayerSpec(kind="add")
    nodes = [
        relu,
        LayerSpec(kind="conv", in_channels=2, out_channels=4, kernel=3, padding=1, bias=True),
        LayerSpec(kind="conv", in_channels=4, out_channels=4, kernel=1, bias=True),
        bn, relu, relu, add, add,
        bn, relu, add,
        relu, bn, add,
        LayerSpec(kind="conv", in_channels=4, out_channels=8, kernel=1, bias=True),
        LayerSpec(kind="concat"),
        add,
        LayerSpec(kind="global-avg-pool"),
        LayerSpec(kind="linear", in_channels=8, out_channels=3, bias=True),
    ]
    preds = [
        [], [0], [1], [1], [2], [3], [3, 4], [6, 5, 6],
        [7], [7], [8, 9],
        [10], [10], [11, 12],
        [13], [13, 13], [14, 15], [16], [17],
    ]
    g = ArchitectureGraph(nodes=nodes, preds=preds, input_shape=(2, 6, 6), num_classes=3)
    g.infer_shapes()
    return g


def test_gradients_match_finite_differences_on_branchy_graph():
    g = branchy_graph()
    rng = np.random.default_rng(7)
    params = init_params(g, rng)
    batch = rng.standard_normal((2, 2, 8, 8))
    labels = np.array([1, 3])
    assert max_rel_error(g, params, batch, labels, rng) < 1e-5


def test_gradients_match_finite_differences_on_sharing_graph():
    g = sharing_graph()
    rng = np.random.default_rng(17)
    params = init_params(g, rng)
    # nonzero biases: with zero ones, a convolution window of the relu'd
    # batch that is all zeros gives an exact 0, a kink for finite differences
    for nid in params.biases:
        params.biases[nid] = rng.standard_normal(params.biases[nid].shape)
    batch = rng.standard_normal((3, 2, 6, 6))
    labels = np.array([1, 0, 2])
    # tighter than the other graphs' bound: a gradient scaled by batchnorm
    # (1 - 5e-6) once too often shows
    assert max_rel_error(g, params, batch, labels, rng, probes=24) < 1e-7


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


def one_row_backward(g, params, batch, labels):
    """Per row, {node: (dw, db)} as backward hands them to a consumer of
    its own after a forward over that row alone, the batch axis dropped
    (db None without a bias): an oracle that does not go through
    conftest.record_gradients."""
    rows = []
    for b in range(len(batch)):
        row, got = batch[b : b + 1], {}
        trace = forward(g, params, row, keep=engine.backward_reads(g))
        backward(g, params, row, labels[b : b + 1], trace,
                 lambda i, dw, db: got.update({i: (dw[0], None if db is None else db[0])}))
        rows.append(got)
    return rows


def _assert_per_sample_matches_rows(g, params, batch, labels):
    per = record_gradients(g, params, batch, labels)
    for b, row in enumerate(one_row_backward(g, params, batch, labels)):
        assert per.weight_grads.keys() == row.keys()
        assert per.bias_grads.keys() == {i for i, (_, db) in row.items() if db is not None}
        for node, grads in row.items():
            for got, want in zip((per.weight_grads, per.bias_grads), grads):
                if want is None:
                    continue
                assert got[node].shape == (len(batch), *want.shape)
                err = np.abs(got[node][b] - want).max(initial=0.0)
                assert err <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))


def test_batched_per_sample_gradients_equal_one_row_backward():
    for g, labels in ((branchy_graph(), [0, 3, 1, 2, 3]), (sharing_graph(), [2, 0, 1, 1, 0])):
        rng = np.random.default_rng(11)
        params = init_params(g, rng)
        for nid in params.biases:
            params.biases[nid] = rng.standard_normal(params.biases[nid].shape)
        batch = rng.standard_normal((5, *g.input_shape))
        _assert_per_sample_matches_rows(g, params, batch, np.array(labels))


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
    for g in (branchy_graph(), sharing_graph()):
        rng = np.random.default_rng(14)
        params = init_params(g, rng)
        batch = rng.standard_normal((3, *g.input_shape))
        labels = np.array([2, 0, 1])
        fresh = record_gradients(g, params, batch, labels)
        trace = forward(g, params, batch)
        reused = record_gradients(g, params, batch, labels, trace=trace)
        if reuse_twice:
            reused = record_gradients(g, params, batch, labels, trace=trace)
        pairs = ((reused.weight_grads, fresh.weight_grads), (reused.bias_grads, fresh.bias_grads))
        for got, want in pairs:
            assert got.keys() == want.keys()
            for node in want:
                assert np.array_equal(got[node], want[node])


def test_backward_rejects_trace_of_another_batch_size():
    g = tiny_classifier()
    params = init_params(g, np.random.default_rng(0))
    batch = np.random.default_rng(1).standard_normal((3, *g.input_shape))
    with pytest.raises(ShapeMismatch):
        record_gradients(g, params, batch, np.array([0, 1, 2]), trace=forward(g, params, batch[:2]))


@pytest.mark.parametrize("value", [0.0, -np.inf])
@pytest.mark.parametrize("shape", [(2, 3, 5), (2, 3, 4, 5)])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_pad_matches_np_pad(value, shape, padding):
    """A block's cells land in its padded buffer as np.pad puts them, with
    `value` around them: all of the padded input for 1x1 stride-1
    windows, its start where 2x2 stride-2 windows stop short of its end
    (an odd extent), and a crop where the input gradient's padding is
    negative."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=shape)
    spec = [(0, 0), (0, 0)] + [(padding, padding)] * (len(shape) - 2)
    want = np.pad(x, spec, constant_values=value)
    _, lines, _ = engine._plan(shape[2:], 1, 1, padding)
    [(rows, _, got)] = engine._padded(x, lines, engine._blocks(shape, 1, lines.cells), value)
    assert rows == slice(0, shape[0])
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    _, lines, _ = engine._plan(shape[2:], 2, 2, padding)
    [(_, _, got)] = engine._padded(x, lines, engine._blocks(shape, 1, lines.cells), value)
    cut = tuple(n - n % 2 for n in want.shape[2:])
    assert got.shape[2:] == cut
    assert np.array_equal(got, want[(Ellipsis,) + tuple(slice(0, n) for n in cut)])
    # a 1x1 convolution padded by p > 0: its input gradient reads dout
    # cropped by p (at p = 0, dout is its own columns)
    if padding:
        dout = rng.normal(size=want.shape)
        (lines,) = engine._grad_plan(shape[2:], 1, 1, padding, shape[2])
        blocks = engine._blocks(dout.shape, 1, lines.columns)
        [(_, _, got)] = engine._padded(dout, lines, blocks, value)
        crop = (Ellipsis,) + tuple(slice(padding, padding + n) for n in shape[2:])
        assert np.array_equal(got, dout[crop])


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


def tied_input(rng, shape, levels):
    """2 * levels + 1 distinct values, so many windows tie, also between
    0.0 and -0.0; a fifth of the cells -inf."""
    x = rng.integers(-levels, levels + 1, size=shape) * 0.5
    x[x == 0.0] *= rng.choice([1.0, -1.0], size=int((x == 0.0).sum()))
    x[rng.random(shape) < 0.2] = -np.inf
    return x


@pytest.mark.parametrize("shape", [(2, 3, 9), (2, 3, 7, 8)])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
def test_maxpool_fwd_matches_stacked_argmax(shape, stride, padding):
    rng = np.random.default_rng(len(shape) + 2 * stride + padding)
    x = tied_input(rng, shape, 2)
    cases = [(x, 2), (x, 3)]
    if len(shape) == 4:
        # 289 taps: the argmax no longer fits in a byte; more values, so
        # that windows peak at taps above 255 too
        cases.append((tied_input(rng, (2, 3, 24, 25), 200), 17))
    for x, kernel in cases:
        want_out, want_arg = stacked_maxpool(x, kernel, stride, padding)
        got_out, got_arg = _maxpool_fwd(x, kernel, stride, padding)
        # the argmax is kept in the smallest type that holds kernel**dims - 1
        assert got_arg.dtype == (np.uint16 if kernel == 17 else np.uint8)
        assert np.array_equal(got_arg, want_arg)
        assert kernel < 17 or (got_arg > 255).any()
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
        grads = record_gradients(g, params, batch, np.array([0, 1]))
        assert all(np.isfinite(v).all() for v in grads.weight_grads.values())


def interior(padding, spatial):
    """Index of the unpadded region inside an array padded by `padding`."""
    return (slice(None), slice(None)) + tuple(slice(padding, padding + n) for n in spatial)


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
    dx = dxp if padding == 0 or not want_dx else dxp[interior(padding, x.shape[2:])]
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
    dx = dxp if padding == 0 else dxp[interior(padding, x.shape[2:])]
    db = dout.sum(axis=spatial) if want_bias else None
    return dx, dw, db


def offset_maxpool_bwd(x_shape, arg, dout, kernel, stride, padding):
    dxp = np.zeros(x_shape[:2] + tuple(n + 2 * padding for n in x_shape[2:]))
    out_sp = dout.shape[2:]
    for idx, off in enumerate(_offsets(kernel, len(out_sp))):
        _window(dxp, off, stride, out_sp)[...] += dout * (arg == idx)
    return dxp[interior(padding, x_shape[2:])]


def max_rel_diff(got, want):
    """Largest absolute difference relative to the largest |want|."""
    if want is None:
        assert got is None
        return 0.0
    assert got.shape == want.shape
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def assert_unreached_phases_are_zero(dx, kernel, stride, padding):
    """Along each axis, the inputs r, r + s, ... of a phase r that no tap
    reaches ((r + p) mod s >= k) get exactly 0.0."""
    for axis in range(2, dx.ndim):
        for r in range(stride):
            if (r + padding) % stride >= kernel:
                index = (slice(None),) * axis + (slice(r, None, stride),)
                assert np.all(dx[index] == 0.0)


# odd and even, square and non-square extents
SPATIAL = [(13,), (9, 10), (8,), (7, 5)]


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("spatial", SPATIAL)
def test_column_kernels_match_per_offset_kernels(spatial, stride, monkeypatch):
    """The im2col kernels sum each output in another order than the
    per-offset kernels, so they agree to rounding, not bit for bit.
    Kernels run from smaller than the stride to 7, and paddings up to
    more than k - 1.  A five-channel depthwise layer also runs under a
    budget of two channels' columns, in blocks of 2, 2 and 1 groups."""
    rng = np.random.default_rng(len(spatial) * 10 + stride)
    B, cin, cout = 3, 4, 5
    dims = len(spatial)
    x = np.maximum(rng.standard_normal((B, cin) + spatial), 0.0)
    x5 = np.maximum(rng.standard_normal((B, 5) + spatial), 0.0)
    for kernel in (1, 2, 3, 5, 7):
        for padding in sorted({*range(kernel // 2 + 1), kernel}):
            if min(spatial) + 2 * padding < kernel:
                continue
            for bias in (True, False):
                w = rng.standard_normal((cout, cin) + (kernel,) * dims)
                b = rng.standard_normal(cout) if bias else None
                out = offset_conv_fwd(x, w, b, stride, padding)
                assert max_rel_diff(engine._conv_fwd(x, w, b, stride, padding), out) <= 1e-12
                # a channel slice of a wider gradient, as concat's backward passes on
                dout = rng.standard_normal((B, cout + 2) + out.shape[2:])[:, 1 : 1 + cout]
                for want_dx in (False, True):
                    got = engine._conv_bwd(x, w, dout, stride, padding, bias, want_dx)
                    want = offset_conv_bwd(x, w, dout, stride, padding, bias, want_dx)
                    assert all(max_rel_diff(g_, w_) <= 1e-12 for g_, w_ in zip(got, want))
                assert_unreached_phases_are_zero(got[0], kernel, stride, padding)

                wd = rng.standard_normal((cin, 1) + (kernel,) * dims)
                bd = rng.standard_normal(cin) if bias else None
                out = offset_dwconv_fwd(x, wd, bd, stride, padding)
                assert max_rel_diff(engine._conv_fwd(x, wd, bd, stride, padding), out) <= 1e-12
                dout = rng.standard_normal((B, cin + 2) + out.shape[2:])[:, 1 : 1 + cin]
                got = engine._conv_bwd(x, wd, dout, stride, padding, bias)
                want = offset_dwconv_bwd(x, wd, dout, stride, padding, bias)
                assert all(max_rel_diff(g_, w_) <= 1e-12 for g_, w_ in zip(got, want))
                assert_unreached_phases_are_zero(got[0], kernel, stride, padding)

                w5 = rng.standard_normal((5, 1) + (kernel,) * dims)
                b5 = rng.standard_normal(5) if bias else None
                out = offset_dwconv_fwd(x5, w5, b5, stride, padding)
                dout = rng.standard_normal(out.shape)
                want = offset_dwconv_bwd(x5, w5, dout, stride, padding, bias)
                row = 8 * 5 * kernel**dims * math.prod(out.shape[2:])
                with monkeypatch.context() as m:
                    set_budget(m, -(-2 * row // 5))
                    _, lines, _ = engine._plan(spatial, kernel, stride, padding)
                    blocks = engine._columns(x5, kernel, stride, lines, 5)
                    # but an unpadded 1x1 stride-1 layer is its own columns, one block
                    own = kernel == stride == 1 and not padding
                    assert len({(gs.start, gs.stop) for _, gs, _ in blocks}) == (1 if own else 3)
                    got_out = engine._conv_fwd(x5, w5, b5, stride, padding)
                    assert max_rel_diff(got_out, out) <= 1e-12
                    for want_dx in (True, False):
                        got = engine._conv_bwd(x5, w5, dout, stride, padding, bias, want_dx)
                        assert (got[0] is None) != want_dx
                        pairs = list(zip(got, want))[0 if want_dx else 1 :]
                        assert all(max_rel_diff(g_, w_) <= 1e-12 for g_, w_ in pairs)


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("spatial", SPATIAL)
def test_input_gradient_in_line_blocks_matches_per_offset_kernel(spatial, stride, monkeypatch):
    """With more output than input channels, dout's columns outgrow x's,
    and the input gradient goes in blocks of lines of the phase outputs,
    the last one short where they do not divide: one line a block at the
    smallest budget.  The blocks agree with the per-offset kernel."""
    set_budget(monkeypatch, 1)
    plans = []
    grad_plan = engine._grad_plan

    def recording_grad_plan(*key):
        plans.append(grad_plan(*key))
        return plans[-1]

    monkeypatch.setattr(engine, "_grad_plan", recording_grad_plan)
    rng = np.random.default_rng(len(spatial) * 10 + stride)
    B, cin, cout = 3, 1, 6
    dims = len(spatial)
    x = rng.standard_normal((B, cin) + spatial)
    blocked = 0
    for kernel in (1, 2, 3, 5):
        for padding in sorted({*range(kernel // 2 + 1), kernel}):
            if min(spatial) + 2 * padding < kernel:
                continue
            w = rng.standard_normal((cout, cin) + (kernel,) * dims)
            out = offset_conv_fwd(x, w, None, stride, padding)
            dout = rng.standard_normal(out.shape)
            got = engine._conv_bwd(x, w, dout, stride, padding, False)
            want = offset_conv_bwd(x, w, dout, stride, padding, False)
            assert max_rel_diff(got[0], want[0]) <= 1e-12
            assert_unreached_phases_are_zero(got[0], kernel, stride, padding)
            # the plan's line blocks of dout: equal blocks of whole lines,
            # but for a shorter last one
            blocks = [lines.out_sp for lines in plans[-1]]
            extent = tuple(-(-n // stride) for n in spatial)
            lines = [b[0] for b in blocks]
            assert sum(lines) == extent[0] and set(lines[:-1]) <= {lines[0]}
            assert lines[-1] <= lines[0]
            assert all(b[1:] == extent[1:] for b in blocks)
            blocked += len(lines) > 1
    assert blocked >= 5


def gather_phase_kernels(w, groups, taps):
    """The phase kernels as one gather from _phases' taps with a zero tap
    appended, in C order: the engine's form at every stride."""
    cout, group_inputs = w.shape[:2]
    wg = w.reshape(groups, cout // groups, group_inputs, -1)
    wz = np.concatenate((wg, np.zeros(wg.shape[:3] + (1,))), axis=3)
    wphase = np.take(wz, taps, axis=3).transpose(0, 3, 2, 1, 4)
    return np.ascontiguousarray(wphase.reshape(groups, len(taps) * group_inputs, -1))


@pytest.mark.parametrize("spatial", [(9,), (7, 8)])
def test_stride1_phase_kernels_are_the_gathered_kernels(spatial):
    """At stride 1 the one phase's kernel is the whole kernel flipped: the
    engine's flip has the bytes, shape and layout of the gather, for
    regular, grouped and depthwise layers, kernels 1-7, paddings 0..k."""
    rng = np.random.default_rng(len(spatial))
    dims = len(spatial)
    for cin, cout, groups in ((4, 6, 1), (4, 6, 2), (6, 6, 6)):
        for kernel in range(1, 8):
            for padding in range(kernel + 1):
                w = rng.standard_normal((cout, cin // groups) + (kernel,) * dims)
                taps = engine._phases(spatial, kernel, 1, padding)[2]
                got = engine._phase_kernels(w, groups, 1, taps)
                want = gather_phase_kernels(w, groups, taps)
                assert got.flags.c_contiguous and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("spatial", SPATIAL)
def test_maxpool_bwd_matches_per_offset_kernel(spatial, stride):
    """Max-pool backward adds each output's gradient at its argmax in
    another order than the per-offset kernel, where windows overlap."""
    rng = np.random.default_rng(len(spatial) * 10 + stride)
    # five distinct values and -inf cells: many ties
    x = rng.integers(-2, 3, size=(3, 4) + spatial) * 0.5
    x[rng.random(x.shape) < 0.2] = -np.inf
    for kernel in (1, 2, 3, 5):
        # at padding k some windows read only padding
        for padding in range(kernel + 1):
            if min(spatial) + 2 * padding < kernel:
                continue
            out, arg = _maxpool_fwd(x, kernel, stride, padding)
            dout = rng.standard_normal((3, 6) + out.shape[2:])[:, 1:5]
            got = engine._maxpool_bwd(x.shape, arg, dout, kernel, stride, padding)
            want = offset_maxpool_bwd(x.shape, arg, dout, kernel, stride, padding)
            assert max_rel_diff(got, want) <= 1e-12


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
        ("depthwise-conv", (8, 36, 64, 64), 5, 1),  # a group's row fits the budget
        ("depthwise-conv", (16, 29, 64, 64), 3, 2),  # explore-2d's stride-2 depthwise layers
    ],
)
def test_column_buffers_stay_within_chunk_budget(kind, shape, kernel, stride, monkeypatch):
    """No column buffer exceeds the budget or one row's columns; with
    several groups, the budget or one group's share of a row."""
    sizes = []
    columns = engine._columns

    def recording_columns(x, kernel, stride, lines, groups):
        for rows, gs, cols in columns(x, kernel, stride, lines, groups):
            sizes.append(buffer_bytes(cols))
            yield rows, gs, cols

    monkeypatch.setattr(engine, "_columns", recording_columns)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape)
    padding = kernel // 2
    if kind == "conv":
        w = rng.standard_normal((16, shape[1], kernel, kernel))
    else:
        w = rng.standard_normal((shape[1], 1, kernel, kernel))
    groups = shape[1] // w.shape[1]
    out = engine._conv_fwd(x, w, None, stride, padding)
    engine._conv_bwd(x, w, out, stride, padding, False)
    row_columns = 8 * shape[1] * kernel**2 * math.prod(out.shape[2:])
    assert sizes and max(sizes) <= max(engine._CHUNK_BYTES, row_columns // groups)


def test_pointwise_conv_reads_its_input_without_a_column_copy():
    x = np.random.default_rng(0).standard_normal((4, 3, 5, 6))
    _, lines, _ = engine._plan(x.shape[2:], 1, 1, 0)
    [(rows, gs, cols)] = engine._columns(x, 1, 1, lines, 1)
    assert rows == slice(0, 4) and gs == slice(0, 1) and np.shares_memory(cols, x)


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


def test_stride1_input_gradient_writes_its_product_into_dx():
    """At stride 1, where the phase output is one block, the input
    gradient's product is dx itself: besides dx, a call holds dout's
    padded input and columns, but no second array of dx's size."""
    rng = np.random.default_rng(0)
    x_shape = (4, 64, 32, 32)
    w = rng.standard_normal((2, 64, 3, 3))
    dout = rng.standard_normal((4, 2, 32, 32))
    dx, peak = traced_peak(lambda: engine._input_gradient(w, dout, 1, 1, x_shape))
    # dout's columns, 2 channels x 9 taps a position, fit one block
    assert 4 * 2 * 9 * 32 * 32 * 8 <= engine._CHUNK_BYTES
    assert dx.shape == x_shape and peak - dx.nbytes < dx.nbytes // 2


def test_elementwise_nodes_make_no_fresh_activation():
    """On conv -> batchnorm -> relu -> global-avg-pool -> linear, batchnorm
    and relu write over the convolution's output in forward and over
    their output gradient in backward: neither pass holds much more than
    one activation (with a fresh array per node, both peak above two)."""
    g = chain_graph(
        [
            LayerSpec(kind="conv", in_channels=4, out_channels=8, kernel=1),
            LayerSpec(kind="batchnorm", in_channels=8, out_channels=8),
            LayerSpec(kind="relu"),
            LayerSpec(kind="global-avg-pool"),
            LayerSpec(kind="linear", in_channels=8, out_channels=3),
        ],
        (4, 64, 64),
        3,
    )
    rng = np.random.default_rng(0)
    params = init_params(g, rng)
    batch = rng.standard_normal((8, 4, 64, 64))
    labels = rng.integers(0, 3, 8)
    activation = 8 * 8 * 64 * 64 * 8
    trace, peak = traced_peak(lambda: forward(g, params, batch, keep=engine.backward_reads(g)))
    assert peak < 1.5 * activation
    for given in (trace, None):  # without a trace, the recorder runs forward too
        _, peak = traced_peak(lambda: record_gradients(g, params, batch, labels, trace=given))
        assert peak < 1.5 * activation


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("group_inputs", [2, 1], ids=["conv", "depthwise-conv"])
def test_conv_kernels_pad_row_chunks_not_the_batch(group_inputs, stride, monkeypatch):
    """Over a batch of many row chunks, no convolution or max pooling
    kernel allocates an array the size of the padded batch: beside its
    results, a call's traced peak stays below one padded batch."""
    set_budget(monkeypatch, 1 << 14)  # one row a chunk
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 2, 16, 16))
    padded_batch = x.itemsize * 32 * 2 * 18 * 18
    w = rng.standard_normal((2, group_inputs, 3, 3))
    out, peak = traced_peak(lambda: engine._conv_fwd(x, w, None, stride, 1))
    assert peak - out.nbytes < padded_batch
    grads, peak = traced_peak(lambda: engine._conv_bwd(x, w, out, stride, 1, True))
    assert peak - sum(g_.nbytes for g_ in grads) < padded_batch
    (out, arg), peak = traced_peak(lambda: engine._maxpool_fwd(x, 3, stride, 1))
    assert peak - out.nbytes - arg.nbytes < padded_batch
    dx, peak = traced_peak(lambda: engine._maxpool_bwd(x.shape, arg, out, 3, stride, 1))
    assert peak - dx.nbytes < padded_batch


# Whole-batch references for the row-chunk test: the kernels' column
# and gather formulations in one pass over the batch.


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


def phase_kernels(w, groups, stride, padding):
    """A convolution's input gradient split by phase: along an axis, input
    r + s*m (phase r) gets output m + d's gradient through tap r + p - s*d.
    Returns the phases that some tap reaches (one residue per axis), the
    first offset lo, and their stride-1 kernels over offsets lo..hi,
    shaped (groups, phases, group inputs, group outputs, offsets...)."""
    cout, group_inputs, kernel = w.shape[:3]
    dims = w.ndim - 2
    reached = [r for r in range(stride) if (r + padding) % stride < kernel]
    lo = min(math.ceil((r + padding - kernel + 1) / stride) for r in reached)
    hi = max((r + padding) // stride for r in reached)
    phases = list(itertools.product(reached, repeat=dims))
    wg = w.reshape((groups, cout // groups) + w.shape[1:])
    kernels = np.zeros((groups, len(phases), group_inputs, cout // groups)
                       + (hi - lo + 1,) * dims)
    for i, phase in enumerate(phases):
        for d in itertools.product(range(lo, hi + 1), repeat=dims):
            tap = tuple(r + padding - stride * d_ for r, d_ in zip(phase, d))
            if all(0 <= t < kernel for t in tap):
                at = (slice(None), i, slice(None), slice(None)) + tuple(d_ - lo for d_ in d)
                kernels[at] = wg[(Ellipsis,) + tap].transpose(0, 2, 1)
    return phases, lo, kernels


def phase_input_gradient(w, dout, stride, padding, x_shape):
    """The input gradient as one stride-1 convolution of dout with the
    phase kernels stacked as output channels of each group, each phase
    then copied into dx[..., r::s].  The phase outputs' lines go in the
    engine's blocks: as many as fit the budget or a row of x's columns
    per row of dout's columns, each block one product over the batch."""
    B, cin = x_shape[:2]
    cout, kernel = w.shape[0], w.shape[2]
    groups = cin // w.shape[1]
    phases, lo, kernels = phase_kernels(w, groups, stride, padding)
    span = kernels.shape[-1]
    extent = tuple(-(-n // stride) for n in x_shape[2:])
    # dout after -lo zeros (cropped by lo where lo > 0), zero-filled or cut to the windows
    reach = tuple(m + span - 1 for m in extent)
    spec = [(max(-lo, 0), max(e + lo - n, 0)) for e, n in zip(reach, dout.shape[2:])]
    dp = np.pad(dout, [(0, 0), (0, 0)] + spec)
    dp = dp[(Ellipsis,) + tuple(slice(max(lo, 0), max(lo, 0) + e) for e in reach)]
    cols = im2col(dp, span, 1, extent).reshape(B, groups, -1, extent[0], math.prod(extent[1:]))
    x_columns = 8 * cin * kernel ** len(extent) * math.prod(dout.shape[2:])
    line_bytes = 8 * cout * span ** len(extent) * math.prod(extent[1:])
    lines = max(1, max(engine._CHUNK_BYTES, x_columns) // line_bytes)
    kmat = kernels.reshape(groups, len(phases) * w.shape[1], -1)
    # each block's columns in C order, as the engine's (a product's bits
    # can depend on its operands' layout)
    blocks = []
    for a in range(0, extent[0], lines):
        block = np.ascontiguousarray(cols[:, :, :, a : a + lines])
        block = kmat @ block.reshape(B, groups, cols.shape[2], -1)
        blocks.append(block.reshape(B, groups, kmat.shape[1], -1, cols.shape[-1]))
    prod = np.concatenate(blocks, axis=3).reshape((B, groups, len(phases), w.shape[1]) + extent)
    dx = np.zeros(x_shape)
    dxg = dx.reshape((B, groups, w.shape[1]) + x_shape[2:])
    for i, phase in enumerate(phases):
        dst = dxg[(Ellipsis,) + tuple(slice(r, None, stride) for r in phase)]
        dst[...] = prod[:, :, i][(Ellipsis,) + tuple(slice(0, m) for m in dst.shape[3:])]
    return dx


def phase_column_bytes(w, stride, padding, x_shape):
    """Bytes of one row's columns of dout in the phase formulation."""
    _, lo, kernels = phase_kernels(w, x_shape[1] // w.shape[1], stride, padding)
    extent = tuple(-(-n // stride) for n in x_shape[2:])
    return 8 * w.shape[0] * kernels.shape[-1] ** len(extent) * math.prod(extent)


def whole_conv_bwd(x, w, dout, stride, padding, want_bias, want_dx=True):
    B, cout = len(x), w.shape[0]
    out_sp = dout.shape[2:]
    length = math.prod(out_sp)
    dflat = dout.reshape(B, cout, length)
    cols = im2col(pad(x, padding), w.shape[2], stride, out_sp).reshape(B, -1, length)
    dw = (dflat @ cols.transpose(0, 2, 1)).reshape((B,) + w.shape)
    dx = phase_input_gradient(w, dout, stride, padding, x.shape) if want_dx else None
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
    out_sp = dout.shape[2:]
    cols = im2col(pad(x, padding), kernel, stride, out_sp)
    dw = (cols @ dout.reshape(B, c, -1, 1)).reshape((B,) + w.shape)
    dx = phase_input_gradient(w, dout, stride, padding, x.shape)
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
    """Each output's gradient added at its argmax's padded coordinates, by
    one bincount over the batch."""
    padded = x_shape[:2] + tuple(n + 2 * padding for n in x_shape[2:])
    offsets = np.array(_offsets(kernel, len(x_shape) - 2))
    grid = np.indices(arg.shape)
    coords = [grid[0], grid[1]] + [
        grid[2 + a] * stride + offsets[arg, a] for a in range(len(x_shape) - 2)
    ]
    flat = np.ravel_multi_index(coords, padded)
    dxp = np.bincount(flat.ravel(), weights=dout.ravel(), minlength=math.prod(padded))
    return np.ascontiguousarray(dxp.reshape(padded)[interior(padding, x_shape[2:])])


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
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("spatial", [(11,), (9, 10)])
def test_row_chunked_kernels_equal_whole_batch_kernels(
    spatial, stride, rows_per_chunk, monkeypatch
):
    """Five rows in chunks of one, of two (the last chunk short) or as one
    chunk give the same bits as one whole-batch pass.  A convolution's
    backward is chunked twice: by the columns of its input for the weight
    gradient, and by the columns of dout for the input gradient."""
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

    def chunk_rows_of(row_bytes, blocks):
        """Set the budget to rows_per_chunk rows of row_bytes (the default
        budget, which holds the whole batch, when None); blocks() then
        cuts the batch into such chunks, the last one short, except that
        a convolution's unpadded 1x1 stride-1 pass is the batch."""
        step = rows_per_chunk or B
        set_budget(monkeypatch, row_bytes * step if rows_per_chunk else default_budget)
        own, rows = blocks()
        want = [B] if own else [min(step, B - lo) for lo in range(0, B, step)]
        assert [len(range(B)[r]) for r in rows] == want

    # a convolution's passes: over x (forward, weight gradient), over dout
    def conv_pass(w, over_dout=False):
        groups = cin // w.shape[1]
        if over_dout:
            _, span, _, extent, _ = engine._phases(spatial, kernel, stride, padding)
            (lines,) = engine._grad_plan(spatial, kernel, stride, padding, extent[0])
            a = np.zeros((B, w.shape[0]) + out_sp)
            blocks = engine._columns(a, span, 1, lines, groups)
        else:
            lines = engine._plan(spatial, kernel, stride, padding)[1]
            blocks = engine._columns(x, kernel, stride, lines, groups)
        return lines.own, [rows for rows, _, _ in blocks]

    # max pooling's: over x (forward), over the padded planes (backward)
    def pool_pass(planes=False):
        lines = engine._plan(spatial, kernel, stride, padding)[2 if planes else 1]
        return False, [rows for rows, _, _ in engine._blocks(xm.shape, 1, lines.cells)]

    for kernel in (1, 3, 5):
        for padding in (0, 1, 2):
            if spatial[0] + 2 * padding < kernel:
                continue
            out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in spatial)
            # convolution chunks count column bytes, max pooling padded input
            x_columns = 8 * cin * kernel**dims * math.prod(out_sp)

            # one output channel, as well as several
            for outs in (cout, 1):
                w = rng.standard_normal((outs, cin) + (kernel,) * dims)
                b = rng.standard_normal(outs)
                out = whole_conv_fwd(x, w, b, stride, padding)
                chunk_rows_of(x_columns, lambda: conv_pass(w))
                assert_same_bits(engine._conv_fwd(x, w, b, stride, padding), out)
                # relu-like gradients: zeros of both signs
                dout = np.maximum(rng.standard_normal(out.shape), 0.0)
                dout *= rng.choice([1.0, -1.0], out.shape)
                for want_dx in (True, False):
                    phase_bytes = phase_column_bytes(w, stride, padding, x.shape)
                    for row_bytes, blocks in ((x_columns, lambda: conv_pass(w)),
                                              (phase_bytes, lambda: conv_pass(w, True))):
                        chunk_rows_of(row_bytes, blocks)
                        want = whole_conv_bwd(x, w, dout, stride, padding, True, want_dx)
                        got = engine._conv_bwd(x, w, dout, stride, padding, True, want_dx)
                        for g_, w_ in zip(got, want):
                            assert_same_bits(g_, w_)

            wd = rng.standard_normal((cin, 1) + (kernel,) * dims)
            bd = rng.standard_normal(cin)
            out = whole_dwconv_fwd(x, wd, bd, stride, padding)
            chunk_rows_of(x_columns, lambda: conv_pass(wd))
            assert_same_bits(engine._conv_fwd(x, wd, bd, stride, padding), out)
            # a channel slice of a wider gradient, as concat's backward passes on
            dout = rng.standard_normal((B, 2 * cin) + out.shape[2:])[:, 1 : 1 + cin]
            phase_bytes = phase_column_bytes(wd, stride, padding, x.shape)
            for row_bytes, blocks in ((x_columns, lambda: conv_pass(wd)),
                                      (phase_bytes, lambda: conv_pass(wd, True))):
                chunk_rows_of(row_bytes, blocks)
                want = whole_dwconv_bwd(x, wd, dout, stride, padding, True)
                got = engine._conv_bwd(x, wd, dout, stride, padding, True)
                for g_, w_ in zip(got, want):
                    assert_same_bits(g_, w_)

            # forward pads each chunk to the windows' extent
            extent = tuple((n - 1) * stride + kernel for n in out_sp)
            chunk_rows_of(8 * cin * math.prod(extent), pool_pass)
            out, arg = whole_maxpool_fwd(xm, kernel, stride, padding)
            got_out, got_arg = engine._maxpool_fwd(xm, kernel, stride, padding)
            assert_same_bits(got_out, out)
            assert_same_bits(got_arg, arg)
            dout = rng.standard_normal(out.shape)
            chunk_rows_of(8 * cin * math.prod(n + 2 * padding for n in spatial),
                          lambda: pool_pass(planes=True))
            assert_same_bits(
                engine._maxpool_bwd(xm.shape, arg, dout, kernel, stride, padding),
                whole_maxpool_bwd(xm.shape, arg, dout, kernel, stride, padding),
            )


def test_group_blocks_are_as_few_and_as_even_as_the_budget_allows(monkeypatch):
    """A row of columns over the budget is cut into the fewest blocks of
    whole groups that fit (one group at least), whose sizes differ by one
    group at most, the larger ones first, each over every row; a
    row that fits, or one group, is not cut.  A depthwise row here holds
    120 bytes a group: 3 taps at 5 positions."""
    for groups in (1, 2, 7, 10, 16, 29, 36):
        shape = (2, groups, 5)
        for budget in (1, 90, 100, 119, 120, 121, 333, 1000, 5000):
            set_budget(monkeypatch, budget)
            _, lines, _ = engine._plan(shape[2:], 3, 1, 1)
            blocks = engine._blocks(shape, groups, lines.columns)
            cuts = list(dict.fromkeys((gs.start, gs.stop) for _, gs, _ in blocks))
            sizes = [hi - lo for lo, hi in cuts]
            if groups == 1 or groups * 120 <= budget:
                assert cuts == [(0, groups)]
                continue
            fit = max(1, budget // 120)
            # one row a chunk, every chunk in each group block
            assert [(rows.start, rows.stop) for rows, _, _ in blocks] == [(0, 1), (1, 2)] * len(cuts)
            assert cuts[0][0] == 0 and cuts[-1][1] == groups
            assert all(a[1] == b[0] for a, b in zip(cuts, cuts[1:]))
            assert len(cuts) == -(-groups // fit)
            assert max(sizes) <= fit and sorted(sizes, reverse=True) == sizes
            assert max(sizes) - min(sizes) <= 1


def whole_grouped_conv_fwd(x, w, stride, padding):
    """A grouped convolution as one column product per group over the batch."""
    B, cin = x.shape[:2]
    cout, kernel = w.shape[0], w.shape[2]
    groups = cin // w.shape[1]
    out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in x.shape[2:])
    length = math.prod(out_sp)
    cols = im2col(pad(x, padding), kernel, stride, out_sp).reshape(B, groups, -1, length)
    return (w.reshape(groups, cout // groups, -1) @ cols).reshape(B, cout, *out_sp)


def whole_grouped_conv_bwd(x, w, dout, stride, padding, want_dx):
    B, cin = x.shape[:2]
    cout, kernel = w.shape[0], w.shape[2]
    groups = cin // w.shape[1]
    length = math.prod(dout.shape[2:])
    cols = im2col(pad(x, padding), kernel, stride, dout.shape[2:])
    cols = cols.reshape(B, groups, -1, length)
    dflat = dout.reshape(B, groups, cout // groups, length)
    dw = (dflat @ cols.transpose(0, 1, 3, 2)).reshape((B,) + w.shape)
    dx = phase_input_gradient(w, dout, stride, padding, x.shape) if want_dx else None
    return dx, dw


@pytest.mark.parametrize("want_dx", [True, False])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("spatial", [(11,), (9, 10)])
def test_group_blocked_kernels_equal_whole_batch_kernels(spatial, stride, want_dx, monkeypatch):
    """Where a row's columns exceed the budget, the convolutions run a
    product per block of whole groups, and give the same bits as one
    whole-batch pass: a seven-channel depthwise layer in blocks of 2, 2,
    2 and 1 channels, and a three-group convolution in blocks of 2 and
    1 groups."""
    rng = np.random.default_rng(len(spatial) * 10 + stride)
    dims = len(spatial)
    x = np.maximum(rng.standard_normal((3, 7) + spatial), 0.0)
    blocks = []
    columns = engine._columns

    def recording_columns(x, kernel, stride, lines, groups):
        for rows, gs, cols in columns(x, kernel, stride, lines, groups):
            blocks.append(gs)
            yield rows, gs, cols

    monkeypatch.setattr(engine, "_columns", recording_columns)
    for kernel in (3, 5):
        for padding in (0, kernel // 2):
            for xs, w in (
                (x, rng.standard_normal((7, 1) + (kernel,) * dims)),
                (x[:, :6], rng.standard_normal((6, 2) + (kernel,) * dims)),
            ):
                groups = xs.shape[1] // w.shape[1]
                out_sp = tuple(windowed_extent(n, kernel, stride, padding) for n in spatial)
                row = 8 * xs.shape[1] * kernel**dims * math.prod(out_sp)
                set_budget(monkeypatch, -(-2 * row // groups))
                out = whole_grouped_conv_fwd(xs, w, stride, padding)
                blocks.clear()
                assert_same_bits(engine._conv_fwd(xs, w, None, stride, padding), out)
                spans = sorted({(gs.start, gs.stop) for gs in blocks})
                assert [b - a for a, b in spans] == [2] * (groups // 2) + [1] * (groups % 2)
                assert len(blocks) == len(xs) * len(spans)
                dout = np.maximum(rng.standard_normal(out.shape), 0.0)
                dout *= rng.choice([1.0, -1.0], out.shape)
                got = engine._conv_bwd(xs, w, dout, stride, padding, False, want_dx)
                want = whole_grouped_conv_bwd(xs, w, dout, stride, padding, want_dx)
                for g_, w_ in zip(got, want):
                    assert_same_bits(g_, w_)


@pytest.mark.parametrize("stride", [1, 2])
def test_depthwise_rows_that_fit_make_the_same_column_calls(stride, monkeypatch):
    """A depthwise layer whose row of columns fits the budget is cut into
    row chunks only, as a regular convolution is: one _columns call per
    operand, one yield per row chunk, each over every group."""
    calls = []
    columns = engine._columns

    def recording_columns(x, kernel, stride, lines, groups):
        yields = []
        calls.append((x.shape, kernel, stride, yields))
        for rows, gs, cols in columns(x, kernel, stride, lines, groups):
            yields.append((rows, gs, cols.shape))
            yield rows, gs, cols

    monkeypatch.setattr(engine, "_columns", recording_columns)
    rng = np.random.default_rng(stride)
    x = rng.standard_normal((16, 12, 32, 32))
    w = rng.standard_normal((12, 1, 3, 3))
    out = engine._conv_fwd(x, w, None, stride, 1)
    engine._conv_bwd(x, w, out, stride, 1, False)
    length = math.prod(out.shape[2:])
    row = 8 * 12 * 9 * length
    assert row <= engine._CHUNK_BYTES
    step = engine._CHUNK_BYTES // row
    chunks = [slice(lo, lo + step) for lo in range(0, 16, step)]
    assert len(chunks) > 1
    want = [(rows, slice(0, 12), (len(range(16)[rows]), 12, 9, length)) for rows in chunks]
    assert calls[0] == (x.shape, 3, stride, want)
    assert calls[1] == calls[0]
    # the input gradient's columns of dout: one call, all groups in each chunk
    (shape, span, _, yields), = calls[2:]
    assert shape == out.shape
    assert [gs for _, gs, _ in yields] == [slice(0, 12)] * len(yields)
    assert [cols[1] for _, _, cols in yields] == [12] * len(yields)


def depthwise_chain(spatial=(12, 12)):
    """A conv reading the graph input, depthwise layers with and without
    a bias, and a linear layer with a bias."""
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
        (3, *spatial),
        3,
    )


def test_forward_trace_holds_exactly_the_kept_outputs():
    """Whatever forward keeps, the kept outputs, logits and ReLU patterns
    are the full trace's, bit for bit, and the caller's batch keeps its
    bytes; the full trace's outputs share no memory, so nothing in it was
    written over.  sharing_graph has a relu on the batch, an add reading
    one node twice, and a batchnorm reading last an output that a
    convolution reads too."""
    for g, keeps in ((branchy_graph(), [{2, 5}]), (sharing_graph(), [{3, 6}, {4, 9, 12}])):
        rng = np.random.default_rng(15)
        params = init_params(g, rng)
        batch = rng.standard_normal((3, *g.input_shape))
        held = batch.copy()
        full = forward(g, params, batch)
        assert batch.tobytes() == held.tobytes()
        for i, j in itertools.combinations(full.outputs, 2):
            assert not np.shares_memory(full.outputs[i], full.outputs[j])
        for keep in [set()] + keeps + [set(engine.backward_reads(g)), {0, len(g.nodes) - 1}]:
            kept = forward(g, params, batch, keep=keep)
            assert batch.tobytes() == held.tobytes()
            assert kept.outputs.keys() == keep
            for i in keep:
                assert_same_bits(kept.outputs[i], full.outputs[i])
            assert_same_bits(kept.logits, full.logits)
            assert kept.shapes == [full.outputs[i].shape for i in range(len(g.nodes))]
            assert kept.relu_patterns.keys() == full.relu_patterns.keys()
            for i in full.relu_patterns:
                assert np.array_equal(relu_mask(kept, i), relu_mask(full, i))
        # the max-pool argmax is held in one byte a cell, with the kernel's values
        pools = [i for i, node in enumerate(g.nodes) if node.kind == "maxpool"]
        assert list(full.pool_argmax) == pools
        for i in pools:
            node = g.nodes[i]
            _, want = _maxpool_fwd(full.outputs[g.preds[i][0]], node.kernel, node.stride, node.padding)
            assert full.pool_argmax[i].dtype == np.uint8 and np.array_equal(full.pool_argmax[i], want)


@pytest.mark.parametrize(
    "graph", [branchy_graph, depthwise_chain, sharing_graph], ids=["branchy", "depthwise", "sharing"]
)
def test_backward_from_a_kept_trace_equals_backward_from_a_full_trace(graph):
    g = graph()
    rng = np.random.default_rng(16)
    params = init_params(g, rng)
    for nid in params.biases:
        params.biases[nid] = rng.standard_normal(params.biases[nid].shape)
    batch = rng.standard_normal((4, *g.input_shape))
    labels = rng.integers(0, g.num_classes, 4)
    want = record_gradients(g, params, batch, labels, trace=forward(g, params, batch))
    kept = forward(g, params, batch, keep=engine.backward_reads(g))
    held = dict(kept.outputs)
    for got in (
        record_gradients(g, params, batch, labels, trace=kept),
        record_gradients(g, params, batch, labels),
    ):
        pairs = ((got.weight_grads, want.weight_grads), (got.bias_grads, want.bias_grads))
        for got_grads, want_grads in pairs:
            assert got_grads.keys() == want_grads.keys()
            for node in want_grads:
                assert_same_bits(got_grads[node], want_grads[node])
    # the caller's trace is left as it was
    assert kept.outputs.keys() == held.keys()
    assert all(kept.outputs[i] is held[i] for i in held)


@pytest.mark.parametrize("spatial", [(12,), (12, 12)], ids=["1d", "2d"])
def test_backward_hands_each_weighted_node_to_the_consumer_once(spatial):
    """backward passes each weighted node's gradients to the consumer
    once, in decreasing node order, db None exactly where the node has
    no bias, and returns nothing.  The bits are the same from a full and
    from a kept trace, and each row has the shape and dtype of a backward
    over the row alone (one_row_backward) and its values to that test's
    tolerance: a one-row product need not have a batched product's bits."""
    g = depthwise_chain(spatial)
    rng = np.random.default_rng(17)
    params = init_params(g, rng)
    for nid in params.biases:
        params.biases[nid] = rng.standard_normal(params.biases[nid].shape)
    batch = rng.standard_normal((5, *g.input_shape))
    labels = rng.integers(0, g.num_classes, 5)
    rows = one_row_backward(g, params, batch, labels)
    passes = []
    for trace in (forward(g, params, batch), forward(g, params, batch, keep=engine.backward_reads(g))):
        seen = []
        got = backward(g, params, batch, labels, trace, lambda i, dw, db: seen.append((i, dw, db)))
        assert got is None
        assert [i for i, _, _ in seen] == sorted(params.weights, reverse=True)
        for i, dw, db in seen:
            assert (db is None) == (i not in params.biases)
            for b, row in enumerate(rows):
                for got_grad, want in zip((dw, db), row[i]):
                    if want is not None:
                        assert got_grad.shape == (len(batch), *want.shape)
                        assert got_grad.dtype == want.dtype
                        err = np.abs(got_grad[b] - want).max()
                        assert err <= 1e-12 * max(1.0, np.abs(want).max())
        passes.append(seen)
    for (i, dw, db), (j, want_dw, want_db) in zip(*passes):
        assert i == j
        assert_same_bits(dw, want_dw)
        assert_same_bits(db, want_db)


def relu_probe_graph(spatial=(2, 5)):
    """Relus on the batch and after a conv, each read by a conv; a relu
    read by a max-pool only; a relu tapped for meco."""
    g = chain_graph(
        [
            LayerSpec(kind="relu"),
            LayerSpec(kind="conv", in_channels=3, out_channels=4, kernel=1, bias=True),
            LayerSpec(kind="relu"),
            LayerSpec(kind="conv", in_channels=4, out_channels=4, kernel=1),
            LayerSpec(kind="relu"),
            LayerSpec(kind="maxpool", kernel=1),
            LayerSpec(kind="relu"),
            LayerSpec(kind="global-avg-pool"),
            LayerSpec(kind="linear", in_channels=4, out_channels=2, bias=True),
        ],
        (3, *spatial),
        2,
    )
    g.nodes[6].block_output = True
    return g


def relu_mask(trace, i, rows=None):
    """Relu node i's pattern on the first `rows` samples (all of them by
    default), flattened per sample: ForwardTrace.relu_mask_blocks' blocks
    of 7 units (a size that divides no layer here) put back together."""
    rows = len(trace.logits) if rows is None else rows
    return np.concatenate(list(trace.relu_mask_blocks(i, rows, 7)), axis=1)


def special_values_batch(rng, shape):
    """A batch whose entries include NaN, both zeros, infinities and
    subnormals beside normal draws."""
    batch = rng.standard_normal(shape)
    flat = batch.reshape(-1)
    special = [np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324, -np.nan]
    flat[: len(special)] = special
    rng.shuffle(flat)
    return batch


def test_relu_masks_are_read_from_kept_outputs():
    """relu_mask_blocks reads a > 0 of the relu's input in a keep-all
    forward, as truth values in blocks of any size, for every relu and
    keep set, NaN and -0.0 included.  No pattern is stored
    for a relu whose output is kept and read by backward; backward reads
    it from that output, leaves it as it was, and gives the gradients of a
    trace that stores every pattern."""
    graphs = (relu_probe_graph(), branchy_graph(), sharing_graph(), depthwise_chain())
    for g in graphs:
        rng = np.random.default_rng(18)
        params = init_params(g, rng)
        batch = rng.standard_normal((4, *g.input_shape))
        labels = rng.integers(0, g.num_classes, 4)
        inputs = forward(g, params, batch).outputs
        relus = [i for i, node in enumerate(g.nodes) if node.kind == "relu"]
        want = {i: (inputs[g.preds[i][0]] if g.preds[i] else batch) > 0 for i in relus}
        reads = engine.backward_reads(g)
        for keep in (None, set(reads), set(reads) | set(relus), set()):
            trace = forward(g, params, batch, keep=keep)
            assert list(trace.relu_patterns) == relus
            for i in relus:
                derived = i in reads and (keep is None or i in keep)
                assert (trace.relu_patterns[i] is None) == derived
                flat = want[i].reshape(len(batch), -1)
                for rows in (None, 2):
                    got = relu_mask(trace, i, rows)
                    assert got.dtype == bool and np.array_equal(got, flat[:rows])
                # one block holds all the units
                whole = list(trace.relu_mask_blocks(i, 2, flat.shape[1]))
                assert len(whole) == 1 and np.array_equal(whole[0], flat[:2])
        # backward from a trace deriving its masks equals one storing them all
        kept = forward(g, params, batch, keep=reads)
        held = {i: a.copy() for i, a in kept.outputs.items()}
        stored = engine.ForwardTrace(
            outputs=dict(kept.outputs), relu_patterns=want, logits=kept.logits,
            pool_argmax=kept.pool_argmax, shapes=kept.shapes,
        )
        got = record_gradients(g, params, batch, labels, trace=kept)
        ref = record_gradients(g, params, batch, labels, trace=stored)
        for got_grads, ref_grads in ((got.weight_grads, ref.weight_grads),
                                     (got.bias_grads, ref.bias_grads)):
            assert list(got_grads) == list(ref_grads)
            for i in ref_grads:
                assert_same_bits(got_grads[i], ref_grads[i])
        for i, a in held.items():
            assert_same_bits(kept.outputs[i], a)
    # special values: the pattern read from max(a, 0) is a > 0 exactly
    g = relu_probe_graph((4, 6))
    params = init_params(g, np.random.default_rng(19))
    batch = special_values_batch(np.random.default_rng(20), (3, *g.input_shape))
    with np.errstate(invalid="ignore"):  # the NaN reaches every later layer
        trace = forward(g, params, batch, keep=engine.backward_reads(g))
        full = forward(g, params, batch)
    assert trace.relu_patterns[0] is None
    assert np.array_equal(relu_mask(trace, 0), (batch > 0).reshape(3, -1))
    assert np.array_equal(relu_mask(full, 0), (batch > 0).reshape(3, -1))


def test_a_trace_without_a_relu_mask_is_rejected():
    g = relu_probe_graph()
    params = init_params(g, np.random.default_rng(21))
    batch = np.random.default_rng(22).standard_normal((2, *g.input_shape))
    trace = forward(g, params, batch, keep=engine.backward_reads(g))
    assert trace.relu_patterns[2] is None
    # the output holding relu 2's pattern is gone
    lacking = engine.ForwardTrace(
        outputs={i: a for i, a in trace.outputs.items() if i != 2},
        relu_patterns=trace.relu_patterns, logits=trace.logits, shapes=trace.shapes,
    )
    for bad, node in ((lacking, 2), (trace, 1), (trace, 99)):
        with pytest.raises(ShapeMismatch):
            relu_mask(bad, node)
    with pytest.raises(ShapeMismatch):
        record_gradients(g, params, batch, np.array([0, 1]), trace=lacking)
    # no entry at all for relu 4
    missing = engine.ForwardTrace(
        outputs=trace.outputs, logits=trace.logits, shapes=trace.shapes,
        relu_patterns={i: p for i, p in trace.relu_patterns.items() if i != 4},
    )
    with pytest.raises(ShapeMismatch):
        record_gradients(g, params, batch, np.array([0, 1]), trace=missing)


def test_backward_rejects_a_trace_without_the_outputs_it_reads():
    g = branchy_graph()
    params = init_params(g, np.random.default_rng(0))
    batch = np.random.default_rng(1).standard_normal((2, 2, 8, 8))
    trace = forward(g, params, batch, keep=set())
    with pytest.raises(ShapeMismatch):
        record_gradients(g, params, batch, np.array([0, 1]), trace=trace)


# Scores one seeded 3x128x128 candidate twice in a fresh process and
# prints the minor page faults each call took; with the argument "retain"
# it calls retain_freed_memory itself first.
_FAULTS_PER_CALL = textwrap.dedent("""
    import resource
    import sys

    import numpy as np

    from protonas.archspace import (
        HyperparamVector, SearchSpaceDef, TaskSpec, apply_static_pruning, decode, load_templates,
    )
    from protonas.proxies import ProxyBatchConfig, evaluate_ensemble
    from protonas.tensorcore import init_params
    from protonas.tensorcore.engine import retain_freed_memory

    if sys.argv[1:] == ["retain"]:
        retain_freed_memory()
    space = SearchSpaceDef(baseline_pool=("mbednet", "mobilenetv2", "resnet", "squeezenet"))
    task = TaskSpec(input_shape=(3, 128, 128), num_classes=10)
    x = HyperparamVector(
        architecture=1,
        group_depth=(1, 1, 1, 1),
        kernel_stride=(0, 0, 0, 0),
        width_multiplier=0.3,
        pruning_sparsity=(0.5, 0.5, 0.5, 0.5),
    )
    g = apply_static_pruning(decode(x, space, task, load_templates()), x.pruning_sparsity)
    g.infer_shapes()
    params = init_params(g, np.random.default_rng(0))
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        evaluate_ensemble(g, params, ProxyBatchConfig(), np.random.default_rng(1))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
@pytest.mark.parametrize("args", [("retain",), ()], ids=["caller-sets-it", "engine-sets-it"])
def test_scoring_a_candidate_again_faults_in_no_working_set(args):
    # by default glibc unmaps or trims the multi-MB buffers a candidate
    # frees, and the second call faults them in again page by page; a
    # caller that never sets the allocator itself gets the setting from
    # init_params, before it allocates its batch
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_CALL, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    first, second = map(int, proc.stdout.split())
    assert second < 0.1 * first, (first, second)


@pytest.mark.parametrize("libc", ["glibc", "glibc-without-mallopt", "other"])
def test_retain_freed_memory_is_harmless_anywhere(libc, monkeypatch):
    if libc == "other":
        def no_ctypes(*args, **kwargs):
            raise AssertionError("ctypes called off glibc")

        monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("", ""))
        monkeypatch.setattr(engine.ctypes, "CDLL", no_ctypes)
    elif libc == "glibc-without-mallopt":
        monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("glibc", "2.0"))
        monkeypatch.setattr(engine.ctypes, "CDLL", lambda name: object())
    elif platform.libc_ver()[0] != "glibc":
        pytest.skip("mallopt is glibc's")
    engine.retain_freed_memory()
    engine.retain_freed_memory()


def clear_plan_caches():
    for cached in (engine._plan, engine._grad_plan, engine._phases, engine._pool_taps):
        cached.cache_clear()


def pruned_candidate(space, task, templates, **genes):
    from protonas.archspace import HyperparamVector, apply_static_pruning

    x = HyperparamVector(**genes)
    return apply_static_pruning(decode(x, space, task, templates), x.pruning_sparsity)


GENES = dict(architecture=0, group_depth=(1, 0, 1, 0), kernel_stride=(1, 0, 1, 3),
             pruning_sparsity=(0.3, 0.3, 0.3, 0.3))


@pytest.mark.parametrize("dims", [1, 2])
def test_scores_are_equal_with_cold_and_warm_plan_caches(dims, space1d, task1d, space2d, task2d,
                                                         templates):
    """The plans hold no result: a candidate scored right after the plan
    caches are cleared, and again with them warm, gets the same bits."""
    from protonas.proxies import ProxyBatchConfig, evaluate_ensemble

    space, task = (space1d, task1d) if dims == 1 else (space2d, task2d)
    g = pruned_candidate(space, task, templates, width_multiplier=0.5, **GENES)
    scores = []
    for cold in (True, False):
        if cold:
            clear_plan_caches()
        params = init_params(g, np.random.default_rng(0))
        got = evaluate_ensemble(g, params, ProxyBatchConfig(), np.random.default_rng(1))
        scores.append({k: float(v).hex() for k, v in got.as_dict().items()})
    assert scores[0] == scores[1]


def test_plan_caches_hold_one_entry_per_geometry(space1d, task1d, templates):
    """Plans are keyed by channel-free geometry (input extent, kernel,
    stride, padding): one depth at several widths, whose channel counts
    all differ, adds no plan beyond the geometries of its layers."""
    from protonas.proxies import ProxyBatchConfig, evaluate_ensemble

    clear_plan_caches()
    geometries, grad_geometries, channels = set(), set(), set()
    for width in (0.3, 0.45, 0.6, 0.8, 1.0):
        g = pruned_candidate(space1d, task1d, templates, width_multiplier=width, **GENES)
        params = init_params(g, np.random.default_rng(0))
        evaluate_ensemble(g, params, ProxyBatchConfig(), np.random.default_rng(1))
        for i, node in enumerate(g.nodes):
            if node.kind in ("conv", "depthwise-conv", "maxpool"):
                in_shape = g.shapes[g.preds[i][0]] if g.preds[i] else g.input_shape
                key = (tuple(in_shape[1:]), node.kernel, node.stride, node.padding)
                geometries.add(key)
                if node.kind != "maxpool" and g.preds[i]:
                    grad_geometries.add(key)
        channels.add(tuple(node.out_channels for node in g.nodes))
    assert len(channels) == 5
    assert engine._plan.cache_info().currsize <= len(geometries)
    # a 1-D layer's input gradient goes in one line block: one line count a geometry
    assert engine._grad_plan.cache_info().currsize <= len(grad_geometries)
