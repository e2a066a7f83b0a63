import math

import numpy as np
import pytest

from protonas.archspace import decode, sample
from protonas.archspace.graph import ArchitectureGraph, LayerSpec
from protonas.errors import ShapeMismatch
from protonas.tensorcore import backward, cross_entropy, forward, init_params
from protonas.tensorcore.engine import _conv_bwd, _pad

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
    x = np.random.default_rng(0).normal(size=shape)
    spec = [(0, 0), (0, 0)] + [(padding, padding)] * (len(shape) - 2)
    want = np.pad(x, spec, constant_values=value)
    got = _pad(x, padding, value)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_conv_bwd_without_input_gradient_keeps_parameter_gradients():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 2, 7, 7))
    w = rng.normal(size=(4, 2, 3, 3))
    dout = rng.normal(size=(3, 4, 4, 4))
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
