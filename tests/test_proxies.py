import math

import numpy as np
import pytest

from protonas.archspace import HyperparamVector, apply_static_pruning, decode, sample
from protonas.archspace.graph import LayerSpec
from protonas.proxies import (
    ProxyBatchConfig,
    ProxyScores,
    correlation_min_eigenvalue,
    evaluate_ensemble,
    meco,
    naswot,
    naswot_from_codes,
    snip,
    zico,
    zico_from_sample_grads,
)
from protonas.tensorcore import backward, forward, init_params

from conftest import chain_graph, tiny_classifier


def test_naswot_complementary_codes():
    # two samples with disjoint activation codes over four units:
    # the kernel is 4*I, so logdet is 2 ln 4
    codes = np.array([[1.0, 1, 1, 1], [0, 0, 0, 0]])
    assert abs(naswot_from_codes(codes) - 2 * math.log(4)) < 1e-6


def test_naswot_identical_codes_stay_finite():
    # rank-deficient kernel; the diagonal shift keeps logdet defined
    codes = np.ones((4, 6))
    v = naswot_from_codes(codes)
    assert math.isfinite(v)


def test_naswot_more_distinct_codes_score_higher():
    same = np.ones((3, 8))
    mixed = np.array([[1.0] * 8, [0.0] * 8, [1, 0, 1, 0, 1, 0, 1, 0]])
    assert naswot_from_codes(mixed) > naswot_from_codes(same)


def test_zico_constant_gradients():
    # one parameter, identical per-sample gradients: std 0, mean 1,
    # so the layer sums to 1/eps and the score is log(1e6)
    per_layer = [np.ones((3, 1))]
    assert math.isclose(zico_from_sample_grads(per_layer), math.log(1e6), rel_tol=1e-12)


def test_zico_sums_over_layers():
    a = [np.ones((3, 1))]
    b = [np.ones((3, 1)), np.ones((3, 1))]
    assert math.isclose(zico_from_sample_grads(b), 2 * zico_from_sample_grads(a), rel_tol=1e-12)


def test_zico_noise_scores_below_constant():
    rng = np.random.default_rng(0)
    noisy = [rng.standard_normal((16, 4))]
    const = [np.ones((16, 4))]
    assert zico_from_sample_grads(noisy) < zico_from_sample_grads(const)


def _pearson(x, y):
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc * yc).sum() / math.sqrt((xc**2).sum() * (yc**2).sum()))


def test_meco_eigenvalue_against_closed_form():
    # for two channels the correlation spectrum is {1+r, 1-r}
    x = np.array([1.0, -1.0, 2.0, -2.0, 0.5, -0.5])
    y = np.array([1.0, 1.0, -1.0, 2.0, -0.5, 0.25])
    r = _pearson(x, y)
    lam = correlation_min_eigenvalue(np.stack([x, y]))
    assert abs(lam - (1.0 - abs(r))) < 1e-6


def test_meco_uncorrelated_channels():
    x = np.array([1.0, -1.0, 1.0, -1.0])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    assert abs(_pearson(x, y)) < 1e-12
    assert abs(correlation_min_eigenvalue(np.stack([x, y])) - 1.0) < 1e-6


def test_meco_identical_channels():
    x = np.array([0.3, -1.2, 0.9, 2.0])
    lam = correlation_min_eigenvalue(np.stack([x, x]))
    assert abs(lam) < 1e-5


def test_meco_constant_channel_is_finite():
    x = np.array([1.0, 1.0, 1.0, 1.0])
    y = np.array([0.1, 0.4, -0.3, 0.2])
    assert math.isfinite(correlation_min_eigenvalue(np.stack([x, y])))


def _linear_model(classes=3, channels=4):
    # gap on a 1x1 map is the identity, so the network is a bare
    # softmax regression with analytic gradients
    return chain_graph(
        [
            LayerSpec(kind="global-avg-pool"),
            LayerSpec(kind="linear", in_channels=channels, out_channels=classes, bias=True),
        ],
        (channels, 1, 1),
        classes,
    )


def test_snip_matches_softmax_regression_oracle():
    g = _linear_model()
    rng = np.random.default_rng(4)
    params = init_params(g, rng)
    params.biases[1] = rng.standard_normal(params.biases[1].shape)
    batch = rng.standard_normal((6, 4, 1, 1))
    labels = np.array([0, 1, 2, 0, 1, 2])
    x = batch[:, :, 0, 0]
    w = params.weights[1]
    logits = x @ w.T + params.biases[1]
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = z / z.sum(axis=1, keepdims=True)
    p[np.arange(6), labels] -= 1.0
    gw = (p[:, :, None] * x[:, None, :]).mean(axis=0)
    gb = p.mean(axis=0)
    want = np.abs(w * gw).sum() + np.abs(params.biases[1] * gb).sum()
    got = snip(g, params, batch, labels)
    assert math.isclose(got, want, rel_tol=1e-9)


def test_snip_zero_weights_score_zero():
    g = tiny_classifier()
    params = init_params(g, np.random.default_rng(0))
    for node in params.weights:
        params.weights[node] = np.zeros_like(params.weights[node])
    batch = np.random.default_rng(1).standard_normal((2, *g.input_shape))
    assert snip(g, params, batch, np.array([0, 1])) == 0.0


def test_full_scores_on_small_network():
    g = tiny_classifier()
    g.nodes[1].block_output = True  # meco taps block outputs
    rng = np.random.default_rng(2)
    params = init_params(g, rng)
    batch = rng.standard_normal((4, *g.input_shape))
    labels = np.array([0, 1, 2, 0])
    assert math.isfinite(snip(g, params, batch, labels))
    assert math.isfinite(naswot(g, params, batch))
    assert math.isfinite(zico(g, params, [batch, batch + 0.1], [labels, labels]))
    assert math.isfinite(meco(g, params, batch[0]))


def test_ensemble_deterministic(space1d, task1d, templates):
    x = sample(np.random.default_rng(3), space1d)
    g = decode(x, space1d, task1d, templates)
    g.infer_shapes()
    cfg = ProxyBatchConfig(batch_size=4)
    params = init_params(g, np.random.default_rng(0))
    a = evaluate_ensemble(g, params, cfg, np.random.default_rng(7))
    b = evaluate_ensemble(g, params, cfg, np.random.default_rng(7))
    assert a == b
    d = a.as_dict()
    assert set(d) == {"snip", "naswot", "zico", "meco"}
    assert all(math.isfinite(v) for v in d.values())


def test_ensemble_finite_on_random_candidates(space2d, task2d, templates):
    rng = np.random.default_rng(6)
    cfg = ProxyBatchConfig(batch_size=2)
    from protonas.archspace import TaskSpec, apply_static_pruning

    small = TaskSpec(input_shape=(3, 16, 16), num_classes=4)
    for _ in range(4):
        x = sample(rng, space2d)
        g = apply_static_pruning(decode(x, space2d, small, templates), x.pruning_sparsity)
        g.infer_shapes()
        params = init_params(g, np.random.default_rng(1))
        scores = evaluate_ensemble(g, params, cfg, np.random.default_rng(2))
        assert all(math.isfinite(v) for v in scores.as_dict().values())


def _decoded_1d(space1d, task1d, templates, seed):
    x = sample(np.random.default_rng(seed), space1d)
    g = apply_static_pruning(decode(x, space1d, task1d, templates), x.pruning_sparsity)
    g.infer_shapes()
    return g


def _drawn_batches(g, cfg, rng):
    # the draw order evaluate_ensemble documents
    batches, labels = [], []
    for _ in range(cfg.num_batches_zico):
        batches.append(rng.standard_normal((cfg.batch_size, *g.input_shape)))
        labels.append(rng.integers(0, g.num_classes, size=cfg.batch_size))
    return batches, labels


def test_ensemble_matches_standalone_proxies(space1d, task1d, templates):
    for seed, cfg in ((3, ProxyBatchConfig()), (5, ProxyBatchConfig(batch_size=3, num_batches_zico=3))):
        g = _decoded_1d(space1d, task1d, templates, seed)
        params = init_params(g, np.random.default_rng(seed))
        got = evaluate_ensemble(g, params, cfg, np.random.default_rng(seed + 100)).as_dict()
        batches, labels = _drawn_batches(g, cfg, np.random.default_rng(seed + 100))
        want = {
            "snip": snip(g, params, batches[0], labels[0]),
            "naswot": naswot(g, params, batches[0], cfg.eps_logdet),
            "zico": zico(g, params, batches, labels, cfg.eps_std),
            "meco": meco(g, params, batches[0][0], cfg.eps_var),
        }
        for name, v in want.items():
            assert math.isclose(got[name], v, rel_tol=1e-12), name


def test_ensemble_runs_one_forward_and_one_backward_per_batch(
    space1d, task1d, templates, monkeypatch
):
    import protonas.proxies.ensemble as ensemble_mod
    import protonas.tensorcore.engine as engine_mod

    rows = {"forward": 0, "backward": 0}

    def counting(name, fn):
        def wrapper(g, params, batch, *args, **kwargs):
            rows[name] += len(batch)
            return fn(g, params, batch, *args, **kwargs)

        return wrapper

    # the engine calls forward from backward, the ensemble calls both
    for name in rows:
        wrapper = counting(name, getattr(engine_mod, name))
        monkeypatch.setattr(engine_mod, name, wrapper)
        monkeypatch.setattr(ensemble_mod, name, wrapper)

    cfg = ProxyBatchConfig()
    candidates = 3
    for seed in range(candidates):
        g = _decoded_1d(space1d, task1d, templates, seed)
        params = init_params(g, np.random.default_rng(seed))
        evaluate_ensemble(g, params, cfg, np.random.default_rng(seed))
    per_candidate = cfg.batch_size * cfg.num_batches_zico
    assert rows == {"forward": per_candidate * candidates, "backward": per_candidate * candidates}


def two_product_naswot(codes, eps=1e-6):
    """naswot as c c^T + (1 - c)(1 - c)^T, two products over the whole code matrix."""
    c = np.asarray(codes, dtype=float)
    k = c @ c.T + (1.0 - c) @ (1.0 - c).T
    return float(np.linalg.slogdet(k + eps * np.eye(len(k)))[1])


def _binary_codes(rng, rows, units):
    codes = rng.random((rows, units)) < rng.uniform(0.2, 0.8)
    codes[0] = False
    codes[1] = True
    codes[-1] = codes[2]  # a duplicate row
    return codes


def test_naswot_one_product_equals_two_product_formula(monkeypatch):
    import protonas.proxies.ensemble as ensemble_mod
    from protonas.tensorcore.engine import ForwardTrace

    rng = np.random.default_rng(21)
    for rows in (4, 8, 16):
        for units in (1, 7, 300, 5000):
            codes = _binary_codes(rng, rows, units)
            assert naswot_from_codes(codes) == two_product_naswot(codes)
            assert naswot_from_codes(codes.astype(float)) == two_product_naswot(codes)
    # from a trace: every relu's codes, in node order, in blocks of 7 units
    monkeypatch.setattr(ensemble_mod, "_CODE_BLOCK", 7)
    patterns = {i: rng.random((8, 2 + i, 5 + i)) < 0.5 for i in (4, 1, 9)}
    patterns[1][0] = False
    patterns[9][3] = True
    trace = ForwardTrace(outputs={}, relu_patterns=patterns, logits=np.zeros((8, 3)))
    codes = np.concatenate([patterns[i].reshape(8, -1) for i in (1, 4, 9)], axis=1)
    assert ensemble_mod._naswot_from_trace(trace, 1e-6) == two_product_naswot(codes)


def unblocked_zico_ratios(grads, eps=1e-6):
    return np.abs(grads).mean(axis=0) / (grads.std(axis=0) + eps)


def unblocked_zico_layer(grads, eps=1e-6):
    return float(np.log(max(unblocked_zico_ratios(grads, eps).sum(), eps)))


def test_blocked_zico_equals_unblocked(monkeypatch):
    import protonas.proxies.ensemble as ensemble_mod

    rng = np.random.default_rng(22)
    for block in (2, 5, 64):
        monkeypatch.setattr(ensemble_mod, "_ZICO_BLOCK", block)
        for width, bias in ((1, 0), (2, 1), (11, 3), (130, 7), (321, 0), (2 * block + 1, 4)):
            # two records of 8 samples; the weight/bias boundary falls
            # inside a block, and some widths leave one column over
            records = []
            for _ in range(2):
                parts = [rng.standard_normal((8, width - bias)) * rng.random(width - bias)]
                if bias:
                    parts.append(rng.standard_normal((8, bias)))
                records.append(parts)
            full = np.concatenate([np.concatenate(parts, axis=1) for parts in records], axis=0)
            ratios = ensemble_mod._zico_ratios(records, 1e-6)
            assert np.array_equal(ratios, unblocked_zico_ratios(full))
            want = unblocked_zico_layer(full)
            assert ensemble_mod._zico_layer(records, 1e-6) == want
            lone = unblocked_zico_layer(full[:, :1])
            assert zico_from_sample_grads([full, full[:, :1]]) == want + lone


def test_ensemble_is_unchanged_by_proxy_block_sizes(space1d, task1d, templates, monkeypatch):
    import protonas.proxies.ensemble as ensemble_mod

    g = _decoded_1d(space1d, task1d, templates, 4)
    params = init_params(g, np.random.default_rng(4))
    want = evaluate_ensemble(g, params, ProxyBatchConfig(), np.random.default_rng(104))
    monkeypatch.setattr(ensemble_mod, "_ZICO_BLOCK", 3)
    monkeypatch.setattr(ensemble_mod, "_CODE_BLOCK", 5)
    assert evaluate_ensemble(g, params, ProxyBatchConfig(), np.random.default_rng(104)) == want


def two_pass_ensemble(g, params, cfg, rng):
    """evaluate_ensemble as one forward and one backward per batch: the
    first batch's full trace gives naswot and meco, every batch its own
    gradient record."""
    import protonas.proxies.ensemble as ensemble_mod

    batches, labels = _drawn_batches(g, cfg, rng)
    trace = forward(g, params, batches[0])
    naswot_v = ensemble_mod._naswot_from_trace(trace, cfg.eps_logdet)
    meco_v = ensemble_mod._meco_from_trace(g, trace, cfg.eps_var)
    records = [backward(g, params, batches[0], labels[0], trace=trace)]
    del trace
    records += [backward(g, params, b, l) for b, l in zip(batches[1:], labels[1:])]
    return ProxyScores(
        meco=meco_v,
        zico=ensemble_mod._zico_from_records(g, records, cfg.eps_std),
        naswot=naswot_v,
        snip=ensemble_mod._snip_from_record(params, records[0]),
    )


ONE_PASS_CONFIGS = [
    ProxyBatchConfig(),
    ProxyBatchConfig(batch_size=3, num_batches_zico=3),
    ProxyBatchConfig(num_batches_zico=1),
]


def _decoded_2d(space2d, task2d, templates, seed):
    x = sample(np.random.default_rng(seed), space2d)
    g = apply_static_pruning(decode(x, space2d, task2d, templates), x.pruning_sparsity)
    g.infer_shapes()
    return g


def branchy_ensemble_graph():
    """The engine tests' branchy graph (add, concat, max-pool) with meco
    taps on the add and the concat."""
    from test_tensorcore import branchy_graph

    g = branchy_graph()
    g.nodes[4].block_output = True
    g.nodes[6].block_output = True
    return g


@pytest.mark.parametrize("cfg", ONE_PASS_CONFIGS, ids=["default", "3x3", "one-batch"])
def test_one_pass_ensemble_equals_two_pass_oracle(cfg, space1d, task1d, space2d, task2d, templates):
    graphs = [_decoded_1d(space1d, task1d, templates, seed) for seed in (3, 8)]
    graphs += [_decoded_2d(space2d, task2d, templates, seed) for seed in (2, 5)]
    graphs.append(branchy_ensemble_graph())
    for k, g in enumerate(graphs):
        params = init_params(g, np.random.default_rng(k))
        got = evaluate_ensemble(g, params, cfg, np.random.default_rng(50 + k))
        want = two_pass_ensemble(g, params, cfg, np.random.default_rng(50 + k))
        assert got.as_dict() == want.as_dict(), k


def test_ensemble_scores_a_candidate_in_one_engine_pass(space1d, task1d, templates, monkeypatch):
    import protonas.proxies.ensemble as ensemble_mod
    import protonas.tensorcore.engine as engine_mod

    calls = {"forward": 0, "backward": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapper = counting(name, getattr(engine_mod, name))
        monkeypatch.setattr(engine_mod, name, wrapper)
        monkeypatch.setattr(ensemble_mod, name, wrapper)
    g = _decoded_1d(space1d, task1d, templates, 3)
    params = init_params(g, np.random.default_rng(3))
    cfg = ProxyBatchConfig(batch_size=3, num_batches_zico=3)
    evaluate_ensemble(g, params, cfg, np.random.default_rng(4))
    assert calls == {"forward": 1, "backward": 1}


@pytest.mark.parametrize("architecture", [0, 1], ids=["mbednet", "mobilenetv2"])
def test_one_pass_ensemble_peaks_no_higher_than_two_pass_oracle(architecture, space2d, templates):
    """With twice the rows in one pass, the trimmed trace and a backward
    that frees what it has read keep the traced peak at or below the
    two-pass one (each alone is not enough on mbednet)."""
    import tracemalloc

    from protonas.archspace import TaskSpec

    task = TaskSpec(input_shape=(3, 128, 128), num_classes=10)
    x = HyperparamVector(
        architecture=architecture,
        group_depth=(1, 1, 1, 1),
        kernel_stride=(0, 0, 0, 0),
        width_multiplier=0.3,
        pruning_sparsity=(0.5, 0.5, 0.5, 0.5),
    )
    g = apply_static_pruning(decode(x, space2d, task, templates), x.pruning_sparsity)
    g.infer_shapes()
    params = init_params(g, np.random.default_rng(0))
    cfg = ProxyBatchConfig()
    peaks = {}
    for name, fn in (("one-pass", evaluate_ensemble), ("two-pass", two_pass_ensemble)):
        tracemalloc.start()
        try:
            fn(g, params, cfg, np.random.default_rng(1))
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["one-pass"] <= peaks["two-pass"], peaks
