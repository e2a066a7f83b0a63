import math

import numpy as np
import pytest

from protonas.archspace import HyperparamVector, apply_static_pruning, decode, sample
from protonas.archspace.graph import LayerSpec
from protonas.errors import ConfigError
from protonas.proxies import (
    ProxyBatchConfig,
    ProxyScores,
    correlation_min_eigenvalue,
    evaluate_ensemble,
    meco,
    naswot,
    zico,
)
from protonas.tensorcore import ForwardTrace, forward, init_params

from conftest import (
    Gradients,
    chain_graph,
    record_gradients,
    record_snip,
    record_zico,
    tiny_classifier,
)


def code_trace(codes):
    """A trace whose only relu pattern is codes, one row per sample."""
    codes = np.asarray(codes)
    return ForwardTrace(outputs={}, relu_patterns={0: codes}, logits=np.zeros((len(codes), 1)))


def weight_record(per_layer):
    """A record with one (S, P) weight gradient per layer and no biases."""
    return Gradients(weight_grads=dict(enumerate(per_layer)), bias_grads={})


def test_naswot_complementary_codes():
    # two samples with disjoint activation codes over four units:
    # the kernel is 4*I, so logdet is 2 ln 4
    codes = np.array([[1.0, 1, 1, 1], [0, 0, 0, 0]])
    assert abs(naswot(code_trace(codes)) - 2 * math.log(4)) < 1e-6


def test_naswot_identical_codes_stay_finite():
    # rank-deficient kernel; the diagonal shift keeps logdet defined
    codes = np.ones((4, 6))
    v = naswot(code_trace(codes))
    assert math.isfinite(v)


def test_naswot_more_distinct_codes_score_higher():
    same = np.ones((3, 8))
    mixed = np.array([[1.0] * 8, [0.0] * 8, [1, 0, 1, 0, 1, 0, 1, 0]])
    assert naswot(code_trace(mixed)) > naswot(code_trace(same))


def test_zico_constant_gradients():
    # one parameter, identical per-sample gradients: std 0, mean 1,
    # so the layer sums to 1/eps and the score is log(1e6)
    assert math.isclose(zico([np.ones((3, 1))]), math.log(1e6), rel_tol=1e-12)


def test_zico_sums_over_layers():
    a = [np.ones((3, 1))]
    b = [np.ones((3, 1)), np.ones((3, 1))]
    assert math.isclose(record_zico(weight_record(b)), 2 * record_zico(weight_record(a)),
                        rel_tol=1e-12)


def test_zico_noise_scores_below_constant():
    rng = np.random.default_rng(0)
    noisy = [rng.standard_normal((16, 4))]
    const = [np.ones((16, 4))]
    assert zico(noisy) < zico(const)


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
    got = record_snip(params, record_gradients(g, params, batch, labels))
    assert math.isclose(got, want, rel_tol=1e-9)


def test_snip_zero_weights_score_zero():
    g = tiny_classifier()
    params = init_params(g, np.random.default_rng(0))
    for node in params.weights:
        params.weights[node] = np.zeros_like(params.weights[node])
    batch = np.random.default_rng(1).standard_normal((2, *g.input_shape))
    assert record_snip(params, record_gradients(g, params, batch, np.array([0, 1]))) == 0.0


def test_full_scores_on_small_network():
    g = tiny_classifier()
    g.nodes[1].block_output = True  # meco taps block outputs
    rng = np.random.default_rng(2)
    params = init_params(g, rng)
    batch = rng.standard_normal((4, *g.input_shape))
    labels = np.array([0, 1, 2, 0])
    assert math.isfinite(record_snip(params, record_gradients(g, params, batch, labels)))
    assert math.isfinite(naswot(forward(g, params, batch)))
    two = record_gradients(g, params, np.concatenate([batch, batch + 0.1]),
                           np.concatenate([labels, labels]))
    assert math.isfinite(record_zico(two))
    assert math.isfinite(meco(g, forward(g, params, batch[:1])))


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
        # one engine pass per proxy, each on only the rows it reads
        stacked = record_gradients(g, params, np.concatenate(batches), np.concatenate(labels))
        want = {
            "snip": record_snip(params, record_gradients(g, params, batches[0], labels[0])),
            "naswot": naswot(forward(g, params, batches[0]), cfg.eps_logdet),
            "zico": record_zico(stacked, cfg.eps_std),
            "meco": meco(g, forward(g, params, batches[0][:1]), cfg.eps_var),
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

    # the ensemble calls both; patched in the engine too, so a forward
    # that backward ran itself would count
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

    rng = np.random.default_rng(21)
    for rows in (4, 8, 16):
        for units in (1, 7, 300, 5000):
            codes = _binary_codes(rng, rows, units)
            assert naswot(code_trace(codes)) == two_product_naswot(codes)
            assert naswot(code_trace(codes.astype(float))) == two_product_naswot(codes)
    # from a trace: every relu's codes, in node order, in blocks of 7 units
    monkeypatch.setattr(ensemble_mod, "_CODE_BLOCK", 7)
    patterns = {i: rng.random((8, 2 + i, 5 + i)) < 0.5 for i in (4, 1, 9)}
    patterns[1][0] = False
    patterns[9][3] = True
    trace = ForwardTrace(outputs={}, relu_patterns=patterns, logits=np.zeros((8, 3)))
    codes = np.concatenate([patterns[i].reshape(8, -1) for i in (1, 4, 9)], axis=1)
    assert naswot(trace, 1e-6) == two_product_naswot(codes)


def float_agreement(codes):
    """The code agreement matrix as c c^T + (1 - c)(1 - c)^T in float64."""
    c = np.asarray(codes, dtype=float)
    return c @ c.T + (1.0 - c) @ (1.0 - c).T


def test_naswot_packed_counts_equal_float_agreement(monkeypatch):
    """K from packed bit counts equals the float64 two-product formula bit
    for bit: 2-16 rows, unit counts that are not multiples of 8, all-zero,
    all-one and duplicate rows, blocks and stage flushes at many
    boundaries; naswot reads float 0/1 codes as their truth values."""
    import protonas.proxies.ensemble as ensemble_mod

    rng = np.random.default_rng(23)
    for code_block in (7, 8, 64, 1 << 15):
        monkeypatch.setattr(ensemble_mod, "_CODE_BLOCK", code_block)
        for rows in (2, 3, 8, 16):
            for units in (1, 5, 8, 63, 130, 1001):
                codes = rng.random((rows, units)) < rng.uniform(0.2, 0.8)
                codes[0] = False
                codes[-1] = True
                if rows > 3:
                    codes[2] = codes[1]  # a duplicate row
                cuts = np.sort(rng.integers(0, units + 1, size=3))
                blocks = [piece[:, lo : lo + code_block]
                          for piece in np.split(codes, cuts, axis=1)
                          for lo in range(0, piece.shape[1], code_block)]
                got = ensemble_mod._agreement(blocks, rows)
                want = float_agreement(codes)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                trace = code_trace(codes.astype(float))
                assert naswot(trace) == two_product_naswot(codes)


def test_naswot_reads_relus_in_node_order_from_any_pattern_source(monkeypatch):
    """Stored boolean and float 0/1 patterns and patterns read from kept
    outputs (zeros of both signs, NaN) count as their truth values, every
    relu in node order, the first `rows` samples only."""
    import protonas.proxies.ensemble as ensemble_mod

    monkeypatch.setattr(ensemble_mod, "_CODE_BLOCK", 9)
    rng = np.random.default_rng(24)
    out = rng.standard_normal((10, 3, 7))
    out[rng.random(out.shape) < 0.2] = 0.0
    out[rng.random(out.shape) < 0.1] = -0.0
    out[0, 0, :2] = np.nan
    stored = rng.random((10, 2, 5, 3)) < 0.5
    floats = (rng.random((10, 13)) < 0.5).astype(float)
    trace = ForwardTrace(outputs={4: out}, relu_patterns={7: floats, 4: None, 1: stored},
                         logits=np.zeros((10, 3)))
    for rows in (None, 2, 8):
        n = 10 if rows is None else rows
        codes = np.concatenate([stored[:n].reshape(n, -1), out[:n].reshape(n, -1) > 0,
                                floats[:n] != 0], axis=1)
        assert naswot(trace, 1e-6, rows) == two_product_naswot(codes)


@pytest.mark.parametrize("source", ["stored", "kept output"])
def test_naswot_transient_stays_under_a_megabyte(source):
    """naswot over one (8, 64, 64, 64) relu allocates under 1 MB beside
    the trace, its pattern stored or read from the kept output: no float
    code array and no whole-relu mask is built."""
    import tracemalloc

    out = np.random.default_rng(25).standard_normal((8, 64, 64, 64))
    if source == "stored":
        trace = ForwardTrace(outputs={}, relu_patterns={0: out > 0}, logits=np.zeros((8, 3)))
    else:
        trace = ForwardTrace(outputs={0: out}, relu_patterns={0: None}, logits=np.zeros((8, 3)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        naswot(trace)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


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
            # one record of 16 samples; the weight/bias boundary falls
            # inside a block, and some widths leave one column over
            parts = [rng.standard_normal((16, width - bias)) * rng.random(width - bias)]
            if bias:
                parts.append(rng.standard_normal((16, bias)))
            full = np.concatenate(parts, axis=1)
            ratios = ensemble_mod._zico_ratios(parts, 1e-6)
            assert np.array_equal(ratios, unblocked_zico_ratios(full))
            want = unblocked_zico_layer(full)
            lone = unblocked_zico_layer(full[:, :1])
            # layer 0 split into weight and bias, then a one-parameter layer
            rec = Gradients(weight_grads={0: parts[0], 1: full[:, :1]},
                            bias_grads={0: parts[1]} if bias else {})
            assert zico(parts, 1e-6) == want
            assert record_zico(rec, 1e-6) == want + lone


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
    gradient record, and zico reads their rows concatenated into one."""
    batches, labels = _drawn_batches(g, cfg, rng)
    trace = forward(g, params, batches[0])
    naswot_v = naswot(trace, cfg.eps_logdet)
    meco_v = meco(g, trace, cfg.eps_var)
    records = [record_gradients(g, params, batches[0], labels[0], trace=trace)]
    del trace
    records += [record_gradients(g, params, b, l) for b, l in zip(batches[1:], labels[1:])]
    snip_v = record_snip(params, records[0])
    # concatenate one tensor at a time, letting go of the per-batch parts
    rec = Gradients({}, {})
    for name in ("weight_grads", "bias_grads"):
        for nid in list(getattr(records[0], name)):
            getattr(rec, name)[nid] = np.concatenate([getattr(r, name).pop(nid) for r in records])
    zico_v = record_zico(rec, cfg.eps_std)
    return ProxyScores(meco=meco_v, zico=zico_v, naswot=naswot_v, snip=snip_v)


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
        # nonzero biases, so the order of snip's bias terms shows in its bits
        bias_rng = np.random.default_rng(70 + k)
        for nid in params.biases:
            params.biases[nid] = bias_rng.standard_normal(params.biases[nid].shape)
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


def equal_layers_graph(layers, channels=96, length=8):
    """A stem conv and `layers` equal k3 convolutions, each after a relu,
    on a 1-D input: one layer's per-sample weight gradients are about 36
    times the activations the trace keeps for it."""
    specs = [LayerSpec(kind="conv", in_channels=3, out_channels=channels, kernel=1)]
    for _ in range(layers):
        specs += [
            LayerSpec(kind="relu"),
            LayerSpec(kind="conv", in_channels=channels, out_channels=channels, kernel=3,
                      padding=1),
        ]
    specs += [
        LayerSpec(kind="relu", block_output=True),
        LayerSpec(kind="global-avg-pool"),
        LayerSpec(kind="linear", in_channels=channels, out_channels=4, bias=True),
    ]
    return chain_graph(specs, (3, length), 4)


def test_ensemble_peak_grows_with_one_layers_gradients_not_the_layer_count():
    """Scoring holds at most one layer's per-sample gradients: six more
    equal layers raise evaluate_ensemble's traced peak by less than one
    layer's gradients (holding them all would add six)."""
    import tracemalloc

    cfg = ProxyBatchConfig()
    peaks = {}
    for layers in (2, 8):
        g = equal_layers_graph(layers)
        params = init_params(g, np.random.default_rng(0))
        tracemalloc.start()
        try:
            evaluate_ensemble(g, params, cfg, np.random.default_rng(1))
            peaks[layers] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    rows = cfg.batch_size * cfg.num_batches_zico
    layer_bytes = rows * params.weights[2].nbytes
    assert peaks[8] - peaks[2] < layer_bytes, (peaks, layer_bytes)


def test_naswot_reads_masks_from_kept_outputs_as_from_stored_patterns(
    space1d, task1d, space2d, task2d, templates
):
    """naswot over a trace that derives its relu masks from the outputs
    backward reads equals naswot over every pattern a > 0 stored, bit for
    bit; a relu whose mask is derived counts as a relu."""
    from protonas.tensorcore.engine import backward_reads

    graphs = [_decoded_1d(space1d, task1d, templates, seed) for seed in (3, 8)]
    graphs += [_decoded_2d(space2d, task2d, templates, seed) for seed in (2, 5)]
    for k, g in enumerate(graphs):
        params = init_params(g, np.random.default_rng(k))
        batch = np.random.default_rng(60 + k).standard_normal((6, *g.input_shape))
        full = forward(g, params, batch)
        relus = [i for i, node in enumerate(g.nodes) if node.kind == "relu"]
        stored = ForwardTrace(
            outputs={}, logits=full.logits,
            relu_patterns={i: (full.outputs[g.preds[i][0]] if g.preds[i] else batch) > 0
                           for i in relus},
        )
        kept = forward(g, params, batch, keep=backward_reads(g))
        assert any(kept.relu_patterns[i] is None for i in relus)
        for rows in (None, 4):
            assert naswot(kept, 1e-6, rows) == naswot(stored, 1e-6, rows)
    # the only relu reads the batch, and a convolution reads it
    g = chain_graph(
        [
            LayerSpec(kind="relu"),
            LayerSpec(kind="conv", in_channels=3, out_channels=4, kernel=1),
            LayerSpec(kind="global-avg-pool"),
            LayerSpec(kind="linear", in_channels=4, out_channels=2),
        ],
        (3, 5),
        2,
    )
    params = init_params(g, np.random.default_rng(0))
    batch = np.random.default_rng(1).standard_normal((4, 3, 5))
    trace = forward(g, params, batch, keep=backward_reads(g))
    assert trace.relu_patterns == {0: None}
    assert naswot(trace) == naswot(code_trace((batch > 0).reshape(4, -1)))
    with pytest.raises(ConfigError):
        naswot(ForwardTrace(outputs={}, relu_patterns={}, logits=trace.logits))
