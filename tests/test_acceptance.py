"""Acceptance gate: one test per shipped guarantee.

Each test prints a single PASS/FAIL line (collected into the terminal
summary) with the measured margin, then asserts.  Budgets that would
need hours at production scale run here on reduced but structurally
identical configurations; the reductions are noted inline.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import conftest
from protonas.analysis import kendall_tau_b, write_front_csv, write_summary
from protonas.archspace import (
    SearchSpaceDef,
    TaskSpec,
    apply_static_pruning,
    decode,
    load_templates,
    sample,
)
from protonas.archspace.graph import ArchitectureGraph, LayerSpec
from protonas.config import build_config
from protonas.costmodel import (
    EXAMPLE_PROFILE,
    TargetProfile,
    check,
    count_flops,
    estimate_costs,
    estimate_ram,
    estimate_rom,
)
from protonas.hvss import (
    HssConfig,
    SubsetGene,
    exhaustive_subset,
    hv_monte_carlo,
    hypervolume,
    normalize_objectives,
    repair,
    select_subset,
    subset_hypervolume,
)
from protonas.proxies import (
    ProxyBatchConfig,
    evaluate_ensemble,
    meco,
    naswot_from_codes,
    snip,
)
from protonas.search import (
    EvalContext,
    SearchConfig,
    compute_pareto_indices,
    constrained_dominates,
    derive_seed,
    evaluate_candidate,
    run_search,
)
from protonas.tensorcore import backward, cross_entropy, forward, init_params


def verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


TEMPLATES = load_templates()
SPACE_1D = SearchSpaceDef(baseline_pool=("mbednet1d", "inceptiontime"))
TASK_1D = TaskSpec(input_shape=(3, 64), num_classes=5)


@pytest.fixture(scope="module")
def search_500(tmp_path_factory):
    """One production-shaped run: 500 trials, default budgets, on the
    two one-dimensional baselines so the suite stays CPU-friendly."""
    out = tmp_path_factory.mktemp("run500")
    cfg = build_config(
        {
            "task": {"input_shape": [3, 64], "num_classes": 5},
            "space": {"baseline_pool": ["mbednet1d", "inceptiontime"]},
        },
        env={},
    )
    log = out / "trials.jsonl"
    t0 = time.perf_counter()
    archive = run_search(cfg.search, log_path=log, templates=TEMPLATES)
    elapsed = time.perf_counter() - t0
    write_front_csv(out / "pareto.csv", archive.pareto_records())
    summary = write_summary(out / "run_summary.json", cfg.echo(), archive)
    return {"archive": archive, "log": log, "out": out, "elapsed": elapsed,
            "summary": summary, "profile": cfg.search.profile}


def test_criterion_01_hypervolume_exactness():
    analytic_ok = (
        abs(hypervolume([(0.0, 0.0)], (1.0, 1.0)) - 1.0) <= 1e-12
        and abs(hypervolume([(0.0, 0.5), (0.5, 0.0)], (1.0, 1.0)) - 0.75) <= 1e-12
    )
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        # coordinates in [0, 0.5] keep every front large enough for the
        # fixed 1e6-sample budget to resolve 1% relative error
        n = int(rng.integers(1, 21))
        pts = [tuple(v) for v in rng.random((n, 5)) * 0.5]
        ref = (1.0,) * 5
        exact = hypervolume(pts, ref)
        est = hv_monte_carlo(pts, ref, samples=1_000_000, rng=np.random.default_rng(rng.integers(2**32)))
        worst = max(worst, abs(est - exact) / exact)
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 1 hypervolume exactness",
        analytic_ok and worst <= 0.01 and elapsed < 60.0,
        f"analytic cases exact, max MC rel err {worst:.4%} over 50 5-D fronts, {elapsed:.1f}s",
    )


def test_criterion_02_subset_selection_optimality():
    rng = np.random.default_rng(2002)
    cfg = HssConfig(population=80, mutation_rate=0.3, generations=200, stagnation=50, seed=0)
    t0 = time.perf_counter()
    worst_gap = 0.0
    instances = 0
    for i in range(20):
        n = int(rng.integers(8, 13))
        k = i % 5 + 1
        pts = rng.random((n, 5))
        ref = (1.1,) * 5
        best = exhaustive_subset(pts, k, ref)
        got = select_subset(pts, k, cfg, ref)
        gap = subset_hypervolume(pts, best, ref) - subset_hypervolume(pts, got, ref)
        worst_gap = max(worst_gap, gap)
        instances += 1
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 2 subset selection optimality",
        instances >= 20 and worst_gap <= 1e-9 and elapsed < 300.0,
        f"{instances} instances (|P|<=12, k in 1..5, d=5), worst gap {worst_gap:.2e}, {elapsed:.1f}s",
    )


def drop_lowest_contribution(points, on, k, ref):
    """Independent restatement of the over-full rule: rank members by the
    hypervolume lost when they alone are removed, keep the top k."""
    loss = {}
    full = hypervolume([tuple(points[i]) for i in on], ref)
    for b in on:
        rest = hypervolume([tuple(points[i]) for i in on if i != b], ref)
        loss[b] = full - rest
    keep = sorted(sorted(on, key=lambda b: (-loss[b], b))[:k])
    return keep


def test_criterion_03_repair_contract():
    rng = np.random.default_rng(3003)
    checked = 0
    overfull_checked = 0
    hv_ok = True
    for _ in range(1000):
        n = int(rng.integers(4, 12))
        d = int(rng.integers(2, 6))
        pts = rng.random((n, d))
        ref = (1.1,) * d
        k = int(rng.integers(1, n + 1))
        bits = rng.random(n) < rng.random()
        if bits.sum() == k:
            flip = int(rng.integers(n))
            bits[flip] = not bits[flip]
        fixed = repair(SubsetGene(bits.copy(), k), pts, ref=ref)
        if fixed.bits.sum() != k:
            verdict("criterion 3 repair contract", False, f"repair produced {fixed.bits.sum()} bits, wanted {k}")
        checked += 1
        on = [int(i) for i in np.flatnonzero(bits)]
        if len(on) > k:
            overfull_checked += 1
            independent = drop_lowest_contribution(pts, on, k, ref)
            h_repair = hypervolume([tuple(pts[i]) for i in fixed.indices()], ref)
            h_indep = hypervolume([tuple(pts[i]) for i in independent], ref)
            if h_repair < h_indep - 1e-12:
                hv_ok = False
    verdict(
        "criterion 3 repair contract",
        checked == 1000 and overfull_checked > 100 and hv_ok,
        f"1000 invalid genes repaired to exact k; {overfull_checked} over-full cases never below the independent drop rule",
    )


def _random_small_graph(rng):
    """At most five nodes, at most 2000 parameters."""
    c_in = int(rng.integers(1, 4))
    side = int(rng.integers(5, 9))
    menu = rng.integers(0, 4)
    nodes = []
    c = c_in
    if menu == 0:
        c2 = int(rng.integers(2, 7))
        nodes.append(LayerSpec(kind="conv", in_channels=c, out_channels=c2, kernel=3,
                               padding=1, bias=bool(rng.integers(2))))
        nodes.append(LayerSpec(kind="relu"))
        c = c2
    elif menu == 1:
        c2 = int(rng.integers(2, 7))
        nodes.append(LayerSpec(kind="conv", in_channels=c, out_channels=c2, kernel=1, bias=True))
        nodes.append(LayerSpec(kind="batchnorm"))
        c = c2
    elif menu == 2:
        nodes.append(LayerSpec(kind="depthwise-conv", in_channels=c, out_channels=c, kernel=3,
                               padding=1))
        nodes.append(LayerSpec(kind="maxpool", kernel=2, stride=2))
    else:
        nodes.append(LayerSpec(kind="maxpool", kernel=2, stride=2))
    classes = int(rng.integers(2, 5))
    nodes.append(LayerSpec(kind="global-avg-pool"))
    nodes.append(LayerSpec(kind="linear", in_channels=c, out_channels=classes, bias=True))
    return conftest.chain_graph(nodes, (c_in, side, side), classes)


def test_criterion_04_gradient_correctness():
    rng = np.random.default_rng(4004)
    worst = 0.0
    total_params = []
    for _ in range(10):
        g = _random_small_graph(rng)
        params = init_params(g, rng)
        n_params = params.count()
        total_params.append(n_params)
        assert len(g.nodes) <= 5 and n_params <= 2000
        batch = rng.standard_normal((2, *g.input_shape))
        labels = rng.integers(0, g.num_classes, 2)
        rec = backward(g, params, batch, labels)
        # finite differences of the mean loss against the batch mean of
        # the per-sample gradients
        weight_grads = {k: v.mean(axis=0) for k, v in rec.weight_grads.items()}
        bias_grads = {k: v.mean(axis=0) for k, v in rec.bias_grads.items()}
        h = 1e-5
        for node in sorted(params.weights):
            for store, gstore in ((params.weights, weight_grads),
                                  (params.biases, bias_grads)):
                if node not in store or node not in gstore or store[node].size == 0:
                    continue
                flat = store[node].reshape(-1)
                take = min(flat.size, 40)
                for idx in rng.choice(flat.size, size=take, replace=False):
                    keep = flat[idx]
                    flat[idx] = keep + h
                    up = cross_entropy(forward(g, params, batch).logits, labels)
                    flat[idx] = keep - h
                    down = cross_entropy(forward(g, params, batch).logits, labels)
                    flat[idx] = keep
                    num = (up - down) / (2 * h)
                    ana = gstore[node].reshape(-1)[idx]
                    denom = max(abs(num), abs(ana), 1e-8)
                    worst = max(worst, abs(num - ana) / denom)
    verdict(
        "criterion 4 gradient correctness",
        worst <= 1e-4,
        f"10 graphs (<=5 layers, {min(total_params)}-{max(total_params)} params), max FD rel err {worst:.2e}",
    )


def test_criterion_05_cost_model_goldens():
    conv = conftest.chain_graph(
        [LayerSpec(kind="conv", in_channels=3, out_channels=8, kernel=3, stride=1, padding=1)],
        (3, 32, 32),
        2,
    )
    flops_ok = count_flops(conv) == 442_368
    conv_b = conftest.chain_graph(
        [LayerSpec(kind="conv", in_channels=3, out_channels=8, kernel=3, stride=1, padding=1,
                   bias=True)],
        (3, 32, 32),
        2,
    )
    rom_ok = estimate_rom(conv_b) == 312

    chain = conftest.chain_graph(
        [
            LayerSpec(kind="conv", in_channels=3, out_channels=8, kernel=3, padding=1),
            LayerSpec(kind="relu"),
            LayerSpec(kind="conv", in_channels=8, out_channels=4, kernel=3, padding=1),
        ],
        (3, 32, 32),
        2,
    )
    # step 1 holds the relu operand and result: 8192 + 8192 bytes
    chain_ok = estimate_ram(chain) == 16_384

    diamond = ArchitectureGraph(
        nodes=[
            LayerSpec(kind="conv", in_channels=3, out_channels=8, kernel=1),
            LayerSpec(kind="conv", in_channels=3, out_channels=8, kernel=1),
            LayerSpec(kind="add"),
        ],
        preds=[[], [], [0, 1]],
        input_shape=(3, 4, 4),
        num_classes=2,
    )
    diamond.infer_shapes()
    # the add step keeps three 128-byte buffers alive
    diamond_ok = estimate_ram(diamond) == 384

    profile = TargetProfile(name="t", ram_max=20_000, rom_max=10_000, flops_max=442_368)
    feas = check(estimate_costs(conv), profile)
    margin = check(
        estimate_costs(conv), TargetProfile(name="t2", ram_max=20_000, rom_max=10_000,
                                            flops_max=294_912)
    )
    check_ok = feas.feasible and not margin.feasible and abs(margin.violation - 0.5) < 1e-12

    verdict(
        "criterion 5 cost model goldens",
        flops_ok and rom_ok and chain_ok and diamond_ok and check_ok,
        "conv FLOPs 442368, ROM 312 B, chain RAM 16384 B, diamond RAM 384 B, violation 0.5 at 1.5x",
    )


def test_criterion_06_search_soundness(search_500):
    archive = search_500["archive"]
    profile = search_500["profile"]
    log_lines = search_500["log"].read_text().splitlines()
    n_ok = len(archive.records) == 500 and len(log_lines) == 500
    ids_ok = [json.loads(l)["trial"] for l in log_lines] == list(range(500))

    constraints_ok = True
    for r in archive.pareto_records():
        c = r.costs
        if not (r.feasibility.feasible and c.ram_bytes <= profile.ram_max
                and c.rom_bytes <= profile.rom_max and c.flops <= profile.flops_max):
            constraints_ok = False
    front = set(archive.pareto_indices)
    domination_ok = not any(
        constrained_dominates(other, archive.records[i])
        for i in front
        for other in archive.records
        if other is not archive.records[i]
    )
    time_ok = search_500["elapsed"] < 600.0
    verdict(
        "criterion 6 search soundness",
        n_ok and ids_ok and constraints_ok and domination_ok and time_ok,
        f"500 logged trials, front {len(front)} all within budget and undominated, {search_500['elapsed']:.0f}s",
    )


def test_criterion_07_determinism(tmp_path):
    cfg = SearchConfig(
        space=SPACE_1D,
        task=TASK_1D,
        profile=EXAMPLE_PROFILE,
        proxy=ProxyBatchConfig(batch_size=4),
        trials=60,
        population_size=12,
        base_seed=17,
    )
    outputs = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        archive = run_search(cfg, jobs=jobs, log_path=out / "trials.jsonl", templates=TEMPLATES)
        write_front_csv(out / "pareto.csv", archive.pareto_records())
        write_summary(out / "run_summary.json", {"jobs-independent": True}, archive)
        outputs[jobs] = {
            name: (out / name).read_bytes()
            for name in ("trials.jsonl", "pareto.csv", "run_summary.json")
        }
    same = all(outputs[1][name] == outputs[2][name] for name in outputs[1])
    # a repeat at jobs=1 must also be bit-identical to the first run
    rerun = tmp_path / "rerun"
    rerun.mkdir()
    run_search(cfg, jobs=1, log_path=rerun / "trials.jsonl", templates=TEMPLATES)
    repeat_same = (rerun / "trials.jsonl").read_bytes() == outputs[1]["trials.jsonl"]
    verdict(
        "criterion 7 determinism",
        same and repeat_same,
        "trial logs and exports byte-identical across jobs=1, jobs=2, and a rerun",
    )


def test_criterion_08_protocol_shape(search_500):
    doc = json.loads((search_500["out"] / "run_summary.json").read_text())
    cfg = doc["config"]
    shape_ok = (
        cfg["search"]["trials"] == 500
        and cfg["space"]["gene_count"] == 14
        and cfg["search"]["objective_count"] == 5
        and cfg["hss"]["k"] == 5
        and cfg["hss"]["population"] == 2000
        and cfg["hss"]["mutation_rate"] == 0.3
        and cfg["hss"]["generations"] == 10000
    )
    verdict(
        "criterion 8 protocol shape",
        shape_ok,
        "run summary echoes 500 trials, 14 genes, 5 objectives, k=5, HSS 2000/0.3/10000",
    )


def tau_b_pairs(x, y):
    n = len(x)
    conc = disc = tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = int(x[i] > x[j]) - int(x[i] < x[j])
            b = int(y[i] > y[j]) - int(y[i] < y[j])
            if a == 0:
                tx += 1
            if b == 0:
                ty += 1
            if a * b > 0:
                conc += 1
            elif a * b < 0:
                disc += 1
    n0 = n * (n - 1) // 2
    return (conc - disc) / math.sqrt((n0 - tx) * (n0 - ty))


def test_criterion_09_kendall_tau():
    rng = np.random.default_rng(9009)
    worst = 0.0
    done = 0
    while done < 1000:
        n = int(rng.integers(2, 51))
        x = rng.integers(0, max(2, n // 2), n).astype(float)
        y = rng.integers(0, max(2, n // 2), n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        worst = max(worst, abs(kendall_tau_b(x, y) - tau_b_pairs(x, y)))
        done += 1
    x = rng.permutation(50).astype(float)
    exact_ok = kendall_tau_b(x, x) == 1.0 and kendall_tau_b(x, -x) == -1.0
    verdict(
        "criterion 9 kendall tau-b",
        worst <= 1e-12 and exact_ok,
        f"1000 tied series vs pair counting, max abs diff {worst:.2e}; tau(x,x)=1, tau(x,-x)=-1",
    )


def _identity_two_tap_graph():
    nodes = [
        LayerSpec(kind="conv", in_channels=2, out_channels=2, kernel=1, block_output=True),
        LayerSpec(kind="conv", in_channels=2, out_channels=2, kernel=1, block_output=True),
        LayerSpec(kind="global-avg-pool"),
        LayerSpec(kind="linear", in_channels=2, out_channels=2, bias=True),
    ]
    g = ArchitectureGraph(nodes=nodes, preds=[[], [0], [1], [2]], input_shape=(2, 2, 2),
                          num_classes=2)
    g.infer_shapes()
    return g


def test_criterion_10_proxy_sanity():
    g = _identity_two_tap_graph()
    params = init_params(g, np.random.default_rng(0))
    eye = np.eye(2)[:, :, None, None]
    params.weights[0] = eye.copy()
    params.weights[1] = eye.copy()
    # channels with exactly zero sample correlation at both taps
    x = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]]).reshape(2, 2, 2)
    meco_val = meco(g, params, x)
    meco_ok = abs(meco_val - 2.0) <= 1e-9

    codes = np.array([[1.0, 1, 1, 1], [0, 0, 0, 0]])
    naswot_ok = abs(naswot_from_codes(codes) - 2 * math.log(4)) <= 1e-6

    zg = conftest.tiny_classifier()
    zp = init_params(zg, np.random.default_rng(1))
    for node in zp.weights:
        zp.weights[node] = np.zeros_like(zp.weights[node])
    snip_ok = snip(zg, zp, np.random.default_rng(2).standard_normal((2, *zg.input_shape)),
                   np.array([0, 1])) == 0.0

    rng = np.random.default_rng(1010)
    cfg = ProxyBatchConfig(batch_size=2)
    space_2d = SearchSpaceDef(baseline_pool=("mbednet", "mobilenetv2", "resnet", "squeezenet"))
    task_2d = TaskSpec(input_shape=(3, 24, 24), num_classes=6)
    finite = 0
    for i in range(100):
        space, task = (SPACE_1D, TASK_1D) if i % 2 == 0 else (space_2d, task_2d)
        xv = sample(rng, space)
        net = apply_static_pruning(decode(xv, space, task, TEMPLATES), xv.pruning_sparsity)
        net.infer_shapes()
        scores = evaluate_ensemble(net, init_params(net, np.random.default_rng(i)), cfg,
                                   np.random.default_rng(1000 + i))
        if all(math.isfinite(v) for v in scores.as_dict().values()):
            finite += 1
    verdict(
        "criterion 10 proxy sanity",
        meco_ok and naswot_ok and snip_ok and finite == 100,
        f"meco identity {meco_val:.9f}=taps, naswot 2ln4, snip zero-weights 0, {finite}/100 candidates finite",
    )


def test_criterion_11_search_effectiveness():
    # self-experiment at a reduced equal budget: 300 evaluations per arm,
    # ten seeds, union-normalized archive hypervolume
    proxy = ProxyBatchConfig(batch_size=2)
    ctx = EvalContext(space=SPACE_1D, task=TASK_1D, profile=EXAMPLE_PROFILE, proxy=proxy,
                      templates=TEMPLATES)
    trials, pop = 300, 20
    wins = 0
    details = []
    for seed in range(10):
        rng = np.random.default_rng(derive_seed(seed, "random-baseline"))
        recs = []
        for i in range(trials):
            xv = sample(rng, SPACE_1D)
            recs.append(
                evaluate_candidate(xv, ctx, seed=derive_seed(seed, "random-eval", i),
                                   trial_index=i)
            )
        random_front = [recs[i].objectives for i in compute_pareto_indices(recs)]
        cfg = SearchConfig(space=SPACE_1D, task=TASK_1D, profile=EXAMPLE_PROFILE, proxy=proxy,
                           trials=trials, population_size=pop, base_seed=seed)
        nsga_front = [r.objectives for r in run_search(cfg, templates=TEMPLATES).pareto_records()]
        union = normalize_objectives(np.asarray(nsga_front + random_front, dtype=float))
        ref = (1.1,) * 5
        h_nsga = hypervolume([tuple(p) for p in union[: len(nsga_front)]], ref)
        h_rand = hypervolume([tuple(p) for p in union[len(nsga_front):]], ref)
        wins += h_nsga >= h_rand
        details.append(f"{h_nsga:.3f}/{h_rand:.3f}")
    verdict(
        "criterion 11 search effectiveness",
        wins >= 8,
        f"nsga/random hypervolume per seed: {' '.join(details)} -> {wins}/10 wins",
    )
