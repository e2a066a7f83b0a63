import collections
import itertools
import math

import numpy as np
import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from protonas.archspace import (
    HyperparamVector,
    SearchSpaceDef,
    TaskSpec,
    decode,
    load_templates,
)
from protonas.archspace.graph import (
    CONV_KINDS,
    LAYER_KINDS,
    WEIGHTED_KINDS,
    ArchitectureGraph,
    LayerSpec,
    input_count,
    layer_out_shape,
)
from protonas.errors import InfeasibleK, ShapeCollapse, ShapeMismatch
from protonas.hvss.hv import _checked
from protonas.hvss.subset import _HvCache, _reference, _repair_rows
from protonas.tensorcore import backward, forward
from protonas.tensorcore.engine import backward_reads


@pytest.fixture(scope="session")
def templates():
    return load_templates()


@pytest.fixture
def space1d():
    return SearchSpaceDef(baseline_pool=("mbednet1d", "inceptiontime"))


@pytest.fixture
def task1d():
    return TaskSpec(input_shape=(3, 64), num_classes=5)


@pytest.fixture
def space2d():
    return SearchSpaceDef(baseline_pool=("mbednet", "mobilenetv2", "resnet", "squeezenet"))


@pytest.fixture
def task2d():
    return TaskSpec(input_shape=(3, 32, 32), num_classes=10)


@pytest.fixture
def vector1d():
    return HyperparamVector(
        architecture=0,
        group_depth=(1, 0, 1, 0),
        kernel_stride=(1, 0, 1, 3),
        width_multiplier=0.5,
        pruning_sparsity=(0.3, 0.3, 0.3, 0.3),
    )


@pytest.fixture
def graph1d(vector1d, space1d, task1d, templates):
    g = decode(vector1d, space1d, task1d, templates)
    g.infer_shapes()
    return g


def chain_graph(specs, input_shape, num_classes):
    """Linear graph from a list of LayerSpec; node i feeds node i+1."""
    preds = [[] if i == 0 else [i - 1] for i in range(len(specs))]
    g = ArchitectureGraph(
        nodes=list(specs), preds=preds, input_shape=input_shape, num_classes=num_classes
    )
    g.infer_shapes()
    return g


def tiny_classifier(in_shape=(2, 6, 6), classes=3, hidden=4):
    """conv-relu-gap-linear chain used across engine and cost tests."""
    c = in_shape[0]
    return chain_graph(
        [
            LayerSpec(kind="conv", in_channels=c, out_channels=hidden, kernel=3, stride=1,
                      padding=1, bias=True),
            LayerSpec(kind="relu"),
            LayerSpec(kind="global-avg-pool"),
            LayerSpec(kind="linear", in_channels=hidden, out_channels=classes, bias=True),
        ],
        in_shape,
        classes,
    )


# backward's per-sample gradients collected into plain dicts, keyed by
# node, in the order backward makes them (decreasing node order)
Gradients = collections.namedtuple("Gradients", "weight_grads bias_grads")


def record_gradients(g, params, batch, labels, trace=None):
    """Run backward with a consumer that collects every gradient into a
    Gradients; without a trace, forward keeps what backward reads."""
    if trace is None:
        trace = forward(g, params, batch, keep=backward_reads(g))
    rec = Gradients({}, {})

    def collect(i, dw, db):
        rec.weight_grads[i] = dw
        if db is not None:
            rec.bias_grads[i] = db

    backward(g, params, batch, labels, trace, collect)
    return rec


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy: the loss whose gradients backward makes."""
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(len(labels)), labels]
    return float(np.mean(lse - picked))


# Oracles the tests check the package against: each states a rule
# directly, apart from the code that the commands run.

def _find_cycle(preds: list[list[int]]) -> bool:
    n = len(preds)
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done
    for start in range(n):
        if state[start]:
            continue
        stack = [(start, 0)]
        state[start] = 1
        while stack:
            node, idx = stack[-1]
            if idx < len(preds[node]):
                stack[-1] = (node, idx + 1)
                p = preds[node][idx]
                if 0 <= p < n:
                    if state[p] == 1:
                        return True
                    if state[p] == 0:
                        state[p] = 1
                        stack.append((p, 0))
            else:
                state[node] = 2
                stack.pop()
    return False


def validate(g: ArchitectureGraph) -> list[str]:
    """Structural and shape checks; returns a list of violation strings."""
    out: list[str] = []
    n = len(g.nodes)
    if n == 0:
        return ["graph is empty"]
    for i, node in enumerate(g.nodes):
        if node.kind not in LAYER_KINDS:
            out.append(f"node {i}: unknown kind '{node.kind}'")
        if node.in_channels < 1 or node.out_channels < 1:
            out.append(f"node {i}: channel count below 1")
        if node.kind in CONV_KINDS and node.kernel % 2 == 0:
            out.append(f"node {i}: even kernel {node.kernel}")
        if node.stride not in (1, 2):
            out.append(f"node {i}: stride {node.stride} outside {{1, 2}}")
        for p in g.preds[i]:
            if not (0 <= p < n):
                out.append(f"node {i}: dangling edge to {p}")
    if out:
        return out
    if _find_cycle(g.preds):
        return ["graph is not acyclic"]
    inputs = [i for i, ps in enumerate(g.preds) if not ps]
    if len(inputs) != 1:
        out.append(f"graph has {len(inputs)} input nodes, expected 1")
    succ = g.successors()
    sinks = [i for i, s in enumerate(succ) if not s]
    if len(sinks) != 1:
        out.append(f"graph has {len(sinks)} output nodes, expected 1")
    # Shape pass: needs node order to be topological.
    order_ok = all(all(p < i for p in ps) for i, ps in enumerate(g.preds))
    if not order_ok:
        out.append("node order is not topological")
        return out
    shapes: list[tuple[int, ...]] = []
    for i, node in enumerate(g.nodes):
        ins = [shapes[p] for p in g.preds[i]] or [tuple(g.input_shape)]
        if node.kind in WEIGHTED_KINDS:
            expect = input_count(node.kind, ins[0])
            if node.in_channels != expect:
                out.append(
                    f"node {i}: channel mismatch (declares {node.in_channels}, gets {expect})"
                )
        if node.kind == "depthwise-conv" and node.out_channels != node.in_channels:
            out.append(f"node {i}: depthwise out {node.out_channels} != in {node.in_channels}")
        if node.kind == "add" and len(g.preds[i]) < 2:
            out.append(f"node {i}: add needs at least two inputs")
        try:
            shapes.append(layer_out_shape(node, ins))
        except (ShapeMismatch, ShapeCollapse) as exc:
            out.append(f"node {i}: {exc}")
            return out
    final = g.nodes[sinks[0]] if len(sinks) == 1 else None
    if final is not None and final.kind == "linear" and final.out_channels != g.num_classes:
        out.append(f"classifier emits {final.out_channels} logits for {g.num_classes} classes")
    return out


def constrained_dominates(a, b) -> bool:
    """Feasibility-first dominance.

    A feasible record beats any infeasible one; two infeasible records
    compare by total violation (lower wins); two feasible records
    compare by Pareto dominance on their objective vectors (all <=,
    at least one <).
    """
    fa, fb = a.feasibility.feasible, b.feasibility.feasible
    if fa and not fb:
        return True
    if fb and not fa:
        return False
    if not fa:
        return a.feasibility.violation < b.feasibility.violation
    le = all(x <= y for x, y in zip(a.objectives, b.objectives))
    lt = any(x < y for x, y in zip(a.objectives, b.objectives))
    return le and lt


def hv_monte_carlo(points, ref, samples: int = 1_000_000, rng=None) -> float:
    """Monte Carlo hypervolume estimate over the [0, ref] box.

    Independent of the exact kernel on purpose; used to cross-check it.
    Assumes points lie within [0, ref] (the usual normalized setting).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    pts, ref_t = _checked(points, ref)
    if rng is None:
        rng = np.random.default_rng()
    ref_a = np.asarray(ref_t)
    box = float(np.prod(ref_a))
    if not pts:
        return 0.0
    p = np.asarray(pts)
    d = len(ref_t)
    hits = 0
    done = 0
    chunk = 65536
    # one point at a time against the chunk's samples, one objective (a
    # contiguous row of the transposed chunk) at a time, in reused buffers
    dominated, inside, test = (np.empty(min(chunk, samples), dtype=bool) for _ in range(3))
    while done < samples:
        m = min(chunk, samples - done)
        ut = np.ascontiguousarray((rng.random((m, d)) * ref_a).T)
        dom, ins, t = dominated[:m], inside[:m], test[:m]
        dom.fill(False)
        for point in p:
            np.less_equal(point[0], ut[0], out=ins)
            for v, row in zip(point[1:], ut[1:]):
                np.less_equal(v, row, out=t)
                ins &= t
            dom |= ins
        hits += int(np.count_nonzero(dom))
        done += m
    return box * hits / samples


def exhaustive_subset(points, k: int, ref=None, limit: int = 2_000_000) -> list[int]:
    """Brute-force optimal k-subset; oracle for small instances."""
    p = np.asarray(points, dtype=float)
    n = len(p)
    if k < 1 or n == 0:
        raise InfeasibleK(f"cannot select {k} of {n} points")
    if k >= n:
        return list(range(n))
    if math.comb(n, k) > limit:
        raise ValueError(f"C({n},{k}) exceeds the exhaustive search limit")
    cache = _HvCache(p, _reference(p, ref))
    best = None
    best_hv = -math.inf
    for combo in itertools.combinations(range(n), k):
        h = cache.of_indices(list(combo))
        if h > best_hv:
            best_hv = h
            best = combo
    return list(best)


def repair(bits, k, points, ref=None):
    """select_subset's repair of one gene: a copy of the membership bits
    with exactly k set, for 1 <= k <= len(points)."""
    p = np.asarray(points, dtype=float)
    if k < 1 or k > len(p):
        raise InfeasibleK(f"cannot select {k} of {len(p)} points")
    return _repair_rows(np.asarray(bits, dtype=bool)[None], k, _HvCache(p, _reference(p, ref)))[0]


def param_count(params):
    """Scalars in a ParamSet's weights and biases."""
    total = sum(w.size for w in params.weights.values())
    return total + sum(b.size for b in params.biases.values())


def record_snip(params, rec):
    """snip over collected Gradients, on every sample: every weight term,
    then every bias term, in the record's order (the order backward makes
    them)."""
    from protonas.proxies import snip

    total = 0.0
    for nid, grad in rec.weight_grads.items():
        total += snip(params.weights[nid], grad, len(grad))
    for nid, grad in rec.bias_grads.items():
        total += snip(params.biases[nid], grad, len(grad))
    return total


def record_zico(rec, eps=1e-6):
    """zico over collected Gradients: the layers' terms in node order."""
    from protonas.proxies import zico

    total = 0.0
    for nid in sorted(rec.weight_grads):
        grads = [rec.weight_grads[nid]]
        if nid in rec.bias_grads:
            grads.append(rec.bias_grads[nid])
        total += zico(grads, eps)
    return total


def rng(seed=0):
    return np.random.default_rng(seed)
