import collections

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
    sample,
)
from protonas.archspace.graph import ArchitectureGraph, LayerSpec
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


def param_count(params):
    """Scalars in a ParamSet's weights and biases."""
    total = sum(w.size for w in params.weights.values())
    return total + sum(b.size for b in params.biases.values())


def record_snip(params, rec, rows=None):
    """snip over collected Gradients: every weight term, then every bias
    term, in the record's order (the order backward makes them)."""
    from protonas.proxies import snip

    total = 0.0
    for nid, grad in rec.weight_grads.items():
        total += snip(params.weights[nid], grad, rows)
    for nid, grad in rec.bias_grads.items():
        total += snip(params.biases[nid], grad, rows)
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
