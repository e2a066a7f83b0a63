"""Training-free candidate scoring.

Four proxies evaluated at initialization, higher is better for all:

snip    sum of |w * dL/dw| over every parameter tensor.
naswot  log-determinant of the ReLU code agreement matrix: K[i, j]
        counts the activation-pattern bits samples i and j share.
zico    per layer, log of the summed per-parameter ratio of the mean
        absolute per-sample gradient to its standard deviation across
        samples, accumulated over conv and linear layers.
meco    per superblock tap, the smallest eigenvalue of the channel
        Pearson correlation matrix on a single input, summed over taps.

All four share one deterministic batch stream in evaluate_ensemble, so
a candidate's scores depend only on the graph, parameters, and seed.
They also share the engine work: the first batch is forwarded once, and
its trace yields the naswot codes and the meco taps (row 0) before one
backward reuses it.  Every later batch gets one backward, which always
returns per-sample gradients.  snip is |theta * mean_b g_b| over the
first batch's gradients, zico reads all of them.  Epsilon floors keep
every score finite on degenerate inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..archspace.graph import ArchitectureGraph
from ..errors import ConfigError
from ..tensorcore.engine import ForwardTrace, GradientRecord, ParamSet, backward, forward

_SCORED_KINDS = ("conv", "depthwise-conv", "linear")


@dataclass(frozen=True)
class ProxyBatchConfig:
    batch_size: int = 8
    num_batches_zico: int = 2
    eps_logdet: float = 1e-6
    eps_std: float = 1e-6
    eps_var: float = 1e-6

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("proxy.batch_size: need at least 2 samples")
        if self.num_batches_zico < 1:
            raise ConfigError("proxy.num_batches_zico: need at least 1 batch")
        if min(self.eps_logdet, self.eps_std, self.eps_var) <= 0:
            raise ConfigError("proxy epsilons must be positive")


@dataclass(frozen=True)
class ProxyScores:
    meco: float
    zico: float
    naswot: float
    snip: float

    def as_dict(self) -> dict[str, float]:
        return {"meco": self.meco, "zico": self.zico, "naswot": self.naswot, "snip": self.snip}


def _snip_from_record(params: ParamSet, rec: GradientRecord) -> float:
    """Sum of |theta * mean_b g_b| over every parameter tensor with a gradient."""
    total = 0.0
    for nid, grad in rec.weight_grads.items():
        total += float(np.abs(params.weights[nid] * grad.mean(axis=0)).sum())
    for nid, grad in rec.bias_grads.items():
        total += float(np.abs(params.biases[nid] * grad.mean(axis=0)).sum())
    return total


def snip(g: ArchitectureGraph, params: ParamSet, batch, labels) -> float:
    """Connection-sensitivity mass: sum of |theta * dL/dtheta|."""
    return _snip_from_record(params, backward(g, params, batch, labels))


def naswot_from_codes(codes: np.ndarray, eps: float = 1e-6) -> float:
    """Log-determinant of the code agreement matrix, floored by eps*I.

    codes: (B, N) binary activation patterns, one row per sample.
    """
    c = np.asarray(codes, dtype=float)
    if c.ndim != 2:
        raise ValueError("codes must be (batch, units)")
    k = c @ c.T + (1.0 - c) @ (1.0 - c).T
    _, logdet = np.linalg.slogdet(k + eps * np.eye(len(k)))
    return float(logdet)


def _relu_codes(trace: ForwardTrace) -> np.ndarray:
    """(B, N) activation codes of every relu in the trace, in node order."""
    rows = [trace.relu_patterns[i].reshape(len(trace.logits), -1)
            for i in sorted(trace.relu_patterns)]
    if not rows:
        raise ConfigError("naswot needs at least one relu layer")
    return np.concatenate(rows, axis=1)


def naswot(g: ArchitectureGraph, params: ParamSet, batch, eps: float = 1e-6) -> float:
    return naswot_from_codes(_relu_codes(forward(g, params, batch)), eps)


def zico_from_sample_grads(per_layer: list[np.ndarray], eps: float = 1e-6) -> float:
    """Sum over layers of log(sum_theta mean|g| / (std(g) + eps)).

    per_layer: one (S, P) array per layer, S per-sample gradients of its
    P parameters.  Each layer's sum is floored at eps before the log.
    """
    total = 0.0
    for grads in per_layer:
        m = np.abs(grads).mean(axis=0)
        s = grads.std(axis=0)
        total += float(np.log(max((m / (s + eps)).sum(), eps)))
    return total


def _layer_sample_grads(g: ArchitectureGraph, records: list[GradientRecord]) -> list[np.ndarray]:
    """One (S, P) array per scored layer: its weight and bias gradients,
    flattened per sample, stacked over the samples of all records."""
    per_layer = []
    for nid, node in enumerate(g.nodes):
        if node.kind not in _SCORED_KINDS:
            continue
        chunks = []
        for rec in records:
            parts = [rec.weight_grads[nid].reshape(rec.weight_grads[nid].shape[0], -1)]
            if nid in rec.bias_grads:
                parts.append(rec.bias_grads[nid].reshape(rec.bias_grads[nid].shape[0], -1))
            chunks.append(np.concatenate(parts, axis=1))
        per_layer.append(np.concatenate(chunks, axis=0))
    return per_layer


def zico(g: ArchitectureGraph, params: ParamSet, batches, labels_list, eps: float = 1e-6) -> float:
    if len(batches) != len(labels_list) or not batches:
        raise ConfigError("zico needs matching, non-empty batch and label lists")
    records = [backward(g, params, b, l) for b, l in zip(batches, labels_list)]
    return zico_from_sample_grads(_layer_sample_grads(g, records), eps)


def correlation_min_eigenvalue(channels: np.ndarray, eps: float = 1e-6) -> float:
    """Smallest eigenvalue of the channel Pearson correlation matrix.

    channels: (C, N) flattened feature map.  Variances are floored at
    eps, so constant channels yield zero correlation rows instead of
    dividing by zero.
    """
    x = np.asarray(channels, dtype=float)
    if x.ndim != 2:
        raise ValueError("channels must be (C, N)")
    centered = x - x.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / x.shape[1]
    denom = np.sqrt(np.maximum(np.diag(cov), eps))
    corr = cov / np.outer(denom, denom)
    return float(np.linalg.eigvalsh(corr)[0])


def _meco_from_trace(g: ArchitectureGraph, trace: ForwardTrace, eps: float) -> float:
    """Sum of per-tap minimum correlation eigenvalues on the first trace row."""
    taps = [i for i, node in enumerate(g.nodes) if node.block_output]
    if not taps:
        raise ConfigError("meco needs block_output taps in the graph")
    total = 0.0
    for i in taps:
        fm = trace.outputs[i][0]
        total += correlation_min_eigenvalue(fm.reshape(fm.shape[0], -1), eps)
    return total


def meco(g: ArchitectureGraph, params: ParamSet, sample, eps: float = 1e-6) -> float:
    """Sum of per-tap minimum correlation eigenvalues on one input."""
    x = np.asarray(sample, dtype=float)
    return _meco_from_trace(g, forward(g, params, x[None]), eps)


def evaluate_ensemble(
    g: ArchitectureGraph,
    params: ParamSet,
    cfg: ProxyBatchConfig,
    rng: np.random.Generator,
) -> ProxyScores:
    """Score a candidate with all four proxies on shared batches.

    Draw order is fixed: for each of num_batches_zico batches, first the
    standard-normal inputs, then uniform labels.  snip and naswot use
    the first batch, meco its first sample, zico all batches.  The
    engine runs one forward and one backward per batch.
    """
    batches = []
    labels = []
    for _ in range(cfg.num_batches_zico):
        batches.append(rng.standard_normal((cfg.batch_size, *g.input_shape)))
        labels.append(rng.integers(0, g.num_classes, size=cfg.batch_size))
    trace = forward(g, params, batches[0])
    naswot_v = naswot_from_codes(_relu_codes(trace), cfg.eps_logdet)
    meco_v = _meco_from_trace(g, trace, cfg.eps_var)
    records = [backward(g, params, batches[0], labels[0], trace=trace)]
    del trace  # the activations are the bulk of peak memory; free them first
    records += [backward(g, params, b, l) for b, l in zip(batches[1:], labels[1:])]
    snip_v = _snip_from_record(params, records[0])
    zico_v = zico_from_sample_grads(_layer_sample_grads(g, records), cfg.eps_std)
    return ProxyScores(meco=meco_v, zico=zico_v, naswot=naswot_v, snip=snip_v)
