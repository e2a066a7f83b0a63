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
They also share the engine work: the num_batches_zico batches are
stacked into one, and the engine runs one forward and one backward on
it.  Batch rows never mix in the engine, so each row's activations and
per-sample gradients are those of a pass over its own batch.  The
forward trace keeps only what backward and meco read; it yields the
naswot codes (first batch) and the meco taps (row 0) before backward
consumes it.  snip is |theta * mean_b g_b| over the first batch's
gradients, zico reads all of them.  Epsilon floors keep every score
finite on degenerate inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..archspace.graph import ArchitectureGraph
from ..errors import ConfigError
from ..tensorcore.engine import (
    ForwardTrace,
    GradientRecord,
    ParamSet,
    backward,
    backward_reads,
    forward,
)

_SCORED_KINDS = ("conv", "depthwise-conv", "linear")
# Columns per block of zico's per-sample gradient statistics: with 16
# samples a block and its temporaries stay within a few hundred KiB.
_ZICO_BLOCK = 4096
# Units per sample in one block of naswot's activation codes (4 MiB of
# float codes for a batch of 8).
_CODE_BLOCK = 1 << 16


@dataclass(frozen=True)
class ProxyBatchConfig:
    """The proxy batch stream: num_batches_zico batches of batch_size
    samples.  evaluate_ensemble runs them as one engine pass over
    batch_size * num_batches_zico rows, so its memory grows with both."""

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


def _snip_from_record(params: ParamSet, rec: GradientRecord, rows: int | None = None) -> float:
    """Sum of |theta * mean_b g_b| over every parameter tensor with a
    gradient, the mean taken over the record's first `rows` samples
    (all of them by default)."""
    total = 0.0
    for nid, grad in rec.weight_grads.items():
        total += float(np.abs(params.weights[nid] * grad[:rows].mean(axis=0)).sum())
    for nid, grad in rec.bias_grads.items():
        total += float(np.abs(params.biases[nid] * grad[:rows].mean(axis=0)).sum())
    return total


def snip(g: ArchitectureGraph, params: ParamSet, batch, labels) -> float:
    """Connection-sensitivity mass: sum of |theta * dL/dtheta|."""
    return _snip_from_record(params, backward(g, params, batch, labels))


def _agreement(blocks) -> np.ndarray:
    """Code agreement matrix over the columns of all (B, N_k) blocks.

    K[i, j] = c c^T + (1 - c)(1 - c)^T over the concatenated codes c,
    taken as 2 c c^T + N - s_i - s_j with s the row sums.  For binary
    codes every partial sum is an integer below 2**53, so summing one
    product per block gives the same matrix exactly, without building c.
    """
    cc = s = 0.0
    units = 0
    for block in blocks:
        c = np.asarray(block, dtype=float)
        cc = cc + c @ c.T
        s = s + c.sum(axis=1)
        units += c.shape[1]
    return 2.0 * cc + units - s[:, None] - s[None, :]


def _logdet(k: np.ndarray, eps: float) -> float:
    _, logdet = np.linalg.slogdet(k + eps * np.eye(len(k)))
    return float(logdet)


def naswot_from_codes(codes: np.ndarray, eps: float = 1e-6) -> float:
    """Log-determinant of the code agreement matrix, floored by eps*I.

    codes: (B, N) binary activation patterns, one row per sample.
    """
    c = np.asarray(codes)
    if c.ndim != 2:
        raise ValueError("codes must be (batch, units)")
    return _logdet(_agreement([c]), eps)


def _naswot_from_trace(trace: ForwardTrace, eps: float, rows: int | None = None) -> float:
    """naswot over every relu's activation codes in the trace's first
    `rows` samples (all of them by default), in node order, read in
    blocks of at most _CODE_BLOCK units per sample."""
    if not trace.relu_patterns:
        raise ConfigError("naswot needs at least one relu layer")
    rows = len(trace.logits) if rows is None else rows
    codes = [trace.relu_patterns[i][:rows].reshape(rows, -1) for i in sorted(trace.relu_patterns)]
    step = _CODE_BLOCK
    blocks = (c[:, lo : lo + step] for c in codes for lo in range(0, c.shape[1], step))
    return _logdet(_agreement(blocks), eps)


def naswot(g: ArchitectureGraph, params: ParamSet, batch, eps: float = 1e-6) -> float:
    return _naswot_from_trace(forward(g, params, batch), eps)


def _zico_ratios(records: list[list[np.ndarray]], eps: float) -> np.ndarray:
    """mean|g| / (std(g) + eps) per parameter of one layer.

    records: per record, the (S_r, P_k) column parts whose concatenation,
    parts along axis 1 and records along axis 0, is the layer's (S, P)
    matrix of per-sample gradients.  That matrix is never built: the
    statistics are taken on blocks of at most _ZICO_BLOCK columns, and
    each column is still reduced over the samples in order, so the ratios
    are bit-identical to the unblocked ones.
    """
    samples = sum(len(parts[0]) for parts in records)
    width = sum(part.shape[1] for part in records[0])
    # numpy reduces a lone column pairwise and wider blocks row by row,
    # so a block never has one column unless the layer has one parameter
    step = max(2, _ZICO_BLOCK)
    bounds = list(range(0, width, step)) + [width]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    buf = np.empty(samples * min(width, step + 1))
    ratio = np.empty(width)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = buf[: samples * (hi - lo)].reshape(samples, hi - lo)
        r0 = 0
        for parts in records:
            r1, c0 = r0 + len(parts[0]), 0
            for part in parts:
                c1 = c0 + part.shape[1]
                a, b = max(lo, c0), min(hi, c1)
                if a < b:
                    block[r0:r1, a - lo : b - lo] = part[:, a - c0 : b - c0]
                c0 = c1
            r0 = r1
        ratio[lo:hi] = np.abs(block).mean(axis=0) / (block.std(axis=0) + eps)
    return ratio


def _zico_layer(records: list[list[np.ndarray]], eps: float) -> float:
    """One layer's zico term: log of its summed ratios, floored at eps.
    The ratio vector is summed whole, as one contiguous array."""
    return float(np.log(max(_zico_ratios(records, eps).sum(), eps)))


def zico_from_sample_grads(per_layer: list[np.ndarray], eps: float = 1e-6) -> float:
    """Sum over layers of log(sum_theta mean|g| / (std(g) + eps)).

    per_layer: one (S, P) array per layer, S per-sample gradients of its
    P parameters.  Each layer's sum is floored at eps before the log.
    """
    total = 0.0
    for grads in per_layer:
        total += _zico_layer([[np.asarray(grads)]], eps)
    return total


def _zico_from_records(g: ArchitectureGraph, records: list[GradientRecord], eps: float) -> float:
    """zico over the scored layers' weight and bias gradients, flattened
    per sample, over the samples of all records."""
    total = 0.0
    for nid, node in enumerate(g.nodes):
        if node.kind not in _SCORED_KINDS:
            continue
        layer = []
        for rec in records:
            parts = [rec.weight_grads[nid].reshape(rec.weight_grads[nid].shape[0], -1)]
            if nid in rec.bias_grads:
                parts.append(rec.bias_grads[nid].reshape(rec.bias_grads[nid].shape[0], -1))
            layer.append(parts)
        total += _zico_layer(layer, eps)
    return total


def zico(g: ArchitectureGraph, params: ParamSet, batches, labels_list, eps: float = 1e-6) -> float:
    """zico over the samples of all batches, run as one stacked backward."""
    if len(batches) != len(labels_list) or not batches:
        raise ConfigError("zico needs matching, non-empty batch and label lists")
    rec = backward(g, params, np.concatenate(batches), np.concatenate(labels_list))
    return _zico_from_records(g, [rec], eps)


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
    taps = _meco_taps(g)
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


def _meco_taps(g: ArchitectureGraph) -> list[int]:
    return [i for i, node in enumerate(g.nodes) if node.block_output]


def _forward_and_score_first_batch(
    g: ArchitectureGraph,
    params: ParamSet,
    x: np.ndarray,
    cfg: ProxyBatchConfig,
    scores: dict[str, float],
) -> ForwardTrace:
    """Forward x keeping what backward and meco read; put naswot over the
    first batch and meco on row 0 into scores, and return the trace."""
    trace = forward(g, params, x, keep=backward_reads(g).keys() | set(_meco_taps(g)))
    scores["naswot"] = _naswot_from_trace(trace, cfg.eps_logdet, rows=cfg.batch_size)
    scores["meco"] = _meco_from_trace(g, trace, cfg.eps_var)
    return trace


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
    engine runs one forward and one backward over all batches stacked.
    """
    bs = cfg.batch_size
    x = np.empty((bs * cfg.num_batches_zico, *g.input_shape))
    labels = np.empty(len(x), dtype=np.int64)
    for lo in range(0, len(x), bs):
        rng.standard_normal(out=x[lo : lo + bs])
        labels[lo : lo + bs] = rng.integers(0, g.num_classes, size=bs)
    scores: dict[str, float] = {}
    # no name holds the trace, so backward frees it as it goes
    rec = backward(
        g, params, x, labels, trace=_forward_and_score_first_batch(g, params, x, cfg, scores)
    )
    return ProxyScores(
        meco=scores["meco"],
        zico=_zico_from_records(g, [rec], cfg.eps_std),
        naswot=scores["naswot"],
        snip=_snip_from_record(params, rec, rows=bs),
    )
