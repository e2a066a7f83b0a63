"""Training-free candidate scoring.

Four proxies evaluated at initialization, higher is better for each:
snip (connection sensitivity), naswot (log-determinant of the ReLU code
agreement matrix), zico (gradient mean over spread, per layer) and meco
(smallest channel-correlation eigenvalue per superblock tap).  Each is
one function over what one engine pass over a candidate's proxy batches
makes: a ForwardTrace, or one weighted layer's per-sample gradients.

Bits: a candidate's scores depend only on the graph, the parameters and
the seed.  Batch rows never mix in the engine, so each row's activations
and gradients are those of a pass over its own batch, and each score
sums its terms in a fixed order (snip: the weight terms in backward's
order, then the bias terms; zico and meco: node order).  naswot counts
shared pattern bits exactly, in integers.  Epsilon floors keep every
score finite.

Memory: the forward trace keeps only what backward and meco read, and
naswot and meco read it before backward consumes it.  Backward hands
each layer's gradients to snip and zico as it makes them, so no more
than one layer's gradients are held at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..archspace.graph import ArchitectureGraph
from ..errors import ConfigError
from ..tensorcore.engine import (
    ForwardTrace,
    ParamSet,
    backward,
    backward_reads,
    forward,
)

# Columns per block of zico's per-sample gradient statistics: with 16
# samples a block and its temporaries stay within a few hundred KiB.
_ZICO_BLOCK = 4096
# Units per sample in one block of naswot's activation patterns: a block
# made from a kept output takes rows * _CODE_BLOCK bytes (256 KiB for a
# batch of 8), and the packed blocks are counted _CODE_BLOCK bytes, or
# 8 * _CODE_BLOCK units, per sample at a time.
_CODE_BLOCK = 1 << 15


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
        return asdict(self)


# The proxies in ProxyScores field order: the order of their objectives,
# log keys, CSV columns and report series.
PROXY_NAMES = tuple(f.name for f in fields(ProxyScores))


def snip(theta: np.ndarray, grad: np.ndarray, rows: int) -> float:
    """One parameter tensor's connection-sensitivity mass: the sum of
    |theta * mean_b g_b|, the mean taken over the first `rows` samples of
    its per-sample gradients grad."""
    grad = grad[:rows]
    # grad.mean(axis=0)'s arithmetic, without its Python wrapper
    return float(np.abs(theta * (np.add.reduce(grad, axis=0) / len(grad))).sum())


def _agreement(blocks, rows: int) -> np.ndarray:
    """Code agreement matrix over the columns of all (rows, N_k) boolean
    blocks, N_k <= _CODE_BLOCK.

    K[i, j] = c c^T + (1 - c)(1 - c)^T over the concatenated binary codes
    c, taken as 2 cc + N - s_i - s_j from exact integer counts: cc[i, j]
    the units at which rows i and j are both set, s = diag(cc) each row's
    set units.  Each block is packed 8 units a byte (np.packbits, whose
    zero padding sets no bit), and the packed blocks are staged, one
    after another, in 64-bit words.  When the stage is full, each row is
    ANDed with itself and the rows after it, and the bits of the result
    counted (np.bitwise_count): the upper triangle of cc.  Every count is
    an integer below 2**53, so K is formed from the same float64 values,
    in the same order, as the float product c c^T would give it.
    """
    words = max(1, _CODE_BLOCK // 8)
    stage = np.zeros((rows, words), dtype=np.uint64)
    staged = stage.view(np.uint8)
    both = np.empty_like(stage)
    set_bits = np.empty(stage.shape, dtype=np.uint8)
    cc = np.zeros((rows, rows), dtype=np.uint64)
    filled = units = 0

    def count():
        used = -(-filled // 8)
        staged[:, filled : 8 * used] = 0
        for i in range(rows):
            pairs = np.bitwise_and(stage[i, :used], stage[i:, :used], out=both[: rows - i, :used])
            cc[i, i:] += np.bitwise_count(pairs, out=set_bits[: rows - i, :used]).sum(axis=1)

    for block in blocks:
        units += block.shape[1]
        packed = np.packbits(block, axis=1)
        width = packed.shape[1]
        if filled + width > staged.shape[1]:
            count()
            filled = 0
        staged[:, filled : filled + width] = packed
        filled += width
        del block, packed  # freed before the next block is made
    count()
    cc = (cc + np.triu(cc, 1).T).astype(float)
    s = cc.diagonal()
    return 2.0 * cc + units - s[:, None] - s[None, :]


def naswot(trace: ForwardTrace, eps: float, rows: int) -> float:
    """Log-determinant of the code agreement matrix, floored by eps*I,
    over every relu's activation codes in the trace's first `rows`
    samples, in node order, read in blocks of at most _CODE_BLOCK units
    per sample."""
    if not trace.relu_patterns:
        raise ConfigError("naswot needs at least one relu layer")
    # chain keeps no block it has handed on, so each is freed before the next is made
    blocks = itertools.chain.from_iterable(
        trace.relu_mask_blocks(i, rows, _CODE_BLOCK) for i in sorted(trace.relu_patterns)
    )
    k = _agreement(blocks, rows)
    return float(np.linalg.slogdet(k + eps * np.eye(len(k)))[1])


def _zico_ratios(parts: list[np.ndarray], eps: float) -> np.ndarray:
    """mean|g| / (std(g) + eps) per parameter of one layer.

    parts: the (S, P_k) column parts whose concatenation along axis 1 is
    the layer's (S, P) matrix of per-sample gradients.  That matrix is
    never built: the statistics are taken on blocks of at most
    _ZICO_BLOCK columns, and each column is still reduced over the
    samples in order, so the ratios are bit-identical to the unblocked
    ones.
    """
    samples = len(parts[0])
    width = sum(part.shape[1] for part in parts)
    # numpy reduces a lone column pairwise and wider blocks row by row,
    # so a block never has one column unless the layer has one parameter
    step = max(2, _ZICO_BLOCK)
    bounds = list(range(0, width, step)) + [width]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    ratio = np.empty(width)
    if len(bounds) == 2:  # one block: the parts side by side, laid out as in a buffer
        whole = parts[0]
        if len(parts) > 1 or not whole.flags.c_contiguous:
            whole = np.concatenate(parts, axis=1)
        _block_ratios(whole, np.empty_like(whole), eps, ratio)
        return ratio
    buf = np.empty(samples * (step + 1))
    scratch = np.empty_like(buf)  # a block's |g|, then its squared deviations
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = buf[: samples * (hi - lo)].reshape(samples, hi - lo)
        c0 = 0
        for part in parts:
            c1 = c0 + part.shape[1]
            a, b = max(lo, c0), min(hi, c1)
            if a < b:
                block[:, a - lo : b - lo] = part[:, a - c0 : b - c0]
            c0 = c1
        _block_ratios(block, scratch[: block.size].reshape(block.shape), eps, ratio[lo:hi])
    return ratio


def _block_ratios(block: np.ndarray, work: np.ndarray, eps: float, out: np.ndarray) -> None:
    """_zico_ratios of one C-contiguous (S, P) block into out; work, its
    shape, takes the block's |g|, then its squared deviations."""
    samples = len(block)
    # numpy's mean and std arithmetic (sums over the samples divided by
    # their count), without the Python wrappers of ndarray.mean and
    # ndarray.std, which cost more than the sums on small layers
    mean_abs = np.add.reduce(np.abs(block, out=work), axis=0)
    mean_abs /= samples
    mean = np.add.reduce(block, axis=0)
    mean /= samples
    np.square(np.subtract(block, mean, out=work), out=work)
    std = np.add.reduce(work, axis=0)
    std /= samples
    np.sqrt(std, out=std)
    std += eps
    np.divide(mean_abs, std, out=out)


def zico(grads: list[np.ndarray], eps: float) -> float:
    """One weighted layer's term: log(sum_theta mean|g| / (std(g) + eps))
    over its per-sample weight and bias gradients grads, flattened per
    sample.  The sum is floored at eps before the log, and the ratio
    vector is summed whole, as one contiguous array."""
    parts = [grad.reshape(len(grad), -1) for grad in grads]
    return float(np.log(max(_zico_ratios(parts, eps).sum(), eps)))


def correlation_min_eigenvalue(channels: np.ndarray, eps: float) -> float:
    """Smallest eigenvalue of the channel Pearson correlation matrix.

    channels: (C, N) flattened feature map.  Variances are floored at
    eps, so constant channels yield zero correlation rows instead of
    dividing by zero.
    """
    x = np.asarray(channels, dtype=float)
    if x.ndim != 2:
        raise ValueError("channels must be (C, N)")
    # x.mean, np.diag and np.outer's arithmetic, without their Python wrappers
    centered = x - np.add.reduce(x, axis=1, keepdims=True) / x.shape[1]
    cov = centered @ centered.T / x.shape[1]
    denom = np.sqrt(np.maximum(cov.diagonal(), eps))
    corr = cov / np.multiply.outer(denom, denom)
    return float(np.linalg.eigvalsh(corr)[0])


def meco(g: ArchitectureGraph, trace: ForwardTrace, eps: float) -> float:
    """Sum of per-tap minimum correlation eigenvalues on the trace's first
    row; the taps are g's block outputs, which the trace must keep."""
    taps = _meco_taps(g)
    if not taps:
        raise ConfigError("meco needs block_output taps in the graph")
    total = 0.0
    for i in taps:
        fm = trace.outputs[i][0]
        total += correlation_min_eigenvalue(fm.reshape(fm.shape[0], -1), eps)
    return total


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
    scores["naswot"] = naswot(trace, cfg.eps_logdet, rows=cfg.batch_size)
    scores["meco"] = meco(g, trace, cfg.eps_var)
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
    engine runs one forward and one backward over all batches stacked,
    and backward hands each weighted layer to snip and zico as it goes.
    """
    bs = cfg.batch_size
    x = np.empty((bs * cfg.num_batches_zico, *g.input_shape))
    labels = np.empty(len(x), dtype=np.int64)
    for lo in range(0, len(x), bs):
        rng.standard_normal(out=x[lo : lo + bs])
        labels[lo : lo + bs] = rng.integers(0, g.num_classes, size=bs)
    scores: dict[str, float] = {}
    snip_weights = 0.0
    snip_biases: list[float] = []
    zico_terms: dict[int, float] = {}

    def reduce(i: int, dw: np.ndarray, db: np.ndarray | None) -> None:
        nonlocal snip_weights
        snip_weights += snip(params.weights[i], dw, bs)
        if db is not None:
            snip_biases.append(snip(params.biases[i], db, bs))
        zico_terms[i] = zico([dw] if db is None else [dw, db], cfg.eps_std)

    # no name holds the trace, so backward frees it as it goes
    backward(g, params, x, labels, trace=_forward_and_score_first_batch(g, params, x, cfg, scores),
             consumer=reduce)
    # the weight terms in backward's order, then the bias terms; the
    # layers' zico terms in node order
    scores["snip"] = snip_weights
    for term in snip_biases:
        scores["snip"] += term
    scores["zico"] = 0.0
    for i in sorted(zico_terms):
        scores["zico"] += zico_terms[i]
    return ProxyScores(**scores)
