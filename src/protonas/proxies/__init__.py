"""Training-free proxy scores."""

from .ensemble import (
    ProxyBatchConfig,
    ProxyScores,
    correlation_min_eigenvalue,
    evaluate_ensemble,
    meco,
    naswot,
    snip,
    zico,
)

__all__ = [
    "ProxyBatchConfig",
    "ProxyScores",
    "correlation_min_eigenvalue",
    "evaluate_ensemble",
    "meco",
    "naswot",
    "snip",
    "zico",
]
