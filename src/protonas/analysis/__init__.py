"""Rank correlation analysis and run artifact export."""

from .correlation import RankSeries, TauMatrix, kendall_tau_b, tau_matrix
from .report import (
    FRONT_COLUMNS,
    config_digest,
    write_front_csv,
    write_summary,
    write_tau_csv,
)

__all__ = [
    "FRONT_COLUMNS",
    "RankSeries",
    "TauMatrix",
    "config_digest",
    "kendall_tau_b",
    "tau_matrix",
    "write_front_csv",
    "write_summary",
    "write_tau_csv",
]
