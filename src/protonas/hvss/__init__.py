"""Exact hypervolume and hypervolume subset selection."""

from .hv import HAVE_COMPILED, hypervolume
from .subset import (
    HssConfig,
    default_reference,
    normalize_objectives,
    select_subset,
    subset_hypervolume,
)

__all__ = [
    "HAVE_COMPILED",
    "HssConfig",
    "default_reference",
    "hypervolume",
    "normalize_objectives",
    "select_subset",
    "subset_hypervolume",
]
