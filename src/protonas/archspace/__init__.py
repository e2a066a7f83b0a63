"""Search space, baseline templates, and architecture graphs."""

from .decode import apply_static_pruning, decode, scaled_channels
from .graph import ArchitectureGraph, LayerSpec, validate
from .space import (
    GROUP_COUNT,
    HyperparamVector,
    SearchSpaceDef,
    TaskSpec,
    sample,
)
from .templates import BaselineTemplate, load_templates

__all__ = [
    "ArchitectureGraph",
    "BaselineTemplate",
    "GROUP_COUNT",
    "HyperparamVector",
    "LayerSpec",
    "SearchSpaceDef",
    "TaskSpec",
    "apply_static_pruning",
    "decode",
    "load_templates",
    "sample",
    "scaled_channels",
    "validate",
]
