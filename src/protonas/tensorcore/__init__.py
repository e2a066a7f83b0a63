"""Minimal float64 forward/backward engine for decoded graphs."""

from .engine import (
    ForwardTrace,
    ParamSet,
    backward,
    forward,
    init_params,
)

__all__ = [
    "ForwardTrace",
    "ParamSet",
    "backward",
    "forward",
    "init_params",
]
