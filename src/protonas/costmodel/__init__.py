"""Static FLOPs / ROM / RAM estimation and budget checking."""

from .model import (
    CostEstimate,
    Feasibility,
    TargetProfile,
    check,
    count_flops,
    estimate_costs,
    estimate_ram,
    estimate_rom,
)

__all__ = [
    "CostEstimate",
    "Feasibility",
    "TargetProfile",
    "check",
    "count_flops",
    "estimate_costs",
    "estimate_ram",
    "estimate_rom",
]
