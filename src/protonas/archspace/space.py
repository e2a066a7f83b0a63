"""Search space definition and hyperparameter vectors.

A candidate is described by 14 genes, in HyperparamVector field order:
one categorical baseline choice, GROUP_COUNT per-group depths,
GROUP_COUNT per-group kernel/stride choices, one global width
multiplier and GROUP_COUNT per-group pruning sparsities.
SearchSpaceDef.gene_domains is the one table of what each gene may
take; sampling, membership, the gene count and the search's mutation
all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import ConfigError

GROUP_COUNT = 4


def _sequence(field: str, value) -> tuple:
    """value as a tuple; a string is refused rather than split into characters."""
    if isinstance(value, str):
        raise ConfigError(f"{field}: expected a list, got the string {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class TaskSpec:
    """Input tensor layout and class count for decoded networks.

    input_shape is channels-first without the batch axis: (C, H, W) for
    image tasks, (C, L) for time-series tasks.
    """

    input_shape: tuple[int, ...] = (3, 128, 128)
    num_classes: int = 10

    def __post_init__(self):
        shape = _sequence("task.input_shape", self.input_shape)
        object.__setattr__(self, "input_shape", tuple(int(v) for v in shape))
        if len(self.input_shape) not in (2, 3):
            raise ConfigError("task.input_shape: expected (C, L) or (C, H, W)")
        if any(v < 1 for v in self.input_shape):
            raise ConfigError("task.input_shape: all extents must be >= 1")
        if self.num_classes < 2:
            raise ConfigError("task.num_classes: must be >= 2")

    @property
    def dimensionality(self) -> int:
        return len(self.input_shape) - 1


@dataclass(frozen=True)
class SearchSpaceDef:
    """Gene domains for the candidate encoding.

    The defaults are the production domains; tests may narrow them
    (e.g. a single baseline with depth_values=[0]) without changing the
    gene layout, which always has GROUP_COUNT groups.
    """

    baseline_pool: tuple[str, ...] = ("mbednet", "mobilenetv2", "resnet", "squeezenet")
    depth_values: tuple[int, ...] = (0, 1, 2, 3)
    kernel_stride_values: tuple[tuple[int, int], ...] = ((3, 2), (3, 1), (5, 2), (5, 1), (7, 2), (7, 1))
    width_range: tuple[float, float] = (0.1, 1.0)
    sparsity_range: tuple[float, float] = (0.1, 0.9)

    def __post_init__(self):
        def seq(name):
            return _sequence(f"space.{name}", getattr(self, name))

        pairs = (_sequence("space.kernel_stride_values", p) for p in seq("kernel_stride_values"))
        object.__setattr__(self, "baseline_pool", seq("baseline_pool"))
        object.__setattr__(self, "depth_values", tuple(int(v) for v in seq("depth_values")))
        object.__setattr__(self, "kernel_stride_values", tuple((int(k), int(s)) for k, s in pairs))
        object.__setattr__(self, "width_range", tuple(float(v) for v in seq("width_range")))
        object.__setattr__(self, "sparsity_range", tuple(float(v) for v in seq("sparsity_range")))
        if not self.baseline_pool:
            raise ConfigError("space.baseline_pool: must not be empty")
        if not self.depth_values or any(d < 0 for d in self.depth_values):
            raise ConfigError("space.depth_values: need at least one value >= 0")
        if not self.kernel_stride_values:
            raise ConfigError("space.kernel_stride_values: must not be empty")
        for k, s in self.kernel_stride_values:
            if k < 1 or k % 2 == 0:
                raise ConfigError(f"space.kernel_stride_values: kernel {k} must be odd")
            if s not in (1, 2):
                raise ConfigError(f"space.kernel_stride_values: stride {s} must be 1 or 2")
        lo, hi = self.width_range
        if not (0.0 < lo <= hi):
            raise ConfigError("space.width_range: need 0 < lo <= hi")
        lo, hi = self.sparsity_range
        if not (0.0 <= lo <= hi < 1.0):
            raise ConfigError("space.sparsity_range: need 0 <= lo <= hi < 1")

    def gene_domains(self) -> list[tuple]:
        """One domain per gene, in gene order: ("cat", choices) for a
        categorical gene, ("cont", lo, hi) for a continuous one."""
        arch = ("cat", range(len(self.baseline_pool)))
        depth = ("cat", self.depth_values)
        ks = ("cat", range(len(self.kernel_stride_values)))
        width = ("cont", *self.width_range)
        sp = ("cont", *self.sparsity_range)
        return [arch] + [depth] * GROUP_COUNT + [ks] * GROUP_COUNT + [width] + [sp] * GROUP_COUNT

    def gene_count(self) -> int:
        return len(self.gene_domains())


@dataclass(frozen=True)
class HyperparamVector:
    """One sampled candidate.

    group_depth holds depth values; kernel_stride holds indices into
    SearchSpaceDef.kernel_stride_values.
    """

    architecture: int
    group_depth: tuple[int, int, int, int]
    kernel_stride: tuple[int, int, int, int]
    width_multiplier: float
    pruning_sparsity: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "group_depth", tuple(int(v) for v in self.group_depth))
        object.__setattr__(self, "kernel_stride", tuple(int(v) for v in self.kernel_stride))
        object.__setattr__(
            self, "pruning_sparsity", tuple(float(v) for v in self.pruning_sparsity)
        )

    def to_genes(self) -> list:
        """Flatten to the canonical gene list, each gene in its field's type."""
        genes = []
        for f in fields(self):
            value = getattr(self, f.name)
            genes += value if isinstance(value, tuple) else [value]
        return genes

    @classmethod
    def from_genes(cls, genes) -> "HyperparamVector":
        genes = list(genes)
        n = GROUP_COUNT
        if len(genes) != 3 * n + 2:
            raise ConfigError(f"expected {3 * n + 2} genes, got {len(genes)}")
        return cls(
            architecture=int(round(genes[0])),
            group_depth=tuple(int(round(g)) for g in genes[1 : 1 + n]),
            kernel_stride=tuple(int(round(g)) for g in genes[1 + n : 1 + 2 * n]),
            width_multiplier=float(genes[1 + 2 * n]),
            pruning_sparsity=tuple(float(g) for g in genes[2 + 2 * n :]),
        )

    def in_space(self, space: SearchSpaceDef) -> bool:
        genes, domains = self.to_genes(), space.gene_domains()
        return len(genes) == len(domains) and all(
            g in dom[1] if dom[0] == "cat" else dom[1] <= g <= dom[2]
            for g, dom in zip(genes, domains)
        )


def sample(rng: np.random.Generator, space: SearchSpaceDef) -> HyperparamVector:
    """Draw one uniform candidate.

    Each gene is drawn from its domain in gene order: uniform over a
    categorical gene's choices, uniform over a continuous gene's closed
    range.  The order is fixed, so a seeded generator reproduces the
    same vector.
    """
    return HyperparamVector.from_genes(
        dom[1][rng.integers(len(dom[1]))] if dom[0] == "cat" else rng.uniform(dom[1], dom[2])
        for dom in space.gene_domains()
    )
