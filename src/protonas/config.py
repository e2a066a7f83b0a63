"""Run configuration: defaults, YAML loading, validation, echo."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import yaml

from .archspace.space import SearchSpaceDef, TaskSpec
from .costmodel.model import TargetProfile
from .errors import ConfigError
from .hvss.subset import HssConfig
from .proxies.ensemble import ProxyBatchConfig
from .search.run import SearchConfig

SEED_ENV_VAR = "PROTONAS_SEED"

DEFAULTS: dict = {
    "task": {"input_shape": [3, 128, 128], "num_classes": 10},
    "space": {
        "baseline_pool": ["mbednet", "mobilenetv2", "resnet", "squeezenet"],
        "depth_values": [0, 1, 2, 3],
        "kernel_stride_values": [[3, 2], [3, 1], [5, 2], [5, 1], [7, 2], [7, 1]],
        "width_range": [0.1, 1.0],
        "sparsity_range": [0.1, 0.9],
    },
    "profile": {
        "name": "imxrt1062-like",
        "ram_max": 1048576,
        "rom_max": 2097152,
        "flops_max": 200000000,
        "rom_code_overhead": 0,
    },
    "search": {"trials": 500, "population_size": 50, "base_seed": 0},
    "proxy": {
        "batch_size": 8,
        "num_batches_zico": 2,
        "eps_logdet": 1.0e-6,
        "eps_std": 1.0e-6,
        "eps_var": 1.0e-6,
    },
    "hss": {
        "k": 5,
        "population": 2000,
        "mutation_rate": 0.3,
        "generations": 10000,
        "stagnation": 500,
        "seed": 0,
    },
    "templates": None,
    "output_dir": "runs/out",
    "jobs": 1,
}


@dataclass
class RunConfig:
    search: SearchConfig
    hss: HssConfig
    k: int
    templates_path: str | None
    output_dir: str
    jobs: int

    def echo(self) -> dict:
        """Plain-data view of the configuration that determines results.

        output_dir and jobs are left out: where a run writes and how many
        workers score it do not change its outputs, so they must not
        change run_summary.json or its config_hash either.
        """
        space = self.search.space
        return {
            "task": {
                "input_shape": list(self.search.task.input_shape),
                "num_classes": self.search.task.num_classes,
            },
            "space": {
                "baseline_pool": list(space.baseline_pool),
                "depth_values": list(space.depth_values),
                "kernel_stride_values": [list(p) for p in space.kernel_stride_values],
                "width_range": list(space.width_range),
                "sparsity_range": list(space.sparsity_range),
                "gene_count": space.gene_count(),
            },
            "profile": {
                "name": self.search.profile.name,
                "ram_max": self.search.profile.ram_max,
                "rom_max": self.search.profile.rom_max,
                "flops_max": self.search.profile.flops_max,
                "rom_code_overhead": self.search.profile.rom_code_overhead,
            },
            "search": {
                "trials": self.search.trials,
                "population_size": self.search.population_size,
                "base_seed": self.search.base_seed,
                "objective_count": 5,
            },
            "proxy": {
                "batch_size": self.search.proxy.batch_size,
                "num_batches_zico": self.search.proxy.num_batches_zico,
                "eps_logdet": self.search.proxy.eps_logdet,
                "eps_std": self.search.proxy.eps_std,
                "eps_var": self.search.proxy.eps_var,
            },
            "hss": {
                "k": self.k,
                "population": self.hss.population,
                "mutation_rate": self.hss.mutation_rate,
                "generations": self.hss.generations,
                "stagnation": self.hss.stagnation,
                "seed": self.hss.seed,
            },
            "templates": self.templates_path,
        }


def default_config_yaml() -> str:
    return yaml.safe_dump(DEFAULTS, sort_keys=False)


def _section(doc: dict, name: str) -> dict:
    merged = dict(DEFAULTS[name])
    given = doc.get(name)
    if given is None:
        return merged
    if not isinstance(given, dict):
        raise ConfigError(f"{name}: expected a mapping")
    for key, value in given.items():
        if key not in merged:
            raise ConfigError(f"{name}.{key}: unknown field")
        merged[key] = value
    return merged


def _intfield(section: dict, section_name: str, key: str) -> int:
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{section_name}.{key}: expected an integer, got {v!r}")
    return v


def build_config(
    doc: dict | None,
    seed_flag: int | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Merge a parsed YAML document over the defaults.

    Seed precedence for the search: the --seed flag, then an explicit
    search.base_seed in the document, then the PROTONAS_SEED environment
    variable, then 0.
    """
    doc = doc or {}
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a mapping")
    env = os.environ if env is None else env
    known = set(DEFAULTS)
    for key in doc:
        if key not in known:
            raise ConfigError(f"top level: unknown field '{key}'")

    task_d = _section(doc, "task")
    space_d = _section(doc, "space")
    profile_d = _section(doc, "profile")
    search_d = _section(doc, "search")
    proxy_d = _section(doc, "proxy")
    hss_d = _section(doc, "hss")

    seed_in_file = isinstance(doc.get("search"), dict) and "base_seed" in doc["search"]
    if seed_flag is not None:
        base_seed = int(seed_flag)
    elif seed_in_file:
        base_seed = _intfield(search_d, "search", "base_seed")
    elif SEED_ENV_VAR in env:
        try:
            base_seed = int(env[SEED_ENV_VAR])
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR}: expected an integer") from exc
    else:
        base_seed = _intfield(search_d, "search", "base_seed")

    try:
        task = TaskSpec(tuple(task_d["input_shape"]), int(task_d["num_classes"]))
        space = SearchSpaceDef(
            baseline_pool=tuple(space_d["baseline_pool"]),
            depth_values=tuple(space_d["depth_values"]),
            kernel_stride_values=tuple(tuple(p) for p in space_d["kernel_stride_values"]),
            width_range=tuple(space_d["width_range"]),
            sparsity_range=tuple(space_d["sparsity_range"]),
        )
        profile = TargetProfile(
            name=str(profile_d["name"]),
            ram_max=_intfield(profile_d, "profile", "ram_max"),
            rom_max=_intfield(profile_d, "profile", "rom_max"),
            flops_max=_intfield(profile_d, "profile", "flops_max"),
            rom_code_overhead=_intfield(profile_d, "profile", "rom_code_overhead"),
        )
        proxy = ProxyBatchConfig(
            batch_size=_intfield(proxy_d, "proxy", "batch_size"),
            num_batches_zico=_intfield(proxy_d, "proxy", "num_batches_zico"),
            eps_logdet=float(proxy_d["eps_logdet"]),
            eps_std=float(proxy_d["eps_std"]),
            eps_var=float(proxy_d["eps_var"]),
        )
        search = SearchConfig(
            space=space,
            task=task,
            profile=profile,
            proxy=proxy,
            trials=_intfield(search_d, "search", "trials"),
            population_size=_intfield(search_d, "search", "population_size"),
            base_seed=base_seed,
        )
        hss = HssConfig(
            population=_intfield(hss_d, "hss", "population"),
            mutation_rate=float(hss_d["mutation_rate"]),
            generations=_intfield(hss_d, "hss", "generations"),
            stagnation=_intfield(hss_d, "hss", "stagnation"),
            seed=_intfield(hss_d, "hss", "seed"),
        )
        k = _intfield(hss_d, "hss", "k")
        if k < 1:
            raise ConfigError("hss.k: must be >= 1")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from exc

    templates = doc.get("templates", DEFAULTS["templates"])
    if templates is not None and not isinstance(templates, str):
        raise ConfigError("templates: expected a path or null")
    output_dir = doc.get("output_dir", DEFAULTS["output_dir"])
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected a string")
    jobs = doc.get("jobs", DEFAULTS["jobs"])
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ConfigError("jobs: expected a positive integer")

    return RunConfig(
        search=search,
        hss=hss,
        k=k,
        templates_path=templates,
        output_dir=output_dir,
        jobs=jobs,
    )


def load_config(
    path: str | Path | None,
    seed_flag: int | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Parse a YAML config file; None loads pure defaults.

    ConfigError messages carry the offending field (or the YAML parser's
    line/column mark for syntax errors).
    """
    if path is None:
        return build_config(None, seed_flag, env)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return build_config(doc, seed_flag, env)
