"""Run configuration: defaults, YAML loading, validation, echo.

The section dataclasses (TaskSpec, SearchSpaceDef, TargetProfile,
SearchConfig, ProxyBatchConfig, HssConfig) define every field and its
default; DEFAULTS, build_config and RunConfig.echo are derived from them.
"""

from __future__ import annotations

import os
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from .archspace.space import SearchSpaceDef, TaskSpec
from .archspace.templates import read_yaml
from .costmodel.model import TargetProfile
from .errors import ConfigError
from .hvss.subset import HssConfig
from .proxies.ensemble import ProxyBatchConfig
from .search.run import OBJECTIVE_LABELS, SearchConfig

SEED_ENV_VAR = "PROTONAS_SEED"

# The document's sections in print-defaults order.  Each dataclass is the
# one definition of its section's fields and their defaults, so every
# field needs a default; SearchConfig also holds the other sections,
# which are built separately.
SECTIONS = {
    "task": TaskSpec,
    "space": SearchSpaceDef,
    "profile": TargetProfile,
    "search": SearchConfig,
    "proxy": ProxyBatchConfig,
    "hss": HssConfig,
}


def _own_fields(cls) -> list:
    """The fields of a section's dataclass, less those holding another section."""
    return [f for f in fields(cls) if f.name not in SECTIONS]


def _plain(value):
    """Tuples as lists, as YAML and JSON documents hold them."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


DEFAULTS: dict = {
    name: {f.name: _plain(f.default) for f in _own_fields(cls)} for name, cls in SECTIONS.items()
}
DEFAULTS["hss"] = {"k": 5, **DEFAULTS["hss"]}
DEFAULTS.update(templates=None, output_dir="runs/out", jobs=1)


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
        s = self.search
        parts = (s.task, s.space, s.profile, s, s.proxy, self.hss)  # in SECTIONS order
        doc = {
            name: {f.name: _plain(getattr(obj, f.name)) for f in _own_fields(obj)}
            for name, obj in zip(SECTIONS, parts)
        }
        doc["space"]["gene_count"] = s.space.gene_count()
        doc["search"]["objective_count"] = len(OBJECTIVE_LABELS)
        doc["hss"]["k"] = self.k
        doc["templates"] = self.templates_path
        return doc


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


def _integer(field: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{field}: expected an integer, got {v!r}")
    return v


# Scalar fields by annotation; sequence fields go to the dataclass as
# given, and its __post_init__ converts and checks them.
_CONVERT = {int: _integer, float: lambda _, v: float(v), str: lambda _, v: str(v)}


def _build(doc: dict, name: str, **fixed):
    """Section `name` of doc merged over the defaults, as its dataclass.

    Keyword arguments set fields outright: the nested sections of
    SearchConfig, or a base seed taken from the flag or environment.
    """
    cls = SECTIONS[name]
    values = _section(doc, name)
    hints = typing.get_type_hints(cls)
    for f in _own_fields(cls):
        if f.name not in fixed:
            convert = _CONVERT.get(hints[f.name], lambda _, v: v)
            fixed[f.name] = convert(f"{name}.{f.name}", values[f.name])
    return cls(**fixed)


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
    for key in doc:
        if key not in DEFAULTS:
            raise ConfigError(f"top level: unknown field '{key}'")

    seed = {}
    seed_in_file = isinstance(doc.get("search"), dict) and "base_seed" in doc["search"]
    if seed_flag is not None:
        seed["base_seed"] = int(seed_flag)
    elif not seed_in_file and SEED_ENV_VAR in env:
        try:
            seed["base_seed"] = int(env[SEED_ENV_VAR])
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR}: expected an integer") from exc

    try:
        search = _build(
            doc,
            "search",
            task=_build(doc, "task"),
            space=_build(doc, "space"),
            profile=_build(doc, "profile"),
            proxy=_build(doc, "proxy"),
            **seed,
        )
        hss = _build(doc, "hss")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from exc
    k = _integer("hss.k", _section(doc, "hss")["k"])
    if k < 1:
        raise ConfigError("hss.k: must be >= 1")

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
    return build_config(read_yaml(path), seed_flag, env)
