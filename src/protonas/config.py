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
DEFAULTS.update(templates=None, output_dir="runs/out", jobs=1)


@dataclass
class RunConfig:
    search: SearchConfig
    hss: HssConfig
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


def _build(doc: dict, name: str, **nested):
    """Section `name` of doc merged over the defaults, as its dataclass.

    Keyword arguments are the sections nested in it (SearchConfig's),
    built separately.
    """
    cls = SECTIONS[name]
    values = _section(doc, name)
    hints = typing.get_type_hints(cls)
    for f in _own_fields(cls):
        convert = _CONVERT.get(hints[f.name], lambda _, v: v)
        nested[f.name] = convert(f"{name}.{f.name}", values[f.name])
    return cls(**nested)


def _merge(doc: dict, overrides: dict) -> dict:
    """doc with overrides over it, a section's fields over that section's."""
    merged = dict(doc)
    for key, value in overrides.items():
        given = merged.get(key)
        if isinstance(value, dict) and given is not None:
            if not isinstance(given, dict):
                continue  # _section reports the malformed section
            value = {**given, **value}
        merged[key] = value
    return merged


def build_config(
    doc: dict | None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Merge a parsed YAML document, then overrides shaped like it (the
    command-line flags), over the defaults.

    An override is checked as the same field in the document, so its
    errors name that field.  Seed precedence for the search: an
    overriding search.base_seed (the --seed flag), then an explicit one
    in the document, then the PROTONAS_SEED environment variable, then 0.
    """
    doc = doc or {}
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a mapping")
    doc = _merge(doc, overrides or {})
    env = os.environ if env is None else env
    for key in doc:
        if key not in DEFAULTS:
            raise ConfigError(f"top level: unknown field '{key}'")

    seed_given = isinstance(doc.get("search"), dict) and "base_seed" in doc["search"]
    if not seed_given and SEED_ENV_VAR in env:
        try:
            doc = _merge(doc, {"search": {"base_seed": int(env[SEED_ENV_VAR])}})
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
        )
        hss = _build(doc, "hss")
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
        templates_path=templates,
        output_dir=output_dir,
        jobs=jobs,
    )


def load_config(
    path: str | Path | None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Parse a YAML config file, with overrides over it (see
    build_config); None loads pure defaults.

    ConfigError messages carry the offending field (or the YAML parser's
    line/column mark for syntax errors).
    """
    return build_config(None if path is None else read_yaml(path), overrides, env)
