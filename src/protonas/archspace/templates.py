"""Baseline template catalog loading and validation."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import yaml

from ..errors import ConfigError
from .graph import LAYER_KINDS

DEFAULT_TEMPLATES_PATH = Path(__file__).with_name("templates.yaml")
# libyaml's parser where PyYAML was built with it, PyYAML's own otherwise:
# the same documents, about eight times faster on the packaged catalog
SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# merges are written as branch layers, never as ops of their own
_LAYER_OPS = frozenset(LAYER_KINDS) - {"add", "concat"}


@dataclass(frozen=True)
class BaselineTemplate:
    """One backbone family: stem, repeated superblock pattern, classifier.

    Layer patterns are stored as parsed YAML dicts; decode.py resolves
    the K/S/C placeholders against the sampled genes.
    """

    id: str
    dimensionality: int
    group_channels: tuple[int, int, int, int]
    stem: tuple[dict, ...]
    superblock: tuple[dict, ...]
    classifier: tuple[dict, ...]


def _freeze_pattern(pattern, where: str, allow_markers: bool) -> tuple[dict, ...]:
    if not isinstance(pattern, list):
        raise ConfigError(f"{where}: expected a list of layers")
    out = []
    for idx, layer in enumerate(pattern):
        ctx = f"{where}[{idx}]"
        if not isinstance(layer, dict) or "op" not in layer:
            raise ConfigError(f"{ctx}: each layer needs an 'op' key")
        op = layer["op"]
        if op == "branch":
            merge = layer.get("merge")
            if merge not in ("add", "concat"):
                raise ConfigError(f"{ctx}: branch merge must be 'add' or 'concat'")
            branches = layer.get("branches")
            if not isinstance(branches, list) or len(branches) < 2:
                raise ConfigError(f"{ctx}: branch needs at least two branches")
            frozen = [
                _freeze_pattern(br, f"{ctx}.branches[{b}]", allow_markers)
                for b, br in enumerate(branches)
            ]
            out.append({"op": "branch", "merge": merge, "branches": frozen})
            continue
        if op not in _LAYER_OPS:
            raise ConfigError(f"{ctx}: unknown op '{op}'")
        kernel = layer.get("kernel", 1)
        stride = layer.get("stride", 1)
        for key, val in (("kernel", kernel), ("stride", stride)):
            if isinstance(val, str):
                if not allow_markers or val not in ("K", "S"):
                    raise ConfigError(f"{ctx}: {key} marker '{val}' not allowed here")
            elif not isinstance(val, int) or val < 1:
                raise ConfigError(f"{ctx}: {key} must be a positive int")
        if isinstance(kernel, int) and kernel % 2 == 0:
            raise ConfigError(f"{ctx}: kernel must be odd")
        if isinstance(stride, int) and stride not in (1, 2):
            raise ConfigError(f"{ctx}: stride must be 1 or 2")
        if op == "conv":
            spec = layer.get("out")
            ok = isinstance(spec, int) and spec >= 1
            if isinstance(spec, str):
                ok = allow_markers and _valid_channel_expr(spec)
            if not ok:
                raise ConfigError(f"{ctx}: conv 'out' must be a positive int or C expression")
        out.append(dict(layer))
    return tuple(out)


def _merges_the_input(pattern: tuple[dict, ...]) -> bool:
    """Whether a pattern that starts at the network input opens with a
    branch holding an empty (identity) branch, directly or through a
    branch that opens one of its branches."""
    if not pattern or pattern[0]["op"] != "branch":
        return False
    return any(not br or _merges_the_input(br) for br in pattern[0]["branches"])


def _valid_channel_expr(expr: str) -> bool:
    if expr == "C":
        return True
    if len(expr) > 2 and expr[0] == "C" and expr[1] in "*/":
        return expr[2:].isdigit() and int(expr[2:]) > 0
    return False


def eval_channel_expr(spec, base: int) -> int:
    """Resolve a template channel spec against a group's base count."""
    if isinstance(spec, int):
        return spec
    if spec == "C":
        return base
    if spec[1] == "*":
        return base * int(spec[2:])
    return max(1, base // int(spec[2:]))


def _parse_template(tid: str, raw: dict) -> BaselineTemplate:
    if not isinstance(raw, dict):
        raise ConfigError(f"templates.{tid}: expected a mapping")
    dim = raw.get("dimensionality")
    if dim not in (1, 2):
        raise ConfigError(f"templates.{tid}.dimensionality: must be 1 or 2")
    chans = raw.get("group_channels")
    if not isinstance(chans, list) or len(chans) != 4 or any(
        not isinstance(c, int) or c < 1 for c in chans
    ):
        raise ConfigError(f"templates.{tid}.group_channels: need four positive ints")
    stem = _freeze_pattern(raw.get("stem", []), f"templates.{tid}.stem", allow_markers=False)
    if not stem:
        raise ConfigError(f"templates.{tid}.stem: must not be empty")
    if _merges_the_input(stem):
        # a node's predecessors cannot name the network input, so such a
        # merge would lose its skip edge
        raise ConfigError(
            f"templates.{tid}.stem: a branch at the network input cannot hold an empty "
            "(identity) branch"
        )
    superblock = _freeze_pattern(
        raw.get("superblock", []), f"templates.{tid}.superblock", allow_markers=True
    )
    if not superblock:
        raise ConfigError(f"templates.{tid}.superblock: must not be empty")
    classifier = _freeze_pattern(
        raw.get("classifier", []), f"templates.{tid}.classifier", allow_markers=False
    )
    if not classifier or classifier[-1]["op"] != "linear":
        raise ConfigError(f"templates.{tid}.classifier: must end with a linear layer")
    return BaselineTemplate(
        id=tid,
        dimensionality=dim,
        group_channels=tuple(chans),
        stem=stem,
        superblock=superblock,
        classifier=classifier,
    )


def load_templates(path: str | Path | None = None) -> dict[str, BaselineTemplate]:
    """Load and validate a template catalog; None loads the packaged one."""
    if path is None:
        return _load_default()
    return _load(Path(path))


@functools.lru_cache(maxsize=1)
def _load_default() -> dict[str, BaselineTemplate]:
    return _load(DEFAULT_TEMPLATES_PATH)


def read_yaml(path: str | Path):
    """The YAML document in the file at path, read with SAFE_LOADER.  A
    file that cannot be read or parsed raises ConfigError; a parse error
    carries the parser's line/column mark."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.load(fh, Loader=SAFE_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load(path: Path) -> dict[str, BaselineTemplate]:
    doc = read_yaml(path)
    if not isinstance(doc, dict) or "templates" not in doc:
        raise ConfigError(f"{path}: expected a mapping with a 'templates' key")
    if doc.get("version") != 1:
        raise ConfigError(f"{path}: unsupported template catalog version {doc.get('version')!r}")
    raw = doc["templates"]
    if not isinstance(raw, dict) or not raw:
        raise ConfigError(f"{path}: 'templates' must be a non-empty mapping")
    return {tid: _parse_template(tid, body) for tid, body in raw.items()}
