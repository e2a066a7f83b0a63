"""The benchmark scripts under pipebench/ name protonas attributes by
string or import them lazily; check that every name still resolves, so
a refactor cannot silently break `--trace 1` or the benchmark child.
The scripts are read, never changed."""

import ast
import importlib
import importlib.util
from pathlib import Path

PIPEBENCH = Path(__file__).resolve().parents[1] / "pipebench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("pipebench_tracing", PIPEBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve_to_callables():
    for name, sites in _load_tracing().TARGETS.items():
        for site in sites:
            module_name, attr = site.split(":")
            fn = getattr(importlib.import_module(module_name), attr, None)
            assert callable(fn), f"{name}: {site} is not a callable"


def test_benchmark_scripts_import_existing_names():
    imported = []
    for path in sorted(PIPEBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("protonas"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
                    imported.append(f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("protonas"):
                        importlib.import_module(alias.name)
    # child.py imports its loaders and protonas.hvss.HAVE_COMPILED this way
    assert "protonas.config.load_config" in imported
