"""The benchmark scripts under pipebench/ and scripts/ name protonas
attributes by string or import them lazily; check that every name still
resolves, so a refactor cannot silently break `--trace 1`, the benchmark
child or the per-layer bit comparison.  The scripts are read, never
changed."""

import ast
import collections
import importlib
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PIPEBENCH = REPO / "pipebench"
SCRIPTS = REPO / "scripts"
SRC = REPO / "src"
TESTS = REPO / "tests"


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


def test_layer_timings_reads_existing_engine_names():
    """scripts/layer_timings.py calls the engine's kernels by name."""
    from protonas.tensorcore import engine

    tree = ast.parse((SCRIPTS / "layer_timings.py").read_text(encoding="utf-8"))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "engine"
    }
    assert names >= {"_conv_fwd", "_conv_bwd", "retain_freed_memory"}
    for name in names:
        assert callable(getattr(engine, name, None)), f"layer_timings.py: engine.{name}"


def test_engine_exports_only_what_the_package_imports():
    """Every name protonas.tensorcore exports is imported by a module of
    the package outside tensorcore/, so no mode that only the tests call
    sits in the engine's public surface."""
    import protonas.tensorcore as tensorcore

    imported = set()
    for path in sorted((SRC / "protonas").rglob("*.py")):
        if "tensorcore" in path.relative_to(SRC / "protonas").parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # `from ..tensorcore.engine import x` or `from protonas.tensorcore import x`
            if isinstance(node, ast.ImportFrom) and "tensorcore" in (node.module or "").split("."):
                imported.update(alias.name for alias in node.names)
    assert not set(tensorcore.__all__) - imported, sorted(set(tensorcore.__all__) - imported)


def _definitions(tree):
    """Top-level functions and classes of a module, and their methods
    (dunders aside: Python calls those itself)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield sub


def _referenced_names(node):
    """Every name node refers to: names, attributes, imported names, and
    the attribute of a tracing-style "protonas.module:attr" string."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            module, sep, attr = sub.value.partition(":")
            if sep and module.startswith("protonas") and attr.isidentifier():
                yield attr


def test_every_package_definition_is_used_outside_the_tests():
    """Every top-level function, class and method under src/protonas is
    referred to by code other than its own definition and the package's
    __init__ re-exports: by the package, pipebench/ or scripts/.  Code
    that only the tests call belongs in tests/.  Names are matched by
    spelling, so a definition sharing its name with one in use passes."""
    modules = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "protonas").rglob("*.py"))
        if path.name != "__init__.py"
    }
    uses = collections.Counter()
    for tree in modules.values():
        uses.update(_referenced_names(tree))
    for path in sorted(PIPEBENCH.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        uses.update(_referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
    unused = [
        f"{path.relative_to(SRC)}:{node.name}"
        for path, tree in modules.items()
        for node in _definitions(tree)
        # a definition's own body (a recursive call, a method's self.x) does not count
        if uses[node.name] == collections.Counter(_referenced_names(node))[node.name]
    ]
    assert not unused, unused


def _unread_imports(tree, exported):
    """(line, name) of each name the module imports and never reads.
    `import a.b` binds a; `from m import x as y` binds y.  A name loaded
    anywhere in the module counts as read, and so does one in exported."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for line, name in bound if name not in read | exported)


def test_every_import_is_read():
    """No module under src/, tests/, scripts/ or pipebench/ imports a name
    it never reads.  A name listed in the module's __all__ is read by its
    importers, and a conftest name by the test modules that import it."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for root in (SRC, TESTS, SCRIPTS, PIPEBENCH)
        for path in sorted(root.rglob("*.py"))
    }
    from_conftest = {
        alias.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "conftest"
        for alias in node.names
    }
    unread = []
    for path, tree in trees.items():
        exported = set(from_conftest) if path == TESTS / "conftest.py" else set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                exported |= set(ast.literal_eval(node.value))
        unread += [
            f"{path.relative_to(REPO)}:{line}: {name}"
            for line, name in _unread_imports(tree, exported)
        ]
    assert not unread, unread


def test_trace_records_each_scoring_stage_once_per_candidate(
    space1d, task1d, templates, monkeypatch
):
    """A traced candidate shows one span per engine pass and for naswot
    and meco, and snip and zico spans per weighted layer inside backward's,
    so `--trace 1` attributes the scoring time to the proxies."""
    import numpy as np

    from protonas.archspace import apply_static_pruning, decode, sample
    from protonas.costmodel import TargetProfile
    from protonas.proxies import ProxyBatchConfig
    from protonas.search import SearchConfig
    from protonas.tensorcore import init_params

    tracing = _load_tracing()
    for sites in tracing.TARGETS.values():
        for site in sites:
            module_name, attr = site.split(":")
            module = importlib.import_module(module_name)
            # monkeypatch puts every original back after the test
            monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = tracing.Tracer()
    tracer.install()

    import protonas.search.run as run_mod

    cfg = SearchConfig(space1d, task1d, TargetProfile(), ProxyBatchConfig(batch_size=2))
    x = sample(np.random.default_rng(0), space1d)
    rec = run_mod.evaluate_candidate(x, cfg, templates, seed=1)
    assert rec.proxies is not None, rec.error
    counts = {}
    parents = {}
    for span in tracer.spans:
        name = tracer.names[span[0]]
        counts[name] = counts.get(name, 0) + 1
        parent = tracer.names[tracer.spans[span[3]][0]] if span[3] >= 0 else None
        parents.setdefault(name, set()).add(parent)
    stages = ["proxies.naswot", "proxies.meco", "tensorcore.forward", "tensorcore.backward"]
    assert {name: counts.get(name, 0) for name in stages} == dict.fromkeys(stages, 1)
    # backward hands each weighted layer to zico, and each of its weight
    # and bias tensors to snip, inside its own span
    g = apply_static_pruning(decode(x, space1d, task1d, templates), x.pruning_sparsity)
    g.infer_shapes()
    params = init_params(g, np.random.default_rng(0))
    per_layer = {"proxies.snip": len(params.weights) + len(params.biases),
                 "proxies.zico": len(params.weights)}
    assert {name: counts.get(name, 0) for name in per_layer} == per_layer
    assert {name: parents[name] for name in per_layer} == dict.fromkeys(
        per_layer, {"tensorcore.backward"}
    )
