"""The benchmark scripts under pipebench/ and scripts/ name protonas
attributes by string or import them lazily; check that every name still
resolves, so a refactor cannot silently break `--trace 1`, the benchmark
child or the per-layer bit comparison.  The scripts are read, never
changed."""

import ast
import importlib
import importlib.util
from pathlib import Path

PIPEBENCH = Path(__file__).resolve().parents[1] / "pipebench"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = Path(__file__).resolve().parents[1] / "src"


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
    from protonas.search import EvalContext
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

    ctx = EvalContext(space1d, task1d, TargetProfile(), ProxyBatchConfig(batch_size=2), templates)
    x = sample(np.random.default_rng(0), space1d)
    rec = run_mod.evaluate_candidate(x, ctx, seed=1)
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
