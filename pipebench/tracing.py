"""Outside-in span recording for a traced benchmark child.

Only the traced run imports this module.  Tracer.install replaces the
functions at the module attributes where protonas's layers call each
other with wrappers that record a span (name, start, end, parent, rows)
per call.  Spans stay in memory and are written out once, by dump, at
the end of the command.  Untraced runs install nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# span name -> the module attributes to patch.  Attributes that refer to
# the same function share one wrapper, so a call is recorded once
# whichever module made it.
TARGETS = {
    "config.load": ["protonas.cli:load_config"],
    "search.run": ["protonas.cli:run_search"],
    "search.evaluate": ["protonas.search.run:evaluate_candidate"],
    "search.sort": ["protonas.search.run:nondominated_sort"],
    "search.crowding": ["protonas.search.run:crowding_distance"],
    "search.pareto": ["protonas.search.run:compute_pareto_indices"],
    "archspace.sample": ["protonas.search.run:sample"],
    "archspace.decode": ["protonas.search.run:decode"],
    "archspace.prune": ["protonas.search.run:apply_static_pruning"],
    "costmodel.estimate": ["protonas.search.run:estimate_costs"],
    "costmodel.check": ["protonas.search.run:check"],
    "tensorcore.init": ["protonas.search.run:init_params"],
    "tensorcore.forward": [
        "protonas.tensorcore.engine:forward",
        "protonas.proxies.ensemble:forward",
    ],
    "tensorcore.backward": [
        "protonas.tensorcore.engine:backward",
        "protonas.proxies.ensemble:backward",
    ],
    "proxies.ensemble": ["protonas.search.run:evaluate_ensemble"],
    "proxies.snip": ["protonas.proxies.ensemble:snip"],
    "proxies.naswot": ["protonas.proxies.ensemble:naswot"],
    "proxies.zico": ["protonas.proxies.ensemble:zico"],
    "proxies.meco": ["protonas.proxies.ensemble:meco"],
    "analysis.export": ["protonas.cli:write_front_csv", "protonas.cli:write_summary"],
    "hvss.normalize": ["protonas.cli:normalize_objectives"],
    "hvss.select": ["protonas.cli:select_subset"],
    "hvss.subset_hv": ["protonas.cli:subset_hypervolume"],
    "hvss.hv": ["protonas.hvss.subset:hypervolume"],
}

# Spans whose `rows` field holds the size of the call's work: batch rows
# for the engine (third positional argument), points for the HV kernel.
_ROWS_ARG = {"tensorcore.forward": 2, "tensorcore.backward": 2, "hvss.hv": 0}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # [name index, start, end, parent span index or -1, rows, flops per row]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._flops_cache: tuple[object, int] | None = None

    def _graph_flops(self, graph) -> int:
        # One graph is scored many times in a row; keep the last count.
        if self._flops_cache is None or self._flops_cache[0] is not graph:
            from protonas.costmodel import count_flops

            self._flops_cache = (graph, count_flops(graph))
        return self._flops_cache[1]

    def wrap(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        rows_arg = _ROWS_ARG.get(name)
        with_flops = name == "tensorcore.forward"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = len(args[rows_arg]) if rows_arg is not None else 0
            flops = self._graph_flops(args[0]) if with_flops else 0
            span = [name_idx, 0.0, 0.0, stack[-1] if stack else -1, rows, flops]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for name, sites in TARGETS.items():
            for site in sites:
                module_name, attr = site.split(":")
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                if fn not in wrappers:
                    wrappers[fn] = self.wrap(name, fn)
                setattr(module, attr, wrappers[fn])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
