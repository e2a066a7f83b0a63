"""The benchmark's workloads: generated inputs and output checks.

A workload turns (seed, round index) into a list of inputs: config
files, and for select a front CSV.  A round runs every input once, each
as its own `protonas` command in a fresh process; a run goes through
rounds 0, 1, 2, ... until its time is used.
The checks here read the program's output files and recompute what they
claim, independently of the protonas code.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The default target profile, written out so the checks know the budget.
PROFILE = {
    "name": "imxrt1062-like",
    "ram_max": 1048576,
    "rom_max": 2097152,
    "flops_max": 200000000,
    "rom_code_overhead": 0,
}
OBJ_COLUMNS = ["obj_flops", "obj_neg_meco", "obj_neg_zico", "obj_neg_naswot", "obj_neg_snip"]
HV_REF = 1.1  # protonas.hvss.subset.DEFAULT_REF_VALUE
HV_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Input:
    label: str
    config: Path
    argv: tuple[str, ...]  # protonas arguments, without --out and --jobs


def round_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(path: Path, doc: dict) -> Path:
    # JSON is valid YAML, so the program reads this file as written.
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


class Explore:
    """`protonas explore`, one invocation per baseline in the pool.

    Splitting the pool keeps the mix of baselines, and with it the cost
    of a round, the same for every seed.
    """

    command = "explore"
    digest_files = ("trials.jsonl", "pareto.csv")

    def __init__(self, name, why, jobs, task, space, pools, trials, population):
        self.name, self.why, self.jobs = name, why, jobs
        self.task, self.space, self.pools = task, space, pools
        self.trials, self.population = trials, population

    def prepare(self, seed: int, k: int, workdir: Path) -> list[Input]:
        inputs = []
        for arch in self.pools:
            doc = {
                "task": self.task,
                "space": dict(self.space, baseline_pool=[arch]),
                "profile": PROFILE,
                "search": {
                    "trials": self.trials,
                    "population_size": self.population,
                    "base_seed": round_seed(seed, k),
                },
            }
            cfg = _write_config(workdir / f"{arch}.yaml", doc)
            inputs.append(Input(arch, cfg, ("explore", "--config", str(cfg))))
        return inputs

    def check(self, inp: Input, out: Path) -> tuple[list[str], dict]:
        """Recompute trial count, budgets and the front from the files."""
        problems = []
        log = out / "trials.jsonl"
        records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        if [r["trial"] for r in records] != list(range(self.trials)):
            problems.append(f"trials.jsonl holds {len(records)} trials, expected {self.trials}")
        feasible = {r["trial"]: r for r in records if r["feasible"]}
        front = {
            t
            for t, r in feasible.items()
            if not any(_dominates(o["objectives"], r["objectives"]) for o in feasible.values())
        }
        header, rows = _read_csv(out / "pareto.csv")
        col = {c: i for i, c in enumerate(header)}
        listed = [int(row[col["trial"]]) for row in rows]
        for row, trial in zip(rows, listed):
            if trial not in feasible:
                problems.append(f"pareto.csv trial {trial} is not a feasible trial")
            over = [
                c
                for c, cap in (("flops", "flops_max"), ("rom_bytes", "rom_max"), ("ram_bytes", "ram_max"))
                if int(row[col[c]]) > PROFILE[cap]
            ]
            if over:
                problems.append(f"pareto.csv trial {trial} exceeds the budget on {over}")
        if len(set(listed)) != len(listed) or set(listed) != front:
            problems.append(
                f"pareto.csv lists trials {sorted(listed)}, the undominated feasible trials are {sorted(front)}"
            )
        facts = {
            "trials": len(records),
            "scored": len(feasible),
            "front": len(rows),
            "error_records": sum(r["error"] is not None for r in records),
            "log_bytes": log.stat().st_size,
            "export_bytes": (out / "pareto.csv").stat().st_size + (out / "run_summary.json").stat().st_size,
        }
        return problems, facts


def _normalize(points: list[list[float]]) -> list[list[float]]:
    # Min-max per objective, constant columns map to 0, as protonas does.
    cols = list(zip(*points))
    lo = [min(c) for c in cols]
    span = [max(c) - m for c, m in zip(cols, lo)]
    return [[(v - m) / s if s > 0 else 0.0 for v, m, s in zip(p, lo, span)] for p in points]


def inclusion_exclusion_hv(points: list[list[float]], ref: float) -> float:
    """Exact hypervolume of a few points by inclusion-exclusion."""
    total = 0.0
    for size in range(1, len(points) + 1):
        sign = 1.0 if size % 2 else -1.0
        for subset in itertools.combinations(points, size):
            total += sign * math.prod(ref - max(p[d] for p in subset) for d in range(len(points[0])))
    return total


class Select:
    """`protonas select --k K` at the default HssConfig on a seeded front.

    A round runs two generation caps; their wall-time difference is the
    cost of one GA generation.
    """

    command = "select"
    jobs = 1
    digest_files = ("selection.csv",)

    def __init__(self, name, why, front_size, dims, k, generation_caps):
        self.name, self.why = name, why
        self.front_size, self.dims, self.k = front_size, dims, k
        self.generation_caps = generation_caps

    def prepare(self, seed: int, k: int, workdir: Path) -> list[Input]:
        # Points on the positive unit sphere are mutually non-dominated.
        rng = random.Random(round_seed(seed, k))
        front = workdir / "front.csv"
        with open(front, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["trial"] + OBJ_COLUMNS[: self.dims])
            for i in range(self.front_size):
                g = [abs(rng.gauss(0.0, 1.0)) for _ in range(self.dims)]
                norm = math.sqrt(sum(v * v for v in g))
                writer.writerow([i] + [repr(v / norm) for v in g])
        inputs = []
        for gens in self.generation_caps:
            cfg = _write_config(workdir / f"gens{gens}.yaml", {"hss": {"generations": gens}})
            argv = ("select", "--config", str(cfg), "--pareto", str(front), "--k", str(self.k))
            inputs.append(Input(f"gens{gens}", cfg, argv))
        return inputs

    def check(self, inp: Input, out: Path) -> tuple[list[str], dict]:
        """k distinct front rows whose recomputed hypervolume matches."""
        problems = []
        header, rows = _read_csv(inp.config.parent / "front.csv")
        sel_header, chosen = _read_csv(out / "selection.csv")
        summary = json.loads((out / "selection_summary.json").read_text(encoding="utf-8"))
        index = {tuple(r): i for i, r in enumerate(rows)}
        picked = [index.get(tuple(r)) for r in chosen]
        if sel_header != header or None in picked:
            problems.append("selection.csv rows are not verbatim front rows")
        elif len(set(picked)) != self.k:
            problems.append(f"selection.csv holds {len(set(picked))} distinct rows, expected {self.k}")
        else:
            obj = [header.index(c) for c in header if c.startswith("obj_")]
            norm = _normalize([[float(r[i]) for i in obj] for r in rows])
            hv = inclusion_exclusion_hv([norm[i] for i in picked], HV_REF)
            if abs(hv - summary["hypervolume"]) > HV_TOLERANCE:
                problems.append(f"summary hypervolume {summary['hypervolume']!r} != recomputed {hv!r}")
            if summary["selected_trials"] != [int(rows[i][0]) for i in sorted(picked)]:
                problems.append("selection_summary.json selected_trials disagree with selection.csv")
        return problems, {}


WORKLOADS = {
    w.name: w
    for w in (
        Explore(
            "explore-2d",
            "default 3x128x128 task: large activations make the engine BLAS-bound and proxies+engine "
            "take ~99% of the time",
            jobs=1,
            task={"input_shape": [3, 128, 128], "num_classes": 10},
            # Shape genes pinned so that every candidate costs about the same.
            space={
                "depth_values": [1],
                "kernel_stride_values": [[3, 2]],
                "width_range": [0.5, 0.5],
                "sparsity_range": [0.1, 0.5],
            },
            pools=["mbednet", "mobilenetv2", "resnet", "squeezenet"],
            trials=3,
            population=2,
        ),
        Explore(
            "explore-1d",
            "criterion-6 1-D task at --jobs 2: tiny tensors make per-op Python overhead dominate and "
            "load the search bookkeeping and the process pool",
            jobs=2,
            task={"input_shape": [3, 64], "num_classes": 5},
            # Depth and width narrowed so the cost of a round, and its
            # largest candidate's memory, vary less between seeds.
            space={"depth_values": [1, 2], "width_range": [0.3, 0.6]},
            pools=["mbednet1d", "inceptiontime"],
            trials=30,
            population=15,
        ),
        Select(
            "select-default",
            "select --k 5 at the default HssConfig with generations capped: only hvss runs, making "
            "~10^4 pure-kernel HV calls on subsets of <= 6 points",
            front_size=16,
            dims=5,
            k=5,
            generation_caps=(1, 6),
        ),
    )
}
