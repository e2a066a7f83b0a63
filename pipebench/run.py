"""Pipeline benchmark for protonas: explore-2d, explore-1d, select-default.

Run from the root of a checkout:

    python3 pipebench/run.py --workload explore-1d --seed 1 --seconds 40 --trace 0
    python3 pipebench/run.py --workload all --trace 1   # every workload in turn

Each command runs in a fresh process (pipebench/child.py) that imports
protonas from the checkout's src/ and calls protonas.cli.main on inputs
generated from --seed.  A run goes through rounds of commands, round k
on fresh inputs made from (--seed, k), until --seconds are used, and
reports medians over rounds.  Set-up, wall and CPU times are corrected
for the host's changing speed (see REF_PROBE_S); raw times are printed
beside them.

--trace 0 prints the end-to-end metrics: set-up time, command wall
time, CPU time and peak RSS.  --trace 1 reruns the round at --jobs 1
with wrappers at the layer boundaries (pipebench/tracing.py) and prints
per-layer metrics plus the tracing overhead against an untraced round.
Every command's outputs are checked; a failed check, a non-zero exit or
an error record in the trial log counts as a failed operation.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Details
go to pipebench/_work/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Pin BLAS before numpy is imported here (the machine-speed probe uses it).
os.environ.update(PINNED_THREADS)

from workloads import WORKLOADS, sha256_of  # noqa: E402

SETUP_PROBES = 6
# Time metrics are scaled by REF_PROBE_S / (mean speed-probe time measured
# in the same process over the same interval, see child.py): seconds on a
# host that runs the probe in REF_PROBE_S.  This removes most of the
# drift of a shared host's speed; raw seconds are reported beside them.
REF_PROBE_S = 0.0007
HARD_LIMIT_S = 170.0  # commands still running then are killed, so a run ends within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "tensorcore.forward_s": "s",
    "tensorcore.forward_calls": "count",
    "tensorcore.forward_rows": "count",
    "tensorcore.backward_s": "s",
    "tensorcore.backward_calls": "count",
    "tensorcore.backward_rows": "count",
    "tensorcore.init_s": "s",
    "tensorcore.gflop_per_s": "GFLOP/s",
    "proxies.snip_s": "s",
    "proxies.naswot_s": "s",
    "proxies.zico_s": "s",
    "proxies.meco_s": "s",
    "proxies.ensemble_self_s": "s",
    "proxies.fwd_rows_per_candidate": "count",
    "proxies.bwd_rows_per_candidate": "count",
    "search.evaluate_ms_p50": "ms",
    "search.evaluate_ms_p90": "ms",
    "search.sort_s": "s",
    "search.pareto_s": "s",
    "search.feasible_ratio": "ratio",
    "search.front_size": "count",
    "search.log_bytes_per_trial": "B",
    "search.pool_util": "ratio",
    "hvss.select_s": "s",
    "hvss.normalize_s": "s",
    "hvss.hv_calls": "count",
    "hvss.hv_s": "s",
    "hvss.hv_us_per_call": "us",
    "hvss.hv_points_mean": "count",
    "archspace.sample_s": "s",
    "archspace.decode_s": "s",
    "archspace.prune_s": "s",
    "costmodel.estimate_s": "s",
    "costmodel.check_s": "s",
    "analysis.export_s": "s",
    "analysis.export_bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
}
# Per-layer values derived from a model rather than timed directly.
COMPUTED_METRICS = {"tensorcore.gflop_per_s"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PROTONAS_SEED")}
    env.update(PINNED_THREADS, PYTHONPATH=str(ROOT / "src"))
    return env


def machine_probe() -> dict:
    """Fixed work timed on this host, to diagnose drift between runs."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    t1 = time.perf_counter()
    a = np.random.default_rng(0).standard_normal((256, 256))
    for _ in range(50):
        a @ a
    t2 = time.perf_counter()
    return {"python_loop_s": t1 - t0, "numpy_matmul_s": t2 - t1}


def fingerprint_host() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "blas_threads": PINNED_THREADS}


class Runner:
    """Launches child commands for one workload run and keeps the tally."""

    def __init__(self, workload, workdir: Path, started: float):
        self.w = workload
        self.workdir = workdir
        self.hard_deadline = started + HARD_LIMIT_S
        self.env = child_env()
        self.attempted = 0
        self.problems: list[str] = []
        self.failed_ops: set[str] = set()

    def fail(self, op: str, problem: str) -> None:
        self.failed_ops.add(op)
        self.problems.append(f"{op}: {problem}")

    def launch(self, spec: dict, log: Path) -> dict | None:
        """Run child.py on spec; returns its result, or None on failure."""
        result_path = Path(spec["result"])
        result_path.unlink(missing_ok=True)
        timeout = max(1.0, self.hard_deadline - time.monotonic())
        with open(log, "w", encoding="utf-8") as fh:
            spec["launched"] = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                return None
            finally:
                # Reap anything the command left in its process group.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if proc.returncode != 0 or not result_path.exists():
            return None
        return json.loads(result_path.read_text(encoding="utf-8"))

    def setup_probe(self, config: Path, index: int) -> dict | None:
        d = self.workdir / "setup"
        d.mkdir(exist_ok=True)
        spec = {"config": str(config), "result": str(d / f"{index}.json"), "fingerprint": index == 0}
        self.attempted += 1
        res = self.launch(spec, d / f"{index}.log")
        if res is None:
            self.fail(f"setup/{index}", f"set-up probe failed, see {d}")
        else:
            res["setup_norm_s"] = res["setup_s"] * REF_PROBE_S / res["probe_setup_s"]
        return res

    def run_round(self, tag: str, k: int, inputs, jobs: int, traced: bool) -> dict:
        """Run every input once; returns per-invocation results and sums."""
        invocations = []
        for inp in inputs:
            out = self.workdir / tag / inp.label
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            argv = list(inp.argv) + ["--out", str(out)]
            if self.w.command == "explore":
                argv += ["--jobs", str(jobs)]
            spec = {
                "config": str(inp.config),
                "argv": argv,
                "trace": traced,
                "spans": str(out / "spans.json"),
                "result": str(out / "result.json"),
            }
            op = f"{tag}/{inp.label}"
            self.attempted += 1
            res = self.launch(spec, out / "command.log")
            if res is None or res.get("exit_code") != 0:
                tail = (out / "command.log").read_text(encoding="utf-8", errors="replace")[-400:]
                self.fail(op, f"command failed: {tail.strip()}")
                res = None
            else:
                try:
                    problems, facts = self.w.check(inp, out)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems, facts = [f"outputs unreadable: {exc!r}"], {}
                if facts.get("error_records"):
                    problems.append(f"{facts['error_records']} error records in trials.jsonl")
                for p in problems:
                    self.fail(op, p)
                res.update(facts)
                res["sha256"] = {f: sha256_of(out / f) for f in self.w.digest_files}
                if traced:
                    res["layers"] = summarize_spans(out / "spans.json")
            invocations.append({"label": inp.label, **(res or {})})
        ok = [i for i in invocations if "wall_s" in i]
        for i in ok:
            i["setup_norm_s"] = i["setup_s"] * REF_PROBE_S / i["probe_setup_s"]
            i["wall_norm_s"] = i["wall_s"] * REF_PROBE_S / i["probe_command_s"]
            i["cpu_s"] = i["cpu_self_s"] + i["cpu_children_s"]
            i["cpu_norm_s"] = i["cpu_s"] * REF_PROBE_S / i["probe_command_s"]
        rnd = {
            "tag": tag,
            "inputs": k,
            "jobs": jobs,
            "traced": traced,
            "complete": len(ok) == len(invocations),
            "invocations": invocations,
            "peak_rss_mb": max((i["peak_rss_mb"] for i in ok), default=0.0),
            "cpu_children_s": sum(i["cpu_children_s"] for i in ok),
        }
        for key in ("wall_s", "wall_norm_s", "cpu_s", "cpu_norm_s"):
            rnd[key] = sum(i[key] for i in ok)
        return rnd

    def check_same_outputs(self, rounds: list[dict]) -> None:
        """Rounds on the same inputs must agree byte for byte."""
        first: dict[tuple[int, str], tuple[str, dict]] = {}
        for rnd in rounds:
            for inv in rnd["invocations"]:
                if "sha256" not in inv:
                    continue
                key = (rnd["inputs"], inv["label"])
                tag, digests = first.setdefault(key, (rnd["tag"], inv["sha256"]))
                if digests != inv["sha256"]:
                    self.fail(f"{rnd['tag']}/{inv['label']}", f"outputs differ from {tag}")


def summarize_spans(path: Path) -> dict:
    """Per span name: calls, inclusive and self seconds, rows, row-FLOPs."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    names, spans = doc["names"], doc["spans"]
    covered = [0.0] * len(spans)
    for name_idx, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict] = {}
    evaluate_ms = []
    for i, (name_idx, start, end, _, rows, flops) in enumerate(spans):
        name = names[name_idx]
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0, "row_flops": 0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - covered[i]
        agg["rows"] += rows
        agg["row_flops"] += rows * flops
        if name == "search.evaluate":
            evaluate_ms.append(1e3 * (end - start))
    out["search.evaluate"] = dict(out.get("search.evaluate", {}), durations_ms=evaluate_ms)
    return out


def merge_layers(invocations: list[dict]) -> dict:
    merged: dict[str, dict] = {}
    for inv in invocations:
        for name, agg in inv.get("layers", {}).items():
            into = merged.setdefault(name, {})
            for key, value in agg.items():
                into[key] = into.get(key, 0 if not isinstance(value, list) else []) + value
    return merged


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(rnd: dict, pool_round: dict) -> dict:
    """Per-layer metrics of one traced round (sums over its commands)."""
    lay = merge_layers(rnd["invocations"])

    def get(name, key="s"):
        return lay.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    invs = [i for i in rnd["invocations"] if "wall_s" in i]
    trials = sum(i.get("trials", 0) for i in invs)
    scored = get("proxies.ensemble", "calls")
    fwd_s = get("tensorcore.forward")
    m = {
        "tensorcore.forward_s": fwd_s,
        "tensorcore.forward_calls": get("tensorcore.forward", "calls"),
        "tensorcore.forward_rows": get("tensorcore.forward", "rows"),
        # Self time: the forward passes that backward runs are counted above.
        "tensorcore.backward_s": get("tensorcore.backward", "self_s"),
        "tensorcore.backward_calls": get("tensorcore.backward", "calls"),
        "tensorcore.backward_rows": get("tensorcore.backward", "rows"),
        "tensorcore.init_s": get("tensorcore.init"),
        # Computed: forward rows x costmodel.count_flops(graph) / forward time.
        "tensorcore.gflop_per_s": ratio(get("tensorcore.forward", "row_flops"), fwd_s) / 1e9,
        "proxies.snip_s": get("proxies.snip"),
        "proxies.naswot_s": get("proxies.naswot"),
        "proxies.zico_s": get("proxies.zico"),
        "proxies.meco_s": get("proxies.meco"),
        "proxies.ensemble_self_s": get("proxies.ensemble", "self_s"),
        "proxies.fwd_rows_per_candidate": ratio(get("tensorcore.forward", "rows"), scored),
        "proxies.bwd_rows_per_candidate": ratio(get("tensorcore.backward", "rows"), scored),
        "search.evaluate_ms_p50": percentile(get("search.evaluate", "durations_ms") or [], 0.5),
        "search.evaluate_ms_p90": percentile(get("search.evaluate", "durations_ms") or [], 0.9),
        "search.sort_s": get("search.sort") + get("search.crowding"),
        "search.pareto_s": get("search.pareto"),
        "search.feasible_ratio": ratio(sum(i.get("scored", 0) for i in invs), trials),
        "search.front_size": sum(i.get("front", 0) for i in invs),
        "search.log_bytes_per_trial": ratio(sum(i.get("log_bytes", 0) for i in invs), trials),
        # Pool workers' CPU over what `jobs` workers could have used.
        "search.pool_util": ratio(pool_round["cpu_children_s"], pool_round["jobs"] * pool_round["wall_s"]),
        "hvss.select_s": get("hvss.select"),
        "hvss.normalize_s": get("hvss.normalize"),
        "hvss.hv_calls": get("hvss.hv", "calls"),
        "hvss.hv_s": get("hvss.hv"),
        "hvss.hv_us_per_call": 1e6 * ratio(get("hvss.hv"), get("hvss.hv", "calls")),
        "hvss.hv_points_mean": ratio(get("hvss.hv", "rows"), get("hvss.hv", "calls")),
        "archspace.sample_s": get("archspace.sample"),
        "archspace.decode_s": get("archspace.decode"),
        "archspace.prune_s": get("archspace.prune"),
        "costmodel.estimate_s": get("costmodel.estimate"),
        "costmodel.check_s": get("costmodel.check"),
        "analysis.export_s": get("analysis.export"),
        "analysis.export_bytes": sum(i.get("export_bytes", 0) for i in invs),
        "cli.self_s": get("cli.main", "self_s"),
    }
    return m


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_workload(w, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    workdir = WORK / w.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    probe = machine_probe()
    runner = Runner(w, workdir, started)
    deadline = time.monotonic() + seconds
    inputs = []  # inputs[k] is the command list of round k, see workloads.py

    def inputs_of(k: int):
        while len(inputs) <= k:
            d = workdir / f"in{len(inputs)}"
            d.mkdir()
            inputs.append(w.prepare(seed, len(inputs), d))
        return inputs[k]

    setups, env = [], {}
    for i in range(SETUP_PROBES):
        res = runner.setup_probe(inputs_of(0)[0].config, i)
        if res is None:
            break
        setups.append(res)
        env.update(res.get("env", {}))

    def another(done_rounds: list[dict], longest: float) -> bool:
        """Start a first round, then more while they fit in --seconds."""
        if runner.failed_ops and not rounds:
            return False
        if not done_rounds:
            return True
        if not all(r["complete"] for r in rounds):
            return False
        return time.monotonic() + longest <= min(deadline, runner.hard_deadline)

    rounds: list[dict] = []
    longest = 0.0
    if not trace:
        # Each round runs fresh inputs, so the median spans more of them.
        while another(rounds, longest):
            t0 = time.monotonic()
            k = len(rounds)
            rounds.append(runner.run_round(f"r{k}", k, inputs_of(k), w.jobs, traced=False))
            longest = max(longest, time.monotonic() - t0)
            setups += [i for i in rounds[-1]["invocations"] if "setup_s" in i]
    else:
        # Untraced at the workload's own --jobs for pool use, then pairs of
        # untraced and traced rounds at --jobs 1 on the same inputs for the
        # overhead.  Outputs must not depend on jobs or tracing.
        if w.jobs > 1:
            rounds.append(runner.run_round("pool0", 0, inputs_of(0), w.jobs, traced=False))
        k = 0
        while another([r for r in rounds if r["traced"]], longest):
            t0 = time.monotonic()
            rounds.append(runner.run_round(f"ref{k}", k, inputs_of(k), 1, traced=False))
            rounds.append(runner.run_round(f"traced{k}", k, inputs_of(k), 1, traced=True))
            longest = max(longest, time.monotonic() - t0)
            k += 1
    if rounds:
        runner.check_same_outputs(rounds)

    done = [r for r in rounds if r["complete"]]
    doc = {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": dict(env, **fingerprint_host()),
        "machine_probe": probe,
        "rounds": rounds,
        "attempted": runner.attempted,
        "failed": len(runner.failed_ops),
        "problems": runner.problems,
        "sha256": {},
        "metrics": {},
        "computed": {},
    }
    if done:
        # Digests of the first inputs' outputs.
        first = done[0]["invocations"]
        for f in w.digest_files:
            doc["sha256"][f] = {i["label"]: i["sha256"][f] for i in first}
    if not trace and done and setups:
        stats = {
            "setup_s": spread([s["setup_norm_s"] for s in setups]),
            "wall_s": spread([r["wall_norm_s"] for r in done]),
            "cpu_s": spread([r["cpu_norm_s"] for r in done]),
            "peak_rss_mb": spread([r["peak_rss_mb"] for r in done]),
            "raw setup_s": spread([s["setup_s"] for s in setups]),
            "raw wall_s": spread([r["wall_s"] for r in done]),
            "raw cpu_s": spread([r["cpu_s"] for r in done]),
        }
        doc["stats"] = stats
        doc["metrics"] = {k: {"value": stats[k]["median"], "unit": u} for k, u in END_TO_END_UNITS.items()}
        doc["computed"] = computed_fields(w, done)
    traced = [r for r in done if r["traced"]]
    refs = [r for r in done if not r["traced"] and r["jobs"] == 1]
    if trace and traced and refs:
        pool_round = next((r for r in done if r["tag"] == "pool0"), refs[0])
        per_round = [layer_metrics(r, pool_round) for r in traced]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        traced_wall = statistics.median(r["wall_norm_s"] for r in traced)
        ref_wall = statistics.median(r["wall_norm_s"] for r in refs)
        values["trace.overhead_pct"] = 100.0 * (traced_wall / ref_wall - 1.0)
        doc["metrics"] = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        doc["layers"] = merge_layers(traced[0]["invocations"])
        doc["layers"]["search.evaluate"].pop("durations_ms", None)
    doc["correct"] = not runner.failed_ops and bool(doc["metrics"])
    return doc


def computed_fields(w, rounds: list[dict]) -> dict:
    """Derived figures, from speed-corrected wall times."""
    out = {"rounds": len(rounds)}
    if w.command == "explore":
        trials = sum(i["trials"] for i in rounds[0]["invocations"])
        scored = sum(i["scored"] for i in rounds[0]["invocations"])
        out["trials_per_s"] = statistics.median(trials / r["wall_norm_s"] for r in rounds)
        out["scored_per_s"] = statistics.median(scored / r["wall_norm_s"] for r in rounds)
    else:
        # Wall-time difference between the two generation caps, per generation.
        lo, hi = w.generation_caps[0], w.generation_caps[-1]
        walls = [{i["label"]: i["wall_norm_s"] for i in r["invocations"]} for r in rounds]
        per_gen = statistics.median((by[f"gens{hi}"] - by[f"gens{lo}"]) / (hi - lo) for by in walls)
        base = statistics.median(by[f"gens{lo}"] for by in walls) - lo * per_gen
        out["seconds_per_generation"] = per_gen
        # The GA stops no earlier than `stagnation` (500) generations.
        out["extrapolated_default_stop_s"] = base + 500 * per_gen
    return out


def report(doc: dict) -> None:
    print(f"== {doc['workload']}  seed={doc['seed']} seconds={doc['seconds']} trace={int(doc['trace'])}")
    print(f"   why: {doc['why']}")
    env = doc["env"]
    print("   env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("   machine probe: " + ", ".join(f"{k}={v:.4f}" for k, v in doc["machine_probe"].items()))
    for name, st in doc.get("stats", {}).items():
        unit = END_TO_END_UNITS[name.split()[-1]]
        print(f"   {name:<14} median {st['median']:.4f} {unit}  q1 {st['q1']:.4f}  q3 {st['q3']:.4f}  n={st['n']}")
    if doc["trace"]:
        for name, m in doc["metrics"].items():
            note = "  (computed)" if name in COMPUTED_METRICS else ""
            print(f"   {name:<34} {m['value']:.6g} {m['unit']}{note}")
        samples = doc.get("layers", {}).get("search.evaluate", {}).get("calls", 0)
        print(f"   search.evaluate_ms_p50/p90 over {samples} candidates")
    for name, value in doc["computed"].items():
        print(f"   computed {name}: {value}")
    print(f"   error_rate {doc['failed']}/{doc['attempted']} = {doc['failed'] / max(1, doc['attempted']):.4f}")
    for f, by in doc["sha256"].items():
        for label, digest in by.items():
            print(f"   sha256 {f} [{label}] {digest}")
    for p in doc["problems"]:
        print(f"   PROBLEM {p}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so launch() still kills the running command.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "protonas" / "cli.py").is_file():
        print(f"no protonas sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    docs = []
    for name in names:
        doc = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        (WORK / name / "result.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        report(doc)
        docs.append(doc)
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['workload']}/{k}": v for d in docs for k, v in d["metrics"].items()}
    print(json.dumps({
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
