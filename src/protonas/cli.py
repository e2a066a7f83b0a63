"""Command-line interface.

Subcommands:
    explore          run the constrained multi-objective search
    select           pick k representatives from a Pareto-front CSV
    report           rank-correlation report over a finished run
    print-defaults   dump the built-in configuration as YAML
    validate-config  parse and check a config file

Exit codes: 0 success, 1 usage or configuration error, 2 empty result
(no feasible candidates, empty front, or nothing to correlate).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

from .analysis.correlation import RankSeries, tau_matrix
from .analysis.report import write_csv, write_front_csv, write_json, write_summary, write_tau_csv
from .archspace.templates import load_templates
from .config import RunConfig, default_config_yaml, load_config
from .errors import ConfigError, DegenerateSeries, InfeasibleK, ProtonasError
from .hvss.subset import default_reference, normalize_objectives, select_subset, subset_hypervolume
from .search.run import run_search

OK = 0
USAGE_ERROR = 1
EMPTY_RESULT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this interface reserves 2
    # for empty results, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with_usage(message))

    def exit_with_usage(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return USAGE_ERROR


def _build_parser() -> _Parser:
    parser = _Parser(prog="protonas", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True, jobs=False, k=False):
        p.add_argument("--config", type=Path, default=None, help="YAML run configuration")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the base seed")
        if jobs:
            p.add_argument("--jobs", type=int, default=None, help="parallel evaluation workers")
        if k:
            p.add_argument("--k", type=int, default=None, help="subset size")

    p = sub.add_parser("explore", help="run the search and export the front")
    add_common(p, jobs=True)

    p = sub.add_parser("select", help="hypervolume subset selection over a front CSV")
    add_common(p, k=True)
    p.add_argument("--pareto", type=Path, default=None, help="front CSV (default: OUT/pareto.csv)")

    p = sub.add_parser("report", help="proxy rank-correlation report for a run")
    add_common(p, seed=False)
    p.add_argument(
        "--accuracy",
        type=Path,
        default=None,
        help="optional CSV with columns trial,accuracy to correlate against",
    )

    sub.add_parser("print-defaults", help="print the default configuration")

    p = sub.add_parser("validate-config", help="check a configuration file")
    p.add_argument("--config", type=Path, required=True)
    return parser


def _resolve(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "out", None) is not None:
        cfg.output_dir = str(args.out)
    if getattr(args, "jobs", None) is not None:
        if args.jobs < 1:
            raise ConfigError("jobs: expected a positive integer")
        cfg.jobs = args.jobs
    if getattr(args, "k", None) is not None:
        if args.k < 1:
            raise ConfigError("k: must be >= 1")
        cfg.k = args.k
    return cfg


def cmd_explore(args) -> int:
    cfg = _resolve(load_config(args.config, seed_flag=args.seed), args)
    templates = load_templates(cfg.templates_path)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    archive = run_search(
        cfg.search, jobs=cfg.jobs, log_path=out / "trials.jsonl", templates=templates
    )
    write_front_csv(out / "pareto.csv", archive.pareto_records())
    write_summary(out / "run_summary.json", cfg.echo(), archive)
    feasible = sum(1 for r in archive.records if r.feasibility.feasible)
    print(
        f"explored {len(archive.records)} candidates: {feasible} feasible, "
        f"front size {len(archive.pareto_indices)} -> {out}"
    )
    if not archive.pareto_indices:
        print("no feasible candidates; front is empty", file=sys.stderr)
        return EMPTY_RESULT
    return OK


def _read_front_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: empty file, expected a front CSV header")
    return rows[0], rows[1:]


def cmd_select(args) -> int:
    cfg = _resolve(load_config(args.config, seed_flag=args.seed), args)
    if args.seed is not None:
        cfg.hss.seed = args.seed
    out = Path(cfg.output_dir)
    front_path = args.pareto if args.pareto is not None else out / "pareto.csv"
    header, rows = _read_front_csv(front_path)
    obj_cols = [c for c in header if c.startswith("obj_")]
    if not obj_cols:
        raise ConfigError(f"{front_path}: no obj_* columns found")
    if not rows:
        print("front is empty; nothing to select", file=sys.stderr)
        return EMPTY_RESULT
    idx = [header.index(c) for c in obj_cols]
    points = [[float(row[i]) for i in idx] for row in rows]

    k = min(cfg.k, len(points))
    note = None
    if cfg.k >= len(points):
        note = f"k={cfg.k} >= front size {len(points)}; keeping the whole front"
    normalized = normalize_objectives(points)
    ref = default_reference(normalized.shape[1])
    try:
        chosen = select_subset(normalized, k, cfg.hss, ref)
    except InfeasibleK as exc:
        raise ConfigError(str(exc)) from exc
    out.mkdir(parents=True, exist_ok=True)
    sel_path = out / "selection.csv"
    write_csv(sel_path, header, [rows[i] for i in chosen])
    summary = {
        "front_size": len(points),
        "k_requested": cfg.k,
        "k_selected": len(chosen),
        "selected_trials": [int(float(rows[i][header.index("trial")])) for i in chosen],
        "hypervolume": subset_hypervolume(normalized, chosen, ref),
        "reference": list(ref),
    }
    if note is not None:
        summary["note"] = note
        print(note)
    write_json(out / "selection_summary.json", summary)
    print(f"selected {len(chosen)} of {len(points)} front members -> {sel_path}")
    return OK


def _load_trials(path: Path) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid trial log ({exc})") from exc


def cmd_report(args) -> int:
    cfg = _resolve(load_config(args.config), args)
    out = Path(cfg.output_dir)
    trials = _load_trials(out / "trials.jsonl")
    scored = [t for t in trials if t.get("feasible") and t.get("proxies")]
    if len(scored) < 2:
        print("fewer than two scored candidates; nothing to correlate", file=sys.stderr)
        return EMPTY_RESULT
    acc = None
    if args.accuracy is not None:
        header, rows = _read_front_csv(args.accuracy)
        if "trial" not in header or "accuracy" not in header:
            raise ConfigError(f"{args.accuracy}: expected columns trial,accuracy")
        acc = {
            int(float(r[header.index("trial")])): float(r[header.index("accuracy")])
            for r in rows
        }
        joined = [t for t in scored if t["trial"] in acc]
        if len(joined) < 2:
            print("fewer than two trials with accuracy; nothing to correlate", file=sys.stderr)
            return EMPTY_RESULT
        scored = joined
    series = [
        RankSeries("meco", [t["proxies"]["meco"] for t in scored]),
        RankSeries("zico", [t["proxies"]["zico"] for t in scored]),
        RankSeries("naswot", [t["proxies"]["naswot"] for t in scored]),
        RankSeries("snip", [t["proxies"]["snip"] for t in scored]),
        RankSeries("flops", [t["costs"]["flops"] for t in scored]),
    ]
    if acc is not None:
        series.append(RankSeries("accuracy", [acc[t["trial"]] for t in scored]))
    try:
        tau = tau_matrix(series)
    except DegenerateSeries as exc:
        print(f"rank correlation undefined: {exc}", file=sys.stderr)
        return EMPTY_RESULT
    write_tau_csv(out / "tau.csv", tau)
    doc = {
        "observations": len(scored),
        "series": list(tau.labels),
        "tau": {
            f"{a}/{b}": float(tau.values[i, j])
            for i, a in enumerate(tau.labels)
            for j, b in enumerate(tau.labels)
            if i < j
        },
    }
    write_json(out / "report_summary.json", doc)
    print(f"correlated {len(scored)} candidates over {len(tau.labels)} series -> {out / 'tau.csv'}")
    return OK


def cmd_print_defaults(_args) -> int:
    print(default_config_yaml(), end="")
    return OK


def cmd_validate_config(args) -> int:
    cfg = load_config(args.config)
    print(f"{args.config}: ok ({cfg.search.trials} trials, k={cfg.k})")
    return OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    handlers = {
        "explore": cmd_explore,
        "select": cmd_select,
        "report": cmd_report,
        "print-defaults": cmd_print_defaults,
        "validate-config": cmd_validate_config,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ProtonasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
