import csv
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from protonas.cli import main


@pytest.fixture
def run_yaml(tmp_path):
    def make(out, **over):
        doc = {
            "task": {"input_shape": [3, 64], "num_classes": 5},
            "space": {"baseline_pool": ["mbednet1d", "inceptiontime"]},
            "search": {"trials": 10, "population_size": 5, "base_seed": 3},
            "proxy": {"batch_size": 2},
            "hss": {"k": 3, "population": 30, "generations": 40, "stagnation": 10},
            "output_dir": str(out),
        }
        for key, value in over.items():
            if isinstance(value, dict):
                doc.setdefault(key, {}).update(value)
            else:
                doc[key] = value
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(doc))
        return path

    return make


def test_print_defaults_is_valid_yaml(capsys, tmp_path):
    assert main(["print-defaults"]) == 0
    text = capsys.readouterr().out
    doc = yaml.safe_load(text)
    assert doc["search"]["trials"] == 500
    cfg = tmp_path / "defaults.yaml"
    cfg.write_text(text)
    assert main(["validate-config", "--config", str(cfg)]) == 0


def test_validate_config_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("search:\n  trials: -1\n")
    assert main(["validate-config", "--config", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["explore", "--jobs", "zero"]) == 1
    assert main(["explore", "--jobs", "0"]) == 1
    assert main(["select", "--k", "-2"]) == 1


def test_explore_select_report_pipeline(run_yaml, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_yaml(out)
    assert main(["explore", "--config", str(cfg)]) == 0
    assert (out / "trials.jsonl").exists()
    assert (out / "pareto.csv").exists()
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["counts"]["trials"] == 10
    assert summary["config"]["search"]["base_seed"] == 3

    assert main(["select", "--config", str(cfg)]) == 0
    with open(out / "selection.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    front_rows = len((out / "pareto.csv").read_text().splitlines()) - 1
    assert len(rows) - 1 == min(3, front_rows)
    sel = json.loads((out / "selection_summary.json").read_text())
    assert sel["k_selected"] == len(rows) - 1
    assert sel["hypervolume"] > 0

    assert main(["report", "--config", str(cfg)]) == 0
    with open(out / "tau.csv", newline="") as fh:
        tau_rows = list(csv.reader(fh))
    assert tau_rows[0] == ["series", "meco", "zico", "naswot", "snip", "flops"]
    capsys.readouterr()


def test_explore_is_idempotent(run_yaml, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_yaml(out)
    assert main(["explore", "--config", str(cfg)]) == 0
    first = (out / "trials.jsonl").read_bytes(), (out / "pareto.csv").read_bytes()
    assert main(["explore", "--config", str(cfg)]) == 0
    second = (out / "trials.jsonl").read_bytes(), (out / "pareto.csv").read_bytes()
    assert first == second
    capsys.readouterr()


def test_explore_empty_front_exits_two(run_yaml, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_yaml(
        out,
        profile={"name": "impossible", "ram_max": 1, "rom_max": 1, "flops_max": 1},
        search={"trials": 6, "population_size": 3},
    )
    assert main(["explore", "--config", str(cfg)]) == 2
    assert "front is empty" in capsys.readouterr().err
    assert (out / "trials.jsonl").exists()


def test_select_missing_and_empty_front(run_yaml, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_yaml(out)
    assert main(["select", "--config", str(cfg)]) == 1  # no pareto.csv yet
    out.mkdir(parents=True, exist_ok=True)
    empty = tmp_path / "empty.csv"
    empty.write_text("trial,obj_flops,obj_neg_meco\n")
    assert main(["select", "--config", str(cfg), "--pareto", str(empty)]) == 2
    capsys.readouterr()


def test_select_k_larger_than_front(run_yaml, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_yaml(out)
    main(["explore", "--config", str(cfg)])
    front_rows = len((out / "pareto.csv").read_text().splitlines()) - 1
    assert main(["select", "--config", str(cfg), "--k", str(front_rows + 5)]) == 0
    text = capsys.readouterr().out
    assert "keeping the whole front" in text
    with open(out / "selection.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == front_rows


def test_report_requires_enough_rows(run_yaml, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_yaml(out)
    out.mkdir(parents=True)
    (out / "trials.jsonl").write_text("")
    assert main(["report", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_report_with_accuracy_join(run_yaml, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_yaml(out)
    main(["explore", "--config", str(cfg)])
    acc = tmp_path / "acc.csv"
    lines = ["trial,accuracy"] + [f"{i},{0.5 + 0.01 * i}" for i in range(10)]
    acc.write_text("\n".join(lines) + "\n")
    assert main(["report", "--config", str(cfg), "--accuracy", str(acc)]) == 0
    with open(out / "tau.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header[-1] == "accuracy"
    doc = json.loads((out / "report_summary.json").read_text())
    assert "flops/accuracy" in doc["tau"] or "accuracy/flops" in doc["tau"]
    capsys.readouterr()


def test_seed_flag_overrides_config(run_yaml, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_yaml(out)
    assert main(["explore", "--config", str(cfg), "--seed", "99"]) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["config"]["search"]["base_seed"] == 99
    capsys.readouterr()


def test_env_seed_used_without_explicit_value(run_yaml, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg = run_yaml(out)
    doc = yaml.safe_load(cfg.read_text())
    del doc["search"]["base_seed"]
    cfg.write_text(yaml.safe_dump(doc))
    monkeypatch.setenv("PROTONAS_SEED", "41")
    assert main(["explore", "--config", str(cfg)]) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["config"]["search"]["base_seed"] == 41
    capsys.readouterr()


def test_jobs_flag_matches_serial_output(run_yaml, tmp_path, capsys):
    # the same run at --jobs 1 and 2, written to two directories: neither
    # the worker count nor the output directory may change a byte
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    cfg1 = run_yaml(out1)
    assert main(["explore", "--config", str(cfg1), "--jobs", "1"]) == 0
    cfg2 = run_yaml(out2)
    assert main(["explore", "--config", str(cfg2), "--jobs", "2"]) == 0
    for name in ("trials.jsonl", "pareto.csv", "run_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    capsys.readouterr()


def dies_once_in_a_worker(evaluate, trial, marker):
    """evaluate_candidate, except that the first pool worker to reach
    `trial` exits on the spot (and leaves `marker`, so it happens once)."""

    def hook(x, ctx, seed, trial_index=-1):
        if trial_index == trial and multiprocessing.parent_process() is not None:
            if not marker.exists():
                marker.touch()
                os._exit(1)
        return evaluate(x, ctx, seed, trial_index)

    return hook


def test_explore_survives_a_dead_pool_worker(run_yaml, tmp_path, capsys, monkeypatch):
    import protonas.search.run as run_mod

    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["explore", "--config", str(run_yaml(out1, search={"trials": 15})), "--jobs", "1"]) == 0
    marker = tmp_path / "died"
    monkeypatch.setattr(
        run_mod, "evaluate_candidate", dies_once_in_a_worker(run_mod.evaluate_candidate, 7, marker)
    )
    assert main(["explore", "--config", str(run_yaml(out2, search={"trials": 15})), "--jobs", "2"]) == 0
    assert marker.exists()
    for name in ("trials.jsonl", "pareto.csv", "run_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    capsys.readouterr()


def test_console_entry_point():
    # the subprocess does not see pytest's pythonpath setting: give it src
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "protonas.cli", "print-defaults"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert yaml.safe_load(proc.stdout)["hss"]["k"] == 5


GOOD_FRONT = ["trial,obj_flops,obj_neg_meco", "0,1.0,2.0", "1,2.0,1.0", "2,1.5,1.5"]


@pytest.mark.parametrize(
    "lines, where",
    [
        (GOOD_FRONT[:2] + ["1,2.0,low"] + GOOD_FRONT[3:], "row 2, column obj_neg_meco"),
        (GOOD_FRONT[:2] + ["1,,1.0"] + GOOD_FRONT[3:], "row 2, column obj_flops"),
        (GOOD_FRONT[:3] + ["2,nan,1.5"], "row 3, column obj_flops"),
        (GOOD_FRONT[:3] + ["2,1.5,inf"], "row 3, column obj_neg_meco"),
        (GOOD_FRONT[:2] + ["1,2.0"] + GOOD_FRONT[3:], "row 2: expected 3 cells as in the header, found 2"),
        (GOOD_FRONT[:3] + ["x,1.5,1.5"], "row 3, column trial"),
        (["id,obj_flops,obj_neg_meco", "0,1.0,2.0", "1,2.0,1.0"], "no trial column"),
    ],
)
def test_select_rejects_malformed_front_before_writing(run_yaml, tmp_path, capsys, lines, where):
    out = tmp_path / "out"
    cfg = run_yaml(out)
    front = tmp_path / "front.csv"
    front.write_text("\n".join(lines) + "\n")
    assert main(["select", "--config", str(cfg), "--pareto", str(front), "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert f"{front}: {where}" in err
    assert "Traceback" not in err
    assert not (out / "selection.csv").exists()
    assert not (out / "selection_summary.json").exists()


def _write_scored_trials(out, count):
    out.mkdir(parents=True)
    lines = [
        json.dumps({
            "trial": t,
            "feasible": True,
            "proxies": {"meco": t, "zico": -t, "naswot": t % 3, "snip": t * t},
            "costs": {"flops": 100 + t},
        })
        for t in range(count)
    ]
    (out / "trials.jsonl").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "lines, where",
    [
        (["trial,accuracy", "0,0.5", "one,0.6", "2,0.7"], "row 2, column trial"),
        (["trial,accuracy", "0,0.5", "1,high", "2,0.7"], "row 2, column accuracy"),
        (["trial,accuracy", "0,0.5", "1", "2,0.7"], "row 2: expected 2 cells"),
        (["trial,acc", "0,0.5", "1,0.6"], "no accuracy column"),
    ],
)
def test_report_rejects_malformed_accuracy_csv(run_yaml, tmp_path, capsys, lines, where):
    out = tmp_path / "out"
    cfg = run_yaml(out)
    _write_scored_trials(out, 4)
    acc = tmp_path / "acc.csv"
    acc.write_text("\n".join(lines) + "\n")
    assert main(["report", "--config", str(cfg), "--accuracy", str(acc)]) == 1
    err = capsys.readouterr().err
    assert f"{acc}: {where}" in err
    assert "Traceback" not in err
    assert not (out / "tau.csv").exists()
    # the same trials with a well-formed accuracy file are reported
    acc.write_text("trial,accuracy\n0,0.5\n1,0.6\n2,0.8\n3,0.7\n")
    assert main(["report", "--config", str(cfg), "--accuracy", str(acc)]) == 0
    capsys.readouterr()
