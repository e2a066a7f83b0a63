import csv
import math

import numpy as np
import pytest

from protonas.analysis import (
    FRONT_COLUMNS,
    RankSeries,
    config_digest,
    kendall_tau_b,
    tau_matrix,
    write_front_csv,
    write_summary,
    write_tau_csv,
)
from protonas.analysis.report import write_csv
from protonas.costmodel import TargetProfile
from protonas.errors import DegenerateSeries, DimensionMismatch
from protonas.proxies import ProxyBatchConfig
from protonas.search import SearchConfig, run_search


def tau_b_oracle(x, y):
    """Direct pair counting with tie correction."""
    n = len(x)
    conc = disc = tied_x = tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = int(x[i] > x[j]) - int(x[i] < x[j])
            b = int(y[i] > y[j]) - int(y[i] < y[j])
            if a == 0:
                tied_x += 1
            if b == 0:
                tied_y += 1
            if a * b > 0:
                conc += 1
            elif a * b < 0:
                disc += 1
    n0 = n * (n - 1) // 2
    return (conc - disc) / math.sqrt((n0 - tied_x) * (n0 - tied_y))


def test_tau_perfect_agreement_and_reversal():
    x = [3.0, 1.0, 4.0, 1.5, 9.0]
    assert kendall_tau_b(x, x) == 1.0
    assert kendall_tau_b(x, [-v for v in x]) == -1.0


def test_tau_single_swap():
    # one discordant pair among ten: (9 - 1) / 10
    x = [1, 2, 3, 4, 5]
    y = [2, 1, 3, 4, 5]
    assert math.isclose(kendall_tau_b(x, y), 0.8, rel_tol=1e-12)


def test_tau_tie_correction_hand_case():
    # C=5 D=0, one tied pair in x: 5 / sqrt(5 * 6)
    x = [1.0, 2.0, 2.0, 3.0]
    y = [1.0, 2.0, 3.0, 4.0]
    assert math.isclose(kendall_tau_b(x, y), 5.0 / math.sqrt(30.0), rel_tol=1e-12)


def test_tau_matches_pair_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(2, 30))
        # integer draws produce plenty of ties
        x = rng.integers(0, 6, n).astype(float)
        y = rng.integers(0, 6, n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert math.isclose(kendall_tau_b(x, y), tau_b_oracle(x, y), rel_tol=1e-12)


def test_tau_degenerate_and_mismatch():
    with pytest.raises(DegenerateSeries):
        kendall_tau_b([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateSeries):
        kendall_tau_b([1.0], [2.0])
    with pytest.raises(DimensionMismatch):
        kendall_tau_b([1.0, 2.0], [1.0, 2.0, 3.0])


def test_tau_matrix_shape_and_symmetry():
    rng = np.random.default_rng(1)
    series = [RankSeries(f"s{i}", rng.standard_normal(12)) for i in range(4)]
    tau = tau_matrix(series)
    assert tau.labels == ("s0", "s1", "s2", "s3")
    assert np.allclose(tau.values, tau.values.T)
    assert np.array_equal(np.diag(tau.values), np.ones(4))
    assert np.abs(tau.values).max() <= 1.0
    with pytest.raises(DimensionMismatch):
        tau_matrix(series[:1])
    with pytest.raises(DimensionMismatch):
        tau_matrix([series[0], RankSeries("short", [1.0, 2.0])])


def test_config_digest_stable_and_order_free():
    a = config_digest({"x": 1, "y": [1, 2]})
    b = config_digest({"y": [1, 2], "x": 1})
    assert a == b
    assert a != config_digest({"x": 2, "y": [1, 2]})


@pytest.fixture(scope="module")
def tiny_archive(request):
    from protonas.archspace import SearchSpaceDef, TaskSpec, load_templates

    space = SearchSpaceDef(baseline_pool=("mbednet1d", "inceptiontime"))
    task = TaskSpec(input_shape=(3, 64), num_classes=5)
    cfg = SearchConfig(
        space=space,
        task=task,
        profile=TargetProfile(),
        proxy=ProxyBatchConfig(batch_size=2),
        trials=10,
        population_size=5,
        base_seed=2,
    )
    return run_search(cfg, templates=load_templates())


def test_front_csv_roundtrip(tiny_archive, tmp_path):
    path = tmp_path / "front.csv"
    write_front_csv(path, tiny_archive.pareto_records())
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == FRONT_COLUMNS
    assert len(rows) - 1 == len(tiny_archive.pareto_indices)
    # repr floats survive the round trip exactly
    for row, rec in zip(rows[1:], tiny_archive.pareto_records()):
        got = dict(zip(rows[0], row))
        assert float(got["width"]) == rec.genes.width_multiplier
        assert int(got["flops"]) == rec.costs.flops
        assert float(got["obj_neg_meco"]) == rec.objectives[1]


def test_exports_are_idempotent(tiny_archive, tmp_path):
    series = [
        RankSeries("a", [r.proxies.meco for r in tiny_archive.pareto_records()]),
        RankSeries("b", [r.proxies.zico for r in tiny_archive.pareto_records()]),
    ]
    tau = tau_matrix(series)
    written = []
    for out in (tmp_path / "one", tmp_path / "two"):
        out.mkdir()
        write_front_csv(out / "pareto.csv", tiny_archive.pareto_records())
        write_tau_csv(out / "tau.csv", tau)
        write_summary(out / "run_summary.json", {"trials": 10}, tiny_archive)
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert set(written[0]) == {"pareto.csv", "tau.csv", "run_summary.json"}
    assert written[0] == written[1]


def test_failed_export_keeps_previous_file(tiny_archive, tmp_path):
    summary = tmp_path / "run_summary.json"
    front = tmp_path / "pareto.csv"
    write_summary(summary, {"trials": 10}, tiny_archive)
    write_front_csv(front, tiny_archive.pareto_records())
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def rows_then_failure():
        yield [1] * len(FRONT_COLUMNS)
        raise RuntimeError("export interrupted")

    # an echo that cannot be serialized fails the summary; the CSV
    # generator fails after its first row is written
    with pytest.raises(TypeError):
        write_summary(summary, {"trials": 10, "zz": object()}, tiny_archive)
    with pytest.raises(RuntimeError):
        write_csv(front, FRONT_COLUMNS, rows_then_failure())
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_tau_csv_layout(tmp_path):
    series = [RankSeries("p", [1.0, 2.0, 3.0]), RankSeries("q", [3.0, 2.0, 1.0])]
    path = tmp_path / "tau.csv"
    write_tau_csv(path, tau_matrix(series))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["series", "p", "q"]
    assert rows[1][0] == "p" and float(rows[1][1]) == 1.0
    assert float(rows[1][2]) == -1.0
