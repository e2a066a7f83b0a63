"""Deterministic run artifacts: CSV exports and the run summary.

All writers are idempotent (no timestamps, stable ordering) and floats
are serialized with Python's shortest round-trip repr, so re-exporting
the same run produces byte-identical files and parsing a value back
returns the exact double.  Each file is written whole to a temp file
beside it and renamed over it, so a failed or interrupted export leaves
the previous file as it was.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import astuple, fields
from pathlib import Path

from ..archspace.space import GROUP_COUNT
from ..costmodel.model import CostEstimate
from ..proxies.ensemble import PROXY_NAMES
from ..search.run import OBJECTIVE_LABELS, CandidateRecord, ParetoArchive
from .correlation import TauMatrix

# Gene columns in HyperparamVector.to_genes order, under short names.
GENE_COLUMNS = (
    ["architecture"]
    + [f"depth_{i}" for i in range(GROUP_COUNT)]
    + [f"ks_{i}" for i in range(GROUP_COUNT)]
    + ["width"]
    + [f"sparsity_{i}" for i in range(GROUP_COUNT)]
)
COST_COLUMNS = [f.name for f in fields(CostEstimate)]
OBJECTIVE_COLUMNS = [f"obj_{label}" for label in OBJECTIVE_LABELS]
PROXY_COLUMNS = list(PROXY_NAMES)

FRONT_COLUMNS = ["trial", "seed"] + GENE_COLUMNS + COST_COLUMNS + OBJECTIVE_COLUMNS + PROXY_COLUMNS


def _record_row(r: CandidateRecord) -> list:
    return [
        r.trial_index, r.seed, *r.genes.to_genes(), *astuple(r.costs), *r.objectives,
        *astuple(r.proxies),
    ]


@contextmanager
def _replacing(path):
    """Text stream to a temp file that replaces path when the block ends.

    If the block raises, path keeps its old content and the temp file
    is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header: list[str], rows) -> None:
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc: dict) -> None:
    """Sorted keys, two-space indent, trailing newline."""
    with _replacing(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_front_csv(path, records: list[CandidateRecord]) -> None:
    """One row per feasible scored record; header only when empty."""
    write_csv(path, FRONT_COLUMNS, [_record_row(r) for r in records])


def write_tau_csv(path, tau: TauMatrix) -> None:
    header = ["series"] + list(tau.labels)
    rows = [
        [label] + [float(v) for v in tau.values[i]] for i, label in enumerate(tau.labels)
    ]
    write_csv(path, header, rows)


def config_digest(echo: dict) -> str:
    return hashlib.sha256(
        json.dumps(echo, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def write_summary(path, echo: dict, archive: ParetoArchive) -> dict:
    """Run summary: config echo plus result counts; returns the document."""
    feasible = sum(1 for r in archive.records if r.feasibility.feasible)
    doc = {
        "config": echo,
        "config_hash": config_digest(echo),
        "counts": {
            "trials": len(archive.records),
            "feasible": feasible,
            "pareto": len(archive.pareto_indices),
        },
        "no_feasible_candidates": feasible == 0,
    }
    write_json(path, doc)
    return doc
