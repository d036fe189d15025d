"""The benchmark's workloads: generated inputs and the CLI commands run on them.

Every workload feeds the real entry point, ``python -m compfeat.cli``,
with CSVs cut from a table that the in-repo generator
``compfeat.oracle.make_bank_like`` produces.  The benchmark's ``--seed``
picks the rows; the CLI's own ``--seed`` list (the complement-synthesis
seeds) is part of the workload and never changes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

SCHEMA = "data.schema"
# Row samples per measuring run.  Quality metrics are means over the
# samples, so they move less from one benchmark seed to the next.
SAMPLES = 4

# Each workload samples its rows from one fixed generated table, sized
# like the bank-marketing table it stands in for.  A fresh table per
# seed would also redraw the CF and label functions, and label macro-F1
# would then vary across seeds by 15%.
TABLE_SEED = 0
TABLE_ROWS = 45211


@dataclass(frozen=True)
class Step:
    """One CLI command and the report files it writes into ``out``."""

    label: str
    argv: tuple[str, ...]
    reports: tuple[str, ...] = ()
    writes_estimates: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int                         # rows drawn from the table
    cli_seeds: tuple[int, ...]
    method: str                    # method whose estimate files the steps write
    steps: tuple[Step, ...]        # the timed command sequence; the first is "estimate"


def _pipeline(method: str, est_args: tuple[str, ...], modes: tuple[str, ...]) -> tuple[Step, ...]:
    steps = [
        Step("estimate", ("estimate", "--method", method) + est_args, writes_estimates=True),
        Step("evaluate", ("evaluate",), reports=("evaluation.json",)),
    ]
    steps += [
        Step(f"predict-{mode}", ("predict", "--method", method, "--mode", mode),
             reports=(f"prediction_{mode}.json",))
        for mode in modes
    ]
    return tuple(steps)


WORKLOADS = (
    Workload(
        name="estimate-bank",
        why="paper pipeline estimate-evaluate-predict(soft) on bank-like data; "
            "graph solve dominates and the round-1 graph repeats across the 3 seeds",
        n=400,
        cli_seeds=(0, 1, 2),
        method="proposed",
        steps=_pipeline("proposed", ("--k", "20", "--T", "100", "--gamma", "0.25"), ("soft",)),
    ),
    Workload(
        name="baseline-bank",
        why="comp baseline then predict ord/comp/soft/hard; no graph or propagation "
            "work, so LR training and CSV/JSON I/O dominate",
        n=5000,
        cli_seeds=(0, 1, 2),
        method="comp",
        steps=_pipeline("comp", (), ("ord", "comp", "soft", "hard")),
    ),
)

BY_NAME = {wl.name: wl for wl in WORKLOADS}


def data_file(sample: int) -> str:
    return f"data{sample}.csv"


def write_inputs(wl: Workload, seed: int, directory: str):
    """Write the schema and SAMPLES CSVs of ``wl.n`` rows each, drawn by ``seed`` from the table."""
    import numpy as np
    from compfeat import oracle
    from compfeat.data import save_schema, write_csv

    table, _ = oracle.make_bank_like(TABLE_ROWS, seed=TABLE_SEED)
    os.makedirs(directory, exist_ok=True)
    save_schema(table.schema, os.path.join(directory, SCHEMA))
    for sample in range(SAMPLES):
        rng = np.random.default_rng([seed, sample])
        rows = np.sort(rng.choice(table.n, size=wl.n, replace=False))
        write_csv(table.subset(rows), os.path.join(directory, data_file(sample)))


def common_args(wl: Workload, inputs: str, sample: int) -> tuple[str, ...]:
    return ("--data", os.path.join(inputs, data_file(sample)),
            "--schema", os.path.join(inputs, SCHEMA),
            "--seed", ",".join(str(s) for s in wl.cli_seeds), "--out", "out")


def quality(wl: Workload, out: str) -> dict[str, float]:
    """cf_acc and cf_ce (means over CFs) and soft-mode label macro-F1."""
    with open(os.path.join(out, "evaluation.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["scores"][wl.method]
    with open(os.path.join(out, "prediction_soft.json"), encoding="utf-8") as fh:
        f1 = json.load(fh)["macro_f1"]["mean"]
    return {
        "cf_acc": sum(r["acc"]["mean"] for r in rows) / len(rows),
        "cf_ce": sum(r["ce"]["mean"] for r in rows) / len(rows),
        "label_f1": f1,
    }
