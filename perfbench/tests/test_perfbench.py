"""The benchmark's own tests: spec file, tiny smoke runs, and the output checker.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import os
import resource
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spec
import workloads
from conftest import ROOT, SRC

TINY_N = 60


def tiny(wl):
    return dataclasses.replace(wl, n=TINY_N)


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert fh.read() == spec.render()


@pytest.mark.parametrize("wl", workloads.WORKLOADS, ids=lambda wl: wl.name)
def test_smoke_untraced(wl, tmp_path):
    record = run.run_workload(tiny(wl), seed=3, seconds=0, trace=0, src=SRC, work=str(tmp_path))
    assert record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] > 0
    assert len(record["samples"]["reps"]) == run.MIN_REPS
    metrics = record["metrics"]
    assert set(metrics) == {name for name, *_ in spec.END_TO_END}
    assert all(math.isfinite(v) and v != 0 for v in metrics.values())
    assert metrics["ok_frac"] == 1.0


@pytest.mark.parametrize("wl", workloads.WORKLOADS, ids=lambda wl: wl.name)
def test_smoke_traced(wl, tmp_path):
    record = run.run_workload(tiny(wl), seed=3, seconds=0, trace=1, src=SRC, work=str(tmp_path))
    assert record["problems"] == []
    metrics = record["metrics"]
    assert set(metrics) == {name for name, *_ in spec.PER_LAYER}
    assert all(math.isfinite(v) for v in metrics.values())
    # Self times, tracing diagnostics and glue add up to the traced wall time.
    timed = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace."))
    assert timed + metrics["trace.diag_s"] + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.run_s"], rel=1e-9)
    assert -1e-9 < metrics["trace.unattributed_s"] < 0.1 * metrics["trace.run_s"]


def test_tracer_restores_originals(tmp_path):
    import compfeat.cli
    import compfeat.graph
    from compfeat.propagation import EstimationResult

    before = (compfeat.cli.load_csv, compfeat.graph.knn, EstimationResult.__dict__["load"])
    run.run_workload(tiny(workloads.BY_NAME["estimate-bank"]), seed=0, seconds=0, trace=1,
                     src=SRC, work=str(tmp_path))
    assert (compfeat.cli.load_csv, compfeat.graph.knn, EstimationResult.__dict__["load"]) == before


@pytest.fixture(scope="module")
def estimated(tmp_path_factory):
    """One sequence of a tiny estimate-bank run, outputs kept on disk."""
    work = str(tmp_path_factory.mktemp("estimate"))
    wl = tiny(workloads.BY_NAME["estimate-bank"])
    bench = run.Run(wl, SRC, work)
    workloads.write_inputs(wl, 0, bench.inputs)
    bench.setup(1)
    bench.sequence(os.path.join(work, "rep"), 0)
    assert bench.failed == 0
    return bench, os.path.join(work, "rep", "out")


def _corrupt(doc, how, observed):
    """Break one property of CF 0, row 0 of an estimate document."""
    name = doc["cf_names"][0]
    row = doc["confidences"][name][0]
    top = int(np.argmax(row))
    if how == "not-stochastic":
        row[top] += 1e-6
    elif how == "observed-nonzero":
        eps = 1e-3 * row[top]
        row[top] -= eps
        row[observed[name][0] - 1] += eps
    else:
        doc["hard_estimates"][0][0] = 1 if top != 0 else 2


@pytest.mark.parametrize("how, message", [
    ("not-stochastic", "not stochastic"),
    ("observed-nonzero", "observed value"),
    ("hard-not-argmax", "argmax"),
    ("truncated", "unreadable"),
])
def test_corrupted_estimate_counts_as_failed(estimated, how, message, tmp_path):
    bench, out = estimated
    step = bench.wl.steps[0]
    shutil.copytree(out, tmp_path / "out")
    path = tmp_path / "out" / "estimate_proposed_seed0.json"
    if how == "truncated":
        path.write_bytes(path.read_bytes()[:1000])
    else:
        doc = json.loads(path.read_text())
        _corrupt(doc, how, bench.observed[0][0])
        path.write_text(json.dumps(doc))

    assert bench.check_step(step, out, 0) == []
    problems = bench.check_step(step, str(tmp_path / "out"), 0)
    assert any(message in p for p in problems), problems
    failed = bench.failed
    bench.record(step.label, 0, problems)
    assert bench.failed == failed + 1


def test_changed_report_hash_counts_as_failed(estimated, tmp_path):
    bench, out = estimated
    step = bench.wl.steps[1]
    assert bench.check_step(step, out, 0) == []
    with open(os.path.join(out, "evaluation.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["content_hash"] = "0" * 64
    (tmp_path / "evaluation.json").write_text(json.dumps(doc))
    problems = bench.check_step(step, str(tmp_path), 0)
    assert any("content_hash differs" in p for p in problems), problems


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "estimate-bank",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_command_past_the_run_limit_is_killed(tmp_path):
    wl = tiny(workloads.BY_NAME["estimate-bank"])
    bench = run.Run(wl, SRC, str(tmp_path))
    workloads.write_inputs(wl, 0, bench.inputs)
    bench.kill_at = run.perf_counter()
    cwd = run.fresh_dir(str(tmp_path / "rep"))
    _, code, *_ = bench.run_cli(bench.argv(wl.steps[0], 0), cwd)
    assert code != 0


def test_peak_rss_is_the_commands_own(tmp_path):
    """A command's peak RSS must not include the benchmark process's own size."""
    ballast = np.ones(100 * 2**20 // 8)   # 100 MB, written, so resident
    bench = run.Run(tiny(workloads.BY_NAME["estimate-bank"]), SRC, str(tmp_path))
    _, code, rss, cpu = bench.run_cli(["--help"], run.fresh_dir(str(tmp_path / "rep")))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert code == 0 and cpu > 0
    assert 0 < rss < own - ballast.nbytes / 2**20 / 2
