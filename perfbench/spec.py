"""Metric and workload declarations of the benchmark.

This module is the single source of ``BENCHMARK.json``: run it as a
script from the repository root to rewrite that file, and the
benchmark's tests check that the committed file matches.

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
import os

from workloads import WORKLOADS

RUN_SECONDS = 30

# name, unit, better, bound (the share of the parent's median by which a
# change may worsen the metric).  Timings get the widest bound allowed:
# on a shared 2-CPU host, run medians drift by up to 40% over minutes.
# Quality bounds cover the spread over benchmark seeds of a mean over
# four row samples (label macro-F1: 4% between quartiles).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("estimate_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("cf_acc", "1", "higher", 0.1),
    ("cf_ce", "nats", "lower", 0.2),
    ("label_f1", "1", "higher", 0.2),
    ("ok_frac", "1", "higher", 0.01),
)

# name, unit, better.  Filled by the traced run (see tracer.py).
PER_LAYER = (
    ("data.load_csv_s", "s", "lower"),
    ("data.load_csv_calls", "count", "lower"),
    ("data.self_s", "s", "lower"),
    ("encoding.encode_s", "s", "lower"),
    ("graph.build_calls", "count", "lower"),
    ("graph.knn_s", "s", "lower"),
    ("graph.solve_weights_s", "s", "lower"),
    ("graph.self_s", "s", "lower"),
    ("graph.rows_solved", "count", "lower"),
    ("graph.dist_evals", "count", "lower"),
    ("graph.max_opt_gap", "1", "lower"),
    ("graph.degenerate_rows", "count", "lower"),
    ("propagation.self_s", "s", "lower"),
    ("propagation.step_s", "s", "lower"),
    ("propagation.steps", "count", "lower"),
    ("propagation.correct_s", "s", "lower"),
    ("propagation.madds", "count", "lower"),
    ("metrics.score_s", "s", "lower"),
    ("predictor.assemble_s", "s", "lower"),
    ("predictor.train_s", "s", "lower"),
    ("predictor.train_iters", "count", "lower"),
    ("predictor.grad_inf", "1", "lower"),
    ("predictor.predict_s", "s", "lower"),
    ("cli.result_save_s", "s", "lower"),
    ("cli.result_load_s", "s", "lower"),
    ("cli.result_bytes", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.diag_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BETTER = {name: better for name, _, better, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": wl.name, "why": wl.why} for wl in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        fh.write(render())
