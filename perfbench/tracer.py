"""In-process tracing of one command sequence, from outside the program.

The tracer replaces the public functions of each layer, in the module
namespaces where ``compfeat`` looks them up, with wrappers that record
a span per call; the originals are restored afterwards.  Nothing in
``src/`` knows about it.  Spans nest, so a span's self time is its
duration minus that of its direct children, and the self times of all
spans add up to the traced wall time.

Counts and diagnostics (optimality gaps, gradient norms, file sizes)
are computed after the span they describe has closed, inside a
``trace.diag`` span, so their cost is charged to tracing and not to a
layer.  A function that a later version no longer has or calls, or
whose arguments a diagnostic no longer understands, simply yields zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name); the span name's prefix is the layer.
TARGETS = (
    ("compfeat.cli", "load_schema", "data.load_schema"),
    ("compfeat.cli", "load_csv", "data.load_csv"),
    ("compfeat.cli", "synthesize_cf", "data.synthesize_cf"),
    ("compfeat.cli", "split_train_test", "data.split_train_test"),
    ("compfeat.cli", "encode_of", "encoding.encode_of"),
    ("compfeat.predictor", "encode_of", "encoding.encode_of"),
    ("compfeat.propagation", "encode_with_confidence", "encoding.encode_with_confidence"),
    ("compfeat.propagation", "build_graph", "graph.build_graph"),
    ("compfeat.graph", "knn", "graph.knn"),
    ("compfeat.graph", "solve_weights", "graph.solve_weights"),
    ("compfeat.cli", "run_proposed", "propagation.run_proposed"),
    ("compfeat.cli", "run_comp", "propagation.run_comp"),
    ("compfeat.cli", "init_marginal", "propagation.init_marginal"),
    ("compfeat.predictor", "init_marginal", "propagation.init_marginal"),
    ("compfeat.propagation", "init_marginal", "propagation.init_marginal"),
    ("compfeat.propagation", "propagate_step", "propagation.propagate_step"),
    ("compfeat.propagation", "correct", "propagation.correct"),
    ("compfeat.propagation", "hard_from_blocks", "propagation.hard_from_blocks"),
    ("compfeat.cli", "score_cf", "metrics.score_cf"),
    ("compfeat.cli", "aggregate_cf_scores", "metrics.aggregate_cf_scores"),
    ("compfeat.cli", "format_cf_table", "metrics.format_cf_table"),
    ("compfeat.cli", "score_labels", "metrics.score_labels"),
    ("compfeat.cli", "assemble", "predictor.assemble"),
    ("compfeat.cli", "train", "predictor.train"),
    ("compfeat.cli", "predict", "predictor.predict"),
    ("compfeat.propagation:EstimationResult", "save", "cli.result_save"),
    ("compfeat.propagation:EstimationResult", "load", "cli.result_load"),
)

ROOT = "cli.main"
DIAG = "trace.diag"

# Per-layer time metric -> the spans whose self time it sums.
SELF_TIMES = {
    "data.load_csv_s": ("data.load_csv",),
    "data.self_s": ("data.load_schema", "data.synthesize_cf", "data.split_train_test"),
    "encoding.encode_s": ("encoding.encode_of", "encoding.encode_with_confidence"),
    "graph.knn_s": ("graph.knn",),
    "graph.solve_weights_s": ("graph.solve_weights",),
    "graph.self_s": ("graph.build_graph",),
    "propagation.self_s": ("propagation.run_proposed", "propagation.run_comp",
                           "propagation.init_marginal", "propagation.hard_from_blocks"),
    "propagation.step_s": ("propagation.propagate_step",),
    "propagation.correct_s": ("propagation.correct",),
    "metrics.score_s": ("metrics.score_cf", "metrics.aggregate_cf_scores",
                        "metrics.format_cf_table", "metrics.score_labels"),
    "predictor.assemble_s": ("predictor.assemble",),
    "predictor.train_s": ("predictor.train",),
    "predictor.predict_s": ("predictor.predict",),
    "cli.result_save_s": ("cli.result_save",),
    "cli.result_load_s": ("cli.result_load",),
    "cli.self_s": (ROOT,),
    "trace.diag_s": (DIAG,),
}

# Per-layer count metric -> the span whose calls it counts.
CALL_COUNTS = {
    "data.load_csv_calls": "data.load_csv",
    "graph.build_calls": "graph.build_graph",
    "propagation.steps": "propagation.propagate_step",
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request id]
        self.totals = defaultdict(float)
        self.maxima = defaultdict(float)
        self.request = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1,
                           self.request])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def wrap(self, fn, name: str):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                with self.span(DIAG):
                    try:
                        after(self, fn, out, args, kwargs)
                    except (AttributeError, KeyError, TypeError, ValueError):
                        pass  # a changed signature or type loses the diagnostic, not the run
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        saved = []
        try:
            for target, attr, name in TARGETS:
                module, _, cls = target.partition(":")
                owner = importlib.import_module(module)
                if cls:
                    owner = getattr(owner, cls)
                orig = vars(owner).get(attr)
                if orig is None:
                    continue
                if isinstance(orig, classmethod):
                    new = classmethod(self.wrap(orig.__func__, name))
                else:
                    new = self.wrap(orig, name)
                setattr(owner, attr, new)
                saved.append((owner, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            selfs[name] += end - start - inner
            calls[name] += 1
        return selfs, calls

    def metrics(self, traced_run_s: float, untraced_run_s: float) -> dict[str, float]:
        selfs, calls = self.self_times()
        out = {metric: sum(selfs.get(s, 0.0) for s in spans) for metric, spans in SELF_TIMES.items()}
        out.update({metric: calls.get(span, 0) for metric, span in CALL_COUNTS.items()})
        out.update({
            "graph.rows_solved": int(self.totals["rows_solved"]),
            "graph.dist_evals": int(self.totals["dist_evals"]),
            "graph.max_opt_gap": self.maxima["opt_gap"],
            "graph.degenerate_rows": int(self.totals["degenerate_rows"]),
            "propagation.madds": int(self.totals["madds"]),
            "predictor.train_iters": int(self.totals["train_iters"]),
            "predictor.grad_inf": self.maxima["grad_inf"],
            "cli.result_bytes": int(self.totals["result_bytes"]),
            "trace.run_s": traced_run_s,
            "trace.overhead_s": traced_run_s - untraced_run_s,
            "trace.unattributed_s": traced_run_s - sum(selfs.values()),
        })
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


# ---------------------------------------------------------------------------
# Counts and diagnostics, computed outside the span they describe.


def _after_knn(tr, fn, out, args, kwargs):
    tr.totals["dist_evals"] += out.shape[0] ** 2


def _after_solve_weights(tr, fn, out, args, kwargs):
    tr.totals["rows_solved"] += out.n


def _after_build_graph(tr, fn, graph, args, kwargs):
    from compfeat.graph import optimality_gap

    enc = args[0]
    tr.maxima["opt_gap"] = max(tr.maxima["opt_gap"], float(optimality_gap(enc, graph).max()))
    # A row is degenerate when all its neighbour vectors coincide, which
    # leaves the reconstruction objective flat on the simplex.
    nbv = enc.values[graph.neighbors]
    tr.totals["degenerate_rows"] += int((nbv.max(axis=1) == nbv.min(axis=1)).all(axis=1).sum())


def _after_propagate_step(tr, fn, out, args, kwargs):
    graph, blocks = args[0], args[1]
    tr.totals["madds"] += graph.n * graph.k * sum(b.u for b in blocks)


def _after_train(tr, fn, model, args, kwargs):
    from compfeat.predictor import loss_and_grad

    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    x = np.asarray(bound.arguments["x"], dtype=np.float64)
    y = np.asarray(bound.arguments["y"])
    targets = (y == y.max()).astype(np.float64)
    params = np.append(model.weights, model.bias)
    grad = loss_and_grad(params, x, targets, bound.arguments["l2"])[1]
    tr.totals["train_iters"] += len(model.trace) - 1
    tr.maxima["grad_inf"] = max(tr.maxima["grad_inf"], float(np.abs(grad).max()))


def _after_result_save(tr, fn, out, args, kwargs):
    tr.totals["result_bytes"] += os.path.getsize(args[1])


_AFTER = {
    "graph.knn": _after_knn,
    "graph.solve_weights": _after_solve_weights,
    "graph.build_graph": _after_build_graph,
    "propagation.propagate_step": _after_propagate_step,
    "predictor.train": _after_train,
    "cli.result_save": _after_result_save,
}
