"""Estimation of the exact values of complementary categorical features.

A complementary feature is observed only as a value it is *not*.  This
package estimates each instance's exact value by propagating per-feature
confidence distributions over a k-nearest-neighbor similarity graph
whose edge weights reconstruct every instance as a convex combination of
its neighbors, with a correction step that keeps the observed complement
at probability zero.  Baselines, evaluation metrics, a downstream
logistic-regression predictor, and a brute-force check of propagation
against dense joint confidences round out the toolbox.

Importing the package loads none of its modules.  Each public name is
looked up in its defining module on first use (PEP 562 ``__getattr__``),
which imports that module and its own imports, and is then bound here;
so ``compfeat.score_cf`` loads no graph code, and a command line process
loads only the modules its command runs (see :mod:`compfeat.cli`).
"""

import importlib

__version__ = "0.1.0"

# The defining module of each public name.
_MODULES = {
    "data": ("Column", "Dataset", "FeatureSchema", "load_csv", "load_schema", "save_schema",
             "split_train_test", "synthesize_cf", "write_csv"),
    "encoding": ("encode_of", "encode_with_confidence"),
    "graph": ("WeightGraph", "build_graph", "knn", "propagate_step", "solve_weights"),
    "metrics": ("CfScore", "aggregate_cf_scores", "macro_f1", "score_cf", "score_labels"),
    "predictor": ("LrModel", "assemble", "predict", "train"),
    "propagation": ("correct", "run_ipal", "run_proposed"),
    "result": ("EstimationResult", "init_marginal", "run_comp"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
