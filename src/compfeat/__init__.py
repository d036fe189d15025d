"""Estimation of the exact values of complementary categorical features.

A complementary feature is observed only as a value it is *not*.  This
package estimates each instance's exact value by propagating per-feature
confidence distributions over a k-nearest-neighbor similarity graph
whose edge weights reconstruct every instance as a convex combination of
its neighbors, with a correction step that keeps the observed complement
at probability zero.  Baselines, evaluation metrics, a downstream
logistic-regression predictor, and brute-force reference checks round
out the toolbox.
"""

from .data import (
    Column,
    Dataset,
    FeatureSchema,
    load_csv,
    load_schema,
    save_schema,
    split_train_test,
    synthesize_cf,
    write_csv,
)
from .encoding import encode_of, encode_with_confidence
from .graph import WeightGraph, build_graph, knn, solve_weights
from .metrics import CfScore, aggregate_cf_scores, macro_f1, score_cf, score_labels
from .predictor import LrModel, assemble, predict, train
from .propagation import (
    EstimationResult,
    correct,
    init_marginal,
    propagate_step,
    run_comp,
    run_ipal,
    run_proposed,
)

__version__ = "0.1.0"

__all__ = [
    "Column",
    "CfScore",
    "Dataset",
    "EstimationResult",
    "FeatureSchema",
    "LrModel",
    "WeightGraph",
    "aggregate_cf_scores",
    "assemble",
    "build_graph",
    "correct",
    "encode_of",
    "encode_with_confidence",
    "init_marginal",
    "knn",
    "load_csv",
    "load_schema",
    "macro_f1",
    "predict",
    "propagate_step",
    "run_comp",
    "run_ipal",
    "run_proposed",
    "save_schema",
    "score_cf",
    "score_labels",
    "solve_weights",
    "split_train_test",
    "synthesize_cf",
    "train",
    "write_csv",
]
