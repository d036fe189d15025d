import numpy as np
import pytest

import compfeat
from compfeat.data import (STREAM_SPLIT, Column, FeatureSchema, seeded_order, split_train_test,
                           synthesize_cf)
from compfeat.encoding import encode_with_confidence, one_hot
from compfeat.errors import DataError, ShapeMismatchError
from compfeat.graph import (WeightGraph, build_graph, knn, optimality_gap, propagate_step,
                            solve_weights, stack_graphs)
from compfeat.metrics import macro_f1, score_labels
from compfeat.oracle import make_bank_like, make_smooth_synthetic, run_equivalence_suite
from compfeat.predictor import LrModel, assemble, predict, train
from compfeat.propagation import EstimationResult, correct, run_comp, run_ipal, run_proposed
from conftest import build_dataset


def test_every_exported_name_resolves():
    missing = [name for name in compfeat.__all__ if not hasattr(compfeat, name)]
    assert not missing
    assert len(set(compfeat.__all__)) == len(compfeat.__all__)


# Four instance vectors, their 2-NN graph, one CF of 3 codes with uniform
# confidences, and a model of two weights.
X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
NB = np.array([[1, 2], [0, 3], [0, 3], [1, 2]])
GRAPH = WeightGraph(neighbors=NB, weights=np.full((4, 2), 0.5))
CF = (Column("c", "categorical", "CF", ("a", "b", "c")),)
Q = np.full((4, 3), 1 / 3)
MODEL = LrModel(weights=np.zeros(2), bias=0.0, l2=0.0, trace=(0.0,))
RAGGED_X = [[0.0, 0.0], [1.0], [0.0, 1.0], [1.0, 1.0]]
TEXT_X = np.array([["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]])
RAGGED_Q = [[1 / 3] * 3, [0.5, 0.5], [1 / 3] * 3, [1 / 3] * 3]
TEXT_Q = np.full((4, 3), "0.5")
# 12 rows with one OF and the CF above, observed under seed 0.
DS = synthesize_cf(build_dataset(FeatureSchema((Column("x", "quantitative", "OF"), *CF,
                                                Column("y", "binary", "label", ("n", "p")))),
                                 12, seed=3), 0)


@pytest.mark.parametrize("call, error", [
    (lambda: knn(RAGGED_X, 2), ShapeMismatchError),
    (lambda: knn(TEXT_X, 2), DataError),
    (lambda: solve_weights(TEXT_X, NB), DataError),
    (lambda: optimality_gap(RAGGED_X, GRAPH), ShapeMismatchError),
    (lambda: WeightGraph(neighbors=NB, weights=[[0.5, 0.5], [1.0]] * 2), ShapeMismatchError),
    (lambda: WeightGraph(neighbors=NB, weights=np.full((4, 2), "0.5")), DataError),
    (lambda: encode_with_confidence(X, RAGGED_Q, CF, 0.5), ShapeMismatchError),
    (lambda: encode_with_confidence(X, np.full((4, 3), "x"), CF, 0.5), DataError),
    (lambda: encode_with_confidence(X[:, 0], Q, CF, 0.5), ShapeMismatchError),
    (lambda: propagate_step(GRAPH, RAGGED_Q), ShapeMismatchError),
    (lambda: propagate_step(GRAPH, TEXT_Q), DataError),
    (lambda: propagate_step(GRAPH, Q[:, 0]), ShapeMismatchError),
    (lambda: correct(RAGGED_Q, Q, (3,)), ShapeMismatchError),
    (lambda: correct(TEXT_Q, Q, (3,)), DataError),
    (lambda: score_labels(np.array([1, 2, 2, 1]), np.array([1.0, 2.0, 1.7, 1.0])), DataError),
    (lambda: score_labels(np.array([0, 3]), np.array([1, 2])), DataError),
    (lambda: macro_f1([[1], [1, 2]], [1, 2], 2), ShapeMismatchError),
    (lambda: macro_f1(np.array([1, 2, 1]), np.array([1, 2]), 2), ShapeMismatchError),
    (lambda: train(X, np.array([1.0, 1.7, 2.0, 2.2])), DataError),
    (lambda: train(X, np.array([1, 2, 1])), ShapeMismatchError),
    (lambda: predict(MODEL, np.ones((3, 3))), ShapeMismatchError),
    (lambda: predict(MODEL, TEXT_X), DataError),
    (lambda: predict(MODEL, np.array([[0.0, np.nan]])), DataError),
    (lambda: score_labels(np.array([np.nan, 0.9, 0.1]), np.array([1, 2, 2])), DataError),
    (lambda: score_labels(np.array([0.2, 0.9, 7.0]), np.array([1, 2, 2])), DataError),
    (lambda: DS.subset([99]), DataError),
    (lambda: DS.subset([-1]), DataError),
    (lambda: one_hot(np.array([[0, 1]]), (3, 3)), DataError),
    (lambda: one_hot(np.array([[1.0], [2.0]]), (3,)), DataError),
    (lambda: one_hot(np.array([1, 2]), (3,)), ShapeMismatchError),
], ids=["knn-ragged", "knn-text", "solve_weights-text", "optimality_gap-ragged",
        "weights-ragged", "weights-text", "encode_with_confidence-ragged",
        "encode_with_confidence-text", "encode_with_confidence-1d-base",
        "propagate_step-ragged", "propagate_step-text", "propagate_step-1d",
        "correct-ragged", "correct-text", "score_labels-float-truth",
        "score_labels-codes-0-and-3", "macro_f1-ragged", "macro_f1-lengths", "train-float-labels",
        "train-lengths", "predict-width", "predict-text", "predict-nan-design",
        "score_labels-nan-probability", "score_labels-probability-7", "subset-index-past-rows",
        "subset-index-negative", "one_hot-code-0", "one_hot-float-codes", "one_hot-1d-codes"])
def test_malformed_array_arguments_raise_typed_errors(call, error):
    """Every public function admits its arrays through the same checks: a
    ragged, text, float-code, out-of-range, wrong-ndim or mismatched
    argument raises its CompfeatError subclass, not a numpy error and not
    a silent result."""
    with pytest.raises(error):
        call()


SEEDS = {"1.5": 1.5, "-1": -1, "text": "a", "2**64": 2**64}
SEEDED = {"run_comp": run_comp, "synthesize_cf": synthesize_cf,
          "split_train_test": lambda ds, seed: split_train_test(ds, 0.5, seed)}
RESULT = dict(cf_names=("c",), confidences=Q, hard_estimates=np.ones((4, 1), dtype=np.int64),
              method="m", hyperparams={})


@pytest.mark.parametrize("call, error", [
    (lambda: knn(X, 2.5), DataError),
    (lambda: knn(X, "3"), DataError),
    (lambda: build_graph(X, True), DataError),
    (lambda: build_graph(X, np.nan), DataError),
    (lambda: run_proposed(DS, T=2.5, k=3, gamma=0.25), DataError),
    (lambda: run_proposed(DS, T=5, k=None, gamma=0.25), DataError),
    (lambda: run_proposed(DS, T=5, k=3, gamma="0.5"), DataError),
    (lambda: run_ipal(DS, T=5, k=3, alpha=None), DataError),
    (lambda: run_ipal(DS, T="5", k=3, alpha=0.5), DataError),
    *((lambda fn=fn, seed=seed: fn(DS, seed), DataError)
      for fn in SEEDED.values() for seed in SEEDS.values()),
    (lambda: split_train_test(DS, None, 0), DataError),
    (lambda: seeded_order(0, 2.5, STREAM_SPLIT), DataError),
    (lambda: train(X, np.array([1, 2, 1, 2]), l2=None), DataError),
    (lambda: train(X, np.array([1, 2, 1, 2]), l2="x"), DataError),
    (lambda: encode_with_confidence(X, Q, CF, None), DataError),
    (lambda: one_hot(np.array([[1], [2]]), (2.5,)), DataError),
    (lambda: EstimationResult(sizes=("x",), **RESULT), DataError),
    (lambda: EstimationResult(sizes=(3.7,), **RESULT), DataError),
    (lambda: macro_f1(np.array([1, 2]), np.array([1, 2]), 2.5), DataError),
    (lambda: macro_f1(np.array([1, 2]), np.array([1, 2]), "2"), DataError),
    (lambda: run_equivalence_suite(2.5), DataError),
    (lambda: stack_graphs([]), DataError),
    (lambda: correct(Q, Q, (2.5,)), ShapeMismatchError),
    (lambda: assemble(DS, None), DataError),
    (lambda: EstimationResult(sizes=(3,), **RESULT).block(-1), DataError),
    (lambda: EstimationResult(sizes=(3,), **RESULT).block(1), DataError),
    (lambda: make_bank_like(2.5, 0), DataError),
    (lambda: make_bank_like(10, -1), DataError),
    (lambda: make_bank_like(10, 1.5), DataError),
    (lambda: make_smooth_synthetic(10, [3], 2, -0.5, 0), DataError),
    (lambda: make_smooth_synthetic(10, [3.0], 2, 0.5, 0), DataError),
], ids=["knn-k-2.5", "knn-k-text", "build_graph-k-bool", "build_graph-k-nan",
        "run_proposed-T-2.5", "run_proposed-k-None", "run_proposed-gamma-text",
        "run_ipal-alpha-None", "run_ipal-T-text",
        *(f"{fn}-seed-{seed}" for fn in SEEDED for seed in SEEDS),
        "split_train_test-fraction-None", "seeded_order-n-2.5", "train-l2-None",
        "train-l2-text", "encode_with_confidence-gamma-None", "one_hot-size-2.5",
        "EstimationResult-size-text", "EstimationResult-size-3.7", "macro_f1-n_classes-2.5",
        "macro_f1-n_classes-text", "run_equivalence_suite-count-2.5", "stack_graphs-none",
        "correct-size-2.5", "assemble-mode-None", "block-index--1", "block-index-past-CFs",
        "make_bank_like-n-2.5", "make_bank_like-seed--1", "make_bank_like-seed-1.5",
        "make_smooth_synthetic-roughness--0.5", "make_smooth_synthetic-cardinality-3.0"])
def test_malformed_scalar_arguments_raise_typed_errors(call, error):
    """Every public function admits its counts, seeds and bounded reals
    through the same check: a float where an integer belongs, a bool,
    text, None, NaN, or a value outside its interval (a seed outside
    [0, 2**64) among them) raises its CompfeatError subclass, not a
    builtin error and not a silent result."""
    with pytest.raises(error):
        call()
