import numpy as np
import pytest

import compfeat
from compfeat.data import Column
from compfeat.encoding import encode_with_confidence
from compfeat.errors import DataError, ShapeMismatchError
from compfeat.graph import WeightGraph, knn, optimality_gap, propagate_step, solve_weights
from compfeat.metrics import macro_f1, score_labels
from compfeat.predictor import LrModel, predict, train
from compfeat.propagation import correct


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
], ids=["knn-ragged", "knn-text", "solve_weights-text", "optimality_gap-ragged",
        "weights-ragged", "weights-text", "encode_with_confidence-ragged",
        "encode_with_confidence-text", "encode_with_confidence-1d-base",
        "propagate_step-ragged", "propagate_step-text", "propagate_step-1d",
        "correct-ragged", "correct-text", "score_labels-float-truth",
        "score_labels-codes-0-and-3", "macro_f1-ragged", "macro_f1-lengths", "train-float-labels",
        "train-lengths", "predict-width", "predict-text"])
def test_malformed_array_arguments_raise_typed_errors(call, error):
    """Every public function admits its arrays through the same checks: a
    ragged, text, float-code, out-of-range, wrong-ndim or mismatched
    argument raises its CompfeatError subclass, not a numpy error and not
    a silent result."""
    with pytest.raises(error):
        call()
