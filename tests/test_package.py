import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compfeat
from compfeat.cli import ExperimentConfig
from compfeat.data import (STREAM_SPLIT, Column, Dataset, FeatureSchema, seeded_order,
                           split_train_test, synthesize_cf)
from compfeat.encoding import encode_with_confidence, one_hot
from compfeat.errors import DataError, ShapeMismatchError
from compfeat.graph import (WeightGraph, build_graph, knn, optimality_gap, propagate_step,
                            solve_weights, stack_graphs)
from compfeat.metrics import CfScore, aggregate_cf_scores, format_cf_table, macro_f1, score_labels
from compfeat.oracle import make_bank_like, make_smooth_synthetic, run_equivalence_suite
from compfeat.predictor import LrModel, assemble, predict, train
from compfeat.propagation import EstimationResult, correct, run_ipal, run_proposed
from compfeat.result import run_comp
from conftest import build_dataset


def test_every_exported_name_resolves():
    missing = [name for name in compfeat.__all__ if not hasattr(compfeat, name)]
    assert not missing
    assert len(set(compfeat.__all__)) == len(compfeat.__all__)


def defined_where_found(obj, name: str) -> bool:
    """Whether ``obj`` is what its defining module binds to ``name``."""
    return getattr(importlib.import_module(obj.__module__), name, None) is obj


def test_importing_the_package_loads_no_module():
    code = ("import sys, compfeat\n"
            "assert not [m for m in sys.modules if m.startswith('compfeat.')], sys.modules\n")
    src = str(Path(compfeat.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_lazy_names_are_their_defining_modules_objects():
    """Each public name resolves, on first use, to the object its defining
    module binds; ``dir`` lists them and a star import binds them all."""
    for name in compfeat.__all__:
        obj = getattr(compfeat, name)
        assert obj.__module__.startswith("compfeat.") and defined_where_found(obj, name), name
    assert set(compfeat.__all__) <= set(dir(compfeat))
    namespace = {}
    exec("from compfeat import *", namespace)
    assert all(namespace[name] is getattr(compfeat, name) for name in compfeat.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        compfeat.no_such_name


# The tracer targets that the package no longer binds: the CLI calls none
# of these functions itself.
ABSENT_TARGETS = {("compfeat.cli", "encode_of"), ("compfeat.cli", "run_proposed"),
                  ("compfeat.cli", "init_marginal")}


def test_tracer_targets_resolve_to_their_defining_objects():
    """Every function that ``perfbench/tracer.py`` wraps, but the known
    absences, is bound where it patches it, and is the object its
    defining module binds, so that a patch observes every call there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = set()
    for target, attr, _ in tracer.TARGETS:
        module, _, cls = target.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
            assert defined_where_found(owner, cls), target
        found = vars(owner).get(attr)
        if found is None:
            absent.add((target, attr))
        elif not cls:
            assert defined_where_found(found, attr), (target, attr)
    assert absent == ABSENT_TARGETS


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
# Two CFs' scores of one seed, and their aggregate.
SCORE_C, SCORE_D = CfScore(0, "c", 0.5, 0.5, 1.0, 1.0), CfScore(1, "d", 0.5, 0.5, 1.0, 1.0)
ROWS = aggregate_cf_scores([[SCORE_C, SCORE_D]])


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
    (lambda: train(X[:, 0], np.array([1, 2, 1, 2])), ShapeMismatchError),
    (lambda: train(np.where(X > 0, np.inf, X), np.array([1, 2, 1, 2])), DataError),
    (lambda: knn(X[:, 0], 2), ShapeMismatchError),
    (lambda: predict(MODEL, np.ones((3, 3))), ShapeMismatchError),
    (lambda: predict(MODEL, TEXT_X), DataError),
    (lambda: predict(MODEL, np.array([[0.0, np.nan]])), DataError),
    (lambda: score_labels(np.array([np.nan, 0.9, 0.1]), np.array([1, 2, 2])), DataError),
    (lambda: score_labels(np.array([0.2, 0.9, 7.0]), np.array([1, 2, 2])), DataError),
    (lambda: DS.subset([99]), DataError),
    (lambda: DS.subset([-1]), DataError),
    (lambda: one_hot(np.array([[0, 1]]), (3, 3)), DataError),
    (lambda: one_hot(np.array([[1, 4]]), (3, 3)), DataError),
    (lambda: one_hot(np.array([[1.0], [2.0]]), (3,)), DataError),
    (lambda: one_hot(np.array([1, 2]), (3,)), ShapeMismatchError),
    (lambda: aggregate_cf_scores([]), DataError),
    (lambda: aggregate_cf_scores([[SCORE_C, SCORE_D], [SCORE_C]]), ShapeMismatchError),
    (lambda: aggregate_cf_scores([[SCORE_C], [SCORE_C, SCORE_D]]), ShapeMismatchError),
    (lambda: aggregate_cf_scores([[SCORE_C], [SCORE_D]]), ShapeMismatchError),
    (lambda: format_cf_table({}), DataError),
    (lambda: format_cf_table({"a": ROWS, "b": ROWS[:1]}), ShapeMismatchError),
], ids=["knn-ragged", "knn-text", "solve_weights-text", "optimality_gap-ragged",
        "weights-ragged", "weights-text", "encode_with_confidence-ragged",
        "encode_with_confidence-text", "encode_with_confidence-1d-base",
        "propagate_step-ragged", "propagate_step-text", "propagate_step-1d",
        "correct-ragged", "correct-text", "score_labels-float-truth",
        "score_labels-codes-0-and-3", "macro_f1-ragged", "macro_f1-lengths", "train-float-labels",
        "train-lengths", "train-1d-design", "train-inf-design", "knn-1d", "predict-width", "predict-text", "predict-nan-design",
        "score_labels-nan-probability", "score_labels-probability-7", "subset-index-past-rows",
        "subset-index-negative", "one_hot-code-0", "one_hot-code-past-width",
        "one_hot-float-codes", "one_hot-1d-codes",
        "aggregate_cf_scores-no-seeds", "aggregate_cf_scores-fewer-cfs",
        "aggregate_cf_scores-more-cfs", "aggregate_cf_scores-other-names",
        "format_cf_table-no-methods", "format_cf_table-method-lacks-cf"])
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
    (lambda: EstimationResult(sizes=3, **RESULT), DataError),
    (lambda: EstimationResult(sizes=None, **RESULT), DataError),
    (lambda: EstimationResult(sizes=(3,), **{**RESULT, "cf_names": "c"}), DataError),
    (lambda: EstimationResult(sizes=(3,), **{**RESULT, "method": 3}), DataError),
    (lambda: EstimationResult(sizes=(3,), **{**RESULT, "hyperparams": "x"}), DataError),
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
        "EstimationResult-size-text", "EstimationResult-size-3.7", "EstimationResult-sizes-int",
        "EstimationResult-sizes-none", "EstimationResult-names-text",
        "EstimationResult-method-int", "EstimationResult-hyperparams-text", "macro_f1-n_classes-2.5",
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


@pytest.mark.parametrize("holder", [DS, GRAPH, EstimationResult(sizes=(3,), **RESULT), MODEL],
                         ids=["Dataset", "WeightGraph", "EstimationResult", "LrModel"])
def test_array_holders_compare_by_identity(holder):
    """A class that holds arrays compares and hashes by identity, as
    field-wise comparison of its arrays has no single truth value: an
    instance hashes, sits in a set and equals itself, and no copy of it."""
    assert hash(holder) == hash(holder) and holder in {holder}
    assert holder == holder
    assert holder != type(holder)(**{name: getattr(holder, name) for name in holder._fields})


RECORDS = {Column: [("name", ...), ("kind", ...), ("role", ...), ("vocabulary", ())],
           FeatureSchema: [("columns", ...)],
           Dataset: [("schema", ...), ("of_values", ...), ("labels", ...), ("cf_truth", None),
                     ("cf_observed", None)],
           WeightGraph: [("neighbors", ...), ("weights", ...)],
           EstimationResult: [("cf_names", ...), ("sizes", ...), ("confidences", ...),
                              ("hard_estimates", ...), ("method", ...), ("hyperparams", ...)],
           LrModel: [("weights", ...), ("bias", ...), ("l2", ...), ("trace", ...)],
           CfScore: [("cf_index", ...), ("name", ...), ("acc", ...), ("macro_f1", ...),
                     ("ce", ...), ("se", ...), ("ce_clipped", 0)],
           ExperimentConfig: [("data", ""), ("schema", ""), ("out", "out"), ("seeds", (0,)),
                              ("method", "proposed"), ("T", 100), ("k", 20), ("gamma", 0.25),
                              ("alpha", 0.9), ("fraction", 0.5), ("max_n", 0),
                              ("estimate_only", ()), ("mode", "soft"), ("l2", 1e-4)]}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_constructor_takes_its_fields(cls):
    """Each record's constructor takes its fields, in order, with their
    defaults (``...`` for none), and an instance keeps each one."""
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, ... if p.default is p.empty else p.default) for p in params] == RECORDS[cls]
    assert cls._fields == tuple(name for name, _ in RECORDS[cls])


FROZEN = [Column("c", "categorical", "CF", ("a", "b", "c")), DS.schema, DS, GRAPH,
          EstimationResult(sizes=(3,), **RESULT), MODEL, SCORE_C]


@pytest.mark.parametrize("record", FROZEN, ids=lambda record: type(record).__name__)
def test_records_are_frozen_and_show_their_fields(record):
    for name in record._fields:
        with pytest.raises(AttributeError, match="frozen"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="frozen"):
            delattr(record, name)
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize("make, changed", [
    (lambda: Column("c", "categorical", "CF", ("a", "b", "c")),
     Column("c", "categorical", "CF", ("a", "b", "d"))),
    (lambda: FeatureSchema(DS.schema.columns), FeatureSchema(DS.schema.columns[::-1])),
    (lambda: CfScore(0, "c", 0.5, 0.5, 1.0, 1.0), CfScore(0, "c", 0.5, 0.5, 1.0, 1.0, 1)),
], ids=["Column", "FeatureSchema", "CfScore"])
def test_values_compare_and_hash_by_their_fields(make, changed):
    one = make()
    assert one == make() and hash(one) == hash(make()) and one is not make()
    assert one != changed and one != tuple(getattr(one, name) for name in one._fields)
    assert len({one, make(), changed}) == 2


def test_experiment_config_compares_by_its_fields_and_is_mutable():
    cfg = ExperimentConfig(k=5)
    assert cfg == ExperimentConfig(k=5) and cfg != ExperimentConfig()
    with pytest.raises(TypeError, match="unhashable"):
        hash(cfg)
    copy = ExperimentConfig(**vars(cfg))
    copy.k = 6
    assert (cfg.k, copy.k) == (5, 6)
    assert repr(ExperimentConfig()).startswith("ExperimentConfig(data='', schema='', out='out', ")
