import math
import tracemalloc

import numpy as np
import pytest

from compfeat.data import synthesize_cf
from compfeat.errors import DataError, ShapeMismatchError
from compfeat.metrics import (
    aggregate_cf_scores,
    format_cf_table,
    macro_f1,
    _row_entropy,
    score_cf,
    score_labels,
)
from compfeat.oracle import make_bank_like
from compfeat.propagation import EstimationResult
from compfeat.result import run_comp

from test_propagation import observed_dataset


def one_hot_result(truth, u):
    n = truth.shape[0]
    vals = np.zeros((n, u))
    vals[np.arange(n), truth[:, 0] - 1] = 1.0
    return EstimationResult(cf_names=("s0",), sizes=(u,), confidences=vals,
                            hard_estimates=truth, method="proposed", hyperparams={})


class TestScoreCf:
    @pytest.mark.parametrize("u,expected", [(3, math.log(2)), (12, math.log(11))])
    def test_uniform_complement_entropy_identity(self, u, expected):
        """CE and SE both equal ln(u-1) for uniform-over-complement rows."""
        ds = observed_dataset([u], 64, seed=0)
        scores = score_cf(run_comp(ds, 0), ds.cf_truth)
        assert scores[0].ce == pytest.approx(expected, abs=1e-12)
        assert scores[0].se == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("shape", [(29, 2), (30, 1), (30, 3), (30,)])
    def test_truth_of_another_shape_rejected(self, shape):
        ds = observed_dataset([3, 5], 30, seed=1)
        with pytest.raises(ShapeMismatchError, match="truth of shape"):
            score_cf(run_comp(ds, 0), np.ones(shape, dtype=np.int64))

    @pytest.mark.parametrize("column, code", [(0, 0), (0, 4), (1, 6), (1, -1)])
    def test_truth_code_outside_1_to_u_rejected(self, column, code):
        """Codes below 1 are refused, not read as the last column, and 4
        is refused for the first CF (u = 3) though the second (u = 5) has it."""
        ds = observed_dataset([3, 5], 30, seed=1)
        truth = np.array(ds.cf_truth)
        truth[7, column] = code
        with pytest.raises(DataError, match="truth codes"):
            score_cf(run_comp(ds, 0), truth)

    @pytest.mark.parametrize("edit, error, match", [
        (lambda t: t + 0.4, DataError, "must be integers"),
        (lambda t: t.astype(np.float64), DataError, "must be integers"),
        (lambda t: t.astype(str), DataError, "must be integers"),
        (lambda t: [list(row) for row in t[:-1]] + [[1]], ShapeMismatchError, "array"),
    ], ids=["float", "integral_float", "text", "ragged"])
    def test_truth_codes_that_are_not_an_integer_array_rejected(self, edit, error, match):
        """Float codes are refused, not truncated to the codes below them."""
        ds = observed_dataset([3, 5], 30, seed=1)
        with pytest.raises(error, match=match):
            score_cf(run_comp(ds, 0), edit(np.array(ds.cf_truth)))

    def test_reported_decimals(self):
        assert round(math.log(11), 4) == 2.3979
        assert round(math.log(2), 4) == 0.6931

    def test_perfect_one_hot(self):
        ds = observed_dataset([4], 30, seed=1)
        res = one_hot_result(ds.cf_truth, 4)
        s = score_cf(res, ds.cf_truth)[0]
        assert s.acc == 1.0
        assert s.ce == 0.0 and s.ce_clipped == 0
        assert s.se == 0.0
        assert s.macro_f1 == pytest.approx(
            sum(1.0 for c in range(1, 5) if (ds.cf_truth[:, 0] == c).any()) / 4
        )

    def test_clip_counted(self):
        truth = np.array([[1], [2]])
        vals = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        res = EstimationResult(
            cf_names=("s0",), sizes=(3,), confidences=vals,
            hard_estimates=np.array([[2], [2]]),
            method="proposed", hyperparams={},
        )
        s = score_cf(res, truth)[0]
        assert s.ce_clipped == 1
        assert s.ce == pytest.approx(0.5 * -math.log(1e-12))

    def test_permutation_invariance(self):
        ds = observed_dataset([5], 40, seed=2)
        res = run_comp(ds, 3)
        base = score_cf(res, ds.cf_truth)[0]
        perm = np.random.default_rng(0).permutation(40)
        permuted = EstimationResult(
            cf_names=res.cf_names, sizes=res.sizes, confidences=res.confidences[perm],
            hard_estimates=res.hard_estimates[perm],
            method="comp", hyperparams={},
        )
        shuffled = score_cf(permuted, ds.cf_truth[perm])[0]
        assert shuffled.acc == base.acc
        assert shuffled.ce == pytest.approx(base.ce, abs=1e-12)
        assert shuffled.se == pytest.approx(base.se, abs=1e-12)

    def test_entropy_falls_toward_one_hot(self):
        """SE is non-increasing along the segment from uniform-over-complement
        to a one-hot row."""
        start = np.array([0.5, 0.0, 0.5])
        end = np.array([1.0, 0.0, 0.0])
        prev = math.inf
        for lam in np.linspace(0.0, 1.0, 11):
            row = (1 - lam) * start + lam * end
            se = -(row[row > 0] * np.log(row[row > 0])).sum()
            assert se <= prev + 1e-12
            prev = se


class TestRowEntropy:
    def test_equals_the_masked_product_bit_for_bit(self):
        """Rows that hold zeros, subnormals and ones score the bits of
        ``np.where(v > 0, v * log(v), 0)`` summed per row."""
        rng = np.random.default_rng(11)
        values = rng.dirichlet(np.ones(7), size=300) * (rng.uniform(size=(300, 7)) < 0.6)
        values[:3] = [[0.0] * 7, [1.0] + [0.0] * 6, [5e-324, 1.0 - 5e-324] + [0.0] * 5]
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = -np.where(values > 0, values * np.log(values), 0.0).sum(axis=1)
        got = _row_entropy(values)
        assert (values == 0).any(axis=1).mean() > 0.5
        assert got.tobytes() == expected.tobytes()

    def test_peak_memory_is_about_one_block(self):
        """Scoring the 12-wide job block of a 20,000-row comp result
        allocates one block-sized buffer, a mask and the row sums: a
        traced peak within 1.3x the block's bytes (2.1x while the log,
        the product and the masked copy were separate arrays)."""
        ds = synthesize_cf(make_bank_like(20_000, seed=0)[0], seed=0)
        block = run_comp(ds, 0).block(0)
        assert block.shape == (20_000, 12)
        tracemalloc.start()
        try:
            _row_entropy(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * block.shape[0] * block.shape[1] * block.itemsize


class TestMacroF1:
    def test_perfect(self):
        y = np.array([1, 2, 1, 2])
        assert macro_f1(y, y, 2) == 1.0

    def test_all_one_class_on_balanced_truth(self):
        truth = np.array([1, 1, 2, 2])
        pred = np.array([2, 2, 2, 2])
        # F1 of predicted class: precision 1/2, recall 1 -> 2/3; other 0
        assert macro_f1(pred, truth, 2) == pytest.approx(1.0 / 3.0)

    def test_absent_class_scores_zero(self):
        truth = np.array([1, 1])
        pred = np.array([1, 1])
        assert macro_f1(pred, truth, 3) == pytest.approx(1.0 / 3.0)

    def test_equals_the_per_class_loop(self):
        """The counted form gives the bits of the three boolean passes per
        class that it replaced, summed in class order, for 1-d and 2-d
        codes of several integer dtypes, empty ones included."""
        def reference(pred, truth, n_classes):
            total = 0.0
            for c in range(1, n_classes + 1):
                tp = np.sum((pred == c) & (truth == c))
                fp = np.sum((pred == c) & (truth != c))
                fn = np.sum((pred != c) & (truth == c))
                denom = 2 * tp + fp + fn
                total += 0.0 if denom == 0 else 2 * tp / denom
            return float(total / n_classes)

        rng = np.random.default_rng(0)
        for case in range(400):
            u, n = int(rng.integers(1, 14)), int(rng.integers(0, 301))
            shape = (n // 3, 3) if case % 3 == 0 else (n,)
            dtype = (np.int64, np.int32, np.uint8, np.uint64)[case % 4]
            pred = rng.integers(1, rng.integers(1, u + 1), size=shape, endpoint=True)
            truth = rng.integers(1, u, size=shape, endpoint=True)
            pred, truth = pred.astype(dtype), truth.astype(dtype)
            assert macro_f1(pred, truth, u) == reference(pred, truth, u)

    @pytest.mark.parametrize("pred, truth, error, match", [
        ([[1], [1, 2]], [1, 2], ShapeMismatchError, "predicted codes must form a rectangular"),
        ([1, 2, 1], [1, 2], ShapeMismatchError, "do not match truth"),
        ([[1, 2]], [1, 2], ShapeMismatchError, "do not match truth"),
        ([1.0, 2.0], [1, 2], DataError, "predicted codes must be integers"),
        ([1, 2], [1, 2.5], DataError, "truth codes must be integers"),
        ([1, 3], [1, 2], DataError, "predicted codes out of range"),
        ([1, 2], [0, 2], DataError, "truth codes out of range"),
    ], ids=["ragged", "lengths", "shapes", "float_pred", "float_truth", "pred_code_3",
            "truth_code_0"])
    def test_malformed_codes_rejected(self, pred, truth, error, match):
        """Ragged or mismatched codes once scored 0.0 without complaint."""
        with pytest.raises(error, match=match):
            macro_f1(pred, truth, 2)


class TestScoreLabels:
    def test_perfect_probabilities(self):
        truth = np.array([1, 2, 1, 2])
        assert score_labels(np.array([0.1, 0.9, 0.2, 0.8]), truth) == 1.0

    def test_hard_codes_accepted(self):
        truth = np.array([1, 2, 2])
        assert score_labels(np.array([1, 2, 2]), truth) == 1.0

    @pytest.mark.parametrize("truth", [[1.0, 2.0, 1.7, 1.0], [1.0, 2.0, 2.0, 1.0]],
                             ids=["float", "integral_float"])
    def test_truth_labels_are_codes_not_floats(self, truth):
        with pytest.raises(DataError, match="truth codes must be integers"):
            score_labels(np.array([1, 2, 2, 1]), np.array(truth))

    @pytest.mark.parametrize("pred, truth, match", [
        ([0, 3], [1, 2], "predicted codes out of range"),
        ([1, 2], [0, 2], "truth codes out of range"),
        ([0.2, 0.7], [1, 3], "truth codes out of range"),
    ])
    def test_codes_outside_1_2_rejected(self, pred, truth, match):
        with pytest.raises(DataError, match=match):
            score_labels(np.array(pred), np.array(truth))

    def test_coin_flips_near_half(self):
        rng = np.random.default_rng(4)
        n = 100_000
        truth = np.tile([1, 2], n // 2)
        pred = rng.uniform(size=n)
        assert score_labels(pred, truth) == pytest.approx(0.5, abs=0.02)


class TestReports:
    def test_aggregate_and_format(self):
        ds = observed_dataset([3, 4], 25, seed=5)
        per_seed = [score_cf(run_comp(ds, s), ds.cf_truth) for s in range(3)]
        rows = aggregate_cf_scores(per_seed)
        assert rows[0]["name"] == "s0"
        assert rows[0]["ce"]["std"] == pytest.approx(0.0, abs=1e-12)
        table = format_cf_table({"comp": rows})
        assert "s0" in table and "±" in table
        assert f"{math.log(2):.4f}" in table
