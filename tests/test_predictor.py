import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import compfeat
from compfeat import predictor
from compfeat.data import split_train_test, synthesize_cf
from compfeat.encoding import encode_of, one_hot
from compfeat.errors import DataError, ShapeMismatchError, SingleClassError
from compfeat.metrics import score_labels
from compfeat.oracle import make_bank_like, make_smooth_synthetic
from compfeat.predictor import (
    LrModel,
    assemble,
    loss_and_grad,
    predict,
    train,
)
from compfeat.propagation import init_marginal, run_comp, run_proposed

from test_propagation import observed_dataset


class TestAssemble:
    def test_hard_mode_one_hot(self):
        ds = observed_dataset([3], 10, seed=0)
        res = run_comp(ds, 0)
        design = assemble(ds, "hard", result=res)
        block = design[:, -3:]  # the CF block is last
        for i in range(10):
            expected = np.zeros(3)
            expected[res.hard_estimates[i, 0] - 1] = 1.0
            np.testing.assert_array_equal(block[i], expected)

    @pytest.mark.parametrize("mode", ["comp", "ord"])
    def test_zero_rows_give_a_zero_row_design(self, mode):
        design = assemble(observed_dataset([3, 4], 0), mode)
        assert design.shape == (0, 1 + 3 + 4)

    def test_ord_equals_hard_with_perfect_estimates(self):
        ds = observed_dataset([3, 4], 12, seed=1)
        res = run_comp(ds, 0)
        perfect = type(res)(cf_names=res.cf_names, sizes=res.sizes,
                            confidences=res.confidences, hard_estimates=ds.cf_truth,
                            method="proposed", hyperparams={})
        np.testing.assert_array_equal(
            assemble(ds, "ord"),
            assemble(ds, "hard", result=perfect),
        )

    def test_soft_blocks_row_stochastic(self):
        ds = observed_dataset([3, 5], 15, seed=2)
        res = run_comp(ds, 0)
        design = assemble(ds, "soft", result=res)
        for start, stop in ((-8, -5), (-5, None)):  # s0 (u=3), then s1 (u=5)
            np.testing.assert_allclose(design[:, start:stop].sum(axis=1), 1.0)

    def test_result_of_another_schema_rejected(self):
        ds = observed_dataset([3, 4], 12, seed=1)
        fewer_cfs = run_comp(observed_dataset([3], 12, seed=1), 0)
        for mode in ("soft", "hard"):
            with pytest.raises(ShapeMismatchError, match="CF names"):
                assemble(ds, mode, result=fewer_cfs)
        # Code 5 of the wider CF has no column in a width-4 one-hot.
        wider_cf = run_comp(observed_dataset([3, 5], 12, seed=1), 0)
        assert wider_cf.hard_estimates[:, 1].max() == 5
        for mode in ("soft", "hard"):
            with pytest.raises(ShapeMismatchError, match="widths"):
                assemble(ds, mode, result=wider_cf)

    def test_comp_mode_uses_initial_confidences(self):
        ds = observed_dataset([4], 9, seed=3)
        design = assemble(ds, "comp")
        np.testing.assert_array_equal(design[:, -4:], init_marginal(ds))

    def test_column_order_ofs_then_cfs(self):
        ds = observed_dataset([3], 8, seed=4)
        enc = encode_of(ds)
        design = assemble(ds, "comp")
        assert design.shape == (ds.n, enc.shape[1] + 3)
        assert design.dtype == np.float64 and not design.flags.writeable
        np.testing.assert_array_equal(design[:, :enc.shape[1]], enc)
        np.testing.assert_array_equal(design[:, enc.shape[1]:], init_marginal(ds))

    @pytest.mark.parametrize("mode", ["ord", "comp", "soft", "hard"])
    def test_equals_the_stacked_parts_bit_for_bit(self, mode):
        """The design built in place holds the bits of ``np.hstack`` of
        the OF encoding and the mode's CF block."""
        ds = synthesize_cf(make_bank_like(300, seed=0)[0], seed=0)
        res = run_proposed(ds, T=5, k=8, gamma=0.25)
        block = {"ord": lambda: one_hot(ds.cf_truth, ds.schema.cf_sizes),
                 "comp": lambda: init_marginal(ds),
                 "soft": lambda: res.confidences,
                 "hard": lambda: one_hot(res.hard_estimates, res.sizes)}[mode]()
        design = assemble(ds, mode, result=res)
        expected = np.hstack([encode_of(ds), block])
        assert design.dtype == expected.dtype and design.shape == expected.shape
        assert design.tobytes() == expected.tobytes()
        assert not design.flags.writeable


class TestTrain:
    def test_separable_pair_drives_loss_down(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([1, 2])
        model = train(x, y, l2=0.0)
        assert model.trace[-1] < 0.01

    def test_heavy_regularization_recovers_prior(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(200, 3))
        y = (rng.uniform(size=200) < 0.75).astype(np.int64) + 1
        model = train(x, y, l2=1e6)
        assert np.abs(model.weights).max() < 1e-4
        probs = predict(model, x)
        prior = np.mean(y == 2)
        np.testing.assert_allclose(probs, prior, atol=1e-3)

    def test_gradient_matches_central_differences(self):
        """Analytic gradient against (f(p+h e_i) - f(p-h e_i)) / 2h."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, 4))
        t = (rng.uniform(size=40) < 0.5).astype(float)
        step = 1e-6
        for _ in range(10):
            params = rng.normal(scale=0.8, size=5)
            _, grad = loss_and_grad(params, x, t, l2=1e-3)
            fd = np.empty_like(grad)
            for i in range(5):
                up, down = params.copy(), params.copy()
                up[i] += step
                down[i] -= step
                fd[i] = (loss_and_grad(up, x, t, 1e-3)[0]
                         - loss_and_grad(down, x, t, 1e-3)[0]) / (2 * step)
            rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8)
            assert rel <= 1e-6

    def test_loss_trace_non_increasing(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(100, 5))
        y = (x[:, 0] + 0.3 * rng.normal(size=100) > 0).astype(np.int64) + 1
        model = train(x, y)
        diffs = np.diff(model.trace)
        assert diffs.max() <= 1e-9

    def test_instance_order_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(60, 3))
        y = (x[:, 1] > 0).astype(np.int64) + 1
        model = train(x, y)
        perm = rng.permutation(60)
        shuffled = train(x[perm], y[perm])
        np.testing.assert_allclose(shuffled.weights, model.weights, atol=1e-10)
        assert shuffled.bias == pytest.approx(model.bias, abs=1e-10)

    def test_reaches_stationary_point_on_bank_like_design(self):
        """At the default l2 the trained parameters zero the gradient of the
        stated objective, not merely lower the loss."""
        ds, _ = make_bank_like(300, seed=0)
        design = assemble(ds, "comp")
        model = train(design, ds.labels)
        targets = (ds.labels == ds.labels.max()).astype(float)
        params = np.append(model.weights, model.bias)
        _, grad = loss_and_grad(params, design, targets, model.l2)
        assert np.abs(grad).max() <= 1e-8

    def test_unregularized_singular_hessian(self):
        """l2 = 0 leaves the Hessian singular: each one-hot CF block sums to
        the bias column, and a duplicated and a constant column are added.
        Training still finishes at a stationary point."""
        ds, _ = make_bank_like(200, seed=0)
        values = assemble(ds, "ord")
        x = np.hstack([values, values[:, :1], np.ones((ds.n, 1))])
        model = train(x, ds.labels, l2=0.0)
        assert np.diff(model.trace).max() <= 0.0
        targets = (ds.labels == ds.labels.max()).astype(float)
        params = np.append(model.weights, model.bias)
        _, grad = loss_and_grad(params, x, targets, 0.0)
        assert np.abs(grad).max() <= 1e-8

    def test_non_finite_input_rejected(self):
        x = np.zeros((4, 2))
        x[1, 0] = np.nan
        with pytest.raises(DataError):
            train(x, np.array([1, 2, 1, 2]))

    @pytest.mark.parametrize("l2", [-1.0, math.nan, math.inf])
    def test_l2_must_be_finite_and_nonnegative(self, l2):
        with pytest.raises(DataError, match="l2"):
            train(np.eye(4), np.array([1, 2, 1, 2]), l2=l2)

    @pytest.mark.parametrize("y", [np.ones(4, dtype=np.int64), np.zeros(0, dtype=np.int64)],
                             ids=["one_class", "empty"])
    def test_single_class_rejected(self, y):
        with pytest.raises(SingleClassError):
            train(np.zeros((y.size, 2)), y)

    def test_multiclass_rejected(self):
        with pytest.raises(DataError):
            train(np.zeros((3, 2)), np.array([1, 2, 3]))

    @pytest.mark.parametrize("y", [np.array([1.0, 1.7, 2.0, 2.2]), np.array([1.0, 2.0, 1.0, 2.0]),
                                   np.array([True, False, True, False])],
                             ids=["float", "integral_float", "bool"])
    def test_labels_are_codes_not_floats(self, y):
        """Labels are refused unless they are integers: 1.7 and 2.2 are
        not truncated to the codes 1 and 2."""
        with pytest.raises(DataError, match="labels must be integers"):
            train(np.eye(4), y)

    @pytest.mark.parametrize("y", [[0, 1, 0, 1], [1, 3, 1, 3], [2, 3, 2, 3]])
    def test_labels_outside_1_2_rejected(self, y):
        with pytest.raises(DataError, match="labels out of range"):
            train(np.eye(4), np.array(y))

    def test_does_not_import_numpy_ma(self):
        """np.unique imports numpy.ma on its first call, which every
        ``predict`` process would pay for; train must not trigger it."""
        code = ("import sys, numpy as np\n"
                "from compfeat.predictor import train\n"
                "train(np.arange(4.0)[:, None], np.array([1, 2, 1, 2]))\n"
                "assert 'numpy.ma' not in sys.modules\n")
        src = str(Path(compfeat.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": path})


def _dense_hessian(x, s):
    """(Dᵀ·diag(s)·D) / n of the ones-augmented design D = [x, 1], and the
    same product of the absolute values, which scales its rounding error."""
    aug = np.hstack([x, np.ones((x.shape[0], 1))])
    return (aug.T * s) @ aug / x.shape[0], (np.abs(aug).T * s) @ np.abs(aug) / x.shape[0]


class TestHessian:
    """The Hessian summed over row blocks equals the dense one of the
    ones-augmented design.  Each entry of either is a sum of n products
    s_i·D_ik·D_il divided by n, so each lies within (n + 2)·eps of the
    exact value, relative to the same sum of absolute products; the two
    lie within twice that of each other."""

    @staticmethod
    def assert_matches_dense(x, s):
        dense, scale = _dense_hessian(x, s)
        bound = 2 * (x.shape[0] + 2) * np.finfo(np.float64).eps * scale
        blocked = predictor._hessian(x, s)
        assert blocked.shape == dense.shape
        assert (np.abs(blocked - dense) <= bound).all()

    @pytest.mark.parametrize("rows_to_n", [lambda rows: rows // 2, lambda rows: 2 * rows,
                                           lambda rows: 2 * rows + 1],
                             ids=["below_one_block", "exact_multiple", "one_row_past"])
    def test_equals_the_dense_product(self, rows_to_n):
        d = 15
        n = rows_to_n(predictor._BLOCK_ELEMENTS // (d + 1))
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
        prob = rng.uniform(size=n)
        self.assert_matches_dense(x, prob * (1.0 - prob))

    def test_singular_design_over_several_blocks(self, monkeypatch):
        """The l2 = 0 design of test_unregularized_singular_hessian, whose
        one-hot blocks, duplicated column and ones column are collinear,
        cut into blocks of 64 rows with a partial last block."""
        ds, _ = make_bank_like(200, seed=0)
        values = assemble(ds, "ord")
        x = np.hstack([values, values[:, :1], np.ones((ds.n, 1))])
        monkeypatch.setattr(predictor, "_BLOCK_ELEMENTS", 64 * (x.shape[1] + 1))
        prob = np.random.default_rng(0).uniform(size=ds.n)
        self.assert_matches_dense(x, prob * (1.0 - prob))


def test_traced_peak_is_a_fraction_of_the_design():
    """On the train rows of a 20,000-row bank-like comp design, training's
    traced peak stays within 0.5x the rows' bytes (0.17x measured): it
    holds no ones-augmented copy of them and no (d, n) scaled copy for
    the Hessian.  With both, it took 2.17x."""
    ds, _ = make_bank_like(20_000, seed=0)
    train_idx, _ = split_train_test(ds, 0.5, 0)
    x, y = assemble(ds, "comp")[train_idx], ds.labels[train_idx]
    tracemalloc.start()
    try:
        train(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * x.nbytes


class TestPredict:
    def test_zero_weights_give_half(self):
        model = LrModel(weights=np.zeros(2), bias=0.0, l2=0.0, trace=(0.0,))
        np.testing.assert_array_equal(predict(model, np.ones((3, 2))), 0.5)

    def test_large_bias_saturates(self):
        model = LrModel(weights=np.zeros(1), bias=50.0, l2=0.0, trace=(0.0,))
        assert predict(model, np.zeros((1, 1)))[0] == pytest.approx(1.0)

    def test_matches_hand_computation(self):
        model = LrModel(weights=np.array([0.5, -1.0]), bias=0.25, l2=0.0, trace=(0.0,))
        x = np.array([[2.0, 1.0]])
        z = 0.5 * 2.0 - 1.0 * 1.0 + 0.25
        assert predict(model, x)[0] == pytest.approx(1.0 / (1.0 + math.exp(-z)))


class TestDirectionalSanity:
    def test_true_values_beat_uniform_baseline_inputs(self):
        """Macro-F1 with true CF values at least matches the baseline
        representation on smoothly generated data."""
        ord_scores, comp_scores = [], []
        for seed in range(3):
            ds, _ = make_smooth_synthetic(400, [3, 4], n_of=3,
                                          roughness=0.5, seed=seed)
            half = ds.n // 2
            train_idx = np.arange(half)
            test_idx = np.arange(half, ds.n)
            for mode, sink in (("ord", ord_scores), ("comp", comp_scores)):
                design = assemble(ds, mode)
                model = train(design[train_idx], ds.labels[train_idx])
                probs = predict(model, design[test_idx])
                sink.append(score_labels(probs, ds.labels[test_idx]))
        assert np.mean(ord_scores) >= np.mean(comp_scores)
