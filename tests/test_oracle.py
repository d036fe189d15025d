import numpy as np

import compfeat
from compfeat import oracle, propagation
from compfeat.oracle import _joint_init, make_smooth_synthetic, run_equivalence_suite
from compfeat.propagation import init_marginal, propagate_step

from test_propagation import observed_dataset


class TestInitJoint:
    def test_single_cf_reduces_to_marginal(self):
        ds = observed_dataset([3], 6, seed=0)
        joint = _joint_init(ds.cf_observed, ds.schema.cf_sizes)
        np.testing.assert_array_equal(joint, init_marginal(ds))

    def test_two_cf_product_form(self):
        joint = _joint_init(np.array([[1, 1]]), (3, 3))
        # mass 1/4 exactly on {2,3} x {2,3}
        expected = np.zeros((3, 3))
        expected[1:, 1:] = 0.25
        np.testing.assert_array_equal(joint.reshape(3, 3), expected)

    def test_marginalization_matches_marginal_init(self):
        ds = observed_dataset([3, 4, 3], 10, seed=1)
        cube = _joint_init(ds.cf_observed, ds.schema.cf_sizes).reshape(10, 3, 4, 3)
        for j, block in enumerate(np.split(init_marginal(ds), [3, 7], axis=1)):
            others = tuple(a for a in (1, 2, 3) if a != j + 1)
            np.testing.assert_allclose(cube.sum(axis=others), block, atol=1e-12)

    def test_flat_index_row_major_first_feature_slowest(self):
        """Tuple (v1, v2) sits at flat column 4 * (v1 - 1) + (v2 - 1)."""
        joint = _joint_init(np.array([[2, 3]]), (3, 4))
        expected = np.full((3, 4), 1.0 / 6)
        expected[1, :] = 0.0
        expected[:, 2] = 0.0
        np.testing.assert_array_equal(joint.reshape(3, 4), expected)


class TestEquivalenceSuite:
    def test_small_run_clean(self):
        out = run_equivalence_suite(40, seed0=7)
        assert not out["failures"]
        assert out["worst"] <= 1e-10

    def test_catches_kernel_that_keeps_rank_order(self, monkeypatch):
        """A kernel that leaves its rows in nonzero-count order, as one
        missing the final scatter would, is exact when every row has the
        same nonzero count and wrong otherwise.  The suite's build_graph
        graphs have ragged rows, so it must report failures."""
        def rank_ordered(graph, q):
            order = np.argsort(-(graph.weights != 0.0).sum(axis=1), kind="stable")
            return propagate_step(graph, q)[order]

        monkeypatch.setattr(oracle, "propagate_step", rank_ordered)
        out = run_equivalence_suite(40, seed0=7)
        assert len(out["failures"]) >= 20


    def test_reference_is_independent_of_production_init(self, monkeypatch):
        def broken(ds):
            raise AssertionError("the reference must not call init_marginal")

        monkeypatch.setattr(propagation, "init_marginal", broken)
        out = run_equivalence_suite(40, seed0=7)
        assert not out["failures"]
        assert out["worst"] <= 1e-10


class TestSmoothSynthetic:
    def test_zero_roughness_gives_constant_targets(self):
        _, targets = make_smooth_synthetic(50, [3], n_of=2, roughness=0.0, seed=0)
        assert np.abs(targets[0] - targets[0][0]).max() <= 1e-12

    def test_observed_values_drawn_from_complement(self):
        ds, _ = make_smooth_synthetic(200, [3, 5], n_of=3, roughness=1.0, seed=1)
        assert (ds.cf_observed != ds.cf_truth).all()

    def test_low_roughness_estimation_is_accurate(self):
        ds, _ = make_smooth_synthetic(300, [3, 4], n_of=2, roughness=0.3, seed=1)
        res = compfeat.run_proposed(ds, T=50, k=20, gamma=0.25)
        scores = compfeat.score_cf(res, ds.cf_truth)
        assert all(s.acc >= 0.95 for s in scores)

    def test_accuracy_degrades_with_roughness(self):
        means = []
        for rough in (0.3, 1.5, 4.0):
            accs = []
            for seed in range(10):
                ds, _ = make_smooth_synthetic(150, [3, 4], n_of=2,
                                              roughness=rough, seed=seed)
                res = compfeat.run_proposed(ds, T=20, k=10, gamma=0.25)
                accs.append(np.mean([s.acc for s in compfeat.score_cf(res, ds.cf_truth)]))
            means.append(np.mean(accs))
        assert means[0] > means[1] > means[2]
