import itertools
import math

import numpy as np
import pytest

import compfeat
from compfeat.errors import CardinalityCapError, InfeasibleKLError
from compfeat.oracle import (
    MIXTURE_TO_TARGET,
    TARGET_TO_MIXTURE,
    DiscreteJoint,
    check_bound_theorem1,
    check_jmi_nonneg,
    conditional_mutual_information,
    ideal_weights,
    init_joint,
    joint_init_from_codes,
    kl,
    make_smooth_synthetic,
    marginal_init_from_codes,
    propagate_joint,
    run_bound_suite,
    run_equivalence_suite,
    run_monotone_suite,
    verify_monotone_kl,
)
from compfeat.propagation import init_marginal

from test_propagation import observed_dataset


class TestKl:
    def test_zero_times_log_zero(self):
        assert kl([0.5, 0.5, 0.0], [0.25, 0.25, 0.5]) == pytest.approx(
            0.5 * math.log(2) + 0.5 * math.log(2)
        )

    def test_infinite_when_unsupported(self):
        assert kl([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_zero_on_equal(self):
        assert kl([0.3, 0.7], [0.3, 0.7]) == 0.0


class TestInitJoint:
    def test_single_cf_reduces_to_marginal(self):
        ds = observed_dataset([3], 6, seed=0)
        joint = init_joint(ds)
        np.testing.assert_array_equal(joint.values, init_marginal(ds))

    def test_two_cf_product_form(self):
        obs = np.array([[1, 1]])
        joint = joint_init_from_codes(obs, (3, 3))
        cube = joint.values.reshape(3, 3)
        # mass 1/4 exactly on {2,3} x {2,3}
        expected = np.zeros((3, 3))
        expected[1:, 1:] = 0.25
        np.testing.assert_array_equal(cube, expected)

    def test_marginalization_matches_marginal_init(self):
        ds = observed_dataset([3, 4, 3], 10, seed=1)
        joint = init_joint(ds)
        for j, block in enumerate(np.split(init_marginal(ds), [3, 7], axis=1)):
            np.testing.assert_allclose(joint.marginal(j), block, atol=1e-12)

    def test_cardinality_cap(self):
        obs = np.ones((1, 8), dtype=np.int64) * 2
        with pytest.raises(CardinalityCapError):
            joint_init_from_codes(obs, (6,) * 8, cap=10**6)

    def test_flat_index_row_major_first_feature_slowest(self):
        joint = joint_init_from_codes(np.array([[1, 1]]), (3, 4))
        assert joint.flat_index((1, 1)) == 0
        assert joint.flat_index((1, 2)) == 1
        assert joint.flat_index((2, 1)) == 4


class TestPropagateJoint:
    def test_matches_triple_loop(self):
        rng = np.random.default_rng(2)
        n, card = 8, 6
        vals = rng.dirichlet(np.ones(card), size=n)
        h = rng.gamma(1.0, size=(n, n))
        np.fill_diagonal(h, 0.0)
        h /= h.sum(axis=1, keepdims=True)
        from compfeat.oracle import JointConfidence

        q = JointConfidence(cards=(6,), values=vals)
        out = propagate_joint(h, q, T=2)
        expected = vals.copy()
        for _ in range(2):
            nxt = np.zeros_like(expected)
            for i in range(n):
                for j in range(n):
                    nxt[i] += h[i, j] * expected[j]
            expected = nxt
        np.testing.assert_allclose(out.values, expected, atol=1e-12)


class TestIdealWeights:
    def test_target_among_components(self):
        rng = np.random.default_rng(3)
        comps = rng.dirichlet(np.ones(5), size=4)
        h = ideal_weights(comps[2][None, :], comps)[0]
        expected = np.zeros(4)
        expected[2] = 1.0
        np.testing.assert_allclose(h, expected, atol=1e-6)

    def test_exact_mixture_recovered(self):
        rng = np.random.default_rng(4)
        comps = rng.dirichlet(np.ones(6), size=2)
        target = 0.5 * comps[0] + 0.5 * comps[1]
        h = ideal_weights(target[None, :], comps)[0]
        np.testing.assert_allclose(h, [0.5, 0.5], atol=1e-6)

    @pytest.mark.parametrize("direction", [MIXTURE_TO_TARGET, TARGET_TO_MIXTURE])
    def test_matches_grid_search(self, direction):
        """3 components, 4 atoms, simplex grid step 0.01."""
        rng = np.random.default_rng(5)
        comps = rng.dirichlet(np.ones(4), size=3)
        target = rng.dirichlet(np.ones(4))
        h = ideal_weights(target[None, :], comps, direction=direction)[0]

        def objective(w):
            mix = w @ comps
            return kl(mix, target) if direction == MIXTURE_TO_TARGET else kl(target, mix)

        ticks = 100
        best = math.inf
        for a in range(ticks + 1):
            for b in range(ticks + 1 - a):
                w = np.array([a, b, ticks - a - b]) / ticks
                best = min(best, objective(w))
        assert objective(h) <= best + 1e-12
        assert abs(objective(h) - best) <= 1e-4

    def test_infeasible_raises(self):
        comps = np.array([[1.0, 0.0], [1.0, 0.0]])
        target = np.array([[0.5, 0.5]])
        with pytest.raises(InfeasibleKLError):
            ideal_weights(target, comps, direction=TARGET_TO_MIXTURE)


class TestMonotoneLoop:
    def test_constant_instance_has_flat_zero_trace(self):
        p = np.tile([0.25, 0.25, 0.5], (4, 1))
        trace = verify_monotone_kl(p, p.copy(), T=5)
        np.testing.assert_allclose(trace.mean_trace, 0.0, atol=1e-12)

    def test_random_instances_non_increasing(self):
        out = run_monotone_suite(25, T=10, slack=1e-9, seed0=123)
        assert not out["failures"], out["failures"][:1]
        assert out["worst"] <= 1e-9

    def test_trace_flat_once_components_are_optimal_mixtures(self):
        """Mixtures of mixtures stay inside the original mixture set, so
        after one optimal step further steps cannot improve."""
        rng = np.random.default_rng(6)
        targets = rng.dirichlet(np.ones(5), size=4)
        comps = rng.dirichlet(np.ones(5), size=4)
        trace = verify_monotone_kl(targets, comps, T=4)
        tail = trace.mean_trace[1:]
        np.testing.assert_allclose(tail, tail[0], atol=1e-9)

    def test_printed_objective_direction_can_raise_measured_divergence(self):
        """Frozen counterexample: optimizing D(mixture || target) does not
        control D(target || mixture), which can rise; the optimized
        objective itself still never rises."""
        rng = np.random.default_rng(30)
        n = int(rng.integers(2, 9))
        atoms = int(rng.integers(2, 9))
        targets = rng.gamma(1.0, size=(n, atoms))
        targets /= targets.sum(1, keepdims=True)
        comps = rng.gamma(1.0, size=(n, atoms))
        comps /= comps.sum(1, keepdims=True)
        trace = verify_monotone_kl(targets, comps, T=10, direction=MIXTURE_TO_TARGET)
        assert trace.max_increase > 1e-3          # the measured divergence rises
        rev = trace.reverse_trace                 # ... but the objective is monotone
        assert all(b <= a + 1e-9 for a, b in zip(rev, rev[1:]))


class TestEquivalenceSuite:
    def test_small_run_clean(self):
        out = run_equivalence_suite(40, seed0=7)
        assert not out["failures"]
        assert out["worst"] <= 1e-10


class TestDiscreteJoint:
    def test_random_instance_is_pmf_with_complement_support(self):
        j = DiscreteJoint.random_instance(0)
        t = j.table
        assert t.sum() == pytest.approx(1.0, abs=1e-12)
        nc = t.shape[1]
        for c in range(nc):
            assert np.abs(t[:, c, :, c, :]).max() == 0.0

    def test_bound_holds_with_fitted_predictor(self):
        out = run_bound_suite(300, seed0=11, tol=1e-9)
        assert not out["failures"]
        assert out["worst_jmi"] >= -1e-9

    def test_perfect_estimator_gives_zero_on_both_sides(self):
        j = DiscreteJoint.perfect_estimator_instance(3)
        lhs, rhs = check_bound_theorem1(j)
        assert abs(lhs) <= 1e-12 and abs(rhs) <= 1e-12
        assert abs(check_jmi_nonneg(j)) <= 1e-12

    def test_blind_estimator_gap_is_full_information(self):
        j = DiscreteJoint.blind_estimator_instance(4)
        i_star = conditional_mutual_information(j.p_label_exact_side())
        assert check_jmi_nonneg(j) == pytest.approx(i_star, abs=1e-12)
        assert i_star >= 0.0

    def test_arbitrary_predictors_can_break_the_bound(self):
        """The bound presumes the predictor is fitted to the data; an
        anti-tuned table violates it, which is why the randomized suite
        evaluates the fitted predictor."""
        rng = np.random.default_rng(12)
        worst = -math.inf
        for s in range(200):
            j = DiscreteJoint.random_instance(10_000 + s, nc=3, no=2)
            p_theta = rng.gamma(1.0, size=(2, 3, 2))
            p_theta /= p_theta.sum(axis=0, keepdims=True)
            lhs, rhs = check_bound_theorem1(j, p_theta)
            worst = max(worst, lhs - rhs)
        assert worst > 1e-6


class TestSmoothSynthetic:
    def test_zero_roughness_gives_constant_targets(self):
        _, targets = make_smooth_synthetic(50, [3], n_of=2, roughness=0.0, seed=0)
        assert np.abs(targets[0] - targets[0][0]).max() <= 1e-12

    def test_observed_values_drawn_from_complement(self):
        ds, _ = make_smooth_synthetic(200, [3, 5], n_of=3, roughness=1.0, seed=1)
        assert (ds.cf_observed != ds.cf_truth).all()

    def test_low_roughness_estimation_is_accurate(self):
        ds, _ = make_smooth_synthetic(300, [3, 4], n_of=2, roughness=0.3, seed=1)
        res = compfeat.run_proposed(ds, compfeat.encode_of(ds), T=50, k=20, gamma=0.25)
        scores = compfeat.score_cf(res, ds.cf_truth)
        assert all(s.acc >= 0.95 for s in scores)

    def test_accuracy_degrades_with_roughness(self):
        means = []
        for rough in (0.3, 1.5, 4.0):
            accs = []
            for seed in range(10):
                ds, _ = make_smooth_synthetic(150, [3, 4], n_of=2,
                                              roughness=rough, seed=seed)
                res = compfeat.run_proposed(ds, compfeat.encode_of(ds),
                                            T=20, k=10, gamma=0.25)
                accs.append(np.mean([s.acc for s in compfeat.score_cf(res, ds.cf_truth)]))
            means.append(np.mean(accs))
        assert means[0] > means[1] > means[2]
