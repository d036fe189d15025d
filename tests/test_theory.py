"""The theory behind the graph estimator, checked on random small instances.

Two results are checked exactly on dense tables: the idealized mixture
loop never raises the mean divergence to the targets, and the
prediction-loss bound (Theorem 1) with its information gap holds for the
fitted predictor.  The reference code here runs none of compfeat's
estimation, graph or predictor code.

Conventions: natural logarithms; 0 log 0 = 0; a divergence D(p || q)
with p > 0 where q = 0 is reported as +inf rather than raised.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest


class InfeasibleKLError(ValueError):
    """No mixture of the given components has finite divergence."""


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """D(p || q) in nats; +inf when p has mass where q vanishes."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


# ---------------------------------------------------------------------------
# Idealized weight optimization (KL objective over the simplex)

# Directions for the per-row objective.  "mixture-to-target" minimizes
# D(sum_k h_k q_k || p); its own objective trace never rises, but the
# divergence measured the other way around can.  "target-to-mixture"
# minimizes D(p || sum_k h_k q_k), which makes non-increase of
# D(p || q^(t)) immediate: the previous iterate is always a feasible
# mixture, so the minimizer can only do better.
MIXTURE_TO_TARGET = "mixture-to-target"
TARGET_TO_MIXTURE = "target-to-mixture"


def ideal_weights(
    targets: np.ndarray,
    components: np.ndarray,
    direction: str = MIXTURE_TO_TARGET,
    kkt_tol: float = 1e-8,
    max_iter: int = 100,
) -> np.ndarray:
    """Per-row KL-optimal mixture weights over all component rows.

    Returns a dense row-stochastic (n, m) matrix; unlike the practical
    graph this optimization may place weight on a row's own component,
    which the non-increase guarantee requires.  Raises
    :class:`InfeasibleKLError` when no mixture has finite divergence.
    """
    p = np.asarray(targets, dtype=np.float64)
    comps = np.asarray(components, dtype=np.float64)
    n, m = p.shape[0], comps.shape[0]
    out = np.empty((n, m))
    for i in range(n):
        out[i] = _solve_kl_row(p[i], comps, direction, kkt_tol, max_iter)
    return out


def _solve_kl_row(p, comps, direction, kkt_tol, max_iter):
    m = comps.shape[0]
    if direction == MIXTURE_TO_TARGET:
        # Mixture must vanish wherever the target does.
        usable = ~np.any(comps[:, p <= 0] > 0, axis=1) if np.any(p <= 0) else np.ones(m, bool)
    elif direction == TARGET_TO_MIXTURE:
        # Some usable component must cover every target atom.
        usable = np.ones(m, bool)
        if not np.all(comps[:, p > 0].sum(axis=0) > 0):
            raise InfeasibleKLError("target has mass where every component has zero")
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if not usable.any():
        raise InfeasibleKLError("no component is absolutely continuous w.r.t. the target")

    c = comps[usable]
    k = c.shape[0]
    out = np.zeros(m)
    if k == 1:
        out[usable] = 1.0
        return out

    def f_only(h):
        mix = h @ c
        if direction == MIXTURE_TO_TARGET:
            pos = mix > 0
            if np.any(p[pos] <= 0):
                return math.inf
            return float(np.sum(mix[pos] * np.log(mix[pos] / p[pos])))
        mask = p > 0
        if np.any(mix[mask] <= 0):
            return math.inf
        return float(np.sum(p[mask] * np.log(p[mask] / mix[mask])))

    def grad_hess(h):
        mix = h @ c
        if direction == MIXTURE_TO_TARGET:
            pos = mix > 0
            log_ratio = np.zeros_like(mix)
            log_ratio[pos] = np.log(mix[pos] / p[pos])
            grad = c @ (log_ratio + 1.0)
            w = np.zeros_like(mix)
            w[pos] = 1.0 / mix[pos]
        else:
            mask = p > 0
            r = np.zeros_like(mix)
            r[mask] = p[mask] / mix[mask]
            grad = -c @ r
            w = np.zeros_like(mix)
            w[mask] = p[mask] / (mix[mask] ** 2)
        return grad, (c * w) @ c.T

    h = np.full(k, 1.0 / k)
    f = f_only(h)
    if not math.isfinite(f):
        raise InfeasibleKLError("uniform mixture already has infinite divergence")

    # Active-set Newton: exact equality-constrained steps on the current
    # support, dropping coordinates that hit zero and adding the worst
    # first-order violator until the simplex KKT conditions hold.
    support = np.ones(k, dtype=bool)
    for _ in range(4 * k + 16):
        for _ in range(max_iter):
            grad, hess = grad_hess(h)
            idx = np.flatnonzero(support)
            kk = np.zeros((idx.size + 1, idx.size + 1))
            kk[:-1, :-1] = hess[np.ix_(idx, idx)] + 1e-13 * np.eye(idx.size)
            kk[:-1, -1] = 1.0
            kk[-1, :-1] = 1.0
            rhs = np.concatenate([-grad[idx], [0.0]])
            try:
                dh = np.linalg.solve(kk, rhs)[:-1]
            except np.linalg.LinAlgError:
                dh = np.linalg.lstsq(kk, rhs, rcond=None)[0][:-1]
            if np.abs(dh).max() <= 1e-15:
                break
            slope = float(grad[idx] @ dh)
            neg = dh < 0
            alpha_cap = 1.0
            if neg.any():
                alpha_cap = min(1.0, float(np.min(-h[idx][neg] / dh[neg])))
            alpha = alpha_cap
            accepted = False
            for _ in range(60):
                cand = h.copy()
                cand[idx] = np.maximum(h[idx] + alpha * dh, 0.0)
                f_cand = f_only(cand)
                if math.isfinite(f_cand) and f_cand <= f + 1e-4 * alpha * slope:
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                break
            h, f = cand, f_cand
            dropped = support & (h <= 1e-15)
            if dropped.any():
                support &= ~dropped
                h[dropped] = 0.0
            if alpha == alpha_cap and np.abs(dh).max() * alpha <= 1e-14:
                break
        grad, _ = grad_hess(h)
        mu = float(grad[support].mean())
        worst = float((mu - grad[~support]).max()) if (~support).any() else 0.0
        on_support = float(np.abs(grad[support] - mu).max())
        if worst <= kkt_tol and on_support <= kkt_tol:
            break
        if worst > kkt_tol:
            candidates = np.flatnonzero(~support)
            support[candidates[np.argmin(grad[candidates])]] = True
        # else: loop once more to polish the support solve
    out[usable] = h / h.sum()
    return out


@dataclass
class MonotoneTrace:
    """Per-iteration divergence traces of the idealized loop."""

    mean_trace: np.ndarray     # (T+1,) mean D(target_i || q_i^(t))
    reverse_trace: np.ndarray  # (T+1,) mean D(q_i^(t) || target_i)
    max_increase: float        # worst consecutive rise of the finite mean trace, or 0


def verify_monotone_kl(
    targets: np.ndarray,
    components: np.ndarray,
    T: int,
    direction: str = TARGET_TO_MIXTURE,
) -> MonotoneTrace:
    """Run the idealized loop and trace mean D(target_i || q_i^(t)).

    Each iteration re-optimizes the mixture weights and replaces every
    row by its weighted mixture.  With the default direction the trace
    provably never rises; with ``MIXTURE_TO_TARGET`` (the objective as
    originally printed) only the reverse trace is guaranteed, and rises
    of the primary trace are genuine counterexamples to report, not to
    hide.
    """
    p = np.asarray(targets, dtype=np.float64)
    comps = np.asarray(components, dtype=np.float64)
    n = p.shape[0]
    per = np.empty((n, T + 1))
    rev = np.empty((n, T + 1))
    for t in range(T + 1):
        if t:
            comps = ideal_weights(p, comps, direction=direction) @ comps
        per[:, t] = [kl(p[i], comps[i]) for i in range(n)]
        rev[:, t] = [kl(comps[i], p[i]) for i in range(n)]
    mean_trace = per.mean(axis=0)
    finite = np.isfinite(mean_trace)
    rises = [b - a for a, b, ok in zip(mean_trace, mean_trace[1:], finite[:-1] & finite[1:])
             if ok]
    return MonotoneTrace(mean_trace=mean_trace, reverse_trace=rev.mean(axis=0),
                         max_increase=float(max([0.0, *rises])))


def random_mixture_instance(seed: int):
    """Targets and components: n <= 8 rows over up to 8 atoms, strictly
    positive, so every divergence stays finite."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    atoms = int(rng.integers(2, 9))
    targets = rng.gamma(1.0, size=(n, atoms))
    comps = rng.gamma(1.0, size=(n, atoms))
    return targets / targets.sum(1, keepdims=True), comps / comps.sum(1, keepdims=True)


# ---------------------------------------------------------------------------
# Small dense joints for the information-bound checks


@dataclass(frozen=True)
class DiscreteJoint:
    """Dense pmf over (label, exact, side-info, observed, estimate).

    Axes in order: y, x_c (exact value), x_o, x_bar (observed
    complement), x_hat (estimate).  The observed axis never coincides
    with the exact axis (complement support).
    """

    table: np.ndarray  # (ny, nc, no, nc, nc)

    def __post_init__(self):
        t = np.array(self.table, dtype=np.float64, copy=True)
        if t.ndim != 5 or t.shape[1] != t.shape[3] or t.shape[1] != t.shape[4]:
            raise ValueError("table must be (ny, nc, no, nc, nc)")
        if t.min() < 0 or abs(t.sum() - 1.0) > 1e-12:
            raise ValueError("table must be a pmf (sum 1 within 1e-12)")
        nc = t.shape[1]
        diag = t[:, np.arange(nc), :, np.arange(nc), :]
        if np.abs(diag).max() > 0:
            raise ValueError("observed complement may never equal the exact value")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @classmethod
    def from_factors(cls, p_co, p_y_given_co, p_bar_given_c, q_hat_given_bo) -> "DiscreteJoint":
        """Assemble the joint from its causal factors.

        ``p_co`` is (nc, no); ``p_y_given_co`` is (ny, nc, no) normalized
        over y; ``p_bar_given_c`` is (nc_bar, nc) normalized over x_bar
        with a zero diagonal; ``q_hat_given_bo`` is (nc_hat, nc_bar, no)
        normalized over x_hat.
        """
        table = np.einsum(
            "co,yco,bc,hbo->ycobh", p_co, p_y_given_co, p_bar_given_c, q_hat_given_bo
        )
        return cls(table / table.sum())

    @classmethod
    def random_instance(cls, seed: int, ny: int = 2, nc: int = 3, no: int = 2) -> "DiscreteJoint":
        """Random factors drawn uniformly from their simplices."""
        rng = np.random.default_rng(seed)
        p_co = rng.gamma(1.0, size=(nc, no))
        p_co /= p_co.sum()
        p_y = rng.gamma(1.0, size=(ny, nc, no))
        p_y /= p_y.sum(axis=0, keepdims=True)
        p_bar = rng.gamma(1.0, size=(nc, nc))
        np.fill_diagonal(p_bar, 0.0)
        p_bar /= p_bar.sum(axis=0, keepdims=True)
        q = rng.gamma(1.0, size=(nc, nc, no))
        q /= q.sum(axis=0, keepdims=True)
        return cls.from_factors(p_co, p_y, p_bar, q)

    @classmethod
    def perfect_estimator_instance(cls, seed: int, ny: int = 2, nc: int = 3, no: int = 2) -> "DiscreteJoint":
        """Estimate equals the exact value with probability one."""
        base = cls.random_instance(seed, ny=ny, nc=nc, no=no)
        marg = base.table.sum(axis=4)                      # (y, c, o, b)
        table = np.zeros_like(base.table)
        for c in range(nc):
            table[:, c, :, :, c] = marg[:, c, :, :]
        return cls(table)

    @classmethod
    def blind_estimator_instance(cls, seed: int, ny: int = 2, nc: int = 3, no: int = 2) -> "DiscreteJoint":
        """Estimate independent of everything else."""
        rng = np.random.default_rng(seed + 1)
        base = cls.random_instance(seed, ny=ny, nc=nc, no=no)
        marg = base.table.sum(axis=4)
        q = rng.gamma(1.0, size=nc)
        q /= q.sum()
        return cls(np.einsum("ycob,h->ycobh", marg, q))

    def p_label_exact_side(self) -> np.ndarray:
        return self.table.sum(axis=(3, 4))

    def p_label_estimate_side(self) -> np.ndarray:
        """(ny, nc_hat, no) marginal of (y, x_hat, x_o)."""
        return self.table.sum(axis=(1, 3)).transpose(0, 2, 1)

    def true_label_conditional(self) -> np.ndarray:
        """p(y | x_c, x_o) with uniform rows on zero-mass cells."""
        p_yco = self.p_label_exact_side()
        p_co = p_yco.sum(axis=0, keepdims=True)
        ny = p_yco.shape[0]
        return np.where(p_co > 0, p_yco / np.where(p_co > 0, p_co, 1.0), 1.0 / ny)


def conditional_mutual_information(p_yxo: np.ndarray) -> float:
    """I(Y; X | O) from a dense (ny, nx, no) joint, exact summation."""
    p_yo = p_yxo.sum(axis=1)
    p_xo = p_yxo.sum(axis=0)
    p_o = p_yo.sum(axis=0)
    total = 0.0
    ny, nx, no = p_yxo.shape
    for y in range(ny):
        for x in range(nx):
            for o in range(no):
                pj = p_yxo[y, x, o]
                if pj <= 0:
                    continue
                total += pj * math.log(pj * p_o[o] / (p_yo[y, o] * p_xo[x, o]))
    return total


def check_jmi_nonneg(joint: DiscreteJoint) -> float:
    """Information loss of replacing exact values by estimates.

    I(Y; exact | side) - I(Y; estimate | side); nonnegative whenever the
    estimate is generated from the observation channel only.
    """
    i_star = conditional_mutual_information(joint.p_label_exact_side())
    i_hat = conditional_mutual_information(joint.p_label_estimate_side())
    return i_star - i_hat


def check_bound_theorem1(joint: DiscreteJoint, p_theta: np.ndarray | None = None):
    """Both sides of the prediction-loss upper bound, exactly.

    lhs: conditional KL between the true label conditional and the model
    evaluated on exact values.  rhs: the same KL evaluated on estimated
    values (under the estimator-induced joint) plus the mutual-
    information gap from :func:`check_jmi_nonneg`.  ``p_theta`` is an
    (ny, nc, no) conditional table over (value-slot, side-info); by
    default the fitted model, i.e. the true label conditional itself.
    """
    p_yco = joint.p_label_exact_side()
    p_yho = joint.p_label_estimate_side()
    if p_theta is None:
        p_theta = joint.true_label_conditional()
    p_theta = np.asarray(p_theta, dtype=np.float64)

    lhs = _conditional_kl(p_yco, p_theta)
    j_kl = _conditional_kl(p_yho, p_theta)
    j_mi = check_jmi_nonneg(joint)
    return lhs, j_kl + j_mi


def _conditional_kl(p_yxo: np.ndarray, p_theta: np.ndarray) -> float:
    """E_{p(y,x,o)} log [ p(y|x,o) / p_theta(y|x,o) ]."""
    p_xo = p_yxo.sum(axis=0)
    total = 0.0
    ny, nx, no = p_yxo.shape
    for y in range(ny):
        for x in range(nx):
            for o in range(no):
                pj = p_yxo[y, x, o]
                if pj <= 0:
                    continue
                cond = pj / p_xo[x, o]
                if p_theta[y, x, o] <= 0:
                    return math.inf
                total += pj * math.log(cond / p_theta[y, x, o])
    return total


# ---------------------------------------------------------------------------
# Tests


class TestKl:
    def test_zero_times_log_zero(self):
        assert kl([0.5, 0.5, 0.0], [0.25, 0.25, 0.5]) == pytest.approx(
            0.5 * math.log(2) + 0.5 * math.log(2)
        )

    def test_infinite_when_unsupported(self):
        assert kl([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_zero_on_equal(self):
        assert kl([0.3, 0.7], [0.3, 0.7]) == 0.0


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
        for seed in range(123, 148):
            trace = verify_monotone_kl(*random_mixture_instance(seed), T=10)
            assert trace.max_increase <= 1e-9, f"seed {seed}: mean divergence rose"

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
        targets, comps = random_mixture_instance(30)
        trace = verify_monotone_kl(targets, comps, T=10, direction=MIXTURE_TO_TARGET)
        assert trace.max_increase > 1e-3          # the measured divergence rises
        rev = trace.reverse_trace                 # ... but the objective is monotone
        assert all(b <= a + 1e-9 for a, b in zip(rev, rev[1:]))


class TestDiscreteJoint:
    def test_random_instance_is_pmf_with_complement_support(self):
        j = DiscreteJoint.random_instance(0)
        t = j.table
        assert t.sum() == pytest.approx(1.0, abs=1e-12)
        nc = t.shape[1]
        for c in range(nc):
            assert np.abs(t[:, c, :, c, :]).max() == 0.0

    def test_bound_holds_with_fitted_predictor(self):
        """The fitted predictor is the one for which the bound is provable."""
        for seed in range(11, 311):
            rng = np.random.default_rng(seed)
            nc = int(rng.integers(2, 4))
            no = int(rng.integers(1, 3))
            joint = DiscreteJoint.random_instance(seed, nc=nc, no=no)
            lhs, rhs = check_bound_theorem1(joint)
            assert lhs - rhs <= 1e-9, f"seed {seed}: bound violated"
            assert check_jmi_nonneg(joint) >= -1e-9, f"seed {seed}: negative information gap"

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
        anti-tuned table violates it, which is why the randomized check
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
