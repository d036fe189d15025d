"""Brute-force reference implementations and numeric verification checks.

Everything here is desk-scale by design: joint confidence tables are
dense and capped, divergences are exact finite sums, and the solvers are
plain projected gradient.  These routines exist to validate the
production path in :mod:`compfeat.propagation` and the inequalities the
method rests on, not to run at data scale.

Conventions: natural logarithms; 0 log 0 = 0; a divergence D(p || q)
with p > 0 where q = 0 is reported as +inf rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Column, Dataset, FeatureSchema, synthesize_cf
from .errors import CardinalityCapError, InfeasibleKLError, MissingTruthError
from .graph import WeightGraph
from .propagation import propagate_step

JOINT_CARDINALITY_CAP = 10**6


# ---------------------------------------------------------------------------
# Divergences on dense tables


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """D(p || q) in nats; +inf when p has mass where q vanishes."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def entropy(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    mask = p > 0
    return float(-np.sum(p[mask] * np.log(p[mask])))


# ---------------------------------------------------------------------------
# Joint confidence over the product of all CF value sets


@dataclass(frozen=True)
class JointConfidence:
    """Dense (n, prod u_j) confidence over full CF value tuples.

    Flat indices are row-major with the first CF slowest, so tuple
    (v_1, ..., v_F) of 1-based codes maps to
    ``ravel_multi_index(v - 1, cards)``.
    """

    cards: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True)
        card = int(np.prod(self.cards))
        if vals.shape[1] != card:
            raise CardinalityCapError(
                f"values have {vals.shape[1]} columns, cards imply {card}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    def flat_index(self, codes) -> int:
        return int(np.ravel_multi_index(np.asarray(codes) - 1, self.cards))

    def marginal(self, j: int) -> np.ndarray:
        """Sum out every CF axis except j; returns (n, u_j)."""
        cube = self.values.reshape((self.n, *self.cards))
        axes = tuple(a + 1 for a in range(len(self.cards)) if a != j)
        return cube.sum(axis=axes)


def init_joint(ds: Dataset, cap: int = JOINT_CARDINALITY_CAP) -> JointConfidence:
    """Uniform mass over CF tuples componentwise different from the observation."""
    if ds.cf_observed is None:
        raise MissingTruthError("init_joint needs observed CF values")
    return joint_init_from_codes(ds.cf_observed, [c.size for c in ds.schema.cf_columns], cap)


def propagate_joint(graph: WeightGraph | np.ndarray, q: JointConfidence, T: int) -> JointConfidence:
    """T left-multiplications of the joint confidence by the graph matrix."""
    h = graph.to_dense() if isinstance(graph, WeightGraph) else np.asarray(graph)
    vals = q.values
    for _ in range(T):
        vals = h @ vals
    return JointConfidence(cards=q.cards, values=vals)


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

    mean_trace: np.ndarray          # (T+1,) mean D(target_i || q_i^(t))
    reverse_trace: np.ndarray       # (T+1,) mean D(q_i^(t) || target_i)
    per_instance: np.ndarray        # (n, T+1)
    max_increase: float             # worst consecutive rise of the mean trace
    worst_step: int                 # t at which it happened (0 if none)
    flagged: bool                   # some trace value was infinite
    direction: str
    targets: np.ndarray = field(repr=False, default=None)
    components: np.ndarray = field(repr=False, default=None)

    def non_increasing(self, slack: float = 1e-9) -> bool:
        return self.max_increase <= slack


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
    comps0 = np.asarray(components, dtype=np.float64)
    n = p.shape[0]
    per = np.empty((n, T + 1))
    rev = np.empty((n, T + 1))
    comps = comps0.copy()
    per[:, 0] = [kl(p[i], comps[i]) for i in range(n)]
    rev[:, 0] = [kl(comps[i], p[i]) for i in range(n)]
    for t in range(1, T + 1):
        h = ideal_weights(p, comps, direction=direction)
        comps = h @ comps
        per[:, t] = [kl(p[i], comps[i]) for i in range(n)]
        rev[:, t] = [kl(comps[i], p[i]) for i in range(n)]
    mean_trace = per.mean(axis=0)
    finite = np.isfinite(mean_trace)
    max_inc, worst = 0.0, 0
    for t in range(1, T + 1):
        if not (finite[t - 1] and finite[t]):
            continue
        rise = mean_trace[t] - mean_trace[t - 1]
        if rise > max_inc:
            max_inc, worst = rise, t
    return MonotoneTrace(
        mean_trace=mean_trace,
        reverse_trace=rev.mean(axis=0),
        per_instance=per,
        max_increase=float(max_inc),
        worst_step=worst,
        flagged=bool(~finite.all()),
        direction=direction,
        targets=p,
        components=comps0,
    )


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

    # -- factories ---------------------------------------------------------

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

    # -- marginals ---------------------------------------------------------

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
# Controlled synthetic data


def make_smooth_synthetic(
    n: int,
    cf_cards,
    n_of: int,
    roughness: float,
    seed: int,
    cf_names=None,
    n_binary_of: int = 0,
    sharpness: float = 12.0,
    n_waves: int = 8,
):
    """Dataset whose CF conditionals vary smoothly with the OF vector.

    OF vectors are uniform on [0, 1]^n_of; per CF the conditional over
    categories is a softmax of random band-limited functions whose
    spatial frequency scales with ``roughness`` (0 makes them constant).
    Labels follow a logistic model on the OFs and the true CF values.
    Returns the dataset (with complement observations already drawn)
    and the per-CF list of (n, u_j) ground-truth conditional tables.
    """
    rng = np.random.default_rng(seed)
    cards = list(cf_cards)
    if cf_names is None:
        cf_names = [f"cf{j + 1}" for j in range(len(cards))]

    x = rng.uniform(0.0, 1.0, size=(n, n_of))

    def smooth_scores(width):
        freq = rng.normal(0.0, 2.0 * math.pi * roughness, size=(n_waves, n_of))
        phase = rng.uniform(0.0, 2.0 * math.pi, size=n_waves)
        amp = rng.normal(0.0, 1.0 / math.sqrt(n_waves), size=(n_waves, width))
        return np.cos(x @ freq.T + phase) @ amp

    targets = []
    truth = np.empty((n, len(cards)), dtype=np.int64)
    for j, u in enumerate(cards):
        scores = sharpness * smooth_scores(u)
        scores -= scores.max(axis=1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=1, keepdims=True)
        targets.append(probs)
        cum = probs.cumsum(axis=1)
        draws = rng.uniform(size=(n, 1))
        truth[:, j] = np.minimum((draws > cum).sum(axis=1) + 1, u)

    binary_codes = []
    for _ in range(n_binary_of):
        binary_codes.append((smooth_scores(1)[:, 0] > 0).astype(np.int64) + 1)

    label_logit = smooth_scores(1)[:, 0] * 2.0
    for j, u in enumerate(cards):
        w = rng.normal(0.0, 1.0, size=u)
        label_logit += w[truth[:, j] - 1]
    p_pos = 1.0 / (1.0 + np.exp(-label_logit))
    labels = (rng.uniform(size=n) < p_pos).astype(np.int64) + 1

    columns = [Column(f"of{m + 1}", "quantitative", "OF") for m in range(n_of)]
    columns += [
        Column(f"flag{m + 1}", "binary", "OF", ("no", "yes"))
        for m in range(n_binary_of)
    ]
    columns += [
        Column(name, "categorical", "CF", tuple(f"c{v}" for v in range(1, u + 1)))
        for name, u in zip(cf_names, cards)
    ]
    columns.append(Column("target", "binary", "label", ("no", "yes")))
    schema = FeatureSchema(tuple(columns))

    of_values = [x[:, m].copy() for m in range(n_of)] + binary_codes
    ds = Dataset(
        schema=schema,
        of_values=tuple(of_values),
        labels=labels,
        cf_truth=truth,
    )
    return synthesize_cf(ds, seed), targets


# ---------------------------------------------------------------------------
# Randomized verification suites (shared by the CLI and the test suite)


def marginal_init_from_codes(observed: np.ndarray, cards) -> list[np.ndarray]:
    """Uniform-over-complement rows, one (n, u_j) array per CF."""
    observed = np.asarray(observed, dtype=np.int64)
    n = observed.shape[0]
    out = []
    for j, u in enumerate(cards):
        vals = np.full((n, u), 1.0 / (u - 1))
        vals[np.arange(n), observed[:, j] - 1] = 0.0
        out.append(vals)
    return out


def joint_init_from_codes(observed: np.ndarray, cards,
                          cap: int = JOINT_CARDINALITY_CAP) -> JointConfidence:
    """Joint analogue of :func:`marginal_init_from_codes`."""
    observed = np.asarray(observed, dtype=np.int64)
    cards = tuple(cards)
    card = int(np.prod(cards))
    if card > cap:
        raise CardinalityCapError(f"joint cardinality {card} exceeds cap {cap}")
    n = observed.shape[0]
    mass = 1.0 / np.prod([u - 1 for u in cards])
    values = np.full((n, card), mass)
    grid = np.stack(np.unravel_index(np.arange(card), cards), axis=1) + 1
    for j in range(len(cards)):
        clash = grid[None, :, j] == observed[:, j, None]
        values[clash] = 0.0
    return JointConfidence(cards=cards, values=values)


def _random_row_stochastic(rng, n: int) -> np.ndarray:
    h = rng.gamma(1.0, size=(n, n))
    np.fill_diagonal(h, 0.0)
    return h / h.sum(axis=1, keepdims=True)


def run_equivalence_suite(count: int, seed0: int = 0, tol: float = 1e-10) -> dict:
    """Marginalized joint propagation must match marginal propagation.

    Random instances: n <= 30, up to 3 CFs with 3-4 values each, random
    row-stochastic zero-diagonal graphs, T <= 5.  Both routes run pure
    propagation (no correction, which only the marginal path defines).
    The marginal route is the production kernel,
    :func:`compfeat.propagation.propagate_step`, on the stacked initial
    confidences that :func:`marginal_init_from_codes` builds
    independently of :func:`compfeat.propagation.init_marginal`.
    """
    worst = 0.0
    failures = []
    for s in range(count):
        rng = np.random.default_rng(seed0 + s)
        n = int(rng.integers(2, 31))
        f_c = int(rng.integers(1, 4))
        cards = [int(rng.integers(3, 5)) for _ in range(f_c)]
        observed = np.column_stack(
            [rng.integers(1, u + 1, size=n) for u in cards]
        )
        h = _random_row_stochastic(rng, n)
        T = int(rng.integers(1, 6))

        joint = joint_init_from_codes(observed, cards)
        joint_t = propagate_joint(h, joint, T)
        graph = WeightGraph.from_dense(h)
        q = np.hstack(marginal_init_from_codes(observed, cards))
        for _ in range(T):
            q = propagate_step(graph, q)
        marginals = np.split(q, np.cumsum(cards)[:-1], axis=1)
        dev = max(
            float(np.abs(joint_t.marginal(j) - marginals[j]).max())
            for j in range(f_c)
        )
        worst = max(worst, dev)
        if dev > tol:
            failures.append({"seed": seed0 + s, "deviation": dev})
    return {"name": "joint-marginal equivalence", "instances": count,
            "tolerance": tol, "worst": worst, "failures": failures}


def run_monotone_suite(
    count: int,
    T: int = 10,
    slack: float = 1e-9,
    seed0: int = 0,
    direction: str = TARGET_TO_MIXTURE,
) -> dict:
    """Mean divergence along the idealized loop must never rise.

    Random instances: n <= 8 rows, up to 8 atoms, strictly positive
    targets and components so every divergence stays finite.
    Counterexamples carry the full instance for replay.
    """
    worst = 0.0
    failures = []
    flagged = 0
    for s in range(count):
        rng = np.random.default_rng(seed0 + s)
        n = int(rng.integers(2, 9))
        atoms = int(rng.integers(2, 9))
        targets = rng.gamma(1.0, size=(n, atoms))
        targets /= targets.sum(axis=1, keepdims=True)
        comps = rng.gamma(1.0, size=(n, atoms))
        comps /= comps.sum(axis=1, keepdims=True)
        trace = verify_monotone_kl(targets, comps, T, direction=direction)
        flagged += int(trace.flagged)
        worst = max(worst, trace.max_increase)
        if not trace.non_increasing(slack):
            failures.append({
                "seed": seed0 + s,
                "max_increase": trace.max_increase,
                "worst_step": trace.worst_step,
                "targets": targets.tolist(),
                "components": comps.tolist(),
                "mean_trace": trace.mean_trace.tolist(),
                "direction": direction,
            })
    return {"name": "mixture-loop divergence monotonicity", "instances": count,
            "slack": slack, "worst": worst, "flagged": flagged,
            "direction": direction, "failures": failures}


def run_bound_suite(count: int, seed0: int = 0, tol: float = 1e-9) -> dict:
    """Prediction-loss bound and information gap on random joints.

    Instances respect the generative structure (estimates derive from
    the observation channel only); the predictor under test is the
    fitted one, for which the bound is provable.  Also checks the
    perfect-estimator equality case and the blind-estimator identity.
    """
    worst_bound = -math.inf
    worst_jmi = math.inf
    failures = []
    for s in range(count):
        rng = np.random.default_rng(seed0 + s)
        nc = int(rng.integers(2, 4))
        no = int(rng.integers(1, 3))
        joint = DiscreteJoint.random_instance(seed0 + s, nc=nc, no=no)
        lhs, rhs = check_bound_theorem1(joint)
        jmi = check_jmi_nonneg(joint)
        gap = lhs - rhs
        worst_bound = max(worst_bound, gap)
        worst_jmi = min(worst_jmi, jmi)
        if gap > tol or jmi < -tol:
            failures.append({"seed": seed0 + s, "lhs": lhs, "rhs": rhs, "jmi": jmi})

    eq = DiscreteJoint.perfect_estimator_instance(seed0)
    eq_lhs, eq_rhs = check_bound_theorem1(eq)
    blind = DiscreteJoint.blind_estimator_instance(seed0)
    blind_gap = check_jmi_nonneg(blind) - conditional_mutual_information(
        blind.p_label_exact_side()
    )
    if abs(eq_lhs) > 1e-12 or abs(eq_rhs) > 1e-12:
        failures.append({"case": "perfect-estimator equality",
                         "lhs": eq_lhs, "rhs": eq_rhs})
    if abs(blind_gap) > 1e-12:
        failures.append({"case": "blind-estimator identity", "gap": blind_gap})
    return {"name": "prediction-loss bound and information gap",
            "instances": count, "tolerance": tol,
            "worst_bound_gap": worst_bound, "worst_jmi": worst_jmi,
            "equality_case": {"lhs": eq_lhs, "rhs": eq_rhs},
            "failures": failures}


BANK_LIKE_CFS = (("job", 12), ("marital", 3), ("education", 4), ("contact", 3), ("poutcome", 4))


def make_bank_like(n: int, seed: int, roughness: float = 0.45):
    """Synthetic stand-in matching the CF layout of the bank-marketing table.

    Seven quantitative and three binary OFs, five CFs with the usual
    cardinalities (12, 3, 4, 3, 4).  Used for desk-scale runs when the
    real CSV is not on disk.
    """
    names = [name for name, _ in BANK_LIKE_CFS]
    cards = [u for _, u in BANK_LIKE_CFS]
    return make_smooth_synthetic(
        n, cards, n_of=7, roughness=roughness, seed=seed,
        cf_names=names, n_binary_of=3,
    )
