"""The joint-propagation reference check and the synthetic data generators.

Joint confidence tables are dense over every CF value tuple and capped,
so the reference is desk-scale by design.  ``compfeat oracle`` runs
:func:`run_equivalence_suite`, which checks the production
:func:`compfeat.graph.propagate_step` on random
:func:`compfeat.graph.build_graph` graphs against propagation of the
joint table.  :func:`make_smooth_synthetic` and :func:`make_bank_like`
build datasets with known ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Column, Dataset, FeatureSchema, synthesize_cf
from .errors import CardinalityCapError
from .graph import build_graph, propagate_step

JOINT_CARDINALITY_CAP = 10**6


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

    def marginal(self, j: int) -> np.ndarray:
        """Sum out every CF axis except j; returns (n, u_j)."""
        cube = self.values.reshape((self.n, *self.cards))
        axes = tuple(a + 1 for a in range(len(self.cards)) if a != j)
        return cube.sum(axis=axes)


def propagate_joint(h: np.ndarray, q: JointConfidence, T: int) -> JointConfidence:
    """T left-multiplications of the joint confidence by the dense graph matrix ``h``."""
    vals = q.values
    for _ in range(T):
        vals = h @ vals
    return JointConfidence(cards=q.cards, values=vals)


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
# Randomized verification suite (run by the CLI and the test suite)


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


def run_equivalence_suite(count: int, seed0: int = 0, tol: float = 1e-10) -> dict:
    """Marginalized joint propagation must match marginal propagation.

    Random instances: n <= 30, up to 3 CFs with 3-4 values each, T <= 5,
    and the graph ``build_graph(x, k)`` of n standard normal points x in
    1 to 3 dimensions with k in [1, n - 1].  Its rows keep differing
    numbers of nonzero weights on most instances, so the kernel's rank
    order and per-rank prefixes are exercised.  Both routes run pure
    propagation (no correction, which only the marginal path defines).
    The joint route multiplies by the dense matrix ``graph.to_dense()``.
    The marginal route is the production kernel,
    :func:`compfeat.graph.propagate_step`, on the stacked initial
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
        d = int(rng.integers(1, 4))
        graph = build_graph(rng.normal(size=(n, d)), int(rng.integers(1, n)))
        T = int(rng.integers(1, 6))

        joint = joint_init_from_codes(observed, cards)
        joint_t = propagate_joint(graph.to_dense(), joint, T)
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
