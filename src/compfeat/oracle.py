"""The joint-propagation reference check and the synthetic data generators.

``compfeat oracle`` runs :func:`run_equivalence_suite`, which checks the
production :func:`compfeat.graph.propagate_step` on random
:func:`compfeat.graph.build_graph` graphs against propagation of the
joint table, a plain (n, prod u_j) array over every CF value tuple.
The suite's instances keep that table at 64 columns or fewer.
:func:`make_smooth_synthetic` and :func:`make_bank_like` build datasets
with known ground truth.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Column, Dataset, FeatureSchema, _scalar, synthesize_cf
from .graph import build_graph, propagate_step


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
):
    """Dataset whose CF conditionals vary smoothly with the OF vector.

    OF vectors are uniform on [0, 1]^n_of; per CF the conditional over
    categories is a softmax of random band-limited functions whose
    spatial frequency scales with ``roughness`` (0 makes them constant).
    Labels follow a logistic model on the OFs and the true CF values.
    Returns the dataset (with complement observations already drawn)
    and the per-CF list of (n, u_j) ground-truth conditional tables.
    """
    sharpness, n_waves = 12.0, 8
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


def _joint_init(observed: np.ndarray, cards) -> np.ndarray:
    """Dense (n, prod u_j) initial joint confidence: uniform over the CF
    value tuples that avoid every observed value.  Flat indices are
    row-major with the first CF slowest, so the tuple (v_1, ..., v_F) of
    1-based codes sits at ``ravel_multi_index(v - 1, cards)``."""
    grid = np.stack(np.unravel_index(np.arange(np.prod(cards)), cards), axis=1) + 1
    return (grid[None] != observed[:, None]).all(axis=2) / np.prod([u - 1 for u in cards])


EQUIVALENCE_TOL = 1e-10


def run_equivalence_suite(count: int, seed0: int = 0) -> dict:
    """Marginalized joint propagation must match marginal propagation to
    within ``EQUIVALENCE_TOL`` on ``count`` instances seeded from ``seed0``.

    Random instances: n <= 30, up to 3 CFs with 3-4 values each, T <= 5,
    and the graph ``build_graph(x, k)`` of n standard normal points x in
    1 to 3 dimensions with k in [1, n - 1].  Its rows keep differing
    numbers of nonzero weights on most instances, so the kernel's rank
    order and per-rank prefixes are exercised.  Both routes run pure
    propagation (no correction, which only the marginal path defines).
    The joint route starts from :func:`_joint_init`, multiplies by the
    dense matrix ``graph.to_dense()`` and sums out the other CF axes.
    The marginal route is the production kernel,
    :func:`compfeat.graph.propagate_step`, on uniform-over-complement
    rows built here, independently of
    :func:`compfeat.propagation.init_marginal`.  A deviation above the
    tolerance or NaN fails; a non-finite one is reported as None, for JSON.
    """
    count = _scalar(count, "count", 0, integer=True)
    seed0 = _scalar(seed0, "seed0", 0, integer=True)
    devs, failures = [], []
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

        dense = graph.to_dense()
        joint = _joint_init(observed, cards)
        q = np.hstack([np.where(observed[:, [j]] == np.arange(1, u + 1), 0.0, 1.0 / (u - 1))
                       for j, u in enumerate(cards)])
        for _ in range(T):
            joint = dense @ joint
            q = propagate_step(graph, q)
        cube = joint.reshape(n, *cards)
        marginals = np.split(q, np.cumsum(cards)[:-1], axis=1)
        # np.max, unlike max, carries a NaN deviation through.
        dev = float(np.max([
            np.abs(cube.sum(axis=tuple(a + 1 for a in range(f_c) if a != j))
                   - marginals[j]).max()
            for j in range(f_c)
        ]))
        devs.append(dev)
        if not dev <= EQUIVALENCE_TOL:
            failures.append({"seed": seed0 + s, "deviation": dev if math.isfinite(dev) else None})
    worst = float(np.max(devs, initial=0.0))
    return {"name": "joint-marginal equivalence", "instances": count,
            "tolerance": EQUIVALENCE_TOL, "failures": failures,
            "worst": worst if math.isfinite(worst) else None}


BANK_LIKE_CFS = (("job", 12), ("marital", 3), ("education", 4), ("contact", 3), ("poutcome", 4))


def make_bank_like(n: int, seed: int):
    """Synthetic stand-in matching the CF layout of the bank-marketing table.

    Seven quantitative and three binary OFs, five CFs with the usual
    cardinalities (12, 3, 4, 3, 4), and conditionals of roughness 0.45.
    Used for desk-scale runs when the real CSV is not on disk.
    """
    names = [name for name, _ in BANK_LIKE_CFS]
    cards = [u for _, u in BANK_LIKE_CFS]
    return make_smooth_synthetic(
        n, cards, n_of=7, roughness=0.45, seed=seed,
        cf_names=names, n_binary_of=3,
    )
