"""Confidence initialization, propagation, correction, and the full
two-round estimation procedure, plus the uniform-complement and
re-anchored-propagation baselines.

Per CF j, the marginal confidence matrix Q_j is (n, u_j) row-stochastic;
row i estimates the distribution of instance i's exact value.  Rows are
initialized uniform over the complement of the observed value (the
observed entry is exactly 0).  One propagation step replaces Q_j by
H @ Q_j with the row-stochastic neighbor graph H, and the correction
step re-imposes the complement constraint: Hadamard product with the
initial matrix, then row normalization.

The full procedure runs two rounds: round 1 propagates on the OF-only
encoding; round 2 rebuilds the graph with the round-1 confidences
appended as gamma-weighted coordinates, resets the blocks to their
initial state, and propagates again.  The round-1 graph depends only on
the OFs and k, so callers running several seeds on the same rows build
it once and pass it in as ``of_graph``.

Inside the procedures the CF blocks are stacked side by side into one
(n, sum u_j) array with column offsets, so a step is one neighbor
gather-and-sum for all CFs and the correction normalizes each CF's
column segment with ``np.add.reduceat``.  ``ConfidenceBlock`` objects
are built only at the boundary: results, hooks, and the public
per-step functions, which wrap the same stacked kernel.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import STREAM_GUESS, Dataset, complement_draws
from .encoding import EncodedMatrix, encode_with_confidence
from .errors import DataError, MissingTruthError, ShapeMismatchError
from .graph import WeightGraph, build_graph

TraceHook = Callable[..., None]


@dataclass(frozen=True)
class ConfidenceBlock:
    """Row-stochastic (n, u) confidence matrix for one CF."""

    cf_index: int
    name: str
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.ndim != 2:
            raise ShapeMismatchError("confidence block must be 2-D")
        if vals.size and (vals.min() < 0 or np.abs(vals.sum(axis=1) - 1.0).max() > 1e-10):
            raise DataError(f"block {self.name!r} must be row-stochastic")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def u(self) -> int:
        return int(self.values.shape[1])

    def replace_values(self, values: np.ndarray) -> "ConfidenceBlock":
        return ConfidenceBlock(cf_index=self.cf_index, name=self.name, values=values)


@dataclass(frozen=True)
class EstimationResult:
    """Final confidences and hard estimates for every CF.

    ``hard_estimates[i, j]`` is the argmax of ``confidences[j]`` row i
    (ties to the lowest code) for confidence-ranked methods; the
    uniform-complement baseline instead draws seeded random complements.
    """

    confidences: tuple[ConfidenceBlock, ...]
    hard_estimates: np.ndarray
    method: str
    hyperparams: dict

    def __post_init__(self):
        hard = np.array(self.hard_estimates, dtype=np.int64, copy=True)
        hard.flags.writeable = False
        object.__setattr__(self, "hard_estimates", hard)
        object.__setattr__(self, "confidences", tuple(self.confidences))
        object.__setattr__(self, "hyperparams", dict(self.hyperparams))

    @property
    def n(self) -> int:
        return int(self.hard_estimates.shape[0])

    def block(self, name: str) -> ConfidenceBlock:
        for b in self.confidences:
            if b.name == name:
                return b
        raise DataError(f"no confidence block named {name!r}")

    def to_json(self, include_confidences: bool = False) -> dict:
        out = {
            "method": self.method,
            "hyperparams": self.hyperparams,
            "cf_names": [b.name for b in self.confidences],
            "hard_estimates": self.hard_estimates.tolist(),
        }
        if include_confidences:
            out["confidences"] = {b.name: b.values.tolist() for b in self.confidences}
        return out

    def save(self, path, include_confidences: bool = False, extra: dict | None = None):
        doc = self.to_json(include_confidences=include_confidences)
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            # json.dumps, unlike json.dump, runs the C encoder.
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path) -> "EstimationResult":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        hard = np.asarray(doc["hard_estimates"], dtype=np.int64)
        blocks = []
        conf = doc.get("confidences")
        if conf:
            for j, name in enumerate(doc["cf_names"]):
                blocks.append(ConfidenceBlock(cf_index=j, name=name,
                                              values=np.asarray(conf[name])))
        return cls(confidences=tuple(blocks), hard_estimates=hard,
                   method=doc["method"], hyperparams=doc["hyperparams"])


def input_fingerprint(ds: Dataset, extra: dict | None = None) -> str:
    """Content hash of the estimation inputs, for report provenance."""
    h = hashlib.sha256()
    for arr in ds.of_values:
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(np.ascontiguousarray(ds.labels).tobytes())
    if ds.cf_observed is not None:
        h.update(np.ascontiguousarray(ds.cf_observed).tobytes())
    for key in sorted(extra or {}):
        h.update(f"{key}={extra[key]}".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Core operations


def init_marginal(ds: Dataset) -> list[ConfidenceBlock]:
    """Uniform-over-complement initial confidence, one block per CF."""
    if ds.cf_observed is None:
        raise MissingTruthError("init_marginal needs observed CF values")
    blocks = []
    for j, col in enumerate(ds.schema.cf_columns):
        u = col.size
        vals = np.full((ds.n, u), 1.0 / (u - 1))
        vals[np.arange(ds.n), ds.cf_observed[:, j] - 1] = 0.0
        blocks.append(ConfidenceBlock(cf_index=j, name=col.name, values=vals))
    return blocks


def propagate_step(graph: WeightGraph, blocks: Sequence[ConfidenceBlock]) -> list[ConfidenceBlock]:
    """One confidence-propagation step: Q_j <- H Q_j for every CF j."""
    for b in blocks:
        if b.n != graph.n:
            raise ShapeMismatchError(
                f"block {b.name!r} has {b.n} rows, graph has {graph.n}"
            )
    if not blocks:
        return []
    q, _ = _stack(blocks)
    return _unstack(_propagate(graph, q), blocks)


def correct(blocks: Sequence[ConfidenceBlock], init: Sequence[ConfidenceBlock]) -> list[ConfidenceBlock]:
    """Re-impose the complement constraint.

    Hadamard product with the initial blocks followed by row
    normalization; the entry at each observed value becomes exactly 0.
    A row whose product vanishes entirely falls back to its initial
    row.  That happens whenever every neighbor's mass sits on the
    row's observed value, e.g. for u = 3 when the neighbors have
    already collapsed onto it.
    """
    for b, b0 in zip(blocks, init, strict=True):
        if b.values.shape != b0.values.shape:
            raise ShapeMismatchError(f"block {b.name!r} shape mismatch with init")
    if not blocks:
        return []
    q, starts = _stack(blocks)
    q0, _ = _stack(init)
    return _unstack(_normalize(q * q0, q0, starts), blocks)


def _stack(blocks: Sequence[ConfidenceBlock]) -> tuple[np.ndarray, np.ndarray]:
    """Blocks side by side as one (n, sum u) array, plus each block's first column."""
    _require_cfs(blocks)
    sizes = [b.u for b in blocks]
    starts = np.cumsum([0] + sizes[:-1])
    return np.hstack([b.values for b in blocks]), starts


def _unstack(q: np.ndarray, blocks: Sequence[ConfidenceBlock]) -> list[ConfidenceBlock]:
    """Split stacked columns back into blocks shaped and named like ``blocks``."""
    out, pos = [], 0
    for b in blocks:
        out.append(b.replace_values(q[:, pos:pos + b.u]))
        pos += b.u
    return out


def _propagate(graph: WeightGraph, q: np.ndarray) -> np.ndarray:
    """H @ q for stacked confidences: one gather-and-sum over all CFs."""
    return np.einsum("nk,nku->nu", graph.weights, q[graph.neighbors])


def _normalize(q: np.ndarray, q0: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Row-normalize each CF's column segment of ``q``.

    A segment row whose sum is not positive becomes the matching
    segment row of ``q0`` instead.
    """
    sums = np.add.reduceat(q, starts, axis=1)
    dead = sums <= 0.0
    sizes = np.diff(np.append(starts, q.shape[1]))
    if dead.any():
        q = np.where(np.repeat(dead, sizes, axis=1), q0, q)
        sums[dead] = 1.0
    return q / np.repeat(sums, sizes, axis=1)


def hard_from_blocks(blocks: Sequence[ConfidenceBlock]) -> np.ndarray:
    """Row argmax per CF as 1-based codes; ties go to the lowest code."""
    _require_cfs(blocks)
    return np.column_stack([b.values.argmax(axis=1) + 1 for b in blocks])


def _require_cfs(blocks: Sequence[ConfidenceBlock]):
    if not blocks:
        raise DataError("the schema has no CF columns to estimate")


# ---------------------------------------------------------------------------
# Full procedures


def _of_graph(enc_of: EncodedMatrix, k: int, of_graph: WeightGraph | None) -> WeightGraph:
    """``of_graph`` after a shape check, or the graph of ``enc_of`` when it is None."""
    if of_graph is None:
        return build_graph(enc_of, k)
    if (of_graph.n, of_graph.k) != (enc_of.n, min(k, enc_of.n - 1)):
        raise ShapeMismatchError(f"round-1 graph is {of_graph.n} x {of_graph.k}, "
                                 f"expected {enc_of.n} x {min(k, enc_of.n - 1)}")
    return of_graph


def run_proposed(
    ds: Dataset,
    enc_of: EncodedMatrix,
    T: int,
    k: int,
    gamma: float,
    of_graph: WeightGraph | None = None,
    hook: TraceHook | None = None,
) -> EstimationResult:
    """Two-round graph-based estimation of every CF's exact value.

    ``of_graph`` is the round-1 graph of ``enc_of`` at this ``k``, as
    :func:`build_graph` returns it; it is built here when omitted.
    ``hook(event, ...)`` receives ``("graph", round_idx, graph)`` after
    each graph build and ``("iteration", round_idx, t, blocks)`` after
    each correction, for instrumentation.
    """
    if T < 1:
        raise DataError("T must be >= 1")
    if not 0.0 <= gamma <= 1.0:
        raise DataError(f"gamma must lie in [0, 1], got {gamma}")
    init = init_marginal(ds)
    q0, starts = _stack(init)

    def one_round(graph: WeightGraph, round_idx: int) -> list[ConfidenceBlock]:
        q = q0
        for t in range(1, T + 1):
            q = _normalize(_propagate(graph, q) * q0, q0, starts)
            if hook is not None:
                hook("iteration", round_idx, t, _unstack(q, init))
        return _unstack(q, init)

    graph1 = _of_graph(enc_of, k, of_graph)
    if hook is not None:
        hook("graph", 1, graph1)
    round1 = one_round(graph1, 1)

    enc2 = encode_with_confidence(enc_of, round1, gamma)
    graph2 = build_graph(enc2, k)
    if hook is not None:
        hook("graph", 2, graph2)
    round2 = one_round(graph2, 2)

    return EstimationResult(
        confidences=tuple(round2),
        hard_estimates=hard_from_blocks(round2),
        method="proposed",
        hyperparams={"T": T, "k": k, "gamma": gamma},
    )


def run_comp(ds: Dataset, seed: int) -> EstimationResult:
    """Baseline: initial confidences plus seeded random complement guesses.

    The hard estimate for each cell is drawn uniformly from the values
    other than the observed one, so its accuracy is 1/(u-1) in
    expectation.
    """
    blocks = init_marginal(ds)
    idx = np.arange(ds.n)
    hard = np.empty((ds.n, len(blocks)), dtype=np.int64)
    for j, col in enumerate(ds.schema.cf_columns):
        hard[:, j] = complement_draws(
            seed, idx, j, col.size, ds.cf_observed[:, j], STREAM_GUESS
        )
    return EstimationResult(
        confidences=tuple(blocks),
        hard_estimates=hard,
        method="comp",
        hyperparams={"seed": seed},
    )


def run_ipal(
    ds: Dataset,
    enc_of: EncodedMatrix,
    T: int,
    k: int,
    alpha: float,
    of_graph: WeightGraph | None = None,
) -> EstimationResult:
    """Re-anchored propagation baseline, run transductively.

    Single round on the OF graph with the affine update
    Q^(t) = alpha H Q^(t-1) + (1 - alpha) Q^(0) and no correction step;
    the affine map preserves row sums analytically, and the final blocks
    are row-normalized to guard against drift.  ``of_graph`` is as in
    :func:`run_proposed`.
    """
    if not 0.0 < alpha < 1.0:
        raise DataError("alpha must lie in (0, 1)")
    init = init_marginal(ds)
    q0, starts = _stack(init)
    graph = _of_graph(enc_of, k, of_graph)
    q = q0
    for _ in range(T):
        q = _normalize(alpha * _propagate(graph, q) + (1.0 - alpha) * q0, q0, starts)
    blocks = _unstack(q, init)
    return EstimationResult(
        confidences=tuple(blocks),
        hard_estimates=hard_from_blocks(blocks),
        method="ipal",
        hyperparams={"T": T, "k": k, "alpha": alpha},
    )


def run_ipal_split(
    ds: Dataset,
    enc_of: EncodedMatrix,
    T: int,
    k: int,
    alpha: float,
    train_idx: np.ndarray,
) -> EstimationResult:
    """Re-anchored propagation restricted to training instances.

    Propagation runs on the training subgraph only; each test instance
    then copies the hard estimate of its nearest training neighbor in
    the OF encoding (an approximation of the original transfer rule),
    and its confidence row becomes the matching one-hot vector.
    """
    train_idx = np.asarray(train_idx, dtype=np.int64)
    train_ds = ds.subset(train_idx)
    x = enc_of.values
    train_enc = EncodedMatrix(values=x[train_idx], blocks=dict(enc_of.blocks))
    sub = run_ipal(train_ds, train_enc, T, k, alpha)

    test_mask = np.ones(ds.n, dtype=bool)
    test_mask[train_idx] = False
    test_idx = np.flatnonzero(test_mask)
    # Nearest training instance per test row (ties to the lowest index).
    nearest = np.empty(test_idx.size, dtype=np.int64)
    for pos in range(0, test_idx.size, 256):
        chunk = test_idx[pos:pos + 256]
        diff = x[chunk, None, :] - x[None, train_idx, :]
        d2 = (diff * diff).sum(axis=-1)
        nearest[pos:pos + chunk.size] = d2.argmin(axis=1)

    hard = np.empty((ds.n, len(sub.confidences)), dtype=np.int64)
    hard[train_idx] = sub.hard_estimates
    hard[test_idx] = sub.hard_estimates[nearest]
    blocks = []
    for j, b in enumerate(sub.confidences):
        vals = np.zeros((ds.n, b.u))
        vals[train_idx] = b.values
        vals[test_idx, hard[test_idx, j] - 1] = 1.0
        blocks.append(ConfidenceBlock(cf_index=j, name=b.name, values=vals))
    return EstimationResult(
        confidences=tuple(blocks),
        hard_estimates=hard,
        method="ipal",
        hyperparams={"T": T, "k": k, "alpha": alpha, "split": True},
    )
