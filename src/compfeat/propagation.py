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
appended as gamma-weighted coordinates, resets the confidences to
their initial state, and propagates again.  The round-1 graph depends only on
the OFs and k, so callers running several seeds on the same rows build
it once and pass it in as ``of_graph``.

All CFs' matrices are stacked side by side into one (n, sum u_j) array,
CF j owning the column segment of width u_j that follows CF j-1's, in
schema order.  This stacked matrix is the only representation of
confidences, from :func:`init_marginal` through every step to
:class:`EstimationResult`: a step gathers and sums, for all CFs at
once, each row's neighbors of nonzero weight (on bank-like graphs 5 to
7 of k = 20), and the correction normalizes each segment with
``np.add.reduceat``.

The step is :func:`compfeat.graph.propagate_step`, imported here.  The
procedures look it, :func:`correct` and ``build_graph`` up in this
module, so patching them here observes every graph and step of a run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import STREAM_GUESS, Dataset, complement_draws
from .encoding import encode_of, encode_with_confidence
from .errors import CompfeatError, DataError, MissingTruthError, ShapeMismatchError
from .graph import WeightGraph, build_graph, propagate_step


@dataclass(frozen=True)
class EstimationResult:
    """Final confidences and hard estimates for every CF.

    ``confidences`` is the stacked (n, sum u_j) matrix whose column
    segment j, of width ``sizes[j]``, holds CF j's row-stochastic
    confidences.  ``hard_estimates[i, j]`` is a code in ``1..sizes[j]``:
    the argmax of segment j row i (ties to the lowest code) for
    confidence-ranked methods; the uniform-complement baseline instead
    draws seeded random complements.
    """

    cf_names: tuple[str, ...]
    sizes: tuple[int, ...]
    confidences: np.ndarray
    hard_estimates: np.ndarray
    method: str
    hyperparams: dict

    def __post_init__(self):
        names = tuple(self.cf_names)
        hard = np.array(self.hard_estimates, dtype=np.int64, copy=True)
        if hard.ndim != 2 or hard.shape[1] != len(names):
            raise ShapeMismatchError(
                f"hard estimates of shape {hard.shape} do not fit {len(names)} CF names")
        hard.flags.writeable = False
        object.__setattr__(self, "cf_names", names)
        object.__setattr__(self, "hard_estimates", hard)
        object.__setattr__(self, "hyperparams", dict(self.hyperparams))
        sizes = tuple(int(u) for u in self.sizes)
        q = np.array(self.confidences, dtype=np.float64, copy=True)
        if len(sizes) != len(names) or q.shape != (hard.shape[0], sum(sizes)):
            raise ShapeMismatchError(
                f"confidences of shape {q.shape} do not fit {hard.shape[0]} rows "
                f"and CF widths {sizes}")
        if hard.size and (hard.min() < 1 or (hard > np.array(sizes)).any()):
            raise DataError(f"hard estimates outside the CF codes 1..u of widths {sizes}")
        if sizes and not (q.min(initial=0.0) >= 0.0 and np.abs(
                np.add.reduceat(q, _starts(sizes), axis=1) - 1.0).max(initial=0.0) <= 1e-10):
            raise DataError("confidences must be row-stochastic in every CF segment")
        q.flags.writeable = False
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "confidences", q)

    @property
    def n(self) -> int:
        return int(self.hard_estimates.shape[0])

    def check_fits(self, ds: Dataset):
        """Raise :class:`ShapeMismatchError` unless this result estimates
        the CFs of ``ds``'s schema, by name and width, on its rows."""
        names = tuple(c.name for c in ds.schema.cf_columns)
        if (self.cf_names, self.sizes, self.n) != (names, ds.schema.cf_sizes, ds.n):
            raise ShapeMismatchError(
                f"the result estimates CF names {list(self.cf_names)} of widths "
                f"{list(self.sizes)} on {self.n} rows; the dataset has CF names "
                f"{list(names)} of widths {list(ds.schema.cf_sizes)} on {ds.n} rows")

    def block(self, j: int) -> np.ndarray:
        """Read-only view of CF j's (n, u_j) confidence segment."""
        start = sum(self.sizes[:j])
        return self.confidences[:, start:start + self.sizes[j]]

    def save(self, path, extra: dict | None = None):
        """Write the result as one line of UTF-8 JSON for :meth:`load`.

        The object has sorted keys and no whitespace, and ends in a
        newline.  It holds ``method``, ``hyperparams``, ``cf_names``,
        ``hard_estimates`` (n lists of codes), ``confidences`` (one (n,
        u_j) list of lists per CF name) and the ``extra`` keys.  Every
        float is written as the shortest text that reads back as the same
        float64, so any JSON reader recovers the saved values exactly.
        The text differs from Python's ``repr`` only for entries below
        1e-4: ``0.00004830844254893549`` for ``4.830844254893549e-05``,
        ``5e-8`` for ``5e-08``.  Integers must fit in 64 bits.  Saving one
        result twice gives the same bytes.

        Reading stays on the standard library's ``json``: ``orjson.loads``
        of a 2 MB estimate file peaks about 5 MB higher, and every
        command that reads estimates would pay that in peak RSS.
        """
        # Imported here, where only the commands that write estimates pay
        # for it; formatting the floats is most of a save, and orjson does
        # it about ten times faster than json.dumps.
        import orjson

        doc = {"method": self.method, "hyperparams": self.hyperparams,
               "cf_names": list(self.cf_names),
               "hard_estimates": np.ascontiguousarray(self.hard_estimates),
               "confidences": {name: np.ascontiguousarray(self.block(j))
                               for j, name in enumerate(self.cf_names)},
               **(extra or {})}
        with open(path, "wb") as fh:
            fh.write(orjson.dumps(doc, option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
                                  | orjson.OPT_APPEND_NEWLINE))

    @classmethod
    def load(cls, path, expect: dict | None = None) -> "EstimationResult":
        """Read a saved result; a malformed file raises :class:`DataError`,
        as does one whose stored ``expect`` keys are missing or differ."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            names, hard = doc["cf_names"], doc["hard_estimates"]
            blocks = [np.asarray(doc["confidences"][name], dtype=np.float64) for name in names]
            result = cls(cf_names=names, sizes=[b.shape[1] for b in blocks],
                         confidences=np.hstack(blocks) if blocks else np.zeros((len(hard), 0)),
                         hard_estimates=hard,
                         method=doc["method"], hyperparams=doc["hyperparams"])
            # Element types, not np.asarray's dtype: a true among ints reads as int64.
            if any(type(v) is not int for row in hard for v in row):
                raise DataError("hard estimates must be integer codes")
        except (ValueError, KeyError, IndexError, TypeError, CompfeatError) as exc:
            raise DataError(f"{path}: malformed estimation result ({exc})") from None
        for key, value in (expect or {}).items():
            if doc.get(key) != value:
                raise DataError(f"{path}: stored {key} {doc.get(key)!r} is not {value!r}; "
                                f"it was estimated from other inputs")
        return result


# ---------------------------------------------------------------------------
# Core operations


def init_marginal(ds: Dataset) -> np.ndarray:
    """Uniform-over-complement initial confidences, stacked over all CFs."""
    if ds.cf_observed is None:
        raise MissingTruthError("init_marginal needs observed CF values")
    sizes = ds.schema.cf_sizes
    q0 = np.tile(np.repeat([1.0 / (u - 1) for u in sizes], sizes), (ds.n, 1))
    q0[np.arange(ds.n)[:, None], ds.cf_observed - 1 + _starts(sizes)] = 0.0
    return q0


def correct(q: np.ndarray, q0: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Re-impose the complement constraint.

    Hadamard product with the initial confidences ``q0`` followed by
    normalization of each CF's row segment; the entry at each observed
    value becomes exactly 0.  A segment row whose product vanishes
    entirely falls back to its initial row.  That happens whenever every
    neighbor's mass sits on the row's observed value, e.g. for u = 3
    when the neighbors have already collapsed onto it.
    """
    if q.shape != q0.shape or q.shape[1] != sum(sizes):
        raise ShapeMismatchError(f"confidences {q.shape} and initial {q0.shape} "
                                 f"do not match CF widths {tuple(sizes)}")
    return _normalize(q * q0, q0, sizes)


def _starts(sizes: Sequence[int]) -> np.ndarray:
    """First column of each CF segment."""
    return (np.cumsum(sizes) - sizes).astype(np.intp)


def _normalize(q: np.ndarray, q0: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Row-normalize each CF's column segment of ``q``.

    A segment row whose sum is not positive becomes the matching
    segment row of ``q0`` instead.
    """
    _require_cfs(sizes)
    sums = np.add.reduceat(q, _starts(sizes), axis=1)
    dead = sums <= 0.0
    if dead.any():
        q = np.where(np.repeat(dead, sizes, axis=1), q0, q)
        sums[dead] = 1.0
    return q / np.repeat(sums, sizes, axis=1)


def hard_from_blocks(q: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Argmax of each CF segment as 1-based codes; ties go to the lowest code."""
    _require_cfs(sizes)
    return np.column_stack([q[:, s:s + u].argmax(axis=1) + 1
                            for s, u in zip(_starts(sizes), sizes)])


def _require_cfs(sizes: Sequence[int]):
    if not len(sizes):
        raise DataError("the schema has no CF columns to estimate")


# ---------------------------------------------------------------------------
# Full procedures


def _of_graph(ds: Dataset, k: int, of_graph: WeightGraph) -> WeightGraph:
    """``of_graph`` after checking that it is a graph of ``ds``'s rows at this ``k``."""
    if (of_graph.n, of_graph.k) != (ds.n, min(k, ds.n - 1)):
        raise ShapeMismatchError(f"round-1 graph is {of_graph.n} x {of_graph.k}, "
                                 f"expected {ds.n} x {min(k, ds.n - 1)}")
    return of_graph


def run_proposed(
    ds: Dataset,
    T: int,
    k: int,
    gamma: float,
    of_graph: WeightGraph | None = None,
) -> EstimationResult:
    """Two-round graph-based estimation of every CF's exact value.

    Round 1 runs on the graph of ``ds``'s OF encoding; round 2 rebuilds
    the graph with the round-1 confidences appended.  ``of_graph`` is
    the round-1 graph at this ``k``, as :func:`build_graph` returns it
    for ``encode_of(ds)``; it is built here when omitted.
    """
    if T < 1:
        raise DataError("T must be >= 1")
    if not 0.0 <= gamma <= 1.0:
        raise DataError(f"gamma must lie in [0, 1], got {gamma}")
    sizes = ds.schema.cf_sizes
    _require_cfs(sizes)
    q0 = init_marginal(ds)

    def one_round(graph: WeightGraph) -> np.ndarray:
        q = q0
        for _ in range(T):
            q = correct(propagate_step(graph, q), q0, sizes)
        return q

    base = encode_of(ds)
    round1 = one_round(build_graph(base, k) if of_graph is None else _of_graph(ds, k, of_graph))
    enc2 = encode_with_confidence(base, round1, ds.schema.cf_columns, gamma)
    round2 = one_round(build_graph(enc2, k))
    return _result(ds, round2, hard_from_blocks(round2, sizes), "proposed",
                   {"T": T, "k": k, "gamma": gamma})


def run_comp(ds: Dataset, seed: int) -> EstimationResult:
    """Baseline: initial confidences plus seeded random complement guesses.

    The hard estimate for each cell is drawn uniformly from the values
    other than the observed one, so its accuracy is 1/(u-1) in
    expectation.
    """
    q0 = init_marginal(ds)
    idx = np.arange(ds.n)
    cols = ds.schema.cf_columns
    hard = np.empty((ds.n, len(cols)), dtype=np.int64)
    for j, col in enumerate(cols):
        hard[:, j] = complement_draws(
            seed, idx, j, col.size, ds.cf_observed[:, j], STREAM_GUESS
        )
    return _result(ds, q0, hard, "comp", {"seed": seed})


def run_ipal(
    ds: Dataset,
    T: int,
    k: int,
    alpha: float,
    of_graph: WeightGraph | None = None,
) -> EstimationResult:
    """Re-anchored propagation baseline, run transductively.

    Single round on the OF graph with the affine update
    Q^(t) = alpha H Q^(t-1) + (1 - alpha) Q^(0) and no correction step;
    the affine map preserves row sums analytically, and every step
    re-normalizes the CF segments to guard against drift.  ``of_graph``
    is as in :func:`run_proposed`; ``ds`` is encoded only when it is
    omitted.
    """
    if not 0.0 < alpha < 1.0:
        raise DataError("alpha must lie in (0, 1)")
    sizes = ds.schema.cf_sizes
    _require_cfs(sizes)
    q0 = init_marginal(ds)
    graph = build_graph(encode_of(ds), k) if of_graph is None else _of_graph(ds, k, of_graph)
    q = q0
    for _ in range(T):
        q = _normalize(alpha * propagate_step(graph, q) + (1.0 - alpha) * q0, q0, sizes)
    return _result(ds, q, hard_from_blocks(q, sizes), "ipal",
                   {"T": T, "k": k, "alpha": alpha})


def _result(ds: Dataset, q: np.ndarray, hard: np.ndarray, method: str,
            hyperparams: dict) -> EstimationResult:
    return EstimationResult(cf_names=tuple(c.name for c in ds.schema.cf_columns),
                            sizes=ds.schema.cf_sizes, confidences=q, hard_estimates=hard,
                            method=method, hyperparams=hyperparams)
