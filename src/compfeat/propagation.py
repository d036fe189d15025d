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
their initial state, and propagates again.  Round 1 depends only on
the OFs, k and T, so one call of a seed runner
(:func:`run_proposed_seeds`, :func:`run_ipal_seeds`) on several points,
as ``sweep`` makes, shares it between them (:func:`_run_seeds`): seeds
whose OF arrays are the same objects share one round-1 graph per k, and
a point continues the round-1 steps of the point before it when that
has the same k and at most its T.  The cost is memory.  Such a call
holds, per group of seeds, the (sum n, sum u_j) float64 round-1
confidences of a point that the next one continues: 9.4 MB for one
bank-like seed at paper scale (45,211 rows, 26 CF values).  It also
holds each round-1 graph that a later group or point will use.  A
one-point call, as ``estimate`` makes, holds no round-1 confidences,
and a seed's own round-1 graph only until its round 1 has run.

All CFs' matrices are stacked side by side into one (n, sum u_j) array,
CF j owning the column segment of width u_j that follows CF j-1's, in
schema order; :mod:`compfeat.encoding` owns that layout (segment
offsets, one-hot, the row-stochastic test).  This stacked matrix is the
only representation of confidences, from :func:`init_marginal` through
every step to :class:`EstimationResult`: a step gathers and sums, for
all CFs at once, each row's neighbors of nonzero weight (on bank-like
graphs 5 to 7 of k = 20), and the correction normalizes each segment
with ``np.add.reduceat``.

A command's seeds are stacked a second way, by rows
(:func:`run_proposed_seeds`, :func:`run_ipal_seeds`): the seeds'
matrices, seed-major, form one (sum n, sum u_j) matrix, seed s owning
the rows that follow seeds 0..s-1's, and each round propagates on the
block-diagonal union of the seeds' graphs
(:func:`compfeat.graph.stack_graphs`).  A step on it does for every row
exactly what a step on its own seed's matrix does, so the results are
bit for bit those of one seed at a time, in fewer numpy calls.  Seeds
are stacked only while their rows total at most ``_STACK_ROWS``
(:func:`seed_groups`): past a few thousand rows a stacked step is no
cheaper per row, and the stacked arrays only cost memory.  Both methods
run their seeds through :func:`_run_seeds`, the only caller of
:func:`seed_groups`, which runs a group when its first result is asked
for; :func:`run_proposed` and :func:`run_ipal` are the one-seed case.

The step is :func:`compfeat.graph.propagate_step`, imported here.  The
procedures look it, :func:`correct` and ``build_graph`` up in this
module, so patching them here observes every graph and step of a run.
A patched step or correction receives the stacked matrix of the group
of seeds being run.  There is one graph build per round-1 graph that a
call shares as above, and one per seed and point in round 2.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .data import (_ARCHIVE_ERRORS, STREAM_GUESS, Dataset, _adopted, _check_codes, _code_array,
                   _frozen, _read_arrays, _real_array, _scalar, complement_draws)
from .encoding import encode_of, encode_with_confidence, segment_starts, segments_stochastic
from .errors import DataError, MissingTruthError, ShapeMismatchError
from .graph import WeightGraph, build_graph, propagate_step, stack_graphs


@dataclass(frozen=True, eq=False)
class EstimationResult:
    """Final confidences and hard estimates for every CF.

    ``confidences`` is the stacked (n, sum u_j) matrix whose column
    segment j, of width ``sizes[j]``, holds CF j's row-stochastic
    confidences.  ``hard_estimates[i, j]`` is a code in ``1..sizes[j]``:
    the argmax of segment j row i (ties to the lowest code) for
    confidence-ranked methods; the uniform-complement baseline instead
    draws seeded random complements.  Both arrays are frozen.  The
    constructor freezes copies of the arrays it is handed, so a caller's
    later writes cannot reach the result; the package's own builders
    (:meth:`load`, the estimation procedures and
    :func:`compfeat.cli.restrict_to_subset`) make the arrays for the
    result and go through :func:`compfeat.data._adopted` instead.
    ``cf_names`` must be a list or tuple of ``str``, ``method`` a ``str``
    and ``hyperparams`` a ``dict``.
    """

    cf_names: tuple[str, ...]
    sizes: tuple[int, ...]
    confidences: np.ndarray
    hard_estimates: np.ndarray
    method: str
    hyperparams: dict

    def __post_init__(self):
        self._settle(copy=True)

    def _settle(self, copy: bool):
        """Check every field and freeze the arrays, or copies of them when ``copy``."""
        if not (isinstance(self.cf_names, (list, tuple)) and isinstance(self.sizes, (list, tuple))
                and all(isinstance(name, str) for name in self.cf_names)
                and isinstance(self.method, str) and isinstance(self.hyperparams, dict)):
            raise DataError("a result needs a list or tuple of str CF names, a list or tuple "
                            "of CF widths, a str method and a dict of hyperparameters")
        names = tuple(self.cf_names)
        hard = _code_array(self.hard_estimates, "hard estimates", copy)
        if hard.ndim != 2 or hard.shape[1] != len(names):
            raise ShapeMismatchError(
                f"hard estimates of shape {hard.shape} do not fit {len(names)} CF names")
        object.__setattr__(self, "cf_names", names)
        object.__setattr__(self, "hard_estimates", hard)
        object.__setattr__(self, "hyperparams", dict(self.hyperparams))
        sizes = tuple(_scalar(u, "CF width", 1, integer=True) for u in self.sizes)
        q = _real_array(self.confidences, "confidences", copy)
        if len(sizes) != len(names) or q.shape != (hard.shape[0], sum(sizes)):
            raise ShapeMismatchError(
                f"confidences of shape {q.shape} do not fit {hard.shape[0]} rows "
                f"and CF widths {sizes}")
        _check_codes(hard, sizes, "hard estimates")
        if not segments_stochastic(q, sizes):
            raise DataError("confidences must be row-stochastic in every CF segment")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "confidences", _frozen(q))

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
        """Read-only view of CF j's (n, u_j) confidence segment, 0 <= j < F."""
        j = _scalar(j, "CF index", 0, len(self.sizes), integer=True)
        start = segment_starts(self.sizes)[j]
        return self.confidences[:, start:start + self.sizes[j]]

    def save(self, path, extra: dict | None = None):
        """Write the result to ``path``, and nothing else, for :meth:`load`.

        ``path`` receives one uncompressed ``np.savez`` archive, whatever
        its suffix, holding three arrays: ``confidences`` (float64, (n,
        sum u_j)), ``hard_estimates`` (int64, (n, F)) and ``meta``, a 0-d
        unicode array holding the sorted-key JSON of ``method``,
        ``hyperparams``, ``cf_names``, ``sizes`` and the ``extra`` keys.
        numpy dates every zip entry 1980-01-01, so saving one result twice
        gives the same bytes.
        """
        meta = {"method": self.method, "hyperparams": self.hyperparams,
                "cf_names": list(self.cf_names), **(extra or {}), "sizes": list(self.sizes)}
        # To an open file, so that np.savez appends no ".npz" suffix.
        with open(path, "wb") as fh:
            np.savez(fh, confidences=np.ascontiguousarray(self.confidences),
                     hard_estimates=np.ascontiguousarray(self.hard_estimates),
                     meta=np.array(json.dumps(meta, sort_keys=True)))

    @classmethod
    def load(cls, path, expect: dict | None = None) -> "EstimationResult":
        """Read the archive :meth:`save` wrote at ``path``.

        Each array is read once, by :func:`compfeat.data._read_member`.
        It refuses an object dtype in the array's header, before any data
        are read, so it is that reader, not an ``allow_pickle`` flag, that
        keeps anything from being unpickled.  Each array must be stored
        uncompressed and unencrypted, with a header whose shape accounts
        for exactly its member's bytes, and have the dtype and number of
        dimensions that :meth:`save` writes; ``meta`` must hold a JSON
        object whose method, hyperparameters, CF names and widths pass the
        constructor's checks, as every result's fields do.  A file that
        does not, or is not a readable zip archive, raises
        :class:`DataError`, as does one whose stored ``expect`` keys are
        missing or differ.
        """
        try:
            q, hard, meta = _read_arrays(path, ("confidences", "hard_estimates", "meta"))
            if not (q.dtype == np.float64 and q.ndim == 2 and hard.dtype == np.int64
                    and hard.ndim == 2 and meta.dtype.kind == "U" and meta.ndim == 0):
                raise DataError("expected float64 confidences and int64 hard estimates, "
                                "both 2-d, and a 0-d unicode meta")
            doc = json.loads(meta.item())
            result = _adopted(cls, cf_names=doc["cf_names"], sizes=doc["sizes"], confidences=q,
                              hard_estimates=hard, method=doc["method"],
                              hyperparams=doc["hyperparams"])
        except _ARCHIVE_ERRORS as exc:
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
    q0[np.arange(ds.n)[:, None], ds.cf_observed - 1 + segment_starts(sizes)] = 0.0
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
    q = _real_array(q, "confidences")
    q0 = _real_array(q0, "initial confidences")
    if q.ndim != 2 or q.shape != q0.shape or q.shape[1] != sum(sizes):
        raise ShapeMismatchError(f"confidences {q.shape} and initial {q0.shape} "
                                 f"do not match CF widths {tuple(sizes)}")
    return _normalize(q * q0, q0, sizes)


def _normalize(q: np.ndarray, q0: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Row-normalize each CF's column segment of ``q``, in place.

    A segment row whose sum is not positive becomes the matching
    segment row of ``q0`` instead.  ``q`` must be a new array that no
    caller reads again: every caller passes the expression it computed.
    """
    _require_cfs(sizes)
    sums = np.add.reduceat(q, segment_starts(sizes), axis=1)
    dead = sums <= 0.0
    if dead.any():
        q = np.where(np.repeat(dead, sizes, axis=1), q0, q)
        sums[dead] = 1.0
    return np.divide(q, np.repeat(sums, sizes, axis=1), out=q)


def hard_from_blocks(q: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Argmax of each CF segment as 1-based codes; ties go to the lowest code."""
    _require_cfs(sizes)
    return np.column_stack([q[:, s:s + u].argmax(axis=1) + 1
                            for s, u in zip(segment_starts(sizes), sizes)])


def _require_cfs(sizes: Sequence[int]):
    if not len(sizes):
        raise DataError("the schema has no CF columns to estimate")


# ---------------------------------------------------------------------------
# Full procedures


# Seeds are propagated as one stacked system while their rows total at
# most this many.  A step on a few hundred rows is mostly numpy's
# per-call overhead, so stacking 2 or 3 seeds cut the time per step by
# 4-20% at 1,200-2,100 rows; from about 4,000 rows on, a stacked step
# was 7-30% slower than separate ones (CHANGES.md has the measurements).
# Stacking also costs memory: with no budget, estimate's 3 seeds of
# 45,211 rows ran stacked at a peak RSS of 431 MB against 217 MB.
_STACK_ROWS = 2048


def seed_groups(ns: Sequence[int]) -> list[slice]:
    """Consecutive runs of seeds, of ``ns[s]`` rows each, to propagate as
    one stacked system: a run grows while its rows total at most
    ``_STACK_ROWS``, and a seed with more rows runs alone."""
    starts, rows = [], 0
    for s, n in enumerate(ns):
        if not starts or rows + n > _STACK_ROWS:
            starts.append(s)
            rows = 0
        rows += n
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [len(ns)])]


def _split(q: np.ndarray, datasets: Sequence[Dataset]) -> list[np.ndarray]:
    """The stacked confidences ``q`` cut into each dataset's rows."""
    return np.split(q, np.cumsum([ds.n for ds in datasets])[:-1])


def run_proposed(ds: Dataset, T: int, k: int, gamma: float) -> EstimationResult:
    """Two-round graph-based estimation of every CF's exact value.

    Round 1 runs on the graph of ``ds``'s OF encoding, built here; round
    2 rebuilds the graph with the round-1 confidences appended.  This is
    :func:`run_proposed_seeds` of the one dataset and point.
    """
    return next(run_proposed_seeds([ds], [(T, k, gamma)])[0])


def run_proposed_seeds(datasets: Sequence[Dataset], points: Sequence[tuple[int, int, float]],
                       ) -> list[Iterator[EstimationResult]]:
    """:func:`run_proposed` of each dataset at each point ``(T, k,
    gamma)``: one iterator of the datasets' results per point, from
    :func:`_run_seeds`.  Each round runs T steps, one module-level
    ``propagate_step`` and ``correct`` each, on the stacked matrix of a
    group of seeds, less the round-1 steps a point continues from the
    point before; every row goes through the floating-point operations
    it would alone, so each result is bit for bit :func:`run_proposed`'s.
    """
    points = [{"T": T, "k": k, "gamma": _scalar(gamma, "gamma", 0, 1, "[]")}
              for T, k, gamma in points]

    def round2_encodings(seeds: Sequence[Dataset], q: np.ndarray, point: dict) -> list[np.ndarray]:
        return [encode_with_confidence(encode_of(ds), qs, ds.schema.cf_columns, point["gamma"])
                for ds, qs in zip(seeds, _split(q, seeds))]

    return _run_seeds(datasets, points, "proposed",
                      lambda graph, q, q0, sizes: correct(propagate_step(graph, q), q0, sizes),
                      round2_encodings)


def run_comp(ds: Dataset, seed: int) -> EstimationResult:
    """Baseline: initial confidences plus seeded random complement guesses.

    The hard estimate for each cell is drawn uniformly from the values
    other than the observed one, so its accuracy is 1/(u-1) in
    expectation.
    """
    q0 = init_marginal(ds)
    sizes = ds.schema.cf_sizes
    hard = complement_draws(seed, np.arange(ds.n)[:, None], np.arange(len(sizes)), sizes,
                            ds.cf_observed, STREAM_GUESS)
    return _result(ds, q0, hard, "comp", {"seed": seed})


def run_ipal(ds: Dataset, T: int, k: int, alpha: float) -> EstimationResult:
    """Re-anchored propagation baseline, run transductively.

    Single round on the graph of ``ds``'s OF encoding, built here, with
    the affine update Q^(t) = alpha H Q^(t-1) + (1 - alpha) Q^(0) and no
    correction step; the affine map preserves row sums analytically, and
    every step re-normalizes the CF segments to guard against drift.
    This is :func:`run_ipal_seeds` of the one dataset and point.
    """
    return next(run_ipal_seeds([ds], [(T, k)], alpha)[0])


def run_ipal_seeds(datasets: Sequence[Dataset], points: Sequence[tuple[int, int]],
                   alpha: float) -> list[Iterator[EstimationResult]]:
    """:func:`run_ipal` of each dataset at each point ``(T, k)``: one
    iterator of the datasets' results per point, from :func:`_run_seeds`.
    A group of seeds takes T module-level ``propagate_step`` calls on
    their stacked matrix, less those a point continues from the point
    before."""
    alpha = _scalar(alpha, "alpha", 0, 1, "()")
    return _run_seeds(datasets, [{"T": T, "k": k, "alpha": alpha} for T, k in points], "ipal",
                      lambda graph, q, q0, sizes: _normalize(
                          alpha * propagate_step(graph, q) + (1.0 - alpha) * q0, q0, sizes))


def _run_seeds(datasets: Sequence[Dataset], points: Sequence[dict], method: str, step: Callable,
               round2_encodings: Callable | None = None) -> list[Iterator[EstimationResult]]:
    """``method``'s result for each dataset at each point, a dict of the
    results' hyperparameters that holds ``T`` and ``k``: one iterator per
    point, which runs one :func:`seed_groups` group at a time, when its
    first result is asked for.  The arguments are checked before the
    iterators are returned.  Consumed point by point, in order, they
    share the work described below; consumed in any other order, they
    give the same results with less sharing.

    A group's stacked confidences take T ``step(graph, q, q0, sizes)``
    from their initial ones on the :func:`stack_graphs` union of the
    seeds' round-1 graphs, each built from its seed's OF encoding; with
    ``round2_encodings``, T more from the initial ones on the union of
    the graphs of the encodings it returns for the seeds, their round-1
    confidences and the point.

    Round 1 does not depend on the round-2 parameters, so the points
    share it, and what is held, and for how long, is counted up front
    from the points and datasets:

    * datasets whose OF arrays are the same objects, as
      :func:`~compfeat.data.synthesize_cf` leaves them, share one
      round-1 graph per k.  It is held only while a later group or point
      will use it;
    * a group's round-1 confidences after a point are held only when the
      next point has the same k and at least the same T, and only until
      it has run; it continues them with the steps that remain.  A step
      depends only on the graph, q and q0, so the results have the bits
      of a fresh run.

    Otherwise a graph is only an argument of the steps, so it is freed
    before the next is built.  The round-1 confidences are freed before
    round 2's k-NN, and each round-2 encoding once its graph is built,
    before round 2's first step.  No array of a group outlives its last
    result but the round-1 graph and confidences held for a later one.
    """
    runs = [(_scalar(p["T"], "T", 1, integer=True), _scalar(p["k"], "k", 1, integer=True))
            for p in points]
    points = [{**p, "T": T, "k": k} for p, (T, k) in zip(points, runs)]  # as the results store them
    for ds in datasets:
        _require_cfs(ds.schema.cf_sizes)
        if ds.schema.cf_sizes != datasets[0].schema.cf_sizes:
            raise ShapeMismatchError(f"seeds of CF widths {datasets[0].schema.cf_sizes} and "
                                     f"{ds.schema.cf_sizes} cannot be stacked")

    def continues(i: int) -> bool:
        """Whether point i continues the round-1 steps of point i - 1."""
        return 0 < i < len(runs) and runs[i - 1][1] == runs[i][1] and runs[i - 1][0] <= runs[i][0]

    def graph_key(ds: Dataset, k: int) -> tuple:
        """Equal for datasets whose round-1 graphs at k are equal: the OF
        arrays are the same objects, and n tells apart those with none."""
        return (k, ds.n, *map(id, ds.of_values))

    # Each dataset fetches its round-1 graph at each point that runs round-1 steps.
    uses = Counter(graph_key(ds, k) for i, (T, k) in enumerate(runs)
                   if not (continues(i) and runs[i - 1][0] == T) for ds in datasets)
    graphs: dict[tuple, WeightGraph] = {}
    kept: dict[tuple[int, int], tuple[np.ndarray, int]] = {}  # by group and point

    def round1_graph(ds: Dataset, k: int) -> WeightGraph:
        key = graph_key(ds, k)
        if key not in graphs:
            graphs[key] = build_graph(encode_of(ds), k)
        uses[key] -= 1
        return graphs[key] if uses[key] > 0 else graphs.pop(key)

    def group_results(i: int, g: int) -> Iterator[EstimationResult]:
        (T, k), seeds = runs[i], groups[g]
        sizes = seeds[0].schema.cf_sizes
        q0 = np.concatenate([init_marginal(ds) for ds in seeds])

        def propagate(graph: WeightGraph, q: np.ndarray, steps: int) -> np.ndarray:
            for _ in range(steps):
                q = step(graph, q, q0, sizes)
            return q

        q, done = kept.pop((g, i - 1), (q0, 0))
        if done < T:
            q = propagate(stack_graphs([round1_graph(ds, k) for ds in seeds]), q, T - done)
        if continues(i + 1):
            kept[g, i] = q, T
        if round2_encodings is not None:
            encodings = round2_encodings(seeds, q, points[i])
            del q  # unless kept for the next point, free it before the encodings' k-NN
            # Each encoding leaves the list as its graph is built, so none
            # outlives its graph.
            q = propagate(stack_graphs([build_graph(encodings.pop(0), k) for _ in seeds]), q0, T)
        return map(lambda ds, qs: _result(ds, qs, hard_from_blocks(qs, sizes), method,
                                          points[i]), seeds, _split(q, seeds))

    groups = [datasets[group] for group in seed_groups([ds.n for ds in datasets])]
    return [chain.from_iterable(map(partial(group_results, i), range(len(groups))))
            for i in range(len(runs))]


def _result(ds: Dataset, q: np.ndarray, hard: np.ndarray, method: str,
            hyperparams: dict) -> EstimationResult:
    """The result that adopts ``q`` and ``hard``, arrays made for it, or
    rows of a group's stacked confidences that no step writes again."""
    return _adopted(EstimationResult, cf_names=tuple(c.name for c in ds.schema.cf_columns),
                    sizes=ds.schema.cf_sizes, confidences=q, hard_estimates=hard,
                    method=method, hyperparams=hyperparams)
