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
their initial state, and propagates again.  The round-1 graph depends
only on the OFs and k, so the seed runners (:func:`run_proposed_seeds`,
:func:`run_ipal_seeds`) take it as ``of_graph`` from a caller whose
seeds share their rows; the one-seed :func:`run_proposed` and
:func:`run_ipal` always build it.

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
of seeds being run, and there is one graph build per seed and round.
"""

from __future__ import annotations

import json
import math
import os
import tokenize
import zipfile
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .data import (STREAM_GUESS, Dataset, _check_codes, _code_array, _frozen, _real_array,
                   _scalar, complement_draws)
from .encoding import encode_of, encode_with_confidence, segment_starts, segments_stochastic
from .errors import CompfeatError, DataError, MissingTruthError, ShapeMismatchError
from .graph import WeightGraph, build_graph, propagate_step, stack_graphs


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
        hard = _code_array(self.hard_estimates, "hard estimates", copy=True)
        if hard.ndim != 2 or hard.shape[1] != len(names):
            raise ShapeMismatchError(
                f"hard estimates of shape {hard.shape} do not fit {len(names)} CF names")
        object.__setattr__(self, "cf_names", names)
        object.__setattr__(self, "hard_estimates", hard)
        object.__setattr__(self, "hyperparams", dict(self.hyperparams))
        sizes = tuple(_scalar(u, "CF width", 1, integer=True) for u in self.sizes)
        q = _real_array(self.confidences, "confidences", copy=True)
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

        It is read with ``allow_pickle=False``, so an object array is
        refused.  Each array must be stored uncompressed and unencrypted,
        with a header whose shape accounts for exactly its member's bytes,
        and have the dtype and number of dimensions that :meth:`save`
        writes; ``meta`` must hold a JSON object with a list of CF names and
        their widths, and the result must pass the constructor's checks,
        which admit each width as a positive integer.  A file that does
        not, or is not a readable archive, raises :class:`DataError`, as
        does one whose stored ``expect`` keys are missing or differ.
        """
        try:
            # From an open file: np.load(path) leaves the file it opened
            # open when the zip directory is unreadable.
            with open(path, "rb") as fh:
                npz = np.load(fh, allow_pickle=False)
                if not isinstance(npz, np.lib.npyio.NpzFile):
                    raise DataError("not a zip archive of arrays")
                size = os.fstat(fh.fileno()).st_size
                with npz:
                    q, hard, meta = [_read_member(npz, name, size)
                                     for name in ("confidences", "hard_estimates", "meta")]
            if not (q.dtype == np.float64 and q.ndim == 2 and hard.dtype == np.int64
                    and hard.ndim == 2 and meta.dtype.kind == "U" and meta.ndim == 0):
                raise DataError("expected float64 confidences and int64 hard estimates, "
                                "both 2-d, and a 0-d unicode meta")
            doc = json.loads(meta.item())
            names, sizes = doc["cf_names"], doc["sizes"]
            if not (isinstance(names, list) and all(isinstance(s, str) for s in names)
                    and isinstance(doc["method"], str) and isinstance(doc["hyperparams"], dict)):
                raise DataError("meta needs a method, hyperparameters and CF names")
            result = cls(cf_names=names, sizes=sizes, confidences=q, hard_estimates=hard,
                         method=doc["method"], hyperparams=doc["hyperparams"])
        # zipfile raises NotImplementedError for an unsupported zip version or
        # flag; numpy's fallback parse of a header that is not a literal raises
        # TokenError, and json raises RecursionError for a meta nested too deep.
        except (OSError, EOFError, zipfile.BadZipFile, NotImplementedError, RecursionError,
                tokenize.TokenError, ValueError, KeyError, TypeError, CompfeatError) as exc:
            raise DataError(f"{path}: malformed estimation result ({exc})") from None
        for key, value in (expect or {}).items():
            if doc.get(key) != value:
                raise DataError(f"{path}: stored {key} {doc.get(key)!r} is not {value!r}; "
                                f"it was estimated from other inputs")
        return result


def _read_member(npz: np.lib.npyio.NpzFile, name: str, archive_size: int) -> np.ndarray:
    """Array ``name`` of ``npz``, read only once its member is known to be
    stored uncompressed and unencrypted within the archive's
    ``archive_size`` bytes, and its header's shape to account for exactly
    the member's data; so no header makes numpy allocate more than the
    file holds, and no zip decompressor runs."""
    info = npz.zip.getinfo(f"{name}.npy")
    if (info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1
            or not info.compress_size == info.file_size <= archive_size):
        raise DataError(f"array {name} is not stored uncompressed and unencrypted "
                        f"within the archive's {archive_size} bytes")
    with npz.zip.open(info) as fp:
        version = np.lib.format.read_magic(fp)
        if version not in ((1, 0), (2, 0)):
            raise DataError(f"array {name} has a .npy header of version {version}")
        read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                       else np.lib.format.read_array_header_2_0)
        shape, _, dtype = read_header(fp)
        data_size = info.file_size - fp.tell()
    if math.prod(shape) * dtype.itemsize != data_size:
        raise DataError(f"array {name}'s header shape {shape} does not fit its "
                        f"{data_size} bytes of {dtype} data")
    return npz[name]


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
    :func:`run_proposed_seeds` of the one dataset.
    """
    return next(run_proposed_seeds([ds], T, k, gamma))


def run_proposed_seeds(
    datasets: Sequence[Dataset],
    T: int,
    k: int,
    gamma: float,
    of_graph: WeightGraph | None = None,
) -> Iterator[EstimationResult]:
    """:func:`run_proposed` of each dataset, from the iterator
    :func:`_run_seeds` returns.  Each round runs T steps, one module-level
    ``propagate_step`` and ``correct`` each, on the stacked matrix of a
    group of seeds; every row goes through the floating-point operations
    it would alone, so each result is bit for bit :func:`run_proposed`'s.

    ``of_graph`` is the round-1 graph the datasets share, as
    :func:`build_graph` returns it at this ``k`` for their common OF
    encoding; each dataset's own is built when it is omitted.  Only its
    shape is checked, so the caller vouches that it was built from these
    OFs.
    """
    gamma = _scalar(gamma, "gamma", 0, 1, "[]")

    def round2_encodings(seeds: Sequence[Dataset], q: np.ndarray) -> list[np.ndarray]:
        return [encode_with_confidence(encode_of(ds), qs, ds.schema.cf_columns, gamma)
                for ds, qs in zip(seeds, _split(q, seeds))]

    return _run_seeds(datasets, T, k, of_graph, "proposed", {"T": T, "k": k, "gamma": gamma},
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
    This is :func:`run_ipal_seeds` of the one dataset.
    """
    return next(run_ipal_seeds([ds], T, k, alpha))


def run_ipal_seeds(
    datasets: Sequence[Dataset],
    T: int,
    k: int,
    alpha: float,
    of_graph: WeightGraph | None = None,
) -> Iterator[EstimationResult]:
    """:func:`run_ipal` of each dataset, from the iterator
    :func:`_run_seeds` returns: T module-level ``propagate_step`` calls
    per group of seeds, on their stacked matrix.  ``of_graph`` is as in
    :func:`run_proposed_seeds`; the datasets are encoded only when it is
    omitted."""
    alpha = _scalar(alpha, "alpha", 0, 1, "()")
    return _run_seeds(datasets, T, k, of_graph, "ipal", {"T": T, "k": k, "alpha": alpha},
                      lambda graph, q, q0, sizes: _normalize(
                          alpha * propagate_step(graph, q) + (1.0 - alpha) * q0, q0, sizes))


def _run_seeds(datasets: Sequence[Dataset], T: int, k: int, of_graph: WeightGraph | None,
               method: str, hyperparams: dict, step: Callable[..., np.ndarray],
               round2_encodings: Callable[..., list[np.ndarray]] | None = None,
               ) -> Iterator[EstimationResult]:
    """``method``'s result for each dataset, in order, from an iterator
    that runs one :func:`seed_groups` group at a time, when its first
    result is asked for; the arguments are checked before it is returned.

    A group's stacked confidences take T ``step(graph, q, q0, sizes)``
    from their initial ones on the :func:`stack_graphs` union of the
    seeds' round-1 graphs (``of_graph``, or each seed's graph of its OF
    encoding); with ``round2_encodings``, T more from the initial ones on
    the union of the graphs of the encodings it returns for the seeds and
    their round-1 confidences.  A graph is only an argument of the steps,
    so it is freed before the next is built; the round-1 confidences are
    freed before round 2's k-NN, each round-2 encoding once its graph is
    built, before round 2's first step, and no array of a group outlives
    its last result.
    """
    T, k = _scalar(T, "T", 1, integer=True), _scalar(k, "k", 1, integer=True)
    for ds in datasets:
        _require_cfs(ds.schema.cf_sizes)
        if ds.schema.cf_sizes != datasets[0].schema.cf_sizes:
            raise ShapeMismatchError(f"seeds of CF widths {datasets[0].schema.cf_sizes} and "
                                     f"{ds.schema.cf_sizes} cannot be stacked")
        if of_graph is not None and (of_graph.n, of_graph.k) != (ds.n, min(k, ds.n - 1)):
            raise ShapeMismatchError(f"round-1 graph is {of_graph.n} x {of_graph.k}, "
                                     f"expected {ds.n} x {min(k, ds.n - 1)}")

    def propagate(graph: WeightGraph, q0: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
        q = q0
        for _ in range(T):
            q = step(graph, q, q0, sizes)
        return q

    def group_results(seeds: Sequence[Dataset]) -> Iterator[EstimationResult]:
        sizes = seeds[0].schema.cf_sizes
        q0 = np.concatenate([init_marginal(ds) for ds in seeds])
        q = propagate(stack_graphs([build_graph(encode_of(ds), k) if of_graph is None else of_graph
                                    for ds in seeds]), q0, sizes)
        if round2_encodings is not None:
            encodings = round2_encodings(seeds, q)
            del q  # the encodings hold what round 2 needs of it; free it before their k-NN
            # Each encoding leaves the list as its graph is built, so none
            # outlives its graph.
            q = propagate(stack_graphs([build_graph(encodings.pop(0), k) for _ in seeds]),
                          q0, sizes)
        return map(lambda ds, qs: _result(ds, qs, hard_from_blocks(qs, sizes), method,
                                          hyperparams), seeds, _split(q, seeds))

    groups = [datasets[group] for group in seed_groups([ds.n for ds in datasets])]
    return chain.from_iterable(map(group_results, groups))


def _result(ds: Dataset, q: np.ndarray, hard: np.ndarray, method: str,
            hyperparams: dict) -> EstimationResult:
    return EstimationResult(cf_names=tuple(c.name for c in ds.schema.cf_columns),
                            sizes=ds.schema.cf_sizes, confidences=q, hard_estimates=hard,
                            method=method, hyperparams=hyperparams)
