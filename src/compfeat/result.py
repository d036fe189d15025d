"""Estimation results, their archive format, and the uniform-complement
baseline.

An :class:`EstimationResult` holds, for every CF, the stacked (n, sum
u_j) confidence matrix (:mod:`compfeat.encoding` owns its layout) and
the hard estimates, and :meth:`EstimationResult.save` and
:meth:`EstimationResult.load` write and read it as an ``np.savez``
archive.  :func:`init_marginal` gives the confidences that every method
starts from, uniform over the complement of each observed value, and
:func:`run_comp` is the baseline that keeps them, with seeded random
complement guesses as hard estimates.

This module imports no graph code, so the commands that only read,
score or build estimates without propagating (``estimate --method
comp``, ``evaluate`` and ``predict``) never load
:mod:`compfeat.graph` or :mod:`compfeat.propagation`; the graph methods
live in :mod:`compfeat.propagation`, which builds its results through
:func:`_result`.
"""

from __future__ import annotations

import json

import numpy as np

from .data import (_ARCHIVE_ERRORS, STREAM_GUESS, Dataset, _adopted, _check_codes, _code_array,
                   _frozen, _read_arrays, _real_array, _Record, _scalar, complement_draws)
from .encoding import segment_starts, segments_stochastic
from .errors import DataError, MissingTruthError, ShapeMismatchError


class EstimationResult(_Record):
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

    _fields = ("cf_names", "sizes", "confidences", "hard_estimates", "method", "hyperparams")

    def __init__(self, cf_names: tuple[str, ...], sizes: tuple[int, ...], confidences: np.ndarray,
                 hard_estimates: np.ndarray, method: str, hyperparams: dict):
        vars(self).update(cf_names=cf_names, sizes=sizes, confidences=confidences,
                          hard_estimates=hard_estimates, method=method, hyperparams=hyperparams)
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


def init_marginal(ds: Dataset) -> np.ndarray:
    """Uniform-over-complement initial confidences, stacked over all CFs."""
    if ds.cf_observed is None:
        raise MissingTruthError("init_marginal needs observed CF values")
    sizes = ds.schema.cf_sizes
    q0 = np.tile(np.repeat([1.0 / (u - 1) for u in sizes], sizes), (ds.n, 1))
    q0[np.arange(ds.n)[:, None], ds.cf_observed - 1 + segment_starts(sizes)] = 0.0
    return q0


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


def _result(ds: Dataset, q: np.ndarray, hard: np.ndarray, method: str,
            hyperparams: dict) -> EstimationResult:
    """The result that adopts ``q`` and ``hard``, arrays made for it, or
    rows of a group's stacked confidences that no step writes again."""
    return _adopted(EstimationResult, cf_names=tuple(c.name for c in ds.schema.cf_columns),
                    sizes=ds.schema.cf_sizes, confidences=q, hard_estimates=hard,
                    method=method, hyperparams=hyperparams)
