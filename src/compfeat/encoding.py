"""Distance-space encoding of instances.

Scaling rules keep every column's contribution to squared Euclidean
distance on a comparable scale:

* quantitative columns are min-max scaled to [0, 1] over all instances
  (transductive: statistics pool train and test); constant columns map
  to all zeros;
* binary columns take values {0, 1};
* categorical OF columns become one-hot vectors times 1/sqrt(u), so two
  rows differing only there sit at squared distance 2/u.

For the second estimation round, the stacked per-CF confidence matrix
is appended with the same 1/sqrt(u) factor per CF segment times
sqrt(gamma); gamma = 1 reproduces one-hot scaling exactly and gamma = 0
contributes nothing to distances.

This module owns the stacked per-CF layout: for CF widths ``sizes``, CF
j owns the ``sizes[j]`` columns from ``segment_starts(sizes)[j]`` on.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .data import Column, Dataset, _check_codes, _frozen, _integer_array, _real_array, _scalar
from .errors import ShapeMismatchError


def encode_of(ds: Dataset) -> np.ndarray:
    """Encode the OF columns of ``ds`` as a read-only (n, d) float64 array.

    Columns follow schema order; CF and label columns are excluded.
    """
    parts = []
    for col, arr in zip(ds.schema.of_columns, ds.of_values):
        if col.kind == "quantitative":
            lo, hi = (float(arr.min()), float(arr.max())) if ds.n else (0.0, 0.0)
            span = hi - lo
            if math.isinf(span):  # finite extremes whose gap overflows; halving is exact
                arr, lo, span = arr / 2, lo / 2, hi / 2 - lo / 2
            scaled = np.zeros(ds.n) if span == 0.0 else (arr - lo) / span
            parts.append(scaled[:, None])
        elif col.kind == "binary":
            parts.append((arr - 1).astype(np.float64)[:, None])
        else:
            parts.append(one_hot(arr[:, None], (col.size,)) / math.sqrt(col.size))
    return _frozen(np.hstack(parts) if parts else np.zeros((ds.n, 0)))


def encode_with_confidence(
    base: np.ndarray,
    conf: np.ndarray,
    cf_columns: Sequence[Column],
    gamma: float,
) -> np.ndarray:
    """Append per-CF confidence rows scaled by sqrt(gamma) / sqrt(u).

    ``conf`` is the stacked (n, sum u_j) confidence matrix: CF j of
    ``cf_columns`` owns the next ``u_j`` columns, in order, and each of
    its rows must be stochastic.  The result is read-only, with the
    columns of ``base`` first.
    """
    gamma = _scalar(gamma, "gamma", 0, 1, "[]")
    base = _real_array(base, "base encoding")
    conf = _real_array(conf, "confidences")
    sizes = [col.size for col in cf_columns]
    if base.ndim != 2 or conf.shape != (base.shape[0], sum(sizes)):
        raise ShapeMismatchError(f"confidences of shape {conf.shape} do not fit a base "
                                 f"encoding of shape {base.shape} and CF widths {sizes}")
    if not segments_stochastic(conf, sizes):
        raise ShapeMismatchError("confidences are not row-stochastic in every CF segment")
    scale = np.repeat([math.sqrt(gamma) / math.sqrt(u) for u in sizes], sizes)
    return _frozen(np.hstack([base, conf * scale]))


STOCHASTIC_TOL = 1e-10  # largest |row sum - 1| of a confidence segment


def segment_starts(sizes: Sequence[int]) -> np.ndarray:
    """First column of each segment of widths ``sizes``."""
    return (np.cumsum(sizes) - sizes).astype(np.intp)


def one_hot(codes: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """The (n, sum u_j) stacked one-hot of an (n, F) matrix of 1-based
    codes: row i holds a 1 at code ``codes[i, j]`` of segment j, an
    integer in 1..sizes[j].  The codes are checked, and then written into
    a new matrix by :func:`_one_hot_into`."""
    sizes = [_scalar(u, "segment width", 1, integer=True) for u in sizes]
    codes = _integer_array(codes, "codes")
    if codes.ndim != 2 or codes.shape[1] != len(sizes):
        raise ShapeMismatchError(f"codes of shape {codes.shape} do not fit {len(sizes)} segments")
    _check_codes(codes, sizes, "codes")
    return _one_hot_into(np.empty((codes.shape[0], sum(sizes))), codes, sizes)


def _one_hot_into(out: np.ndarray, codes: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Write :func:`one_hot` of ``codes``, already checked against
    ``sizes``, into ``out``, an (n, sum u_j) array or view; returns ``out``."""
    out[...] = 0.0
    out[np.arange(codes.shape[0])[:, None], codes - 1 + segment_starts(sizes)] = 1.0
    return out


def segments_stochastic(q: np.ndarray, sizes: Sequence[int]) -> bool:
    """Whether the stacked matrix ``q`` is nonnegative and each row of
    each segment sums to 1 within ``STOCHASTIC_TOL``; NaN and inf fail."""
    with np.errstate(invalid="ignore"):  # inf - inf in a row: NaN, which fails
        sums = np.add.reduceat(q, segment_starts(sizes), axis=1)
    return bool(q.min(initial=0.0) >= 0.0
                and np.abs(sums - 1.0).max(initial=0.0) <= STOCHASTIC_TOL)
