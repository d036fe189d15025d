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
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .data import Column, Dataset
from .errors import DataError, ShapeMismatchError


def encode_of(ds: Dataset) -> np.ndarray:
    """Encode the OF columns of ``ds`` as a read-only (n, d) float64 array.

    Columns follow schema order; CF and label columns are excluded.
    """
    parts = []
    for col, arr in zip(ds.schema.of_columns, ds.of_values):
        if col.kind == "quantitative":
            lo, hi = float(arr.min()), float(arr.max())
            span = hi - lo
            if math.isinf(span):  # finite extremes whose gap overflows; halving is exact
                arr, lo, span = arr / 2, lo / 2, hi / 2 - lo / 2
            scaled = np.zeros(ds.n) if span == 0.0 else (arr - lo) / span
            parts.append(scaled[:, None])
        elif col.kind == "binary":
            parts.append((arr - 1).astype(np.float64)[:, None])
        else:
            parts.append(_one_hot(arr, col.size) / math.sqrt(col.size))
    return _read_only(np.hstack(parts) if parts else np.zeros((ds.n, 0)))


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
    if not 0.0 <= gamma <= 1.0:
        raise DataError(f"gamma must lie in [0, 1], got {gamma}")
    conf = np.asarray(conf, dtype=np.float64)
    width = sum(col.size for col in cf_columns)
    if conf.shape != (base.shape[0], width):
        raise ShapeMismatchError(
            f"confidences have shape {conf.shape}, expected ({base.shape[0]}, {width})"
        )
    scale = np.empty(width)
    start = 0
    for col in cf_columns:
        stop = start + col.size
        vals = conf[:, start:stop]
        if vals.min() < 0 or np.abs(vals.sum(axis=1) - 1.0).max() > 1e-8:
            raise ShapeMismatchError(f"confidences of CF {col.name!r} are not row-stochastic")
        scale[start:stop] = math.sqrt(gamma) / math.sqrt(col.size)
        start = stop
    return _read_only(np.hstack([base, conf * scale]))


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _one_hot(codes: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros((codes.shape[0], size))
    out[np.arange(codes.shape[0]), codes - 1] = 1.0
    return out
