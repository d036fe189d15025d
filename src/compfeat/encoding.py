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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Column, Dataset
from .errors import DataError, ShapeMismatchError


@dataclass(frozen=True)
class EncodedMatrix:
    """Real-valued instance vectors plus the column -> coordinate map."""

    values: np.ndarray                     # (n, d) float64
    blocks: dict[str, tuple[int, int]]     # source column -> [start, stop)

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])

    def block(self, name: str) -> np.ndarray:
        start, stop = self.blocks[name]
        return self.values[:, start:stop]


def encode_of(ds: Dataset) -> EncodedMatrix:
    """Encode the OF columns of ``ds``; CF and label columns are excluded."""
    parts = []
    blocks = {}
    pos = 0
    for col, arr in zip(ds.schema.of_columns, ds.of_values):
        if col.kind == "quantitative":
            lo, hi = float(arr.min()), float(arr.max())
            span = hi - lo
            scaled = np.zeros(ds.n) if span == 0.0 else (arr - lo) / span
            part = scaled[:, None]
        elif col.kind == "binary":
            part = (arr - 1).astype(np.float64)[:, None]
        else:
            part = _one_hot(arr, col.size) / math.sqrt(col.size)
        parts.append(part)
        blocks[col.name] = (pos, pos + part.shape[1])
        pos += part.shape[1]
    values = np.hstack(parts) if parts else np.zeros((ds.n, 0))
    return EncodedMatrix(values=values, blocks=blocks)


def encode_with_confidence(
    base: EncodedMatrix,
    conf: np.ndarray,
    cf_columns: Sequence[Column],
    gamma: float,
) -> EncodedMatrix:
    """Append per-CF confidence rows scaled by sqrt(gamma) / sqrt(u).

    ``conf`` is the stacked (n, sum u_j) confidence matrix: CF j of
    ``cf_columns`` owns the next ``u_j`` columns, in order, and each of
    its rows must be stochastic.  The appended block of each CF is
    named after its column.
    """
    if not 0.0 <= gamma <= 1.0:
        raise DataError(f"gamma must lie in [0, 1], got {gamma}")
    conf = np.asarray(conf, dtype=np.float64)
    width = sum(col.size for col in cf_columns)
    if conf.shape != (base.n, width):
        raise ShapeMismatchError(
            f"confidences have shape {conf.shape}, expected ({base.n}, {width})"
        )
    blocks = dict(base.blocks)
    scale = np.empty(width)
    start = 0
    for col in cf_columns:
        stop = start + col.size
        vals = conf[:, start:stop]
        if vals.min() < 0 or np.abs(vals.sum(axis=1) - 1.0).max() > 1e-8:
            raise ShapeMismatchError(f"confidences of CF {col.name!r} are not row-stochastic")
        if col.name in blocks:
            raise ShapeMismatchError(f"duplicate block name {col.name!r}")
        blocks[col.name] = (base.dim + start, base.dim + stop)
        scale[start:stop] = math.sqrt(gamma) / math.sqrt(col.size)
        start = stop
    return EncodedMatrix(values=np.hstack([base.values, conf * scale]), blocks=blocks)


def _one_hot(codes: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros((codes.shape[0], size))
    out[np.arange(codes.shape[0]), codes - 1] = 1.0
    return out
