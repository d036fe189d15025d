"""Distance-space encoding of instances.

Scaling rules keep every column's contribution to squared Euclidean
distance on a comparable scale:

* quantitative columns are min-max scaled to [0, 1] over all instances
  (transductive: statistics pool train and test); constant columns map
  to all zeros;
* binary columns take values {0, 1};
* categorical OF columns become one-hot vectors times 1/sqrt(u), so two
  rows differing only there sit at squared distance 2/u.

For the second estimation round, per-CF confidence rows are appended
with the same 1/sqrt(u) factor times sqrt(gamma); gamma = 1 reproduces
one-hot scaling exactly and gamma = 0 contributes nothing to distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .data import Dataset
from .errors import DataError, ShapeMismatchError

if TYPE_CHECKING:  # pragma: no cover
    from .propagation import ConfidenceBlock


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
    conf: Sequence["ConfidenceBlock"],
    gamma: float,
) -> EncodedMatrix:
    """Append per-CF confidence rows scaled by sqrt(gamma) / sqrt(u)."""
    if not 0.0 <= gamma <= 1.0:
        raise DataError(f"gamma must lie in [0, 1], got {gamma}")
    parts = [base.values]
    blocks = dict(base.blocks)
    pos = base.dim
    for block in conf:
        vals = block.values
        if vals.shape[0] != base.n:
            raise ShapeMismatchError(
                f"confidence block {block.name!r} has {vals.shape[0]} rows, "
                f"encoding has {base.n}"
            )
        sums = vals.sum(axis=1)
        if vals.min() < 0 or np.abs(sums - 1.0).max() > 1e-8:
            raise ShapeMismatchError(
                f"confidence block {block.name!r} is not row-stochastic"
            )
        if block.name in blocks:
            raise ShapeMismatchError(f"duplicate block name {block.name!r}")
        scaled = vals * (math.sqrt(gamma) / math.sqrt(block.u))
        parts.append(scaled)
        blocks[block.name] = (pos, pos + block.u)
        pos += block.u
    return EncodedMatrix(values=np.hstack(parts), blocks=blocks)


def _one_hot(codes: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros((codes.shape[0], size))
    out[np.arange(codes.shape[0]), codes - 1] = 1.0
    return out
