"""Downstream binary label prediction with logistic regression.

The design matrix concatenates the OF encoding with one block per CF,
whose content depends on the input mode:

* ``ord``  - one-hot of the hidden true values (the ceiling),
* ``comp`` - the uniform-over-complement initial confidences,
* ``soft`` - estimated confidence rows,
* ``hard`` - one-hot of the hard estimates.

Training is deterministic damped Newton (IRLS) with Armijo backtracking
on the full batch, so the loss trace never increases and runs are
reproducible without seed bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .encoding import _one_hot, _read_only, encode_of
from .errors import DataError, SingleClassError
from .propagation import EstimationResult, init_marginal

MODES = ("ord", "comp", "soft", "hard")


def assemble(ds: Dataset, mode: str, result: EstimationResult | None = None) -> np.ndarray:
    """Build the model input: OFs in schema order, then CF blocks in schema order.

    Returns a read-only (n, d) float64 array whose last sum u_j columns
    hold the CF blocks, CF j's block of width u_j after CF j-1's.
    """
    if mode not in MODES:
        raise DataError(f"unknown mode {mode!r}, expected one of {MODES}")
    parts = [encode_of(ds)]
    cf_cols = ds.schema.cf_columns
    if mode == "comp":
        parts.append(init_marginal(ds))
    elif mode == "ord":
        if ds.cf_truth is None:
            raise DataError("ord mode needs ground-truth CF values")
        parts += [_one_hot(ds.cf_truth[:, j], c.size) for j, c in enumerate(cf_cols)]
    else:
        if result is None:
            raise DataError(f"mode {mode!r} needs an estimation result")
        result.check_fits(ds)
        if mode == "soft":
            parts.append(result.confidences)
        else:
            parts += [_one_hot(result.hard_estimates[:, j], c.size)
                      for j, c in enumerate(cf_cols)]
    design = np.hstack(parts)
    if not np.isfinite(design).all():
        raise DataError("design matrix must be finite")
    return _read_only(design)


# ---------------------------------------------------------------------------
# Logistic regression


@dataclass(frozen=True)
class LrModel:
    weights: np.ndarray
    bias: float
    l2: float
    trace: tuple[float, ...]  # loss per iteration, non-increasing


def loss_and_grad(params: np.ndarray, x: np.ndarray, targets: np.ndarray, l2: float):
    """Mean cross entropy plus (l2/2)||w||^2; bias (last entry) unregularized."""
    w, b = params[:-1], params[-1]
    z = x @ w + b
    # log(1 + e^z) - t*z, computed stably
    loss = float(np.mean(np.logaddexp(0.0, z) - targets * z) + 0.5 * l2 * (w @ w))
    resid = _sigmoid(z) - targets
    grad_w = x.T @ resid / x.shape[0] + l2 * w
    grad_b = float(resid.mean())
    return loss, np.concatenate([grad_w, [grad_b]])


def train(x, y: np.ndarray, l2: float = 1e-4, epochs: int = 500) -> LrModel:
    """Deterministic full-batch training from zero-initialized weights.

    Each iteration takes a damped Newton (IRLS) step on the objective of
    :func:`loss_and_grad`, halved until the Armijo condition holds.
    ``epochs`` caps the number of iterations.  Training stops earlier at
    stationarity: once the gradient is at rounding level, or once no step
    of the line search lowers the loss any further.
    """
    mat = np.asarray(x, dtype=np.float64)
    if not np.isfinite(mat).all():
        raise DataError("design matrix must be finite")
    y = np.asarray(y, dtype=np.int64)
    # min/max, not np.unique, which imports numpy.ma on its first call.
    if y.size == 0 or y.min() == y.max():
        raise SingleClassError("training needs both label classes present")
    if ((y != y.min()) & (y != y.max())).any():
        raise DataError("only binary labels are supported")
    targets = (y == y.max()).astype(np.float64)
    if not 0.0 <= l2 < math.inf:
        raise DataError("l2 must be finite and nonnegative")

    n = mat.shape[0]
    design = np.hstack([mat, np.ones((n, 1))])
    ridge = np.full(design.shape[1], float(l2))
    ridge[-1] = 0.0
    # Gradient entries are means of terms bounded by the largest |x_ij|.
    grad_tol = _GRAD_RTOL * max(1.0, float(np.abs(mat).max(initial=0.0)))
    params = np.zeros(design.shape[1])
    loss, grad = loss_and_grad(params, mat, targets, l2)
    trace = [loss]
    for _ in range(epochs):
        if np.abs(grad).max() <= grad_tol:
            break
        prob = _sigmoid(design @ params)
        hess = (design.T * (prob * (1.0 - prob))) @ design / n
        hess[np.diag_indices_from(hess)] += ridge
        # Least squares, because the Hessian is singular when l2 = 0 and
        # columns are collinear (the columns of every CF block sum to the
        # bias column); the gradient then lies in its range.
        direction = np.linalg.lstsq(hess, grad, rcond=None)[0]
        accepted = _backtrack(params, direction, loss, grad, mat, targets, l2)
        if accepted is None:
            break
        last_loss = loss
        params, loss, grad = accepted
        trace.append(loss)
        if not loss < last_loss:
            break  # progress is below the rounding level of the loss
    return LrModel(weights=params[:-1], bias=float(params[-1]), l2=l2, trace=tuple(trace))


_ARMIJO = 1e-4      # required fraction of the decrease that the slope predicts
_GRAD_RTOL = 1e-12  # stationarity, relative to the largest design entry


def _backtrack(params, direction, loss, grad, mat, targets, l2):
    """Armijo backtracking along ``-direction`` from step 1.

    Returns the accepted ``(params, loss, grad)``, whose loss is never
    above ``loss``.  Returns None when ``direction`` is no descent
    direction, or when no step is accepted before the decrease that the
    slope predicts falls below the rounding level of the loss.
    """
    slope = float(grad @ direction)
    if not slope > 0.0:
        return None
    step = 1.0
    while True:
        cand = params - step * direction
        cand_loss, cand_grad = loss_and_grad(cand, mat, targets, l2)
        if cand_loss <= loss - _ARMIJO * step * slope:
            return cand, cand_loss, cand_grad
        step *= 0.5
        if not step * slope > np.finfo(np.float64).eps * loss:
            return None


def predict(model: LrModel, x) -> np.ndarray:
    """Probability of the higher label code, per row."""
    mat = np.asarray(x, dtype=np.float64)
    return _sigmoid(mat @ model.weights + model.bias)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
