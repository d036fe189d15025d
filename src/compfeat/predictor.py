"""Downstream binary label prediction with logistic regression.

The design matrix concatenates the OF encoding with one block per CF,
whose content depends on the input mode:

* ``ord``  - one-hot of the hidden true values (the ceiling),
* ``comp`` - the uniform-over-complement initial confidences,
* ``soft`` - estimated confidence rows,
* ``hard`` - one-hot of the hard estimates.

Training is deterministic damped Newton (IRLS) with Armijo backtracking
on the full batch, so the loss trace never increases and runs are
reproducible without seed bookkeeping.  Its working set is the design it
is handed, a few vectors of one entry per row, and row-block temporaries
of a fixed size: the bias is added to each score, not stored as a column
of ones, and the Hessian is summed over blocks of rows.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, _Record, _check_codes, _finite_matrix, _frozen, _integer_array, _scalar
from .encoding import _one_hot_into, encode_of
from .errors import DataError, ShapeMismatchError, SingleClassError
from .result import EstimationResult, init_marginal

MODES = ("ord", "comp", "soft", "hard")


def assemble(ds: Dataset, mode: str, result: EstimationResult | None = None) -> np.ndarray:
    """Build the model input: OFs in schema order, then CF blocks in schema order.

    Returns a read-only (n, d) float64 array whose last sum u_j columns
    hold the CF blocks, CF j's block of width u_j after CF j-1's.  The
    array is allocated once: :func:`encode_of` is copied into its first
    columns, and the CF blocks into the rest, where ``ord`` and ``hard``
    write their one-hot in place.  It equals ``np.hstack`` of the OF
    encoding and the stacked block, bit for bit.  Every part is finite as
    its maker admits it, so the design is not checked again here;
    :func:`train` and :func:`predict` check whatever they are handed.
    """
    if mode not in MODES:
        raise DataError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode == "ord" and ds.cf_truth is None:
        raise DataError("ord mode needs ground-truth CF values")
    if mode in ("soft", "hard"):
        if result is None:
            raise DataError(f"mode {mode!r} needs an estimation result")
        result.check_fits(ds)
    of = encode_of(ds)
    design = np.empty((ds.n, of.shape[1] + sum(ds.schema.cf_sizes)))
    design[:, :of.shape[1]] = of
    block = design[:, of.shape[1]:]
    if mode == "comp":
        block[...] = init_marginal(ds)
    elif mode == "soft":
        block[...] = result.confidences
    else:
        _one_hot_into(block, ds.cf_truth if mode == "ord" else result.hard_estimates,
                      ds.schema.cf_sizes)
    return _frozen(design)


# ---------------------------------------------------------------------------
# Logistic regression


class LrModel(_Record):
    """A trained model; ``trace`` holds the loss per iteration, non-increasing."""

    _fields = ("weights", "bias", "l2", "trace")

    def __init__(self, weights: np.ndarray, bias: float, l2: float, trace: tuple[float, ...]):
        vars(self).update(weights=weights, bias=bias, l2=l2, trace=trace)


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


def train(x, y: np.ndarray, l2: float = 1e-4) -> LrModel:
    """Deterministic full-batch training from zero-initialized weights.

    Each iteration takes a damped Newton (IRLS) step on the objective of
    :func:`loss_and_grad`, halved until the Armijo condition holds.
    ``_MAX_ITERS`` caps the number of iterations.  Training stops earlier
    at stationarity: once the gradient is at rounding level, or once no
    step of the line search lowers the loss any further.  ``y`` holds the
    label codes, integers in {1, 2}, of the rows of the (n, d) design ``x``.

    The bias enters every score as ``x @ w + b``, not through a column of
    ones, and the Hessian is summed over row blocks (:func:`_hessian`).
    So beside the float64 design, which is ``x`` itself when ``x`` is
    float64, training holds vectors of one entry per row, temporaries of
    at most ``_BLOCK_ELEMENTS`` entries and, while it checks that the
    design is finite, one boolean mask of it.
    """
    mat = _finite_matrix(x, "design matrix")
    y = _integer_array(y, "labels")
    if y.shape != mat.shape[:1]:
        raise ShapeMismatchError(f"labels of shape {y.shape} do not fit a design {mat.shape}")
    _check_codes(y, 2, "labels")
    # min/max, not np.unique, which imports numpy.ma on its first call.
    if y.size == 0 or y.min() == y.max():
        raise SingleClassError("training needs both label classes present")
    targets = (y == 2).astype(np.float64)
    l2 = _scalar(l2, "l2", 0)

    # Gradient entries are means of terms bounded by the largest |x_ij|.
    grad_tol = _GRAD_RTOL * max(1.0, -float(mat.min(initial=0.0)), float(mat.max(initial=0.0)))
    params = np.zeros(mat.shape[1] + 1)
    loss, grad = loss_and_grad(params, mat, targets, l2)
    trace = [loss]
    for _ in range(_MAX_ITERS):
        if np.abs(grad).max() <= grad_tol:
            break
        prob = _sigmoid(mat @ params[:-1] + params[-1])
        hess = _hessian(mat, prob * (1.0 - prob))
        hess[np.diag_indices(mat.shape[1])] += l2  # the bias, last, is unregularized
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
_MAX_ITERS = 500
_BLOCK_ELEMENTS = 1 << 14  # entries of one row block's Hessian temporary


def _hessian(mat: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``(Dᵀ diag(s) D) / n`` of the design ``D = [mat, 1]``, its bias last.

    That is ``[XᵀSX, XᵀS1; 1ᵀSX, Σs] / n`` for ``X = mat`` and
    ``S = diag(s)``.  ``XᵀSX`` is summed over blocks of rows whose scaled
    copy holds at most ``_BLOCK_ELEMENTS`` entries (one row at the least);
    ``XᵀS1`` is one matrix-vector product, with no temporary.
    """
    n, d = mat.shape
    hess = np.zeros((d + 1, d + 1))
    rows = max(1, _BLOCK_ELEMENTS // (d + 1))
    for start in range(0, n, rows):
        block = mat[start:start + rows]
        hess[:d, :d] += (block.T * s[start:start + rows]) @ block
    hess[:d, d] = hess[d, :d] = mat.T @ s
    hess[d, d] = s.sum()
    return hess / n


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
    """Probability of label code 2 for each row of the (n, d) design
    ``x``, which must be finite, as in :func:`train`."""
    mat = _finite_matrix(x, "design matrix")
    if mat.shape[1] != model.weights.size:
        raise ShapeMismatchError(f"a design {mat.shape} does not fit {model.weights.size} weights")
    return _sigmoid(mat @ model.weights + model.bias)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
