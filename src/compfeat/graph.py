"""k-nearest-neighbor search and simplex-constrained reconstruction weights.

Each instance is approximated by a convex combination of its k nearest
neighbors in the encoded space: per row i the weights solve

    min_h || x_i - sum_k h_k x_{nb(i,k)} ||_2
    s.t.  h >= 0,  sum h = 1,

plus a tiny ridge that makes the optimum unique (:func:`solve_weights`).
Optimality is certified by the duality gap  g(h)^T h - min_j g_j(h),
which upper-bounds the objective suboptimality for convex problems over
the simplex (see :func:`optimality_gap`).

Neighbors are ranked by the exact squared distances
``((x_i - x_j) ** 2).sum()``, ties by ascending index.  Per block of 64
rows, GEMM distances |x_i|^2 + |x_j|^2 - 2 x_i.x_j pick 2k candidates,
which a stable sort re-ranks by exact distance.  Both distances lie
within (d + 2) u (|x_i| + |x_j|)^2 of the real one (u = eps / 2, any
summation order), so the candidates hold the k nearest when the GEMM
gap between the k-th and (2k+1)-th exceeds 2 (2d + 4) eps
(|x_i| + max |x|)^2, a factor-2 margin; other rows (ties or near ties at
the k-th place, large common offsets) rank all n rows exactly.

The graph is row-stochastic with an empty diagonal and is computed once
per propagation round, never per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeMismatchError

_KNN_BLOCK = 64
_SOLVE_BLOCK = 256
_RIDGE = 1e-9      # delta in the ridge delta * tr(C) / k
_KKT_TOL = 1e-10   # times tr(C)
_FLOOR = 1e-14


@dataclass(frozen=True)
class WeightGraph:
    """Sparse row-stochastic similarity graph (<= k neighbors per row)."""

    neighbors: np.ndarray  # (n, k) int64, self excluded
    weights: np.ndarray    # (n, k) float64, nonnegative, rows sum to 1

    def __post_init__(self):
        nb = np.array(self.neighbors, dtype=np.int64, copy=True)
        w = np.array(self.weights, dtype=np.float64, copy=True)
        if nb.shape != w.shape or nb.ndim != 2:
            raise ShapeMismatchError("neighbors and weights must share an (n, k) shape")
        n = nb.shape[0]
        if nb.size:
            if nb.min() < 0 or nb.max() >= n:
                raise DataError("neighbor index out of range")
            if np.any(nb == np.arange(n)[:, None]):
                raise DataError("self loops are not allowed")
            if nb.shape[1] > 1 and (np.diff(np.sort(nb, axis=1), axis=1) == 0).any():
                raise DataError("duplicate neighbor indices in a row")
            if w.min() < 0.0 or np.abs(w.sum(axis=1) - 1.0).max() > 1e-10:
                raise DataError("weights must be nonnegative and sum to 1 per row")
        nb.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "neighbors", nb)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return int(self.neighbors.shape[0])

    @property
    def k(self) -> int:
        return int(self.neighbors.shape[1])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        np.put_along_axis(out, self.neighbors, self.weights, axis=1)
        return out

    @classmethod
    def from_dense(cls, h: np.ndarray, tol: float = 1e-12) -> "WeightGraph":
        """Build from a dense row-stochastic matrix with a zero diagonal."""
        h = np.asarray(h, dtype=np.float64)
        n = h.shape[0]
        if np.abs(np.diag(h)).max() > 0:
            raise DataError("dense matrix must have a zero diagonal")
        k = max(int((h > tol).sum(axis=1).max()), 1)
        neighbors = np.empty((n, k), dtype=np.int64)
        weights = np.zeros((n, k))
        for i in range(n):
            idx = np.flatnonzero(h[i] > tol)
            if idx.size == 0:
                raise DataError(f"row {i} has no mass")
            # Pad with zero-weight indices that are neither i nor in the row.
            pad = np.setdiff1d(np.arange(n), np.append(idx, i))[: k - idx.size]
            neighbors[i] = np.concatenate([idx, pad])
            weights[i, : idx.size] = h[i, idx] / h[i, idx].sum()
        return cls(neighbors=neighbors, weights=weights)


def knn(x: np.ndarray, k: int) -> np.ndarray:
    """Exact Euclidean k-NN indices, self excluded.

    Distance ties break by ascending index (the module docstring gives
    the exactness contract).  The effective k is min(k, n-1).
    """
    x = _vectors(x)
    n, d = x.shape
    if n < 2:
        raise DataError("k-NN needs at least 2 instances")
    if k < 1:
        raise DataError("k must be positive")
    k_eff = min(k, n - 1)
    c = min(2 * k_eff, n - 1)  # candidates per row
    sq = np.einsum("ij,ij->i", x, x)
    norms = np.sqrt(sq)
    err = (2 * d + 4) * np.finfo(np.float64).eps * (norms + norms.max()) ** 2
    out = np.empty((n, k_eff), dtype=np.int64)
    for start in range(0, n, _KNN_BLOCK):
        rows = np.arange(start, min(start + _KNN_BLOCK, n))
        local = rows - start
        approx = sq[rows, None] + sq[None, :] - 2.0 * (x[rows] @ x.T)
        approx[local, rows] = np.inf
        part = np.argpartition(approx, (k_eff - 1, c), axis=1)
        # Every index outside the first c is farther, exactly, than the
        # k-th nearest when the approximate gap exceeds twice the bound.
        certified = approx[local, part[:, c]] - approx[local, part[:, k_eff - 1]] > 2.0 * err[rows]
        cand = np.sort(part[:, :c], axis=1)
        order = np.argsort(((x[rows, None, :] - x[cand]) ** 2).sum(axis=-1), axis=1, kind="stable")
        out[rows] = np.take_along_axis(cand, order[:, :k_eff], axis=1)
        for i in rows[~certified]:
            d2 = ((x[i] - x) ** 2).sum(axis=-1)
            d2[i] = np.inf
            out[i] = np.argsort(d2, kind="stable")[:k_eff]
    return out


def _vectors(x: np.ndarray) -> np.ndarray:
    """``x`` as an (n, d) float64 array of instance vectors."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatchError("expected a 2-D array of instance vectors")
    return arr


def solve_weights(x: np.ndarray, neighbors: np.ndarray) -> WeightGraph:
    """Simplex-constrained least-squares weights for the given neighbor lists.

    With C the local Gram of row i, C_jl = (x_i - x_nb(i,j)) .
    (x_i - x_nb(i,l)), the weights solve

        min_h  0.5 h'Ch + 0.5 rho ||h||^2,   rho = delta tr(C) / k,
        s.t.   h >= 0,  sum h = 1,

    since 0.5 h'Ch = 0.5 ||x_i - sum_j h_j x_nb(i,j)||^2 on the simplex.
    The ridge rho is LLE's Gram regularizer (Roweis & Saul, Science
    2000; Saul & Roweis, JMLR 2003) with delta = ``_RIDGE`` = 1e-9.
    Without it the optimum is not unique whenever x_i lies inside its
    neighbors' hull, which is common with k = 20 neighbors in 10
    dimensions, and the weights would depend on the solver's path and
    on the neighbor order.  With it the objective is strictly convex, so
    the optimum is unique, and C + rho I restricted to any support is
    nonsingular.  Its price on the unregularized optimality gap is at
    most rho / 4 = delta / 4 times the mean squared neighbor distance
    tr(C) / k.  The active set stops, and a row counts as flat, when
    the gradient's spread is within ``_KKT_TOL`` tr(C), so the weights
    do not depend on the scale of ``x``, and the gap stays below
    (delta / 4 + k ``_KKT_TOL``) tr(C) / k, about 2e-9 tr(C) / k at
    k = 20, at any scale.

    Rows are solved in blocks of ``_SOLVE_BLOCK`` rows, each by one
    batched active set (:func:`_solve_block`), which keeps the stacked
    (rows, k, d) temporaries small.  Rows whose gradient at uniform
    weights is flat (all neighbors coincide with each other) keep
    exactly uniform weights.
    """
    x = _vectors(x)
    nb = np.asarray(neighbors, dtype=np.int64)
    n, k = nb.shape
    h = np.empty((n, k))
    for start in range(0, n, _SOLVE_BLOCK):
        rows = slice(start, min(start + _SOLVE_BLOCK, n))
        h[rows] = _solve_block(x[rows, None, :] - x[nb[rows]])
    return WeightGraph(neighbors=nb, weights=h)


def _solve_block(diff: np.ndarray) -> np.ndarray:
    """Simplex weights of a block of rows from their (m, k, d) offsets x_i - x_nb.

    A primal active set run on all unfinished rows at once.  Each
    iteration solves every row's ridge Gram restricted to its support,
    with off-support coordinates pinned to 0 by identity rows, in one
    stacked ``np.linalg.solve``.  A row whose solution is nonnegative
    moves there, then retires if no off-support coordinate has a smaller
    gradient than the support's common one, and otherwise adds the
    smallest.  Any other row steps toward its solution until a
    coordinate reaches zero and drops that coordinate.  The path starts
    at uniform weights and never increases the objective.

    The support solve is the bordered KKT system [C 1; 1' 0] with the
    multiplier eliminated: solve C_S w = 1 and normalize w to sum 1.
    Rows still unfinished after 6k + 16 iterations keep their current
    feasible point; on bank-like data every row finishes within 30.
    """
    m, k, _ = diff.shape
    gram = diff @ diff.transpose(0, 2, 1)               # (m, k, k)
    out = np.full((m, k), 1.0 / k)
    trace = np.trace(gram, axis1=1, axis2=2)
    tol = _KKT_TOL * trace
    # A flat gradient at uniform weights (all neighbors coincide) makes
    # every point of the simplex optimal; such rows keep uniform exactly.
    flat = np.ptp(gram.sum(axis=2), axis=1) / k <= tol
    eye = np.eye(k, dtype=bool)
    gram[:, eye] += (_RIDGE / k) * trace[:, None]

    live = np.flatnonzero(~flat)
    gram, h, tol = gram[live], out[live], tol[live]
    support = np.ones(h.shape, dtype=bool)
    for _ in range(6 * k + 16):
        if not live.size:
            break
        system = np.where(support[:, :, None] & support[:, None, :], gram, eye)
        target = np.linalg.solve(system, support[..., None].astype(np.float64))[..., 0]
        target /= target.sum(axis=1, keepdims=True)
        done = np.zeros(live.size, dtype=bool)

        feasible = (target >= -1e-12).all(axis=1)
        if feasible.any():
            hf = np.maximum(target[feasible], 0.0)
            hf /= hf.sum(axis=1, keepdims=True)
            grad = (gram[feasible] @ hf[..., None])[..., 0]
            mu = (grad * hf).sum(axis=1)
            off = np.where(support[feasible], np.inf, grad)
            worst = off.argmin(axis=1)
            converged = off[np.arange(worst.size), worst] >= mu - tol[feasible]
            h[feasible] = hf
            rows = np.flatnonzero(feasible)
            support[rows[~converged], worst[~converged]] = True
            done[rows[converged]] = True

        step = ~feasible
        if step.any():
            # Step toward the support solution until a coordinate hits
            # zero, then drop everything at the floor from the support.
            cur = h[step]
            delta = target[step] - cur
            shrinking = support[step] & (delta < -_FLOOR)
            ratio = np.where(shrinking, cur / np.where(shrinking, -delta, 1.0), np.inf)
            alpha = np.minimum(1.0, ratio.min(axis=1))
            hs = np.maximum(cur + alpha[:, None] * delta, 0.0)
            hs[hs <= _FLOOR] = 0.0
            dust = ~hs.any(axis=1)  # numeric dust; fall back to uniform
            hs[dust] = 1.0 / k
            hs /= hs.sum(axis=1, keepdims=True)
            h[step] = hs
            support[step] = hs > 0
            done[np.flatnonzero(step)[dust]] = True

        out[live[done]] = h[done]
        keep = ~done
        live, gram, h, support, tol = live[keep], gram[keep], h[keep], support[keep], tol[keep]
    out[live] = h
    return out


def reconstruction_error(x: np.ndarray, g: WeightGraph) -> np.ndarray:
    """Per-row squared residual ||x_i - sum_k w_ik x_nb||^2."""
    x = _vectors(x)
    recon = (g.weights[:, :, None] * x[g.neighbors]).sum(axis=1)
    return ((x - recon) ** 2).sum(axis=1)


def kkt_residual(x: np.ndarray, g: WeightGraph,
                 support_tol: float = 1e-12) -> np.ndarray:
    """Per-row stationarity residual: max over the support of g_j - min g."""
    grad = _weight_gradients(x, g)
    mu = grad.min(axis=1, keepdims=True)
    on_support = g.weights > support_tol
    resid = np.where(on_support, grad - mu, 0.0)
    return resid.max(axis=1)


def optimality_gap(x: np.ndarray, g: WeightGraph) -> np.ndarray:
    """Per-row certified bound on objective suboptimality."""
    grad = _weight_gradients(x, g)
    return (grad * g.weights).sum(axis=1) - grad.min(axis=1)


def _weight_gradients(x: np.ndarray, g: WeightGraph) -> np.ndarray:
    x = _vectors(x)
    a = x[g.neighbors]
    gram_h = (a @ a.transpose(0, 2, 1) @ g.weights[..., None])[..., 0]
    return gram_h - (a * x[:, None, :]).sum(axis=-1)


def build_graph(x: np.ndarray, k: int) -> WeightGraph:
    """k-NN search followed by weight solving."""
    return solve_weights(x, knn(x, k))
