"""k-nearest-neighbor search and simplex-constrained reconstruction weights.

Each instance is approximated by a convex combination of its k nearest
neighbors in the encoded space: per row i the weights solve

    min_h || x_i - sum_k h_k x_{nb(i,k)} ||_2
    s.t.  h >= 0,  sum h = 1.

The solver is a primal active-set method with exact KKT solves on the
support; feasibility is exact by construction and optimality is
certified by the duality gap  g(h)^T h - min_j g_j(h),  which
upper-bounds the objective suboptimality for convex problems over the
simplex (see :func:`optimality_gap`).

The active-set path starts from a warm start computed for all rows at
once: a fixed number of accelerated projected-gradient (FISTA) steps on
the stacked (n, k, k) Gram systems, each row with step 1/lambda_max of
its Gram and a sort-based projection onto the simplex.  The warm start
is usually on or next to the optimal support, so the per-row loop
mostly ends after one or two equality solves.

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

from .encoding import EncodedMatrix
from .errors import DataError, ShapeMismatchError

_KNN_BLOCK = 64
_WARM_STEPS = 200  # batched FISTA steps before the exact active-set solve


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


def knn(enc: EncodedMatrix | np.ndarray, k: int) -> np.ndarray:
    """Exact Euclidean k-NN indices, self excluded.

    Distance ties break by ascending index (the module docstring gives
    the exactness contract).  The effective k is min(k, n-1).
    """
    x = _vectors(enc)
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


def _vectors(enc: EncodedMatrix | np.ndarray) -> np.ndarray:
    """The (n, d) instance vectors of an encoding or a plain array."""
    if isinstance(enc, EncodedMatrix):
        return enc.values
    arr = np.asarray(enc, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatchError("expected a 2-D array of instance vectors")
    return arr


def solve_weights(enc: EncodedMatrix | np.ndarray, neighbors: np.ndarray) -> WeightGraph:
    """Simplex-constrained least-squares weights for the given neighbor lists.

    Each row is a tiny convex QP solved by a primal active-set method:
    exact equality-constrained KKT solves on the current support,
    boundary steps that drop coordinates reaching zero, and first-order
    checks that add the worst violator.  The path starts at a batched
    projected-gradient warm start when that start's objective is no
    worse than uniform weights', and at uniform weights otherwise; the
    objective never increases along the path, so the result is always
    at least as good as uniform.  Fully degenerate rows (all neighbor
    vectors identical) keep the uniform weights, which are optimal and
    permutation-symmetric there.
    """
    x = _vectors(enc)
    nb = np.asarray(neighbors, dtype=np.int64)
    n, k = nb.shape

    a = x[nb]                                   # (n, k, d)
    gram = a @ a.transpose(0, 2, 1)             # (n, k, k)
    c = (a * x[:, None, :]).sum(axis=-1)        # (n, k)

    start = _warm_start(gram, c)
    h = np.empty((n, k))
    for i in range(n):
        h[i] = _solve_simplex_qp(gram[i], c[i], start[i])
    return WeightGraph(neighbors=nb, weights=h)


def _objective(gram: np.ndarray, c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-row 0.5 h'Gh - c'h for stacked (n, k, k) systems."""
    return 0.5 * np.einsum("ni,nij,nj->n", h, gram, h) - (c * h).sum(axis=1)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection onto the probability simplex (sort-based)."""
    k = v.shape[1]
    srt = -np.sort(-v, axis=1)
    css = np.cumsum(srt, axis=1) - 1.0
    rho = (srt * np.arange(1, k + 1) > css).sum(axis=1)   # >= 1 always
    theta = css[np.arange(v.shape[0]), rho - 1] / rho
    return np.maximum(v - theta[:, None], 0.0)


def _warm_start(gram: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Batched FISTA on all rows; falls back to uniform where it is worse.

    Steps are 1/lambda_max per row, so each row's iterates are those of
    accelerated projected gradient on its own problem.
    """
    n, k = c.shape
    uniform = np.full((n, k), 1.0 / k)
    lmax = np.linalg.eigvalsh(gram)[:, -1]
    step = (1.0 / np.maximum(lmax, np.finfo(float).tiny))[:, None]
    h = y = uniform
    t = 1.0
    for _ in range(_WARM_STEPS):
        grad = (gram @ y[..., None])[..., 0] - c
        h_next = _project_simplex(y - step * grad)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = h_next + ((t - 1.0) / t_next) * (h_next - h)
        h, t = h_next, t_next
    worse = ~(_objective(gram, c, h) <= _objective(gram, c, uniform))
    h[worse] = uniform[worse]
    return h


def _solve_simplex_qp(gram: np.ndarray, c: np.ndarray, start: np.ndarray | None = None,
                      kkt_tol: float = 1e-10, floor: float = 1e-14) -> np.ndarray:
    """argmin 0.5 h'Gh - c'h over the probability simplex.

    The path starts at ``start`` (a point of the simplex; uniform when
    omitted) and never increases the objective.  Grams here are
    least-squares normal matrices and often rank deficient (more
    neighbors than dimensions), so equality-constrained steps use a
    null-space parameterization with a least-norm solve, which is
    always consistent for PSD systems.
    """
    k = c.shape[0]
    h = np.full(k, 1.0 / k)
    if np.ptp(gram @ h - c) <= kkt_tol:
        # Constant gradient: objective is flat on the simplex (degenerate
        # row); uniform is optimal.
        return h
    if start is not None:
        h = start
    support = h > 0
    for _ in range(6 * k + 16):
        idx = np.flatnonzero(support)
        target = _equality_solve(gram[np.ix_(idx, idx)], c[idx])
        if (target >= -1e-12).all():
            h = np.zeros(k)
            h[idx] = np.maximum(target, 0.0)
            h /= h.sum()
            grad = gram @ h - c
            mu = grad[idx] @ h[idx]  # = common multiplier on the support
            off = np.flatnonzero(~support)
            if off.size == 0 or grad[off].min() >= mu - kkt_tol:
                return h
            support[off[np.argmin(grad[off])]] = True
        else:
            # Step toward the equality solution until a coordinate hits
            # zero, then drop everything at the floor from the support.
            cur = h[idx]
            delta = target - cur
            shrinking = delta < -floor
            alpha = min(1.0, float(np.min(cur[shrinking] / -delta[shrinking])))
            h = np.zeros(k)
            h[idx] = np.maximum(cur + alpha * delta, 0.0)
            h[h <= floor] = 0.0
            if not h.any():  # numeric dust; fall back to uniform
                return np.full(k, 1.0 / k)
            h /= h.sum()
            support = h > 0
    return h


_SUM_ZERO_BASES: dict[int, np.ndarray] = {}


def _sum_zero_basis(s: int) -> np.ndarray:
    """Orthonormal basis of the sum-zero subspace of R^s (cached)."""
    basis = _SUM_ZERO_BASES.get(s)
    if basis is None:
        basis = np.linalg.qr(np.ones((s, 1)), mode="complete")[0][:, 1:]
        basis.flags.writeable = False
        _SUM_ZERO_BASES[s] = basis
    return basis


def _equality_solve(gram_s: np.ndarray, c_s: np.ndarray) -> np.ndarray:
    """Least-norm minimizer of the QP restricted to sum(h) = 1."""
    s = c_s.shape[0]
    if s == 1:
        return np.ones(1)
    base = np.full(s, 1.0 / s)
    basis = _sum_zero_basis(s)
    reduced = basis.T @ gram_s @ basis
    rhs = -basis.T @ (gram_s @ base - c_s)
    z = np.linalg.lstsq(reduced, rhs, rcond=None)[0]
    return base + basis @ z


def reconstruction_error(enc: EncodedMatrix | np.ndarray, g: WeightGraph) -> np.ndarray:
    """Per-row squared residual ||x_i - sum_k w_ik x_nb||^2."""
    x = _vectors(enc)
    recon = (g.weights[:, :, None] * x[g.neighbors]).sum(axis=1)
    return ((x - recon) ** 2).sum(axis=1)


def kkt_residual(enc: EncodedMatrix | np.ndarray, g: WeightGraph,
                 support_tol: float = 1e-12) -> np.ndarray:
    """Per-row stationarity residual: max over the support of g_j - min g."""
    grad = _weight_gradients(enc, g)
    mu = grad.min(axis=1, keepdims=True)
    on_support = g.weights > support_tol
    resid = np.where(on_support, grad - mu, 0.0)
    return resid.max(axis=1)


def optimality_gap(enc: EncodedMatrix | np.ndarray, g: WeightGraph) -> np.ndarray:
    """Per-row certified bound on objective suboptimality."""
    grad = _weight_gradients(enc, g)
    return (grad * g.weights).sum(axis=1) - grad.min(axis=1)


def _weight_gradients(enc, g: WeightGraph) -> np.ndarray:
    x = _vectors(enc)
    a = x[g.neighbors]
    gram_h = (a @ a.transpose(0, 2, 1) @ g.weights[..., None])[..., 0]
    return gram_h - (a * x[:, None, :]).sum(axis=-1)


def build_graph(enc: EncodedMatrix, k: int) -> WeightGraph:
    """k-NN search followed by weight solving."""
    return solve_weights(enc, knn(enc, k))
