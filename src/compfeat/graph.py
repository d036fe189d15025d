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

The graph is row-stochastic with an empty diagonal and is computed once
per propagation round, never per iteration.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .encoding import EncodedMatrix
from .errors import DataError, ShapeMismatchError

_KNN_BLOCK = 64
_WARM_STEPS = 200  # batched FISTA steps before the exact active-set solve

_MAGIC = b"CFWG"
_VERSION = 1


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

    Distance ties break by ascending index (stable sort).  The effective
    k is min(k, n-1).
    """
    x = enc.values if isinstance(enc, EncodedMatrix) else x_arr(enc)
    n = x.shape[0]
    if n < 2:
        raise DataError("k-NN needs at least 2 instances")
    if k < 1:
        raise DataError("k must be positive")
    k_eff = min(k, n - 1)
    out = np.empty((n, k_eff), dtype=np.int64)
    for start in range(0, n, _KNN_BLOCK):
        stop = min(start + _KNN_BLOCK, n)
        diff = x[start:stop, None, :] - x[None, :, :]
        d2 = (diff * diff).sum(axis=-1)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        order = np.argsort(d2, axis=1, kind="stable")
        out[start:stop] = order[:, :k_eff]
    return out


def x_arr(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
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
    x = enc.values if isinstance(enc, EncodedMatrix) else x_arr(enc)
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
    x = enc.values if isinstance(enc, EncodedMatrix) else x_arr(enc)
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
    x = enc.values if isinstance(enc, EncodedMatrix) else x_arr(enc)
    a = x[g.neighbors]
    gram_h = (a @ a.transpose(0, 2, 1) @ g.weights[..., None])[..., 0]
    return gram_h - (a * x[:, None, :]).sum(axis=-1)


def build_graph(enc: EncodedMatrix, k: int, cache_dir: str | None = None) -> WeightGraph:
    """k-NN search followed by weight solving, with an optional file cache."""
    if cache_dir is not None:
        key = content_hash(enc)
        path = os.path.join(cache_dir, f"graph_{key[:16]}_k{k}.bin")
        if os.path.exists(path):
            return load_graph(path, expected_hash=key)
        g = solve_weights(enc, knn(enc, k))
        os.makedirs(cache_dir, exist_ok=True)
        save_graph(g, path, content_key=key)
        return g
    return solve_weights(enc, knn(enc, k))


def content_hash(enc: EncodedMatrix) -> str:
    """Hex digest identifying the encoded matrix contents and layout."""
    h = hashlib.sha256()
    h.update(struct.pack("<QQ", enc.n, enc.dim))
    for name in sorted(enc.blocks):
        start, stop = enc.blocks[name]
        h.update(name.encode("utf-8") + struct.pack("<QQ", start, stop))
    h.update(np.ascontiguousarray(enc.values).tobytes())
    return h.hexdigest()


def save_graph(g: WeightGraph, path, content_key: str = ""):
    """Write the little-endian binary layout: magic, version, key, n, k, data."""
    key = bytes.fromhex(content_key) if content_key else b"\x00" * 32
    if len(key) != 32:
        raise DataError("content key must be a 32-byte hex digest")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<B", _VERSION))
        fh.write(key)
        fh.write(struct.pack("<QI", g.n, g.k))
        fh.write(g.neighbors.astype("<u4").tobytes())
        fh.write(g.weights.astype("<f8").tobytes())


def load_graph(path, expected_hash: str | None = None) -> WeightGraph:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise DataError(f"{path}: not a weight-graph file")
        (version,) = struct.unpack("<B", fh.read(1))
        if version != _VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        key = fh.read(32).hex()
        n, k = struct.unpack("<QI", fh.read(12))
        if expected_hash is not None and key != expected_hash:
            raise DataError(f"{path}: cache key mismatch")
        nb = np.frombuffer(fh.read(4 * n * k), dtype="<u4").reshape(n, k)
        w = np.frombuffer(fh.read(8 * n * k), dtype="<f8").reshape(n, k)
    return WeightGraph(neighbors=nb.astype(np.int64), weights=w.astype(np.float64))
