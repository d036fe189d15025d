"""k-nearest-neighbor search and simplex-constrained reconstruction weights.

Each instance is approximated by a convex combination of its k nearest
neighbors in the encoded space: per row i the weights solve

    min_h || x_i - sum_k h_k x_{nb(i,k)} ||_2
    s.t.  h >= 0,  sum h = 1,

plus a tiny ridge that makes the optimum unique (:func:`solve_weights`).
One active-set loop finds it from the vertex of the nearest neighbor and
stops well below the ridge, so the start does not change the weights.
The neighbor lists are checked once, before any solve.
Optimality is certified by the duality gap  g(h)^T h - min_j g_j(h),
which upper-bounds the objective suboptimality for convex problems over
the simplex (see :func:`optimality_gap`).

Neighbors are ranked by the exact squared distances
``((x_i - x_j) ** 2).sum()``, ties by ascending index.  Rows go in
blocks whose (rows, n) GEMM distances |x_i|^2 + |x_j|^2 - 2 x_i.x_j hold
at most ``_KNN_ELEMENTS`` entries (64 rows, fewer past n = 8,192).  Per
block, one partition of those distances picks the 2k smallest as
candidates, and a stable sort re-ranks them by exact distance.  Both
distances lie within (d + 2) u (|x_i| + |x_j|)^2 of the real one
(u = eps / 2, any summation order), so the candidates hold the k nearest
when the GEMM gap between the k-th and (2k+1)-th exceeds
2 (2d + 4) eps (|x_i| + max |x|)^2, a factor-2 margin; other rows (ties
or near ties at the k-th place, large common offsets) rank all n rows
exactly.  Instance vectors must be finite.

The graph is row-stochastic with an empty diagonal and is computed once
per propagation round, never per iteration.  Its product with the
confidences, :func:`propagate_step`, lives here beside the layout it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import _adopted, _finite_matrix, _frozen, _integer_array, _real_array, _scalar
from .encoding import segments_stochastic
from .errors import DataError, ShapeMismatchError

_KNN_BLOCK = 64
_KNN_ELEMENTS = 2**19  # most entries of a k-NN block's (rows, n) distances
_SOLVE_BLOCK = 256
_RIDGE = 1e-9      # delta in the ridge delta * tr(C) / k
_KKT_TOL = 1e-14   # times tr(C); well below the ridge (see solve_weights)
_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class WeightGraph:
    """Sparse row-stochastic similarity graph (<= k neighbors per row),
    its neighbor lists checked as :func:`solve_weights` checks them.
    The constructor freezes copies of the arrays it is handed; the
    package's own builders (:func:`solve_weights`, :func:`stack_graphs`)
    go through :func:`compfeat.data._adopted` instead.

    Besides the (n, k) slots, the graph keeps a compact form of its
    nonzero weights for :func:`propagate_step`, built once here rather
    than per step; nothing outside this module reads it.
    ``_rank_order`` lists the rows by their count of nonzero weights,
    descending, ties in row order.
    ``_rank_slots[j]`` holds, for the rows of ``_rank_order`` with more
    than j nonzeros (a prefix of it), the neighbor index and the weight
    (as a column) of each row's j-th nonzero slot, slots in their order.
    """

    neighbors: np.ndarray  # (n, k) int64, self excluded
    weights: np.ndarray    # (n, k) float64, nonnegative, rows sum to 1

    def __post_init__(self):
        self._settle(copy=True)

    def _settle(self, copy: bool):
        """Check both fields, freeze the arrays, or copies of them when
        ``copy``, and build the compact form.  Adopted neighbor lists
        (``copy=False``) must be (n, k) int64 lists that their builder made
        from lists :func:`_neighbor_lists` checked: every check that copies
        neither array runs again on them, but the copy and the sort of
        :func:`_neighbor_lists` do not."""
        nb = _neighbor_lists(self.neighbors) if copy else _check_indices(self.neighbors)
        w = _real_array(self.weights, "weights", copy)
        if w.shape != nb.shape:
            raise ShapeMismatchError("neighbors and weights must share an (n, k) shape")
        if not segments_stochastic(w, [w.shape[1]]):
            raise DataError("weights must be finite, nonnegative and sum to 1 per row")
        object.__setattr__(self, "neighbors", _frozen(nb))
        object.__setattr__(self, "weights", _frozen(w))
        counts = np.count_nonzero(w, axis=1)
        order = np.argsort(-counts, kind="stable")
        # The flat indices of the nonzero slots, row after row, slots in
        # order, and where each row's run of them starts, rows in rank order.
        flat = np.flatnonzero(w)
        starts = (np.cumsum(counts) - counts)[order]
        ends = np.searchsorted(-counts[order], -np.arange(nb.shape[1]))  # rows with > j nonzeros
        object.__setattr__(self, "_rank_order", order)
        object.__setattr__(self, "_rank_slots", tuple(
            (nb.ravel()[at], w.ravel()[at, None])
            for at in (flat[starts[:e] + j] for j, e in enumerate(ends) if e)))

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


def propagate_step(graph: WeightGraph, q: np.ndarray) -> np.ndarray:
    """One confidence-propagation step, H @ Q, for all CFs at once.

    Row i sums w_ij q[nb(i, j)] over its nonzero weights only, in slot
    order, from the graph's compact form: rank 0 starts every row, which
    has a nonzero weight, and rank j adds each row's j-th nonzero term to
    the prefix of rows that have one.  That is exactly, bit for bit, the
    sum over all k slots in slot order, because a skipped term is
    0 * q = 0 for finite q, and x + 0 = x.  Only weights equal to 0 are
    skipped, never small ones.
    """
    q = _real_array(q, "confidences")
    if q.ndim != 2 or q.shape[0] != graph.n:
        raise ShapeMismatchError(f"confidences of shape {q.shape} do not fit {graph.n} rows")
    (idx, w), *rest = graph._rank_slots
    acc = q.take(idx, axis=0)
    acc *= w
    for idx, w in rest:
        term = q.take(idx, axis=0)
        term *= w
        acc[:idx.size] += term
    out = np.empty_like(acc)
    out[graph._rank_order] = acc
    return out


def knn(x: np.ndarray, k: int) -> np.ndarray:
    """Exact Euclidean k-NN indices, self excluded.

    Distance ties break by ascending index (the module docstring gives
    the exactness contract).  The effective k is min(k, n-1).

    Each block of :func:`_knn_rows` rows forms its (rows, n) GEMM
    distances in place and partitions them once, at c = min(2k, n - 1):
    the first c columns are the candidates and column c is the (c+1)-th
    smallest distance.  The certificate's k-th smallest distance is the
    same order statistic of the c candidates' values, so a partition of
    those c values gives it.  The candidates' exact distances are formed
    in their gathered (rows, c, d) vectors.  The neighbors do not depend
    on the block size.
    """
    x = _finite_matrix(x, "instance vectors")
    n, d = x.shape
    if n < 2:
        raise DataError("k-NN needs at least 2 instances")
    k_eff = min(_scalar(k, "k", 1, integer=True), n - 1)
    c = min(2 * k_eff, n - 1)  # candidates per row
    sq = np.einsum("ij,ij->i", x, x)
    norms = np.sqrt(sq)
    err = (2 * d + 4) * np.finfo(np.float64).eps * (norms + norms.max()) ** 2
    out = np.empty((n, k_eff), dtype=np.int64)
    block = _knn_rows(n)
    for start in range(0, n, block):
        rows = np.arange(start, min(start + block, n))
        local = rows - start
        approx = x[rows] @ x.T
        approx *= -2.0
        approx += sq[None, :]
        approx += sq[rows, None]
        approx[local, rows] = np.inf
        part = np.argpartition(approx, c, axis=1)
        kept = np.take_along_axis(approx, part[:, :c + 1], axis=1)
        kth = np.partition(kept[:, :c], k_eff - 1, axis=1)[:, k_eff - 1]
        # Every index outside the first c is farther, exactly, than the
        # k-th nearest when the approximate gap exceeds twice the bound.
        certified = kept[:, c] - kth > 2.0 * err[rows]
        cand = np.sort(part[:, :c], axis=1)
        diff = x[cand]
        np.subtract(x[rows, None, :], diff, out=diff)
        np.square(diff, out=diff)
        order = np.argsort(diff.sum(axis=-1), axis=1, kind="stable")
        out[rows] = np.take_along_axis(cand, order[:, :k_eff], axis=1)
        for i in rows[~certified]:
            d2 = ((x[i] - x) ** 2).sum(axis=-1)
            d2[i] = np.inf
            out[i] = np.argsort(d2, kind="stable")[:k_eff]
    return out


def _knn_rows(n: int) -> int:
    """Rows per :func:`knn` block over n instances: ``_KNN_BLOCK``, or
    fewer (at least 1) so that the block's (rows, n) distances hold at
    most ``_KNN_ELEMENTS`` entries.  That is 64 rows up to n = 8,192 and
    11 at n = 45,211."""
    return max(1, min(_KNN_BLOCK, _KNN_ELEMENTS // n))


def _neighbor_lists(neighbors: np.ndarray, n: int | None = None) -> np.ndarray:
    """``neighbors``, given as integers, as a new, checked (n, k) int64
    array; n defaults to its rows."""
    nb = _integer_array(neighbors, "neighbor indices")
    if nb.ndim != 2 or (n is not None and nb.shape[0] != n):
        raise ShapeMismatchError(f"neighbor lists need one row per instance, got shape {nb.shape}")
    if not nb.size:
        raise DataError(f"a graph needs at least one row and one neighbor slot, got {nb.shape}")
    nb = nb.astype(np.int64)
    _check_indices(nb)
    ranked = np.sort(nb, axis=1)
    if (ranked[:, 1:] == ranked[:, :-1]).any():
        raise DataError("duplicate neighbor indices in a row")
    return nb


def _check_indices(nb: np.ndarray) -> np.ndarray:
    """``nb``, (n, k) int64 neighbor lists, once no index is out of range
    or a row's own; nothing is copied."""
    if nb.min() < 0 or nb.max() >= nb.shape[0]:
        raise DataError("neighbor index out of range")
    if np.any(nb == np.arange(nb.shape[0])[:, None]):
        raise DataError("self loops are not allowed")
    return nb


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
    tr(C) / k.

    The active set stops, and a row counts as flat, when the gradient's
    spread is within tol = ``_KKT_TOL`` tr(C), so the weights do not
    depend on the scale of ``x``.  The stop must sit well below rho.
    A stopped point is within tol of the ridge optimum in objective,
    hence within sqrt(2 tol / rho) = sqrt(2 k ``_KKT_TOL`` / delta) of it
    in Euclidean norm by strong convexity.  That is 0.02 at k = 20 with
    ``_KKT_TOL`` = 1e-14; at 1e-10 it would be 2, no bound at all, and
    for rows inside their neighbors' hull the start would then pick the
    weights among a flat set of accepted points.  The unregularized gap
    stays below (delta / 4 + k ``_KKT_TOL``) tr(C) / k, about
    2.5e-10 tr(C) / k at k = 20 and dominated by the ridge's delta / 4,
    at any scale.

    ``neighbors`` is checked before anything is gathered, as
    :class:`WeightGraph` checks it, with n = len(x), and the graph
    adopts that checked copy and the weights
    (:func:`compfeat.data._adopted`).  Rows are solved in blocks of
    ``_SOLVE_BLOCK`` rows, each by one batched active set
    (:func:`_solve_block`).  A block gathers its rows' (rows, k, d)
    neighbor vectors, subtracts them from x_i in place to form the
    offsets, and forms their (rows, k, k) Grams; the offsets are freed
    before the active set runs, which holds only the Grams and its
    (rows, k) iterates.  Rows whose gradient at uniform weights is flat
    (all neighbors coincide with each other) keep exactly uniform weights.
    """
    x = _finite_matrix(x, "instance vectors")
    nb = _neighbor_lists(neighbors, x.shape[0])
    n, k = nb.shape
    h = np.empty((n, k))
    for start in range(0, n, _SOLVE_BLOCK):
        rows = slice(start, min(start + _SOLVE_BLOCK, n))
        offsets = x[nb[rows]]
        np.subtract(x[rows, None, :], offsets, out=offsets)
        gram = offsets @ offsets.transpose(0, 2, 1)
        del offsets  # the active set needs only the Gram
        h[rows] = _solve_block(gram)
    return _adopted(WeightGraph, neighbors=nb, weights=h)


def _solve_block(gram: np.ndarray) -> np.ndarray:
    """Simplex weights of a block of rows from the (m, k, k) Grams of their
    offsets x_i - x_nb, which it adds the ridge to in place.

    A primal active set run on all unfinished rows at once.  Each
    iteration solves every row's ridge Gram restricted to its support in
    one stacked ``np.linalg.solve``.  A row whose solution is nonnegative
    moves there, then retires if no off-support coordinate has a smaller
    gradient than the support's common one, and otherwise adds the
    smallest.  Any other row steps toward its solution until a
    coordinate reaches zero and drops that coordinate.  The path never
    increases the objective.

    Each row starts at the vertex of its nearest neighbor, h = e_j with
    j = argmin C_jj (ties to the lowest slot), a support of one, in the
    manner of Lawson and Hanson's NNLS.  The first iteration is the
    loop's own: the support of one solves to exactly e_j, the gradient
    is column j of the ridge Gram and the common gradient is C_jj, so
    rows whose vertex is optimal retire at once and the others add
    their worst violator.  Final supports on bank-like data hold 5 to 7
    of k = 20 coordinates on average, 6 to 9 equality solves per row.

    The support solve is the bordered KKT system [C 1; 1' 0] with the
    multiplier eliminated: solve C_S w = 1 and normalize w to sum 1.
    Each iteration gathers every live row's C_S, its support slots in
    ascending order, into one (m, s, s) stack, s the largest live
    support; a row with a smaller support fills its last slots with
    off-support coordinates pinned to 0 by identity rows.  The solutions
    are scattered back to the row's k slots.
    Rows still unfinished after 6k + 16 iterations keep their current
    feasible point; on bank-like data every row finishes within 31.
    """
    m, k, _ = gram.shape
    out = np.full((m, k), 1.0 / k)
    trace = np.trace(gram, axis1=1, axis2=2)
    tol = _KKT_TOL * trace
    # A flat gradient at uniform weights (all neighbors coincide) makes
    # every point of the simplex optimal; such rows keep uniform exactly.
    flat = np.ptp(gram.sum(axis=2), axis=1) / k <= tol
    eye = np.eye(k, dtype=bool)
    nearest = gram[:, eye].argmin(axis=1)  # smallest C_jj, ties to the lowest slot
    gram[:, eye] += (_RIDGE / k) * trace[:, None]

    live = np.flatnonzero(~flat)
    tol = tol[live]
    support = np.zeros((live.size, k), dtype=bool)
    support[np.arange(live.size), nearest[live]] = True
    h = support.astype(np.float64)
    for _ in range(6 * k + 16):
        if not live.size:
            break
        size = support.sum(axis=1)
        s = size.max()
        slots = np.argsort(~support, axis=1, kind="stable")[:, :s]  # support first
        on = np.arange(s) < size[:, None]
        sub = gram[live[:, None, None], slots[:, :, None], slots[:, None, :]]
        system = np.where(on[:, :, None] & on[:, None, :], sub, eye[:s, :s])
        sol = np.linalg.solve(system, on[..., None].astype(np.float64))[..., 0]
        target = np.zeros(support.shape)
        np.put_along_axis(target, slots, np.where(on, sol, 0.0), axis=1)
        target /= target.sum(axis=1, keepdims=True)
        done = np.zeros(live.size, dtype=bool)

        feasible = (target >= -1e-12).all(axis=1)
        if feasible.any():
            hf = np.maximum(target[feasible], 0.0)
            hf /= hf.sum(axis=1, keepdims=True)
            grad = (gram[live[feasible]] @ hf[..., None])[..., 0]
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
            hs /= hs.sum(axis=1, keepdims=True)
            h[step] = hs
            support[step] = hs > 0

        out[live[done]] = h[done]
        keep = ~done
        live, h, support, tol = live[keep], h[keep], support[keep], tol[keep]
    out[live] = h
    return out


def optimality_gap(x: np.ndarray, g: WeightGraph) -> np.ndarray:
    """Per-row certified bound on objective suboptimality."""
    grad = _weight_gradients(x, g)
    return (grad * g.weights).sum(axis=1) - grad.min(axis=1)


def _weight_gradients(x: np.ndarray, g: WeightGraph) -> np.ndarray:
    x = _finite_matrix(x, "instance vectors")
    a = x[g.neighbors]
    gram_h = (a @ a.transpose(0, 2, 1) @ g.weights[..., None])[..., 0]
    return gram_h - (a * x[:, None, :]).sum(axis=-1)


def build_graph(x: np.ndarray, k: int) -> WeightGraph:
    """k-NN search followed by weight solving."""
    return solve_weights(x, knn(x, k))


def stack_graphs(graphs: Sequence[WeightGraph]) -> WeightGraph:
    """The block-diagonal union of ``graphs``, checked as any graph is.

    Graph s's rows follow those of graphs 0..s-1, and its neighbor
    indices are offset by their total rows, so each row keeps its
    neighbors, weights and slot order.  A single graph is returned as it
    is, and no graph is a :class:`DataError`.
    """
    if _scalar(len(graphs), "graph count", 1, integer=True) == 1:
        return graphs[0]
    offsets = np.cumsum([0] + [g.n for g in graphs[:-1]])
    return _adopted(WeightGraph,
                    neighbors=np.concatenate([g.neighbors + o for g, o in zip(graphs, offsets)]),
                    weights=np.concatenate([g.weights for g in graphs]))
