import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compfeat import graph as graph_module
from compfeat.errors import DataError, ShapeMismatchError
from compfeat.graph import (
    _KKT_TOL,
    _RIDGE,
    WeightGraph,
    _weight_gradients,
    build_graph,
    knn,
    optimality_gap,
    propagate_step,
    solve_weights,
    stack_graphs,
)
from compfeat.encoding import encode_of
from compfeat.oracle import make_bank_like


def brute_force_knn(x, k):
    """Full-sort reference: same distances, selection by (distance, index)."""
    n = x.shape[0]
    out = []
    for i in range(n):
        d2 = ((x - x[i]) ** 2).sum(axis=1)
        order = sorted((j for j in range(n) if j != i), key=lambda j: (d2[j], j))
        out.append(order[: min(k, n - 1)])
    return np.asarray(out)


def reconstruction_error(x, g):
    """Per-row squared residual ||x_i - sum_k w_ik x_nb||^2."""
    recon = (g.weights[:, :, None] * x[g.neighbors]).sum(axis=1)
    return ((x - recon) ** 2).sum(axis=1)


def kkt_residual(x, g, support_tol=1e-12):
    """Per-row stationarity residual: max over the support of g_j - min g."""
    grad = _weight_gradients(x, g)
    mu = grad.min(axis=1, keepdims=True)
    return np.where(g.weights > support_tol, grad - mu, 0.0).max(axis=1)


def simplex_grid(k, step):
    """All simplex points whose coordinates are multiples of step."""
    ticks = round(1.0 / step)
    for cuts in itertools.combinations_with_replacement(range(ticks + 1), k - 1):
        h = np.diff((0,) + cuts + (ticks,)) / ticks
        yield h


def reference_simplex_qp(gram, c, kkt_tol=1e-10, floor=1e-14):
    """argmin 0.5 h'Gh - c'h over the probability simplex, one row at a time.

    The unregularized reference for :func:`solve_weights`: a primal
    active set from uniform weights whose equality-constrained steps use
    a null-space parameterization with a least-norm solve, consistent
    for the rank-deficient Grams of k > d neighbors.
    """
    k = c.shape[0]
    h = np.full(k, 1.0 / k)
    if np.ptp(gram @ h - c) <= kkt_tol:
        return h  # flat objective on the simplex: uniform is optimal
    support = h > 0
    for _ in range(6 * k + 16):
        idx = np.flatnonzero(support)
        target = equality_solve(gram[np.ix_(idx, idx)], c[idx])
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
            cur = h[idx]
            delta = target - cur
            shrinking = delta < -floor
            alpha = min(1.0, float(np.min(cur[shrinking] / -delta[shrinking])))
            h = np.zeros(k)
            h[idx] = np.maximum(cur + alpha * delta, 0.0)
            h[h <= floor] = 0.0
            if not h.any():
                return np.full(k, 1.0 / k)
            h /= h.sum()
            support = h > 0
    return h


def equality_solve(gram_s, c_s):
    """Least-norm minimizer of the QP restricted to sum(h) = 1."""
    s = c_s.shape[0]
    if s == 1:
        return np.ones(1)
    base = np.full(s, 1.0 / s)
    basis = sum_zero_basis(s)
    reduced = basis.T @ gram_s @ basis
    rhs = -basis.T @ (gram_s @ base - c_s)
    z = np.linalg.lstsq(reduced, rhs, rcond=None)[0]
    return base + basis @ z


def sum_zero_basis(s):
    """Orthonormal basis of the sum-zero subspace of R^s."""
    return np.linalg.qr(np.ones((s, 1)), mode="complete")[0][:, 1:]


class TestKnn:
    def test_two_points(self):
        x = np.array([[0.0], [3.0]])
        np.testing.assert_array_equal(knn(x, 1), [[1], [0]])

    def test_collinear_points(self):
        x = np.array([[0.0], [1.0], [10.0]])
        np.testing.assert_array_equal(knn(x, 1), [[1], [0], [1]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 5))
        np.testing.assert_array_equal(knn(x, 20), brute_force_knn(x, 20))

    def test_tie_break_by_index(self):
        # three points equidistant from the origin row
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(knn(x, 3)[0], [1, 2, 3])

    def test_k_clipped_to_n_minus_one(self):
        x = np.random.default_rng(1).normal(size=(4, 2))
        assert knn(x, 10).shape == (4, 3)


def stable_argsort_knn(x, k):
    """Every pairwise exact distance, then a stable argsort of each row."""
    diff = x[:, None, :] - x[None, :, :]
    d2 = (diff * diff).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, : min(k, x.shape[0] - 1)]


@st.composite
def tie_heavy_rows(draw):
    """Small matrices whose exact distances tie often, plus a k up to n + 2."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["binary", "one_hot", "duplicated", "sphere", "offset"]))
    if kind == "binary":
        x = rng.integers(0, 2, size=(n, d)).astype(np.float64)
    elif kind == "one_hot":
        # Encoded categorical OFs: one-hot rows scaled by 1/sqrt(u).
        x = np.eye(d)[rng.integers(0, d, size=n)] / np.sqrt(d)
    elif kind == "duplicated":
        distinct = rng.normal(size=(draw(st.integers(1, 4)), d))
        x = distinct[rng.integers(0, distinct.shape[0], size=n)]
    elif kind == "sphere":
        # Row 0 at the centre of a unit sphere: exact distances to the
        # other rows differ only by rounding, so they are near ties.
        x = rng.normal(size=(n, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        x[0] = 0.0
        x += draw(st.sampled_from([0.0, 1e2, 1e6]))
    else:
        # A large common offset: the GEMM form cancels catastrophically.
        step = draw(st.sampled_from([1e-3, 0.5, 1.0]))
        x = draw(st.sampled_from([1e3, 1e6])) + step * rng.integers(0, 3, size=(n, d))
    return x, draw(st.integers(1, n + 2))


def knn_in_blocks(x, k, rows):
    """knn with ``_KNN_ELEMENTS`` set so that its blocks hold ``rows``
    rows, checking that they do: every block's distances pass through
    np.argpartition once."""
    n = len(x)
    blocks = []
    argpartition = np.argpartition
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_KNN_ELEMENTS", rows * n)
        mp.setattr(np, "argpartition",
                   lambda a, kth, axis: blocks.append(a.shape[0]) or argpartition(a, kth, axis))
        got = knn(x, k)
    assert blocks == [min(rows, n - start) for start in range(0, n, rows)]
    return got


class TestKnnExactness:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_rows())
    def test_matches_stable_argsort_on_ties(self, case):
        x, k = case
        np.testing.assert_array_equal(knn(x, k), stable_argsort_knn(x, k))

    def test_bank_like_rounds(self, bank_like_rounds):
        _, enc1, enc2, _, _ = bank_like_rounds
        for enc in (enc1, enc2):
            np.testing.assert_array_equal(knn(enc, 20), stable_argsort_knn(enc, 20))

    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_rows())
    def test_block_size_does_not_change_neighbors_on_ties(self, case):
        x, k = case
        want = knn(x, k)
        for rows in (1, 7):
            np.testing.assert_array_equal(knn_in_blocks(x, k, rows), want)

    def test_block_size_does_not_change_neighbors_on_bank_like_rounds(self, bank_like_rounds):
        _, enc1, enc2, _, _ = bank_like_rounds
        for enc in (enc1, enc2):
            want = knn(enc, 20)
            for rows in (1, 7):
                np.testing.assert_array_equal(knn_in_blocks(enc, 20, rows), want)

    @pytest.mark.parametrize("n, rows", [(2, 64), (400, 64), (5000, 64), (8192, 64),
                                         (8193, 63), (45211, 11), (2**19, 1), (2**20, 1)])
    def test_rows_per_block_follow_n(self, n, rows):
        """64 rows per block while a block's n distances fit the element
        budget; fewer past it, down to 1."""
        assert graph_module._knn_rows(n) == rows

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_ties_straddle_the_partition_index(self, k):
        """One row sits at the origin; three rows are nearer than 1, and
        the 60 rows with two entries of +-1 in 6-D tie at distance 2 and
        hold places 3 to 62 of its order, across the partition index
        c = 2k.  At k = 2, 3 the k-th place is certified and the
        candidates end inside the tie; at k = 4, 5 the tie also holds
        the k-th place.  Shuffled, so the tie's lowest indices are
        scattered among the partition's arbitrary picks."""
        pairs = [(a, b, sa, sb) for a, b in itertools.combinations(range(6), 2)
                 for sa in (-1.0, 1.0) for sb in (-1.0, 1.0)]
        x = np.zeros((64, 6))
        for r, (a, b, sa, sb) in enumerate(pairs):
            x[r, a], x[r, b] = sa, sb
        x[61:, :3] = np.diag([0.5, 0.6, 0.7])
        x = x[np.random.default_rng(k).permutation(64)]
        origin = int(np.flatnonzero(~x.any(axis=1))[0])
        d2 = np.delete(np.sort(((x - x[origin]) ** 2).sum(axis=1)), 0)
        assert d2[2 * k - 1] == d2[2 * k] == 2.0
        np.testing.assert_array_equal(knn(x, k), stable_argsort_knn(x, k))

    @pytest.mark.parametrize("n, k", [(2, 1), (9, 4), (41, 20), (41, 30)])
    def test_candidates_are_every_other_row(self, n, k):
        """c = n - 1: the partition index lands on the row's own inf."""
        x = np.random.default_rng(n + k).integers(0, 3, size=(n, 3)).astype(np.float64)
        assert min(2 * min(k, n - 1), n - 1) == n - 1
        np.testing.assert_array_equal(knn(x, k), stable_argsort_knn(x, k))

    def test_block_where_every_row_takes_the_full_scan(self):
        """A common offset of 1e8 makes knn's rounding bound about 260,
        while exact distances differ by at most 12, so no row of the
        first block of 64 (nor the rest) can pass the certificate."""
        x = 1e8 + np.random.default_rng(12).integers(0, 3, size=(70, 3)).astype(np.float64)
        n, d = x.shape
        k = 5
        norms = np.sqrt((x * x).sum(axis=1))
        err = (2 * d + 4) * np.finfo(np.float64).eps * (norms + norms.max()) ** 2
        d2 = np.sort(((x[:, None, :] - x[None]) ** 2).sum(axis=-1), axis=1)[:, 1:]
        assert (d2[:, 2 * k] - d2[:, k - 1] <= err).all()
        np.testing.assert_array_equal(knn(x, k), stable_argsort_knn(x, k))

    def test_certificate_holds_for_any_valid_partition(self, monkeypatch):
        """knn may not read the order inside the partition's first c
        columns.  Here every row's partition is valid but adversarial:
        ties are taken highest index first, and the nearest candidate
        sits at slot k - 1.  Row 0 has one row at distance 1 and eight at
        distance 2, so at k = 2 its k-th and (c+1)-th distances tie
        (c = 4): it must fail the certificate and rank every row."""
        k = 2
        calls = []

        def adversarial(a, kth, axis):
            assert axis == 1
            order = np.lexsort((np.broadcast_to(-np.arange(a.shape[1]), a.shape), a))
            order[:, [0, k - 1]] = order[:, [k - 1, 0]]
            part = np.take_along_axis(a, order, axis=1)
            assert (part[:, :kth].max(axis=1) <= part[:, kth]).all()
            assert (part[:, kth + 1:].min(axis=1, initial=np.inf) >= part[:, kth]).all()
            calls.append(kth)
            return order

        x = np.zeros((10, 4))
        x[1, 0] = 1.0
        x[2:] = 2.0 * np.vstack([np.eye(4), -np.eye(4)])
        d2 = np.delete(np.sort((x ** 2).sum(axis=1)), 0)
        assert d2[k - 1] == d2[2 * k] == 4.0
        monkeypatch.setattr(np, "argpartition", adversarial)
        got = knn(x, k)
        monkeypatch.undo()
        assert calls == [2 * k]
        np.testing.assert_array_equal(got[0], [1, 2])
        np.testing.assert_array_equal(got, stable_argsort_knn(x, k))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("stage", ["knn", "solve_weights", "build_graph"])
def test_non_finite_instance_vectors_rejected(bad, stage):
    """A non-finite entry is a DataError, not a row that ranks itself as
    its own nearest neighbor."""
    x = np.random.default_rng(13).normal(size=(8, 2))
    nb = knn(x, 3)
    x[3, 1] = bad
    calls = {"knn": lambda: knn(x, 3),
             "solve_weights": lambda: solve_weights(x, nb),
             "build_graph": lambda: build_graph(x, 3)}
    with pytest.raises(DataError, match="finite"):
        calls[stage]()


class TestSolveWeights:
    @pytest.mark.parametrize("neighbors, error, match", [
        (np.zeros((4, 0), dtype=np.int64), DataError, "one neighbor slot"),
        ([[1], [2], [3], [4]], DataError, "out of range"),
        ([[1], [2], [3], [-1]], DataError, "out of range"),
        ([[1], [0], [1]], ShapeMismatchError, "one row per instance"),
        ([1, 0, 3, 2], ShapeMismatchError, "one row per instance"),
        ([[1], [1], [3], [2]], DataError, "self loops"),
        ([[1, 2], [0, 2], [3, 3], [0, 1]], DataError, "duplicate"),
        ([[1.9], [2.2], [3.7], [0.1]], DataError, "must be integers"),
        ([[1.0], [2.0], [3.0], [0.0]], DataError, "must be integers"),
        ([[True], [False], [True], [False]], DataError, "must be integers"),
        ([["1"], ["2"], ["3"], ["0"]], DataError, "must be integers"),
        ([[1], [None], [3], [0]], DataError, "must be integers"),
        ([[1], [2, 3], [3], [0]], ShapeMismatchError, "must form a rectangular array"),
    ], ids=["k_zero", "index_n", "negative_index", "rows_not_len_x", "one_dimensional",
            "self_loop", "duplicate", "float", "integral_float", "bool", "text", "none",
            "ragged"])
    def test_malformed_neighbor_lists_rejected_before_solving(self, monkeypatch, neighbors,
                                                              error, match):
        monkeypatch.setattr(graph_module, "_solve_block", lambda diff: pytest.fail("solved"))
        x = np.random.default_rng(15).normal(size=(4, 2))
        with pytest.raises(error, match=match):
            solve_weights(x, neighbors)

    def test_coincident_neighbor_gets_all_weight(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 3))
        x[0] = x[3]  # row 0 coincides with a neighbor
        nb = knn(x, 4)
        g = solve_weights(x, nb)
        pos = list(nb[0]).index(3)
        assert g.weights[0, pos] == pytest.approx(1.0, abs=1e-8)

    def test_optimal_vertex_is_exact(self):
        """A row outside its neighbors' hull, whose nearest neighbor is
        the hull's closest point, gets exactly that vertex's weight 1."""
        rng = np.random.default_rng(11)
        x = np.zeros((7, 4))
        x[1:, 0] = [2.0, 1.5, 1.0, 3.0, 1.7, 2.5]  # row 3 is nearest to row 0
        x[1:, 1:] = rng.normal(size=(6, 3))
        x[3, 1:] = 0.0
        nb = np.array([[1, 2, 3, 4, 5, 6]] + [[j for j in range(7) if j != i][:6]
                                              for i in range(1, 7)])
        g = solve_weights(x, nb)
        np.testing.assert_array_equal(g.weights[0], [0.0, 0.0, 1.0, 0.0, 0.0, 0.0])

    def test_midpoint_gets_half_half(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, -1.0], [5.0, 7.0]])
        g = solve_weights(x, np.array([[1, 2], [0, 2], [0, 1], [0, 1]]))
        np.testing.assert_allclose(g.weights[0], [0.5, 0.5], atol=1e-10)

    def test_matches_grid_search(self):
        """Dense simplex grid (step 0.02) over 5 neighbors in 3-D."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 3))
        nb = np.array([[j for j in range(6) if j != i][:5] for i in range(6)])
        g = solve_weights(x, nb)
        a = x[nb[0]]
        best = min(((x[0] - h @ a) ** 2).sum() for h in simplex_grid(5, 0.02))
        solver = ((x[0] - g.weights[0] @ a) ** 2).sum()
        assert solver <= best + 1e-12
        assert abs(solver - best) <= 1e-3

    def test_duplicate_rows_give_uniform(self):
        x = np.ones((5, 3))
        g = build_graph(x, 3)
        np.testing.assert_allclose(g.weights, 1.0 / 3.0)

    def test_certificates(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(80, 4))
        g = build_graph(x, 10)
        assert kkt_residual(x, g).max() <= 1e-6
        assert optimality_gap(x, g).max() <= 1e-8

    def test_never_worse_than_uniform(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 3))
        nb = knn(x, 8)
        g = solve_weights(x, nb)
        uniform = WeightGraph(neighbors=nb, weights=np.full(nb.shape, 1.0 / 8))
        assert (
            reconstruction_error(x, g) <= reconstruction_error(x, uniform) + 1e-12
        ).all()

    def test_row_sums(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(500, 6))
        g = build_graph(x, 12)
        assert np.abs(g.weights.sum(axis=1) - 1.0).max() <= 1e-10
        assert g.weights.min() >= 0.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, 3))
        perm = rng.permutation(40)
        g = build_graph(x, 5)
        gp = build_graph(x[perm], 5)
        # row r of the permuted graph describes original instance perm[r],
        # and its neighbor index q points at original instance perm[q]
        np.testing.assert_array_equal(perm[gp.neighbors], g.neighbors[perm])
        np.testing.assert_allclose(gp.weights, g.weights[perm], atol=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 4))
        a = build_graph(x, 6)
        b = build_graph(x, 6)
        np.testing.assert_array_equal(a.neighbors, b.neighbors)
        np.testing.assert_array_equal(a.weights, b.weights)


    def test_matches_exact_reference_active_set(self, bank_like_rounds):
        """make_bank_like(300) encodings at k=20 (rank-deficient Grams in
        round 1, d=10), plus round 1 with 25 coincident rows: the ridge
        solve reaches the objective of the unregularized reference, and
        degenerate rows keep uniform weights."""
        _, enc1, enc2, _, _ = bank_like_rounds
        collapsed = np.array(enc1)
        collapsed[:25] = collapsed[0]
        degenerate_seen = 0
        for x in (enc1, enc2, collapsed):
            nb = knn(x, 20)
            g = solve_weights(x, nb)
            a = x[nb]
            gram = a @ a.transpose(0, 2, 1)
            c = (a * x[:, None, :]).sum(axis=-1)
            for i in range(x.shape[0]):
                ref = reference_simplex_qp(gram[i], c[i])
                solver_err = ((x[i] - g.weights[i] @ a[i]) ** 2).sum()
                ref_err = ((x[i] - ref @ a[i]) ** 2).sum()
                assert abs(solver_err - ref_err) <= 1e-12
            assert optimality_gap(x, g).max() <= 1e-8
            degenerate = (a.max(axis=1) == a.min(axis=1)).all(axis=1)
            np.testing.assert_array_equal(g.weights[degenerate], 1.0 / 20)
            degenerate_seen += int(degenerate.sum())
        assert degenerate_seen > 0

    def test_mixed_support_sizes_and_a_shrink_step(self, monkeypatch):
        """One block of 150 rows at k = 8 in 3-D: a stacked solve holds
        live rows of different support sizes, and some row's support
        solution is infeasible, so it takes the shrink step.  The weights
        are still the ridge optimum and meet the gap bound."""
        solves = []
        solve = np.linalg.solve

        def spying_solve(system, rhs):
            sol = solve(system, rhs)
            size = rhs[..., 0].sum(axis=1)
            target = sol[..., 0] / sol[..., 0].sum(axis=1, keepdims=True)
            solves.append((np.ptp(size) > 0, (target < -1e-12).any()))
            return sol

        monkeypatch.setattr(np.linalg, "solve", spying_solve)
        x = np.random.default_rng(14).normal(size=(150, 3))
        k = 8
        nb = knn(x, k)
        g = solve_weights(x, nb)
        monkeypatch.undo()
        assert any(mixed for mixed, _ in solves)
        assert any(shrink for _, shrink in solves)
        a = x[nb]
        gram = a @ a.transpose(0, 2, 1)
        c = (a * x[:, None, :]).sum(axis=-1)
        trace = ((x[:, None, :] - a) ** 2).sum(axis=(1, 2))
        for i in range(x.shape[0]):
            ridge = _RIDGE * trace[i] / k * np.eye(k)
            ref = reference_simplex_qp(gram[i] + ridge, c[i], kkt_tol=1e-14 * trace[i])
            np.testing.assert_allclose(g.weights[i], ref, rtol=0, atol=1e-5)
        # solve_weights' bound on the unregularized gap.
        assert (optimality_gap(x, g) <= (_RIDGE / 4 + k * _KKT_TOL) * trace / k).all()

    def test_matches_ridge_reference_weights(self, bank_like_rounds):
        """The weights, not just the objective, are the ridge optimum: the
        reference run on G + rho I from uniform weights, with a stop below
        rho, lands on the same point as the solver's nearest-vertex start,
        also on round-1 rows inside their neighbors' hull."""
        _, enc1, enc2, _, _ = bank_like_rounds
        for x in (enc1, enc2):
            nb = knn(x, 20)
            g = solve_weights(x, nb)
            a = x[nb]
            gram = a @ a.transpose(0, 2, 1)
            c = (a * x[:, None, :]).sum(axis=-1)
            trace = ((x[:, None, :] - a) ** 2).sum(axis=(1, 2))
            for i in range(x.shape[0]):
                ridge = _RIDGE * trace[i] / 20 * np.eye(20)
                ref = reference_simplex_qp(gram[i] + ridge, c[i], kkt_tol=1e-14 * trace[i])
                np.testing.assert_allclose(g.weights[i], ref, rtol=0, atol=1e-5)

    def test_neighbor_order_does_not_change_weights(self):
        """Round 1 of make_bank_like(2000) at k=20 has rows inside their
        neighbors' hull, where the unregularized optimum is not unique;
        the ridge optimum is, so reordering a row's neighbors only
        reorders its weights."""
        ds, _ = make_bank_like(2000, seed=0)
        x = encode_of(ds)
        nb = knn(x, 20)
        g = solve_weights(x, nb)
        rng = np.random.default_rng(10)
        for _ in range(3):
            perm = rng.permutation(20)
            gp = solve_weights(x, nb[:, perm])
            assert np.abs(gp.weights - g.weights[:, perm]).max() <= 1e-6

    def test_weights_do_not_depend_on_scale(self):
        """The flat-row test, the ridge and the stopping tolerance all
        scale with tr(C) / k, so scaling the data leaves the weights and
        the gap relative to the squared scale unchanged."""
        x = np.random.default_rng(0).normal(size=(600, 5))
        nb = knn(x, 20)
        g = solve_weights(x, nb)
        assert optimality_gap(x, g).max() <= 1e-8
        for scale in (1e-6, 1e-4, 1e3):
            gs = solve_weights(x * scale, nb)
            assert np.abs(gs.weights - g.weights).max() <= 1e-6
            assert optimality_gap(x * scale, gs).max() <= 1e-8 * scale ** 2

class TestWeightGraphType:
    def test_rejects_self_loops(self):
        with pytest.raises(DataError, match="self"):
            WeightGraph(neighbors=np.array([[0], [0]]), weights=np.array([[1.0], [1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(DataError, match="finite"):
            WeightGraph(neighbors=[[1, 2], [0, 2], [0, 1]],
                        weights=[[bad, 0.5], [0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2), (0, 0)])
    def test_rejects_a_graph_without_rows_or_slots(self, shape):
        """Such a graph's rows cannot sum to 1."""
        with pytest.raises(DataError, match="one row and one neighbor slot"):
            WeightGraph(neighbors=np.zeros(shape, dtype=np.int64), weights=np.zeros(shape))

    @pytest.mark.parametrize("neighbors, error", [
        ([[1.5], [0.2]], DataError), ([[1], [0, 1]], ShapeMismatchError),
    ], ids=["float", "ragged"])
    def test_rejects_neighbor_lists_that_are_not_an_integer_array(self, neighbors, error):
        """Float indices are refused, not truncated to [[1], [0]]."""
        with pytest.raises(error, match="integers|array"):
            WeightGraph(neighbors=neighbors, weights=[[1.0], [1.0]])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(DataError, match="sum to 1"):
            WeightGraph(neighbors=np.array([[1], [0]]), weights=np.array([[0.5], [1.0]]))

    def test_dense_round_trip(self):
        # Every off-diagonal column as a neighbor, in shuffled order.
        rng = np.random.default_rng(9)
        h = rng.gamma(1.0, size=(6, 6))
        np.fill_diagonal(h, 0.0)
        h /= h.sum(axis=1, keepdims=True)
        nb = np.array([rng.permutation(np.setdiff1d(np.arange(6), [i])) for i in range(6)])
        g = WeightGraph(neighbors=nb, weights=np.take_along_axis(h, nb, axis=1))
        np.testing.assert_allclose(g.to_dense(), h, atol=1e-12)

    def test_dense_round_trip_pads_with_unused_indices(self):
        # Row 0 has one nonzero and pads its second slot with index 2,
        # which carries weight 0 and must leave column 2 at 0.
        h = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
        g = WeightGraph(neighbors=[[1, 2], [0, 2], [0, 1]],
                        weights=[[1.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
        assert g.k == 2
        np.testing.assert_array_equal(g.to_dense(), h)

    def test_to_dense_puts_weights_in_neighbor_columns(self):
        g = WeightGraph(neighbors=[[2, 1], [0, 2], [3, 1], [2, 0]],
                        weights=[[0.75, 0.25], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        np.testing.assert_array_equal(g.to_dense(), [[0.0, 0.25, 0.75, 0.0],
                                                     [1.0, 0.0, 0.0, 0.0],
                                                     [0.0, 0.5, 0.0, 0.5],
                                                     [1.0, 0.0, 0.0, 0.0]])

    def test_immutable(self):
        g = WeightGraph(neighbors=np.array([[1], [0]]), weights=np.array([[1.0], [1.0]]))
        with pytest.raises(ValueError):
            g.weights[0, 0] = 0.5


def test_built_graphs_hold_the_arrays_they_were_built_from():
    """The graphs that ``solve_weights`` and ``stack_graphs`` build adopt
    the arrays those calls made, frozen in place, so no traced peak holds
    a second copy of the graph (1.94x and 1.92x the graph's bytes when
    the graph copied them, 1.28x and 1.15x now); the caller's neighbor
    lists are neither frozen nor shared."""
    n, k = 10_000, 20
    x = np.random.default_rng(5).normal(size=(n, 10))
    nb = (np.arange(n)[:, None] + np.arange(1, k + 1)) % n

    def graph_bytes(g):
        return (g.neighbors.nbytes + g.weights.nbytes + g._rank_order.nbytes
                + sum(idx.nbytes + w.nbytes for idx, w in g._rank_slots))

    tracemalloc.start()
    try:
        g = solve_weights(x, nb)
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        stacked = stack_graphs([g, g])
        stack_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert solve_peak < 1.5 * graph_bytes(g)
    assert stack_peak < 1.5 * graph_bytes(stacked)
    for graph in (g, stacked):
        assert not graph.neighbors.flags.writeable and not graph.weights.flags.writeable
    assert nb.flags.writeable and not np.shares_memory(nb, g.neighbors)


class TestStackGraphs:
    def test_one_graph_is_returned_as_it_is(self):
        g = build_graph(np.random.default_rng(1).normal(size=(10, 2)), 3)
        assert stack_graphs([g]) is g

    def test_block_diagonal_union_steps_each_block_bit_for_bit(self):
        """Graphs of 12, 7 and 12 rows stack into 31 rows whose neighbor
        indices are offset by 0, 12 and 19; a step on the stacked
        confidences has the bytes of each graph's own step."""
        rng = np.random.default_rng(4)
        a = build_graph(rng.normal(size=(12, 3)), 4)
        b = build_graph(rng.normal(size=(7, 3)), 4)
        g = stack_graphs([a, b, a])
        np.testing.assert_array_equal(g.neighbors, np.vstack([a.neighbors, b.neighbors + 12,
                                                              a.neighbors + 19]))
        np.testing.assert_array_equal(g.weights, np.vstack([a.weights, b.weights, a.weights]))
        qs = [rng.dirichlet(np.ones(5), size=n) for n in (12, 7, 12)]
        want = np.vstack([propagate_step(h, q) for h, q in zip((a, b, a), qs)])
        assert propagate_step(g, np.vstack(qs)).tobytes() == want.tobytes()
