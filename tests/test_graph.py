import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compfeat.errors import DataError
from compfeat.graph import (
    WeightGraph,
    build_graph,
    kkt_residual,
    knn,
    optimality_gap,
    reconstruction_error,
    solve_weights,
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


class TestSolveWeights:
    def test_coincident_neighbor_gets_all_weight(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 3))
        x[0] = x[3]  # row 0 coincides with a neighbor
        nb = knn(x, 4)
        g = solve_weights(x, nb)
        pos = list(nb[0]).index(3)
        assert g.weights[0, pos] == pytest.approx(1.0, abs=1e-8)

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

    def test_rejects_bad_row_sum(self):
        with pytest.raises(DataError, match="sum to 1"):
            WeightGraph(neighbors=np.array([[1], [0]]), weights=np.array([[0.5], [1.0]]))

    def test_dense_round_trip(self):
        rng = np.random.default_rng(9)
        h = rng.gamma(1.0, size=(6, 6))
        np.fill_diagonal(h, 0.0)
        h /= h.sum(axis=1, keepdims=True)
        g = WeightGraph.from_dense(h)
        np.testing.assert_allclose(g.to_dense(), h, atol=1e-12)

    def test_dense_round_trip_pads_with_unused_indices(self):
        # Row 0 needs padding and its naive pad index (i+1) % n = 1 is
        # already its neighbor.
        h = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
        g = WeightGraph.from_dense(h)
        assert g.k == 2
        np.testing.assert_array_equal(g.to_dense(), h)

    def test_immutable(self):
        g = WeightGraph(neighbors=np.array([[1], [0]]), weights=np.array([[1.0], [1.0]]))
        with pytest.raises(ValueError):
            g.weights[0, 0] = 0.5

