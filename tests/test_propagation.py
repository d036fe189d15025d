import io
import itertools
import json
import math
import tracemalloc
import weakref
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from compfeat.cli import export_result
from compfeat.data import Column, Dataset, FeatureSchema, synthesize_cf
from compfeat.encoding import encode_of
from compfeat import propagation
from compfeat.errors import DataError, ShapeMismatchError
from compfeat.graph import WeightGraph, build_graph
from compfeat.oracle import make_bank_like, make_smooth_synthetic
from compfeat.propagation import (
    EstimationResult,
    correct,
    hard_from_blocks,
    init_marginal,
    propagate_step,
    run_ipal,
    run_proposed,
)
from compfeat.result import run_comp

from conftest import build_dataset, record_rounds


def cf_schema(*cards, n_of=1):
    cols = [Column(f"x{i}", "quantitative", "OF") for i in range(n_of)]
    cols += [
        Column(f"s{j}", "categorical", "CF", tuple(f"v{v}" for v in range(1, u + 1)))
        for j, u in enumerate(cards)
    ]
    cols.append(Column("y", "binary", "label", ("n", "p")))
    return FeatureSchema(tuple(cols))


def observed_dataset(cards, n, seed=0):
    ds = build_dataset(cf_schema(*cards), n, seed=seed)
    return synthesize_cf(ds, seed=seed)


def segments(q, sizes):
    """Split a stacked confidence matrix into its per-CF (n, u) matrices."""
    return np.split(q, np.cumsum(sizes)[:-1], axis=1)


def slot_order_sum(graph, q):
    """H @ Q over all k slots, zero weights included, one slot at a time."""
    prop = np.zeros_like(q)
    for slot in range(graph.k):
        prop += graph.weights[:, slot, None] * q[graph.neighbors[:, slot]]
    return prop


def reference_round(graph, init_vals, T):
    """T propagate+correct steps, one CF's (n, u) matrix and one neighbor
    slot at a time."""
    qs = list(init_vals)
    for _ in range(T):
        nxt = []
        for q, q0 in zip(qs, init_vals):
            prod = slot_order_sum(graph, q) * q0
            sums = prod.sum(axis=1)
            dead = sums <= 0.0
            prod[dead] = q0[dead]
            sums[dead] = 1.0
            nxt.append(prod / sums[:, None])
        qs = nxt
    return qs


def swap_graph():
    return WeightGraph(neighbors=np.array([[1], [0]]), weights=np.array([[1.0], [1.0]]))


@st.composite
def sparse_graph_steps(draw):
    """A graph whose weights hold exact zeros in random slots, and
    finite confidences of any magnitude, possibly with no columns.  Row 0
    has its only nonzero weight in its last slot, row 1 all k nonzero,
    and some weights are subnormal."""
    n = draw(st.integers(2, 15))
    k = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    others = np.array([rng.permutation(np.delete(np.arange(n), i))[:k] for i in range(n)])
    weights = rng.gamma(1.0, size=(n, k)) * (rng.random((n, k)) < draw(st.sampled_from([0.2, 0.5])))
    weights[rng.random((n, k)) < 0.1] = 5e-324
    weights[0] = 0.0
    weights[0, -1] = 1.0
    weights[1] = rng.gamma(1.0, size=k) + 1e-3
    empty = ~weights.any(axis=1)
    weights[empty, rng.integers(0, k, size=empty.sum())] = 1.0
    graph = WeightGraph(neighbors=others, weights=weights / weights.sum(axis=1, keepdims=True))
    u = draw(st.integers(0, 6))
    q = rng.random((n, u)) * 10.0 ** rng.integers(-300, 300, size=(n, u))
    return graph, q


class TestInitMarginal:
    def test_three_values(self):
        ds = observed_dataset([3], 5, seed=1)
        q0 = init_marginal(ds)
        assert q0.shape == (5, 3)
        for i in range(5):
            obs = ds.cf_observed[i, 0]
            expected = np.full(3, 0.5)
            expected[obs - 1] = 0.0
            np.testing.assert_array_equal(q0[i], expected)

    def test_twelve_values(self):
        ds = observed_dataset([12], 3, seed=2)
        row = init_marginal(ds)[0]
        obs = ds.cf_observed[0, 0]
        assert row[obs - 1] == 0.0
        np.testing.assert_allclose(np.delete(row, obs - 1), 1.0 / 11.0)


class TestPropagateStep:
    def test_identical_rows_are_fixed_point(self):
        v = np.array([0.2, 0.0, 0.8])
        g = WeightGraph(
            neighbors=np.array([[1, 2], [0, 3], [0, 1], [2, 0]]),
            weights=np.full((4, 2), 0.5),
        )
        out = propagate_step(g, np.tile(v, (4, 1)))
        np.testing.assert_allclose(out, np.tile(v, (4, 1)), atol=1e-15)

    def test_two_rows_swap(self):
        q = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        out = propagate_step(swap_graph(), q)
        np.testing.assert_array_equal(out, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])

    def test_matches_dense_multiply(self):
        """The complete graph: every other row a neighbor, random weights."""
        rng = np.random.default_rng(3)
        n, u = 20, 4
        vals = rng.dirichlet(np.ones(u), size=n)
        nb = np.array([[j for j in range(n) if j != i] for i in range(n)])
        w = rng.gamma(1.0, size=(n, n - 1))
        w /= w.sum(axis=1, keepdims=True)
        out = propagate_step(WeightGraph(neighbors=nb, weights=w), vals)
        # independent triple-loop reference
        expected = np.zeros_like(vals)
        for i in range(n):
            for s in range(n - 1):
                for c in range(u):
                    expected[i, c] += w[i, s] * vals[nb[i, s], c]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_equals_slot_order_sum_bitwise(self, bank_like_rounds):
        """Skipping zero weights changes no bit: both make_bank_like(300)
        graphs, whose rows keep a few of k = 20 weights nonzero."""
        ds, _, _, graphs, last = bank_like_rounds
        for round_idx in (1, 2):
            g = graphs[round_idx]
            assert (g.weights == 0.0).any()
            for q in (init_marginal(ds), last[round_idx]):
                np.testing.assert_array_equal(propagate_step(g, q), slot_order_sum(g, q))

    @settings(max_examples=200, deadline=None)
    @given(sparse_graph_steps())
    def test_equals_slot_order_sum_bitwise_on_drawn_graphs(self, case):
        graph, q = case
        np.testing.assert_array_equal(propagate_step(graph, q), slot_order_sum(graph, q))

    @settings(max_examples=200, deadline=None)
    @given(sparse_graph_steps())
    def test_compact_form_equals_sorted_slot_reference(self, case):
        """The graph's rank order and rank slots are those of a stable
        argsort of the rows by nonzero count and of each row's slots,
        nonzeros first, over (n, k) copies of its neighbors and weights."""
        graph, _ = case
        nb, w = graph.neighbors, graph.weights
        nonzero = w != 0.0
        counts = nonzero.sum(axis=1)
        order = np.argsort(-counts, kind="stable")
        slots = np.argsort(~nonzero[order], axis=1, kind="stable")
        nb_rank = np.take_along_axis(nb[order], slots, axis=1)
        w_rank = np.take_along_axis(w[order], slots, axis=1)
        ends = (counts[:, None] > np.arange(nb.shape[1])).sum(axis=0)
        want = [(nb_rank[:e, j], w_rank[:e, j, None]) for j, e in enumerate(ends) if e]
        np.testing.assert_array_equal(graph._rank_order, order)
        assert len(graph._rank_slots) == len(want) == counts.max()
        for (idx, weights), (want_idx, want_weights) in zip(graph._rank_slots, want):
            assert idx.dtype == np.int64 and weights.dtype == np.float64
            assert idx.shape == want_idx.shape and weights.shape == want_weights.shape
            np.testing.assert_array_equal(idx, want_idx)
            np.testing.assert_array_equal(weights, want_weights)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            propagate_step(swap_graph(), np.full((3, 3), 1 / 3))
        q = np.full((2, 3), 1 / 3)
        with pytest.raises(ShapeMismatchError):
            correct(q, np.full((2, 4), 1 / 4), (3,))
        with pytest.raises(ShapeMismatchError):
            correct(q, q, (4,))

    def test_no_blocks(self):
        """Zero CFs: the step maps (n, 0) to (n, 0); the correction has no
        segment to normalize and says so."""
        assert propagate_step(swap_graph(), np.zeros((2, 0))).shape == (2, 0)
        with pytest.raises(DataError, match="no CF columns"):
            correct(np.zeros((2, 0)), np.zeros((2, 0)), ())


class TestCorrect:
    def test_worked_example(self):
        out = correct(np.array([[0.2, 0.2, 0.6]]), np.array([[0.5, 0.0, 0.5]]), (3,))
        np.testing.assert_allclose(out, [[0.25, 0.0, 0.75]])

    def test_idempotent_on_already_corrected_rows(self):
        rng = np.random.default_rng(4)
        vals = rng.dirichlet(np.ones(4), size=50)
        vals[:, 2] = 0.0
        vals /= vals.sum(axis=1, keepdims=True)
        init_vals = np.full((50, 4), 1 / 3)
        init_vals[:, 2] = 0.0
        once = correct(vals, init_vals, (4,))
        np.testing.assert_allclose(once, vals, atol=1e-12)

    def test_idempotence_random(self):
        rng = np.random.default_rng(5)
        vals = rng.dirichlet(np.ones(5), size=1000)
        init_vals = np.full((1000, 5), 0.25)
        obs = rng.integers(0, 5, size=1000)
        init_vals[np.arange(1000), obs] = 0.0
        once = correct(vals, init_vals, (5,))
        twice = correct(once, init_vals, (5,))
        np.testing.assert_allclose(twice, once, atol=1e-12)
        assert (once[np.arange(1000), obs] == 0.0).all()

    def test_all_zero_row_falls_back_to_init(self):
        out = correct(np.array([[0.0, 1.0, 0.0]]), np.array([[0.5, 0.0, 0.5]]), (3,))
        np.testing.assert_array_equal(out, [[0.5, 0.0, 0.5]])

    def test_dead_segment_falls_back_alone(self):
        """Only the segment whose product vanishes takes its initial row;
        the other is normalized on its own."""
        q = np.array([[0.0, 1.0, 0.0, 0.2, 0.8]])
        q0 = np.array([[0.5, 0.0, 0.5, 0.5, 0.5]])
        np.testing.assert_allclose(correct(q, q0, (3, 2)), [[0.5, 0.0, 0.5, 0.2, 0.8]])

    @pytest.mark.parametrize("q", [[[0.2, 0.3, 0.5, 0.4, 0.6]], [[0.0, 1.0, 0.0, 0.2, 0.8]]],
                             ids=["live", "dead_segment"])
    def test_inputs_unchanged_and_result_new(self, q):
        """correct normalizes in place only the product it computed."""
        q = np.array(q)
        q0 = np.array([[0.5, 0.0, 0.5, 0.5, 0.5]])
        before = q.copy(), q0.copy()
        out = correct(q, q0, (3, 2))
        np.testing.assert_array_equal(q, before[0])
        np.testing.assert_array_equal(q0, before[1])
        assert not np.shares_memory(out, q) and not np.shares_memory(out, q0)

    def test_vanishing_product_with_three_values(self, monkeypatch):
        """u=3, k=1 graph 0->1, 1->2, 2->1, observed codes 1, 2, 3: after
        step 1 rows 1 and 2 are one-hot on code 1, row 0's observed
        value, so at step 2 row 0's product sums to exactly 0."""
        ds = Dataset(
            schema=cf_schema(3),
            of_values=(np.array([0.0, 2.0, 3.0]),),
            labels=np.array([1, 2, 1]),
            cf_truth=np.array([[2], [3], [1]]),
            cf_observed=np.array([[1], [2], [3]]),
        )
        q0 = init_marginal(ds)
        g = WeightGraph(neighbors=np.array([[1], [2], [1]]), weights=np.ones((3, 1)))
        step1 = correct(propagate_step(g, q0), q0, (3,))
        assert (propagate_step(g, step1)[0] * q0[0]).sum() == 0.0
        step2 = correct(propagate_step(g, step1), q0, (3,))
        np.testing.assert_array_equal(step2[0], q0[0])

        # The same case through run_proposed: the 1-D OF positions
        # 0, 2, 3 give exactly that k=1 graph in round 1.
        _, (round1, _) = record_rounds(monkeypatch, ds, T=2, k=1, gamma=0.25)
        np.testing.assert_array_equal(round1["graph"].neighbors, g.neighbors)
        np.testing.assert_array_equal(round1["outputs"][0], step1)
        np.testing.assert_array_equal(round1["outputs"][1][0], q0[0])


class TestHardEstimates:
    def test_argmax_with_low_code_ties(self):
        q = np.array([[0.4, 0.4, 0.2, 0.5, 0.5], [0.1, 0.4, 0.5, 0.0, 1.0]])
        np.testing.assert_array_equal(hard_from_blocks(q, (3, 2)), [[1, 1], [3, 2]])


@st.composite
def propagation_cases(draw):
    """A small random schema and dataset, a random graph on its rows and
    a number of propagate+correct steps."""
    cards = draw(st.lists(st.integers(3, 6), min_size=1, max_size=3))
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = synthesize_cf(build_dataset(cf_schema(*cards, n_of=draw(st.integers(1, 3))), n,
                                     seed=int(rng.integers(2**31))), seed=int(rng.integers(2**31)))
    k = draw(st.integers(1, n - 1))
    others = np.array([rng.permutation(np.delete(np.arange(n), i))[:k] for i in range(n)])
    weights = rng.gamma(draw(st.sampled_from([0.1, 1.0])), size=(n, k))
    weights[weights.sum(axis=1) == 0.0] = 1.0
    graph = WeightGraph(neighbors=others, weights=weights / weights.sum(axis=1, keepdims=True))
    return ds, graph, draw(st.integers(0, 12))


def lowest_code_argmax(q, sizes):
    """Per segment, 1 + the first column index holding the row maximum."""
    return np.column_stack([[1 + np.flatnonzero(row == row.max())[0] for row in seg]
                            for seg in segments(q, sizes)])


class TestNorthStarInvariants:
    @settings(max_examples=150, deadline=None)
    @given(propagation_cases())
    def test_invariants_after_every_step(self, case):
        ds, graph, steps = case
        sizes = ds.schema.cf_sizes
        q0 = init_marginal(ds)
        q = q0
        for t in range(steps + 1):
            if t:
                q = correct(propagate_step(graph, q), q0, sizes)
            assert q.min() >= 0.0
            for j, seg in enumerate(segments(q, sizes)):
                assert np.abs(seg.sum(axis=1) - 1.0).max() <= 1e-10
                assert (seg[np.arange(ds.n), ds.cf_observed[:, j] - 1] == 0.0).all()
            # Rounding to one decimal creates ties beyond those of q0.
            for ties in (q, np.round(q, 1)):
                np.testing.assert_array_equal(hard_from_blocks(ties, sizes),
                                              lowest_code_argmax(ties, sizes))

    @settings(max_examples=40, deadline=None)
    @given(propagation_cases(), st.sampled_from([0.0, 0.25, 1.0]))
    def test_run_proposed_is_bit_identical(self, case, gamma):
        ds, graph, steps = case
        runs = [run_proposed(ds, T=steps + 1, k=graph.k, gamma=gamma) for _ in range(2)]
        assert runs[0].confidences.tobytes() == runs[1].confidences.tobytes()
        np.testing.assert_array_equal(runs[0].hard_estimates, runs[1].hard_estimates)


class TestRunProposed:
    @pytest.mark.parametrize("gamma", [-0.5, 1.5, float("nan")])
    def test_bad_gamma_rejected_before_any_graph(self, gamma, monkeypatch):
        ds = observed_dataset([3], 20, seed=19)

        def no_graph(*args, **kwargs):
            raise AssertionError("a graph was built before gamma was checked")

        monkeypatch.setattr(propagation, "build_graph", no_graph)
        with pytest.raises(DataError, match="gamma"):
            run_proposed(ds, T=3, k=4, gamma=gamma)

    def test_stacked_kernel_matches_per_block_reference(self, bank_like_rounds):
        """make_bank_like(300), both rounds, T=20: the confidences that
        run_proposed computes equal T public propagate+correct
        steps, and agree with a plain per-CF loop."""
        ds, _, _, graphs, last = bank_like_rounds
        sizes = ds.schema.cf_sizes
        q0 = init_marginal(ds)
        for round_idx in (1, 2):
            g = graphs[round_idx]
            expected = reference_round(g, segments(q0, sizes), 20)
            q = q0
            for _ in range(20):
                q = correct(propagate_step(g, q), q0, sizes)
            np.testing.assert_array_equal(last[round_idx], q)
            for got, ref in zip(segments(q, sizes), expected, strict=True):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_public_steps_are_the_ones_run(self, monkeypatch):
        """run_proposed calls propagate_step and correct through the module,
        once each per iteration and round."""
        calls = []
        for name in ("propagate_step", "correct"):
            fn = getattr(propagation, name)
            monkeypatch.setattr(propagation, name,
                                lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
        ds = observed_dataset([3], 20, seed=21)
        run_proposed(ds, T=3, k=4, gamma=0.25)
        assert calls == ["propagate_step", "correct"] * 6

    def test_gamma_zero_collapses_to_single_round(self, monkeypatch):
        """With gamma=0 the second-round graph equals the first, and the
        restart makes the output identical to one T-iteration round."""
        ds = observed_dataset([3, 4], 60, seed=6)
        res, (round1, round2) = record_rounds(monkeypatch, ds, T=7, k=5, gamma=0.0)
        np.testing.assert_array_equal(round1["graph"].neighbors, round2["graph"].neighbors)
        np.testing.assert_allclose(round1["graph"].weights, round2["graph"].weights, atol=1e-14)

        q0 = init_marginal(ds)
        q = q0
        g = build_graph(encode_of(ds), 5)
        for _ in range(7):
            q = correct(propagate_step(g, q), q0, (3, 4))
        np.testing.assert_allclose(res.confidences, q, atol=1e-12)

    def test_round_two_restarts_from_initial_blocks(self, monkeypatch):
        """Each round's first step starts from the initial confidences,
        and each later step from the previous correction."""
        ds = observed_dataset([3], 50, seed=7)
        _, rounds = record_rounds(monkeypatch, ds, T=3, k=4, gamma=0.5)
        q0 = init_marginal(ds)
        assert [len(r["outputs"]) for r in rounds] == [3, 3]
        for r in rounds:
            np.testing.assert_array_equal(r["inputs"][0], q0)
            for given, previous in zip(r["inputs"][1:], r["outputs"]):
                np.testing.assert_array_equal(given, previous)

    def test_observed_entry_zero_after_every_iteration(self, monkeypatch):
        ds = observed_dataset([3, 5], 40, seed=8)
        _, rounds = record_rounds(monkeypatch, ds, T=5, k=6, gamma=0.25)
        assert [len(r["outputs"]) for r in rounds] == [5, 5]
        for q in rounds[0]["outputs"] + rounds[1]["outputs"]:
            for j, b in enumerate(segments(q, (3, 5))):
                at_obs = b[np.arange(ds.n), ds.cf_observed[:, j] - 1]
                assert (at_obs == 0.0).all()
                assert np.abs(b.sum(axis=1) - 1.0).max() <= 1e-10

    def test_hard_estimates_are_argmax(self):
        ds = observed_dataset([3, 4], 30, seed=9)
        res = run_proposed(ds, T=4, k=5, gamma=0.25)
        np.testing.assert_array_equal(res.hard_estimates,
                                      hard_from_blocks(res.confidences, res.sizes))

    def test_permutation_equivariance(self):
        ds = observed_dataset([3], 35, seed=10)
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.n)
        permuted = Dataset(
            schema=ds.schema,
            of_values=tuple(a[perm] for a in ds.of_values),
            labels=ds.labels[perm],
            cf_truth=ds.cf_truth[perm],
            cf_observed=ds.cf_observed[perm],
        )
        res = run_proposed(ds, T=5, k=4, gamma=0.25)
        res_p = run_proposed(permuted, T=5, k=4, gamma=0.25)
        np.testing.assert_allclose(res_p.confidences, res.confidences[perm], atol=1e-9)


@pytest.mark.parametrize("run", [
    lambda ds: run_proposed(ds, T=np.int64(3), k=np.uint8(4), gamma=0.25),
    lambda ds: run_ipal(ds, T=np.int64(3), k=np.uint8(4), alpha=0.9),
], ids=["proposed", "ipal"])
def test_numpy_integer_T_and_k_stored_as_ints(tmp_path, run):
    """Numpy integers are valid T and k; the result stores them as ints,
    so that its file can be written and read back."""
    res = run(observed_dataset([3], 20, seed=4))
    assert [type(res.hyperparams[key]) for key in ("T", "k")] == [int, int]
    res.save(tmp_path / "r.npz")
    assert EstimationResult.load(tmp_path / "r.npz").hyperparams == res.hyperparams


@pytest.mark.parametrize("T", [0, -3])
@pytest.mark.parametrize("run", [
    lambda ds, T: run_proposed(ds, T=T, k=4, gamma=0.25),
    lambda ds, T: run_ipal(ds, T=T, k=4, alpha=0.9),
], ids=["proposed", "ipal"])
def test_fewer_than_one_step_rejected(run, T):
    """Neither procedure returns the initial confidences for T < 1."""
    with pytest.raises(DataError, match=r"T must lie in \[1, inf\)"):
        run(observed_dataset([3], 20, seed=21), T)


@pytest.mark.parametrize("run", [lambda ds: run_proposed(ds, T=5, k=3, gamma=0.25),
                                 lambda ds: run_ipal(ds, T=5, k=3, alpha=0.5)],
                         ids=["proposed", "ipal"])
def test_zero_rows_need_two_instances(run):
    """A 0-row dataset encodes to (0, d), so the graph's own typed error
    is what a procedure raises."""
    with pytest.raises(DataError, match="k-NN needs at least 2 instances"):
        run(observed_dataset([3, 4], 0))


class TestNoCfSchema:
    """A schema with one OF and no CF columns has nothing to estimate."""

    def dataset(self):
        schema = FeatureSchema((Column("x0", "quantitative", "OF"),
                                Column("y", "binary", "label", ("n", "p"))))
        none = np.zeros((10, 0), dtype=np.int64)
        return Dataset(schema=schema, of_values=(np.linspace(0.0, 1.0, 10),),
                       labels=np.tile([1, 2], 5), cf_truth=none, cf_observed=none)

    def test_estimators_raise_data_error(self):
        ds = self.dataset()
        with pytest.raises(DataError, match="no CF columns"):
            run_proposed(ds, T=2, k=3, gamma=0.25)
        with pytest.raises(DataError, match="no CF columns"):
            run_ipal(ds, T=2, k=3, alpha=0.9)

    def test_hard_from_no_blocks_raises_data_error(self):
        with pytest.raises(DataError, match="no CF columns"):
            hard_from_blocks(np.zeros((3, 0)), ())


class TestRunComp:
    def test_confidences_are_initial(self):
        ds = observed_dataset([3], 20, seed=11)
        res = run_comp(ds, seed=0)
        np.testing.assert_array_equal(res.confidences, init_marginal(ds))

    def test_guess_never_equals_observed_and_hits_complement_rate(self):
        ds = observed_dataset([12], 20_000, seed=12)
        res = run_comp(ds, seed=5)
        assert not np.any(res.hard_estimates[:, 0] == ds.cf_observed[:, 0])
        acc = np.mean(res.hard_estimates[:, 0] == ds.cf_truth[:, 0])
        assert abs(acc - 1.0 / 11.0) < 0.01

    def test_ce_equals_log_complement_size(self):
        from compfeat.metrics import score_cf

        ds = observed_dataset([3], 50, seed=13)
        scores = score_cf(run_comp(ds, 0), ds.cf_truth)
        assert scores[0].ce == pytest.approx(math.log(2), abs=1e-12)


class TestRunIpal:
    def test_tiny_alpha_keeps_initial_confidences(self):
        ds = observed_dataset([3], 25, seed=14)
        res = run_ipal(ds, T=10, k=4, alpha=1e-12)
        np.testing.assert_allclose(res.confidences, init_marginal(ds), atol=1e-9)

    def test_two_instance_recursion_matches_hand_computation(self):
        ds = observed_dataset([3], 2, seed=15)
        alpha = 0.5
        q0 = init_marginal(ds)
        # closed form for the swap graph: Q1 = a*swap(Q0)+(1-a)Q0,
        # Q2 = a*swap(Q1)+(1-a)Q0
        q1 = alpha * q0[::-1] + (1 - alpha) * q0
        q2 = alpha * q1[::-1] + (1 - alpha) * q0

        g = swap_graph()
        out = q0
        for _ in range(2):
            out = alpha * propagate_step(g, out) + (1 - alpha) * q0
        np.testing.assert_allclose(out, q2, atol=1e-12)

    def test_update_leaves_its_inputs_unchanged(self, monkeypatch):
        """Each step's update normalizes in place only the array it
        computed: the confidences every step received, the initial ones
        first, are unchanged after the run, and no two share memory."""
        ds = observed_dataset([3, 4], 30, seed=17)
        seen = []
        step = propagation.propagate_step
        monkeypatch.setattr(propagation, "propagate_step",
                            lambda graph, q: seen.append((q, q.copy())) or step(graph, q))
        res = run_ipal(ds, T=4, k=4, alpha=0.9)
        assert len(seen) == 4
        np.testing.assert_array_equal(seen[0][0], init_marginal(ds))
        for q, copy in seen:
            np.testing.assert_array_equal(q, copy)
        arrays = [q for q, _ in seen] + [res.confidences]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    def test_hard_estimates_are_argmax(self):
        ds = observed_dataset([4], 30, seed=16)
        res = run_ipal(ds, T=5, k=4, alpha=0.9)
        np.testing.assert_array_equal(res.hard_estimates,
                                      hard_from_blocks(res.confidences, res.sizes))

    @pytest.mark.parametrize("seed", range(20))
    def test_converges_as_its_affine_step_implies(self, monkeypatch, seed):
        """The step Q_t = alpha W Q_(t-1) + (1 - alpha) Q_0, W row-stochastic,
        contracts by alpha in the max norm.  So, up to rounding, each
        step's largest change is at most alpha times the one before, and
        Q_T lies within alpha / (1 - alpha) times its last change of the
        fixed point Q* = (1 - alpha) (I - alpha W)^-1 Q_0."""
        rng = np.random.default_rng(seed)
        n, k, T = int(rng.integers(12, 41)), int(rng.integers(2, 9)), int(rng.integers(3, 31))
        alpha = float(rng.uniform(0.05, 0.9))
        ds, _ = make_smooth_synthetic(n, [3, 5], 2, 1.0, seed)
        seen = []
        step = propagation.propagate_step
        monkeypatch.setattr(propagation, "propagate_step",
                            lambda graph, q: seen.append(q) or step(graph, q))
        last = run_ipal(ds, T=T, k=k, alpha=alpha).confidences
        qs = [*seen, last]
        assert len(qs) == T + 1
        eps = np.finfo(np.float64).eps
        changes = [np.abs(after - before).max() for before, after in zip(qs, qs[1:])]
        for before, after in zip(changes, changes[1:]):
            assert after <= alpha * before + 8 * eps
        w = build_graph(encode_of(ds), k).to_dense()
        fixed = np.linalg.solve(np.eye(n) - alpha * w, (1 - alpha) * qs[0])
        assert np.abs(last - fixed).max() <= alpha / (1 - alpha) * changes[-1] + 64 * eps


def seed_datasets(S, subsample):
    """S seeds' datasets of one 45-row source; with ``subsample``, seed s
    keeps its own 30 + 5 s rows, so the seeds differ in rows and count."""
    base = build_dataset(cf_schema(3, 5, n_of=2), 45, seed=30)
    datasets = [synthesize_cf(base, seed) for seed in range(S)]
    if subsample:
        datasets = [ds.subset(np.sort(np.random.default_rng(s).choice(45, 30 + 5 * s,
                                                                      replace=False)))
                    for s, ds in enumerate(datasets)]
    return base, datasets


STACKED_RUNS = {
    "proposed": (lambda datasets, T, k, gamma:
                 propagation.run_proposed_seeds(datasets, [(T, k, gamma)])[0],
                 run_proposed, {"gamma": 0.25}),
    "ipal": (lambda datasets, T, k, alpha: propagation.run_ipal_seeds(datasets, [(T, k)], alpha)[0],
             run_ipal, {"alpha": 0.9}),
}


class TestStackedSeeds:
    @pytest.mark.parametrize("subsample", [False, True], ids=["shared", "subsampled"])
    @pytest.mark.parametrize("S", [1, 2, 3])
    @pytest.mark.parametrize("method", ["proposed", "ipal"])
    def test_stacked_results_equal_separate_runs(self, method, S, subsample):
        """Every seed's result from one stacked run, whose seeds share
        their round-1 graph unless they subsample, has the bytes of its
        own run: the one-seed runner's and the seed runner's on its
        dataset alone."""
        stacked, single, params = STACKED_RUNS[method]
        _, datasets = seed_datasets(S, subsample)
        got = list(stacked(datasets, T=7, k=6, **params))
        assert len(got) == S
        for ds, res in zip(datasets, got, strict=True):
            for want in (single(ds, T=7, k=6, **params),
                         next(stacked([ds], T=7, k=6, **params))):
                assert res.confidences.tobytes() == want.confidences.tobytes()
                assert res.hard_estimates.tobytes() == want.hard_estimates.tobytes()
                assert (res.method, res.hyperparams) == (want.method, want.hyperparams)

    @pytest.mark.parametrize("stack_rows", [1, 80])
    @pytest.mark.parametrize("method", ["proposed", "ipal"])
    def test_row_budget_splits_groups_without_changing_results(self, monkeypatch, method,
                                                               stack_rows):
        """A budget of 1 row runs each seed alone; one of 80 rows runs the
        seeds of 30 and 35 rows together and the seed of 40 alone."""
        stacked, _, params = STACKED_RUNS[method]
        _, datasets = seed_datasets(3, subsample=True)
        want = list(stacked(datasets, T=5, k=4, **params))
        shapes = []
        step = propagation.propagate_step
        monkeypatch.setattr(propagation, "propagate_step",
                            lambda graph, q: shapes.append(q.shape[0]) or step(graph, q))
        monkeypatch.setattr(propagation, "_STACK_ROWS", stack_rows)
        got = list(stacked(datasets, T=5, k=4, **params))
        rows = [30, 35, 40] if stack_rows == 1 else [65, 40]
        rounds = 2 if method == "proposed" else 1
        assert shapes == [n for n in rows for _ in range(rounds * 5)]
        for a, b in zip(got, want, strict=True):
            assert a.confidences.tobytes() == b.confidences.tobytes()
            assert a.hard_estimates.tobytes() == b.hard_estimates.tobytes()

    @pytest.mark.parametrize("S", [1, 3])
    @pytest.mark.parametrize("method", ["proposed", "ipal"])
    def test_one_group_runs_each_step_once_on_the_stacked_matrix(self, monkeypatch, method,
                                                                 S):
        """A group of S seeds calls the module's propagate_step (and, for
        proposed, correct) T times per round, each on an (S n, sum u)
        array.  The seeds share their OF arrays, so they build one
        round-1 graph, and one round-2 graph each."""
        stacked, _, params = STACKED_RUNS[method]
        _, datasets = seed_datasets(S, subsample=False)
        calls = []
        for name in ("propagate_step", "correct"):
            fn = getattr(propagation, name)
            monkeypatch.setattr(propagation, name, lambda *a, _fn=fn, _name=name:
                                calls.append((_name, a[1].shape)) or _fn(*a))
        build = propagation.build_graph
        builds = []
        monkeypatch.setattr(propagation, "build_graph",
                            lambda x, k: builds.append(len(x)) or build(x, k))
        list(stacked(datasets, T=4, k=5, **params))
        shape = (S * 45, 8)
        if method == "proposed":
            assert calls == [("propagate_step", shape), ("correct", shape)] * 8
            assert builds == [45] * (1 + S)
        else:
            assert calls == [("propagate_step", shape)] * 4
            assert builds == [45]

    @pytest.mark.parametrize("method", ["proposed", "ipal"])
    def test_seeds_of_other_ofs_get_their_own_round_one_graphs(self, monkeypatch, method):
        """Two seeds of one n and schema whose OF arrays differ, run in
        one stacked call, each propagate round 1 on the graph of their
        own OF encoding, and each result has the bytes of its own run."""
        stacked, single, params = STACKED_RUNS[method]
        schema = cf_schema(3, 5, n_of=2)
        datasets = [synthesize_cf(build_dataset(schema, 45, seed=s), s) for s in (30, 31)]
        want = [single(ds, T=7, k=6, **params) for ds in datasets]
        encodings = []
        build = propagation.build_graph
        monkeypatch.setattr(propagation, "build_graph",
                            lambda x, k: encodings.append(x) or build(x, k))
        got = list(stacked(datasets, T=7, k=6, **params))
        assert len(encodings) == (4 if method == "proposed" else 2)
        for x, ds in zip(encodings[:2], datasets, strict=True):
            assert x.tobytes() == encode_of(ds).tobytes()
        assert encodings[0].tobytes() != encodings[1].tobytes()
        for res, w in zip(got, want, strict=True):
            assert res.confidences.tobytes() == w.confidences.tobytes()
            assert res.hard_estimates.tobytes() == w.hard_estimates.tobytes()

    def test_round_one_graph_freed_before_round_two(self, monkeypatch):
        """The stacked round-1 graph of 2 seeds, which share their OFs'
        graph, is dead when round 2 encodes its first seed: it lives only
        as an argument of round 1's steps."""
        _, datasets = seed_datasets(2, subsample=False)
        stacked, alive = [], []
        stack, encode = propagation.stack_graphs, propagation.encode_with_confidence

        def recording_stack(graphs):
            graph = stack(graphs)
            stacked.append(weakref.ref(graph))
            return graph

        def checking_encode(*args):
            alive.append(stacked[0]() is not None)
            return encode(*args)

        monkeypatch.setattr(propagation, "stack_graphs", recording_stack)
        monkeypatch.setattr(propagation, "encode_with_confidence", checking_encode)
        list(propagation.run_proposed_seeds(datasets, [(3, 4, 0.25)])[0])
        assert len(stacked) == 2 and alive == [False, False]

    def test_round_one_confidences_freed_before_round_two_builds(self, monkeypatch):
        """Round 2 builds its graphs, whose k-NN is the peak of a run at
        paper scale, once the stacked round-1 confidences are dead: the
        round-2 encodings hold what it needs of them."""
        _, datasets = seed_datasets(2, subsample=False)
        round1, alive = [], []
        encode, build = propagation.encode_with_confidence, propagation.build_graph

        def recording_encode(base, q, *args):
            round1.append(weakref.ref(q.base))
            return encode(base, q, *args)

        def checking_build(x, k):
            if round1:  # round 2
                alive.append(round1[0]() is not None)
            return build(x, k)

        monkeypatch.setattr(propagation, "encode_with_confidence", recording_encode)
        monkeypatch.setattr(propagation, "build_graph", checking_build)
        list(propagation.run_proposed_seeds(datasets, [(3, 4, 0.25)])[0])
        assert len(round1) == 2 and alive == [False, False]

    def test_round_two_encodings_freed_before_round_two_steps(self, monkeypatch):
        """With a shared round-1 graph and 2 seeds, every round-2 encoding
        is dead when round 2's first step runs: each lives until its
        graph is built."""
        _, datasets = seed_datasets(2, subsample=False)
        encodings, alive = [], []
        encode, step = propagation.encode_with_confidence, propagation.propagate_step

        def recording_encode(*args):
            x = encode(*args)
            encodings.append(weakref.ref(x))
            return x

        def checking_step(graph, q):
            if encodings and not alive:  # round 2's first step
                alive.extend(ref() is not None for ref in encodings)
            return step(graph, q)

        monkeypatch.setattr(propagation, "encode_with_confidence", recording_encode)
        monkeypatch.setattr(propagation, "propagate_step", checking_step)
        list(propagation.run_proposed_seeds(datasets, [(3, 4, 0.25)])[0])
        assert len(encodings) == 2 and alive == [False, False]

    def test_seed_groups_fill_the_row_budget_in_order(self, monkeypatch):
        monkeypatch.setattr(propagation, "_STACK_ROWS", 100)
        assert propagation.seed_groups([]) == []
        assert propagation.seed_groups([40, 40, 40]) == [slice(0, 2), slice(2, 3)]
        assert propagation.seed_groups([50, 50, 150, 10]) == [slice(0, 2), slice(2, 3),
                                                              slice(3, 4)]
        assert propagation.seed_groups([100] * 3) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_seeds_of_other_cf_widths_rejected(self):
        a = observed_dataset([3], 20, seed=1)
        b = observed_dataset([4], 20, seed=2)
        for run in (lambda: propagation.run_proposed_seeds([a, b], [(2, 3, 0.25)]),
                    lambda: propagation.run_ipal_seeds([a, b], [(2, 3)], 0.9)):
            with pytest.raises(ShapeMismatchError, match="cannot be stacked"):
                run()


# Entries a saved file must carry exactly: exact zeros, subnormals, the
# smallest normal float, and values below 1e-4, whose saved text differs
# from Python's repr (e.g. 0.00004830844254893549 for 4.830844254893549e-05).
SMALL_ENTRIES = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-5,
                 4.830844254893549e-05, 9.99e-05]


@st.composite
def saved_results(draw):
    """An EstimationResult with row-stochastic confidences whose entries
    mix arbitrary floats with SMALL_ENTRIES; each segment row's observed
    entry is exactly 0.  Row 0 of CF 0 holds 5e-324 and 4.83e-05.  The
    hard estimates come in Fortran order, as a transpose gives them."""
    sizes = [draw(st.integers(4, 6)), *draw(st.lists(st.integers(3, 6), max_size=2))]
    n = draw(st.integers(1, 6))
    blocks, hard = [], []
    for j, u in enumerate(sizes):
        block = np.zeros((n, u))
        for i in range(n):
            observed = draw(st.integers(0, u - 1))
            free = [v for v in range(u) if v != observed]
            rest = draw(st.lists(st.one_of(st.sampled_from(SMALL_ENTRIES),
                                           st.floats(0.0, 1.0 / u)),
                                 min_size=u - 2, max_size=u - 2))
            if i == j == 0:
                observed, free, rest[:2] = 0, list(range(1, u)), [5e-324, 4.830844254893549e-05]
            block[i, free[1:]] = rest
            block[i, free[0]] = 1.0 - sum(rest)
        blocks.append(block)
        hard.append(draw(st.lists(st.integers(1, u), min_size=n, max_size=n)))
    return EstimationResult(cf_names=tuple(f"s{j}" for j in range(len(sizes))), sizes=sizes,
                            confidences=np.hstack(blocks), hard_estimates=np.array(hard).T,
                            method="proposed",
                            hyperparams={"T": 3, "k": 4, "gamma": draw(st.floats(0.0, 1.0))})


class TestEstimationResultIo:
    def test_json_round_trip(self, tmp_path):
        """``save`` writes only the archive that ``load`` reads; the CLI's
        ``export_result`` writes the same result as JSON."""
        ds = observed_dataset([3, 4], 15, seed=18)
        res = run_proposed(ds, T=3, k=4, gamma=0.25)
        path = tmp_path / "r.npz"
        res.save(path, extra={"seed": 0})
        assert [p.name for p in tmp_path.iterdir()] == ["r.npz"]
        loaded = EstimationResult.load(path)
        np.testing.assert_array_equal(loaded.hard_estimates, res.hard_estimates)
        assert loaded.cf_names == res.cf_names == ("s0", "s1")
        assert loaded.sizes == res.sizes == (3, 4)
        np.testing.assert_array_equal(loaded.confidences, res.confidences)
        np.testing.assert_array_equal(loaded.block(1), res.confidences[:, 3:])
        assert loaded.method == "proposed"
        assert loaded.hyperparams == res.hyperparams
        export_result(res, tmp_path / "r.json", {"seed": 0})
        with open(tmp_path / "r.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert (doc["method"], doc["hyperparams"], doc["seed"]) == ("proposed", res.hyperparams, 0)
        assert doc["cf_names"] == ["s0", "s1"]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(saved_results())
    def test_saved_values_read_back_exactly(self, tmp_path, res):
        """Every float reads back as the same float64, through load of the
        archive and through the standard library's json on the CLI's
        export, and writing twice gives the same bytes in both files."""
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        for path in (first, second):
            res.save(path, extra={"seed": 0})
            export_result(res, path.with_suffix(".json"), {"seed": 0})
        assert first.read_bytes() == second.read_bytes()
        assert first.with_suffix(".json").read_bytes() == second.with_suffix(".json").read_bytes()
        loaded = EstimationResult.load(first, expect={"seed": 0})
        np.testing.assert_array_equal(loaded.confidences.view(np.uint64),
                                      res.confidences.view(np.uint64))
        np.testing.assert_array_equal(loaded.hard_estimates, res.hard_estimates)
        assert loaded.hyperparams == res.hyperparams
        with open(first.with_suffix(".json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        for j, name in enumerate(res.cf_names):
            assert doc["confidences"][name] == res.block(j).tolist()
        assert doc["hard_estimates"] == res.hard_estimates.tolist()

    def test_stored_provenance_must_match(self, tmp_path):
        res = run_comp(observed_dataset([3], 4, seed=5), seed=0)
        res.save(tmp_path / "r.npz", extra={"seed": 0, "input_hash": "ab"})
        assert EstimationResult.load(tmp_path / "r.npz", expect={"seed": 0, "input_hash": "ab"})
        for expect in ({"seed": 1}, {"input_hash": "cd"}, {"max_n": 0}):
            with pytest.raises(DataError, match="estimated from other inputs"):
                EstimationResult.load(tmp_path / "r.npz", expect=expect)

    @pytest.mark.parametrize("q", [
        np.full((1, 5), 0.25),                      # segment sums 0.75 and 0.5
        np.array([[1.5, -0.5, 0.0, 0.5, 0.5]]),     # negative entry
        np.array([[np.nan, 0.5, 0.5, 0.5, 0.5]]),   # not a number
    ])
    def test_non_stochastic_confidences_rejected(self, q):
        with pytest.raises(DataError, match="row-stochastic"):
            EstimationResult(cf_names=("a", "b"), sizes=(3, 2), confidences=q,
                             hard_estimates=np.ones((1, 2), dtype=np.int64), method="m",
                             hyperparams={})

    @pytest.mark.parametrize("sizes, shape, hard_shape", [
        ((3, 2), (2, 6), (2, 2)),  # widths sum to 5, the matrix has 6 columns
        ((3,), (2, 3), (2, 2)),    # one width for two CF names
        ((3, 2), (3, 5), (2, 2)),  # more confidence rows than hard estimates
        ((3, 2), (2, 5), (2, 3)),  # three hard-estimate columns for two CF names
    ])
    def test_wrong_shape_rejected(self, sizes, shape, hard_shape):
        with pytest.raises(ShapeMismatchError):
            EstimationResult(cf_names=("a", "b"), sizes=sizes, confidences=np.zeros(shape),
                             hard_estimates=np.ones(hard_shape, dtype=np.int64), method="m",
                             hyperparams={})

    @pytest.mark.parametrize("hard", [[[0, 1]], [[4, 1]], [[1, 3]]])
    def test_hard_estimate_outside_codes_rejected(self, hard):
        """A hard estimate is a code in 1..u: 0 would one-hot the last
        category through index -1."""
        with pytest.raises(DataError, match="hard estimates out of range"):
            EstimationResult(cf_names=("a", "b"), sizes=(3, 2),
                             confidences=np.array([[1.0, 0.0, 0.0, 0.0, 1.0]]),
                             hard_estimates=hard, method="m", hyperparams={})

    @pytest.mark.parametrize("hard, confidences, error", [
        ([[2.9, 1.0]], [[0.0, 0.5, 0.5, 1.0, 0.0]], DataError),         # float codes
        ([[True, True]], [[1.0, 0.0, 0.0, 1.0, 0.0]], DataError),       # bool codes
        (np.array([["1", "1"]]), [[1.0, 0.0, 0.0, 1.0, 0.0]], DataError),
        ([[1], [2, 1]], [[1.0, 0.0, 0.0, 1.0, 0.0]] * 2, ShapeMismatchError),
        ([[1, 1]], [[1.0, 0.0, 0.0], [1.0, 0.0]], ShapeMismatchError),  # ragged confidences
        ([[1, 1]], [["1", "0", "0", "1", "0"]], DataError),             # text confidences
    ], ids=["float", "bool", "text", "ragged", "ragged_confidences", "text_confidences"])
    def test_malformed_arrays_refused(self, hard, confidences, error):
        """Hard estimates are refused, never truncated, unless they are
        integers, and ragged input is a shape error, not a raw ValueError."""
        with pytest.raises(error):
            EstimationResult(cf_names=("a", "b"), sizes=(3, 2), confidences=confidences,
                             hard_estimates=hard, method="m", hyperparams={})

    @pytest.mark.parametrize("make", [
        lambda: b'{"method": "proposed"}',   # not an archive: a JSON estimate file is not read
        lambda: npz_bytes(confidences=None),
        lambda: npz_bytes(meta=None),
        lambda: npz_bytes(meta=np.array("[1, 2, 3]")),
        lambda: npz_bytes(meta=np.array('{"method": "proposed"}')),
        lambda: npz_bytes(meta=np.array('{"cf_names": ["s0"], "sizes": [2')),
        lambda: npz_bytes(meta=np.array(json.dumps(META).encode())),
        lambda: npz_bytes(meta=np.array([json.dumps(META)])),
        lambda: npz_bytes(meta={**META, "cf_names": "s0"}),
        lambda: npz_bytes(meta={**META, "sizes": [2.0]}),
        lambda: npz_bytes(meta={**META, "sizes": [True, True]}),
        lambda: npz_bytes(meta={**META, "cf_names": ["s0", "s1"], "sizes": [0, 2]},
                          hard_estimates=np.ones((2, 2), dtype=np.int64)),
        lambda: npz_bytes(meta={**META, "sizes": [3]}),
        lambda: npz_bytes(meta={**META, "method": 1}),
        lambda: npz_bytes(meta={**META, "hyperparams": [["T", 3]]}),
        lambda: npz_bytes(confidences=np.array([[0.5, 0.5], [0.9, 0.9]])),
        lambda: npz_bytes(confidences=np.array([[0.5, 0.5], [0.5, 0.5]], dtype=np.float32)),
        lambda: npz_bytes(confidences=np.array([0.5, 0.5, 0.5, 0.5])),
        lambda: npz_bytes(hard_estimates=np.array([1, 2])),
        lambda: npz_bytes(hard_estimates=np.array([[1], [2]], dtype=np.int32)),
        lambda: npz_bytes(hard_estimates=np.array([[1], [2]], dtype=object)),
        lambda: npy_bytes(np.zeros((2, 2))),
        # An array header whose shape does not fit in 64 bits, or in memory,
        # or claims more data than its member holds.
        lambda: header_edit(npz_bytes(**TALL), "(400, 2)", "(18446744073709551616, 2)"),
        lambda: header_edit(npz_bytes(**TALL), "(400, 2)", "(10000000000000000, 2)"),
        lambda: header_edit(npz_bytes(**TALL), "(400, 2)", "(401, 2)"),
        # The same, with the zip directory claiming the member holds that much.
        lambda: member_edit(header_edit(npz_bytes(**TALL), "(400, 2)", "(1000000, 2)"),
                            "confidences.npy", size=128 + 16_000_000),
        # A header that is not a literal, which numpy then tokenizes.
        lambda: header_edit(npz_bytes(**TALL), "(400, 2)", "(400, 2 "),
        # A .npy header version that save never writes.
        lambda: zip_bytes(npz_bytes(), confidences=npy_bytes(np.array([[0.5, 0.5], [0.0, 1.0]]),
                                                             version=(3, 0))),
        # A member marked as deflate, LZMA or bz2 data, which is refused
        # before any decompressor runs.
        lambda: member_edit(npz_bytes(), "confidences.npy", method=8, prefix=b"\xff"),
        lambda: member_edit(npz_bytes(), "confidences.npy", method=14,
                            prefix=b"\x00\x00\x05\x00\xff\xff\xff\xff\xff"),
        lambda: member_edit(npz_bytes(), "confidences.npy", method=12),
        # A member compressed with deflate, whose data do decode.
        lambda: zip_bytes(npz_bytes(), compression=zipfile.ZIP_DEFLATED),
    ], ids=["json_text", "confidences_missing", "meta_missing", "meta_list", "meta_keys_missing",
           "meta_truncated", "meta_bytes", "meta_1d", "cf_names_string", "size_float",
           "size_bool", "size_zero", "sizes_too_wide", "method_not_text",
           "hyperparams_not_object", "not_stochastic", "confidences_float32",
           "confidences_1d", "hard_1d", "hard_int32", "hard_object", "npy_not_npz",
           "shape_over_int64", "shape_over_memory", "shape_over_member",
           "shape_over_file", "header_unclosed", "npy_version_3", "deflate_undecodable",
           "lzma_undecodable", "bz2_undecodable", "deflate_valid"])
    def test_malformed_file_raises_data_error(self, tmp_path, make):
        path = tmp_path / "r.npz"
        path.write_bytes(make())
        with pytest.raises(DataError, match="malformed estimation result"):
            EstimationResult.load(path)

    def test_each_member_read_once_without_np_load(self, tmp_path, monkeypatch):
        """``load`` opens each of the three members once, through zipfile
        alone, and reads the saved arrays back."""
        res = run_comp(observed_dataset([3, 4], 6, seed=5), seed=0)
        res.save(tmp_path / "r.npz")
        opened, open_member = [], zipfile.ZipFile.open
        monkeypatch.setattr(zipfile.ZipFile, "open", lambda self, member, *args: opened.append(
            getattr(member, "filename", member)) or open_member(self, member, *args))
        monkeypatch.setattr(np, "load", None)
        loaded = EstimationResult.load(tmp_path / "r.npz")
        assert opened == ["confidences.npy", "hard_estimates.npy", "meta.npy"]
        np.testing.assert_array_equal(loaded.confidences, res.confidences)
        np.testing.assert_array_equal(loaded.hard_estimates, res.hard_estimates)

    def test_load_memory_is_close_to_the_arrays_it_returns(self, tmp_path):
        """``load`` of a 20,000-row bank-like result peaks within 1.6x the
        bytes of its two arrays (1.49x measured), and the arrays are
        read-only: the result adopts the arrays the reader made.  Copying
        them again in the constructor peaked at 2.49x."""
        ds, _ = make_bank_like(20_000, seed=0)
        run_comp(synthesize_cf(ds, 0), seed=0).save(tmp_path / "r.npz")
        tracemalloc.start()
        try:
            loaded = EstimationResult.load(tmp_path / "r.npz")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * (loaded.confidences.nbytes + loaded.hard_estimates.nbytes)
        for array in (loaded.confidences, loaded.hard_estimates):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1

    def test_object_array_refused_by_the_reader(self, tmp_path):
        path = tmp_path / "r.npz"
        path.write_bytes(npz_bytes(hard_estimates=np.array([[1], [2]], dtype=object)))
        with pytest.raises(DataError, match="hard_estimates's header .* or holds Python objects"):
            EstimationResult.load(path)

    def test_short_read_refused(self, tmp_path, monkeypatch):
        """A member whose data end before its header's shape is refused,
        not returned with the rest of its array unset."""
        path = tmp_path / "r.npz"
        path.write_bytes(npz_bytes())
        monkeypatch.setattr(zipfile.ZipExtFile, "readinto", lambda self, buffer: 0,
                            raising=False)
        with pytest.raises(DataError, match="array confidences ends before its 32 bytes"):
            EstimationResult.load(path)

    @pytest.mark.parametrize("make", [lambda: npz_bytes(),
                                      lambda: zip_bytes(npz_bytes())],
                             ids=["savez", "rezipped"])
    def test_valid_crafted_archive_loads(self, tmp_path, make):
        """The archive the malformed cases above edit is itself valid, also
        when its members are copied into a new archive."""
        path = tmp_path / "r.npz"
        path.write_bytes(make())
        res = EstimationResult.load(path)
        assert (res.cf_names, res.sizes, res.method) == (("s0",), (2,), "m")


META = {"cf_names": ["s0"], "sizes": [2], "method": "m", "hyperparams": {}}
# Members over 4 KB, so that a reader parses an array header before it
# reaches the end of the member, where the zip CRC is checked.
TALL = {"confidences": np.full((400, 2), 0.5), "hard_estimates": np.ones((400, 1), dtype=np.int64)}


def npz_bytes(**arrays):
    """A valid estimate archive of two rows and one CF of width 2, with the
    named arrays replaced; None drops an array, and a dict ``meta`` is stored as
    its JSON."""
    stored = {"confidences": np.array([[0.5, 0.5], [0.0, 1.0]]),
              "hard_estimates": np.array([[1], [2]], dtype=np.int64),
              "meta": META, **arrays}
    if isinstance(stored["meta"], dict):
        stored["meta"] = np.array(json.dumps(stored["meta"]))
    buf = io.BytesIO()
    np.savez(buf, **{name: a for name, a in stored.items() if a is not None})
    return buf.getvalue()


def npy_bytes(array, version=None):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, version=version)
    return buf.getvalue()


def zip_bytes(data, compression=zipfile.ZIP_STORED, **members):
    """The archive ``data``'s members copied into a new archive written
    with ``compression``, with the named members' bytes replaced."""
    buf = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(data)) as src, zipfile.ZipFile(buf, "w", compression) as dst:
        for name in src.namelist():
            dst.writestr(name, members.get(name.removesuffix(".npy")) or src.read(name))
    return buf.getvalue()


def header_edit(data, old, new):
    """Replaces ``old`` by ``new`` in the array header where ``old`` ends
    the dict, taking the extra length from the header's space padding, so
    no offset moves."""
    pad = b" " * (len(new) - len(old))
    edited = data.replace(old.encode() + b", }" + pad, new.encode() + b", }", 1)
    assert len(edited) == len(data) and edited != data
    return edited


def member_edit(data, member, method=0, prefix=b"", size=None):
    """Sets ``member``'s compression method, and its compressed and
    uncompressed sizes to ``size`` if given, in the central directory, the
    copy a reader follows, and overwrites the first bytes of its stored
    data with ``prefix``."""
    name = member.encode()
    cd = data.rindex(name) - 46
    assert data[cd:cd + 4] == b"PK\x01\x02"
    out = bytearray(data)
    out[cd + 10:cd + 12] = method.to_bytes(2, "little")
    if size is not None:
        out[cd + 20:cd + 28] = size.to_bytes(4, "little") * 2
    start = data.index(b"\x93NUMPY", data.index(name))
    out[start:start + len(prefix)] = prefix
    return bytes(out)
