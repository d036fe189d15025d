import math

import numpy as np
import pytest

from compfeat.data import Column, Dataset, FeatureSchema, load_csv, synthesize_cf
from compfeat.encoding import (
    STOCHASTIC_TOL,
    encode_of,
    encode_with_confidence,
    one_hot,
    segment_starts,
    segments_stochastic,
)
from compfeat.errors import DataError, ShapeMismatchError
from compfeat.propagation import init_marginal

from conftest import build_dataset


def quantitative_only(values):
    schema = FeatureSchema((
        Column("x", "quantitative", "OF"),
        Column("y", "binary", "label", ("n", "p")),
    ))
    return Dataset(schema=schema, of_values=(np.asarray(values, float),),
                   labels=np.ones(len(values), dtype=np.int64))


class TestEncodeOf:
    def test_min_max_scaling(self):
        enc = encode_of(quantitative_only([2.0, 4.0, 6.0]))
        np.testing.assert_allclose(enc[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        enc = encode_of(quantitative_only([7.0, 7.0, 7.0]))
        np.testing.assert_array_equal(enc[:, 0], [0.0, 0.0, 0.0])

    def test_extremes_whose_difference_overflows(self):
        """1.7e308 - (-1.7e308) overflows; the scaled values do not."""
        enc = encode_of(quantitative_only([1.7e308, 0.0, -1.7e308, 8.5e307]))
        np.testing.assert_allclose(enc[:, 0], [1.0, 0.5, 0.0, 0.75], rtol=0, atol=1e-15)

    def test_header_only_csv_encodes_to_zero_rows(self, tiny_schema, tmp_path):
        """load_csv reads a header-only file as a 0-row dataset."""
        path = tmp_path / "d.csv"
        path.write_text("age,color,status,y\n")
        enc = encode_of(load_csv(path, tiny_schema))
        assert enc.shape == (0, 5) and enc.dtype == np.float64

    def test_read_only_float64(self, tiny_dataset):
        enc = encode_of(tiny_dataset)
        assert enc.dtype == np.float64 and not enc.flags.writeable
        with pytest.raises(ValueError):
            enc[0, 0] = 1.0

    def test_binary_is_zero_one(self):
        schema = FeatureSchema((
            Column("b", "binary", "OF", ("off", "on")),
            Column("y", "binary", "label", ("n", "p")),
        ))
        ds = Dataset(schema=schema, of_values=(np.array([1, 2, 1]),),
                     labels=np.ones(3, dtype=np.int64))
        np.testing.assert_array_equal(encode_of(ds)[:, 0], [0.0, 1.0, 0.0])

    def test_one_hot_scaled_by_inverse_sqrt_size(self, tiny_schema):
        ds = build_dataset(tiny_schema, 8, seed=0)
        enc = encode_of(ds)
        assert enc.shape == (8, 1 + 4)
        block = enc[:, 1:5]  # after the quantitative "age" column
        code = ds.of_values[1][0]
        assert block[0, code - 1] == pytest.approx(0.5)  # 1/sqrt(4)
        assert np.count_nonzero(block[0]) == 1

    def test_cf_columns_excluded(self, tiny_dataset):
        enc = encode_of(tiny_dataset)
        # age, then the one-hot of color; the CF "status" adds no columns
        assert enc.shape == (tiny_dataset.n, 1 + 4)
        np.testing.assert_array_equal(
            enc[:, 1:], np.eye(4)[tiny_dataset.of_values[1] - 1] / 2.0)

    def test_affine_invariance(self, tiny_schema):
        ds = build_dataset(tiny_schema, 30, seed=2)
        shifted = Dataset(
            schema=ds.schema,
            of_values=(ds.of_values[0] * 3.7 + 11.0, ds.of_values[1]),
            labels=ds.labels,
            cf_truth=ds.cf_truth,
        )
        a = encode_of(ds)
        b = encode_of(shifted)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_single_categorical_difference_distance(self):
        """Two rows differing in one categorical OF sit at squared distance 2/u."""
        schema = FeatureSchema((
            Column("c", "categorical", "OF", ("p", "q", "r", "s", "t")),
            Column("y", "binary", "label", ("n", "p")),
        ))
        ds = Dataset(schema=schema, of_values=(np.array([1, 4]),),
                     labels=np.ones(2, dtype=np.int64))
        enc = encode_of(ds)
        d2 = float(((enc[0] - enc[1]) ** 2).sum())
        assert d2 == pytest.approx(2.0 / 5.0)


class TestEncodeWithConfidence:
    def make(self, n=12, seed=3):
        schema = FeatureSchema((
            Column("x", "quantitative", "OF"),
            Column("s", "categorical", "CF", ("a", "b", "c")),
            Column("y", "binary", "label", ("n", "p")),
        ))
        ds = synthesize_cf(build_dataset(schema, n, seed=seed), seed=seed)
        return ds, encode_of(ds), init_marginal(ds)

    def test_gamma_zero_keeps_distances(self):
        ds, enc, q0 = self.make()
        ext = encode_with_confidence(enc, q0, ds.schema.cf_columns, gamma=0.0)
        base_d = ((enc[0] - enc[5]) ** 2).sum()
        ext_d = ((ext[0] - ext[5]) ** 2).sum()
        assert ext_d == pytest.approx(base_d)
        assert ext.shape == (ds.n, 1 + 3)
        assert np.all(ext[:, 1:] == 0.0)

    def test_gamma_one_matches_one_hot_rule(self):
        """One-hot confidences at gamma=1 reproduce the categorical OF rule."""
        ds, enc, _ = self.make()
        one_hot = np.zeros((ds.n, 3))
        one_hot[np.arange(ds.n), ds.cf_truth[:, 0] - 1] = 1.0
        ext = encode_with_confidence(enc, one_hot, ds.schema.cf_columns, gamma=1.0)

        as_of = FeatureSchema((
            Column("x", "quantitative", "OF"),
            Column("s", "categorical", "OF", ("a", "b", "c")),
            Column("y", "binary", "label", ("n", "p")),
        ))
        ds_of = Dataset(schema=as_of, of_values=(ds.of_values[0], ds.cf_truth[:, 0]),
                        labels=ds.labels)
        np.testing.assert_allclose(ext, encode_of(ds_of), atol=1e-15)

    def test_fractional_gamma_block_value(self):
        """sqrt(0.25) * (1/sqrt(3)) * 0.5 on each supported coordinate."""
        ds, enc, _ = self.make(n=2)
        rows = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        ext = encode_with_confidence(enc, rows, ds.schema.cf_columns, gamma=0.25)
        expected = math.sqrt(0.25) * (1.0 / math.sqrt(3)) * 0.5
        assert expected == pytest.approx(0.14433756729740643)
        np.testing.assert_allclose(
            ext[:, 1:],
            np.array([[expected, expected, 0.0], [0.0, expected, expected]]),
        )

    def test_l1_mass_of_block_rows(self):
        ds, enc, q0 = self.make()
        gamma = 0.3
        ext = encode_with_confidence(enc, q0, ds.schema.cf_columns, gamma=gamma)
        sums = ext[:, 1:].sum(axis=1)
        np.testing.assert_allclose(sums, math.sqrt(gamma) / math.sqrt(3))

    def test_shape_mismatch(self):
        ds, enc, _ = self.make(n=5)
        cols = ds.schema.cf_columns
        with pytest.raises(ShapeMismatchError):
            encode_with_confidence(enc, np.full((4, 3), 1 / 3), cols, gamma=0.5)
        with pytest.raises(ShapeMismatchError):
            encode_with_confidence(enc, np.full((5, 4), 1 / 4), cols, gamma=0.5)

    def test_rejects_non_stochastic_rows(self):
        ds, enc, q0 = self.make(n=5)
        for row in ([0.5, 0.5, 0.5],         # sums to 1.5
                    [0.5, 0.5 + 1e-9, 0.0],  # off by 1e-9, ten times the one tolerance
                    [1.5, -0.5, 0.0],        # negative entry
                    [np.nan, 0.5, 0.5]):     # not a number
            conf = q0.copy()
            conf[2] = row
            with pytest.raises(ShapeMismatchError, match="row-stochastic"):
                encode_with_confidence(enc, conf, ds.schema.cf_columns, gamma=0.5)

    def test_segments_scaled_per_cf(self):
        """Each CF segment gets its own 1/sqrt(u) factor, after the base columns."""
        schema = FeatureSchema((
            Column("x", "quantitative", "OF"),
            Column("s", "categorical", "CF", ("a", "b", "c")),
            Column("t", "categorical", "CF", ("a", "b", "c", "d")),
            Column("y", "binary", "label", ("n", "p")),
        ))
        ds = synthesize_cf(build_dataset(schema, 6, seed=4), seed=4)
        enc, q0 = encode_of(ds), init_marginal(ds)
        ext = encode_with_confidence(enc, q0, schema.cf_columns, gamma=0.5)
        assert ext.shape == (6, 8) and not ext.flags.writeable
        np.testing.assert_array_equal(ext[:, :1], enc)
        np.testing.assert_array_equal(ext[:, 1:4], q0[:, :3] * (math.sqrt(0.5) / math.sqrt(3)))
        np.testing.assert_array_equal(ext[:, 4:8], q0[:, 3:] * (math.sqrt(0.5) / math.sqrt(4)))

    def test_rejects_bad_gamma(self):
        ds, enc, q0 = self.make(n=5)
        with pytest.raises(DataError, match="gamma"):
            encode_with_confidence(enc, q0, ds.schema.cf_columns, gamma=1.5)
        with pytest.raises(DataError, match="gamma"):
            encode_with_confidence(enc, q0, ds.schema.cf_columns, gamma=-1.0)


class TestStackedLayout:
    @pytest.mark.parametrize("sizes", [(3, 12, 4), (5,), ()])
    def test_one_hot_matches_per_column_reference(self, sizes):
        n, rng = 20, np.random.default_rng(1)
        codes = np.column_stack([rng.integers(1, u + 1, size=n) for u in sizes]
                                or [np.zeros((n, 0), dtype=np.int64)])
        expected = np.zeros((n, sum(sizes)))
        for j, u in enumerate(sizes):
            for i in range(n):
                expected[i, sum(sizes[:j]) + codes[i, j] - 1] = 1.0
        np.testing.assert_array_equal(one_hot(codes, sizes), expected)
        assert segment_starts(sizes).tolist() == [sum(sizes[:j]) for j in range(len(sizes))]

    def test_one_tolerance_of_1e_10(self):
        """Segment row sums may miss 1 by 1e-11, not by 1e-9."""
        assert STOCHASTIC_TOL == 1e-10
        q = np.array([[0.25, 0.25, 0.5, 0.5, 0.5]])
        for off, ok in ((0.0, True), (1e-11, True), (1e-9, False)):
            shifted = q + np.array([[0.0, 0.0, 0.0, off, 0.0]])
            assert segments_stochastic(shifted, (3, 2)) is ok
        assert segments_stochastic(np.zeros((4, 0)), ())
