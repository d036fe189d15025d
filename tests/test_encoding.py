import math

import numpy as np
import pytest

from compfeat.data import Column, Dataset, FeatureSchema, synthesize_cf
from compfeat.encoding import encode_of, encode_with_confidence
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
        np.testing.assert_allclose(enc.values[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        enc = encode_of(quantitative_only([7.0, 7.0, 7.0]))
        np.testing.assert_array_equal(enc.values[:, 0], [0.0, 0.0, 0.0])

    def test_binary_is_zero_one(self):
        schema = FeatureSchema((
            Column("b", "binary", "OF", ("off", "on")),
            Column("y", "binary", "label", ("n", "p")),
        ))
        ds = Dataset(schema=schema, of_values=(np.array([1, 2, 1]),),
                     labels=np.ones(3, dtype=np.int64))
        np.testing.assert_array_equal(encode_of(ds).values[:, 0], [0.0, 1.0, 0.0])

    def test_one_hot_scaled_by_inverse_sqrt_size(self, tiny_schema):
        ds = build_dataset(tiny_schema, 8, seed=0)
        enc = encode_of(ds)
        block = enc.block("color")
        assert block.shape == (8, 4)
        code = ds.of_array("color")[0]
        assert block[0, code - 1] == pytest.approx(0.5)  # 1/sqrt(4)
        assert np.count_nonzero(block[0]) == 1

    def test_cf_columns_excluded(self, tiny_dataset):
        enc = encode_of(tiny_dataset)
        assert "status" not in enc.blocks
        assert enc.dim == 1 + 4

    def test_affine_invariance(self, tiny_schema):
        ds = build_dataset(tiny_schema, 30, seed=2)
        shifted = Dataset(
            schema=ds.schema,
            of_values=(ds.of_values[0] * 3.7 + 11.0, ds.of_values[1]),
            labels=ds.labels,
            cf_truth=ds.cf_truth,
        )
        a = encode_of(ds).values
        b = encode_of(shifted).values
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
        d2 = float(((enc.values[0] - enc.values[1]) ** 2).sum())
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
        base_d = ((enc.values[0] - enc.values[5]) ** 2).sum()
        ext_d = ((ext.values[0] - ext.values[5]) ** 2).sum()
        assert ext_d == pytest.approx(base_d)
        assert np.all(ext.block("s") == 0.0)

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
        np.testing.assert_allclose(ext.block("s"), encode_of(ds_of).block("s"), atol=1e-15)

    def test_fractional_gamma_block_value(self):
        """sqrt(0.25) * (1/sqrt(3)) * 0.5 on each supported coordinate."""
        ds, enc, _ = self.make(n=2)
        rows = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        ext = encode_with_confidence(enc, rows, ds.schema.cf_columns, gamma=0.25)
        expected = math.sqrt(0.25) * (1.0 / math.sqrt(3)) * 0.5
        assert expected == pytest.approx(0.14433756729740643)
        np.testing.assert_allclose(
            ext.block("s"),
            np.array([[expected, expected, 0.0], [0.0, expected, expected]]),
        )

    def test_l1_mass_of_block_rows(self):
        ds, enc, q0 = self.make()
        gamma = 0.3
        ext = encode_with_confidence(enc, q0, ds.schema.cf_columns, gamma=gamma)
        sums = ext.block("s").sum(axis=1)
        np.testing.assert_allclose(sums, math.sqrt(gamma) / math.sqrt(3))

    def test_shape_mismatch(self):
        ds, enc, _ = self.make(n=5)
        cols = ds.schema.cf_columns
        with pytest.raises(ShapeMismatchError):
            encode_with_confidence(enc, np.full((4, 3), 1 / 3), cols, gamma=0.5)
        with pytest.raises(ShapeMismatchError):
            encode_with_confidence(enc, np.full((5, 4), 1 / 4), cols, gamma=0.5)

    def test_rejects_non_stochastic_rows(self):
        ds, enc, _ = self.make(n=5)
        with pytest.raises(ShapeMismatchError, match="row-stochastic"):
            encode_with_confidence(enc, np.full((5, 3), 0.5), ds.schema.cf_columns, gamma=0.5)

    def test_segments_scaled_per_cf(self):
        """Each CF segment gets its own 1/sqrt(u) factor and block name."""
        schema = FeatureSchema((
            Column("x", "quantitative", "OF"),
            Column("s", "categorical", "CF", ("a", "b", "c")),
            Column("t", "categorical", "CF", ("a", "b", "c", "d")),
            Column("y", "binary", "label", ("n", "p")),
        ))
        ds = synthesize_cf(build_dataset(schema, 6, seed=4), seed=4)
        enc, q0 = encode_of(ds), init_marginal(ds)
        ext = encode_with_confidence(enc, q0, schema.cf_columns, gamma=0.5)
        assert ext.blocks["s"] == (1, 4) and ext.blocks["t"] == (4, 8)
        np.testing.assert_array_equal(ext.block("s"), q0[:, :3] * (math.sqrt(0.5) / math.sqrt(3)))
        np.testing.assert_array_equal(ext.block("t"), q0[:, 3:] * (math.sqrt(0.5) / math.sqrt(4)))

    def test_rejects_bad_gamma(self):
        ds, enc, q0 = self.make(n=5)
        with pytest.raises(DataError, match="gamma"):
            encode_with_confidence(enc, q0, ds.schema.cf_columns, gamma=1.5)
        with pytest.raises(DataError, match="gamma"):
            encode_with_confidence(enc, q0, ds.schema.cf_columns, gamma=-1.0)
