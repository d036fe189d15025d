import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from compfeat.data import (
    Column,
    Dataset,
    FeatureSchema,
    load_csv,
    load_schema,
    save_schema,
    split_train_test,
    synthesize_cf,
    write_csv,
)
from compfeat.errors import (
    DataError,
    MissingColumnError,
    MissingTruthError,
    ParseError,
    UnknownCategoryError,
)

from conftest import build_dataset


class TestSchema:
    def test_exactly_one_label_required(self):
        with pytest.raises(DataError, match="exactly one label"):
            FeatureSchema((Column("a", "quantitative", "OF"),))

    def test_cf_must_be_categorical(self):
        with pytest.raises(DataError, match="categorical"):
            FeatureSchema((
                Column("a", "binary", "CF", ("x", "y")),
                Column("y", "binary", "label", ("n", "p")),
            ))

    def test_cf_needs_three_values(self):
        schema = FeatureSchema((
            Column("a", "categorical", "CF", ("x", "y")),
            Column("y", "binary", "label", ("n", "p")),
        ))
        with pytest.raises(DataError, match="at least 3"):
            schema.validate_complete()

    def test_duplicate_vocabulary_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            FeatureSchema((
                Column("a", "categorical", "OF", ("x", "x")),
                Column("y", "binary", "label", ("n", "p")),
            ))

    def test_schema_file_round_trip(self, tiny_schema, tmp_path):
        path = tmp_path / "schema.txt"
        save_schema(tiny_schema, path)
        assert load_schema(path) == tiny_schema

    def test_save_rejects_vocabulary_that_reads_back_otherwise(self, tmp_path):
        """Cells "a|b" and " e" infer a vocabulary the schema format cannot
        carry: it would read back as ('e', 'a', 'b', 'c', 'd')."""
        path = tmp_path / "d.csv"
        path.write_text("x,s,y\n1.0,a|b,no\n2.0, e,yes\n3.0,c,no\n4.0,d,yes\n")
        schema = FeatureSchema((
            Column("x", "quantitative", "OF"),
            Column("s", "categorical", "CF"),
            Column("y", "binary", "label", ("no", "yes")),
        ))
        inferred = load_csv(path, schema).schema
        assert inferred.columns[1].vocabulary == (" e", "a|b", "c", "d")
        with pytest.raises(DataError, match="column 's'"):
            save_schema(inferred, tmp_path / "d.schema")
        assert not (tmp_path / "d.schema").exists()


CSV_TEXT = """age,color,status,y,extra
1.0,blue,a,no,junk
2.5,red,b,yes,junk
4.0,teal,c,no,junk
"""


class TestLoadCsv:
    def test_basic_load(self, tiny_schema, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(CSV_TEXT)
        ds = load_csv(path, tiny_schema)
        assert ds.n == 3
        np.testing.assert_array_equal(ds.cf_truth[:, 0], [1, 2, 3])
        np.testing.assert_array_equal(ds.labels, [1, 2, 1])
        np.testing.assert_array_equal(ds.of_values[1], [1, 3, 4])
        assert ds.cf_observed is None

    def test_header_only_gives_empty_dataset(self, tiny_schema, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("age,color,status,y\n")
        ds = load_csv(path, tiny_schema)
        assert ds.n == 0

    def test_missing_column(self, tiny_schema, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("age,color,y\n")
        with pytest.raises(MissingColumnError):
            load_csv(path, tiny_schema)

    def test_bad_number_reports_row_and_column(self, tiny_schema, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("age,color,status,y\nnope,blue,a,no\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, tiny_schema)
        assert err.value.row == 0 and err.value.column == "age"

    def test_unknown_category(self, tiny_schema, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("age,color,status,y\n1.0,mauve,a,no\n")
        with pytest.raises(UnknownCategoryError):
            load_csv(path, tiny_schema)

    @pytest.mark.parametrize("header, short_row, column", [
        ("color,status,y,age", "red,b,yes", "age"),    # quantitative cell missing
        ("age,color,status,y", "2.0", "color"),        # categorical cells missing
    ])
    def test_short_row_reports_row_and_column(self, tiny_schema, tmp_path,
                                              header, short_row, column):
        full = {"age": "1.0", "color": "blue", "status": "a", "y": "no"}
        path = tmp_path / "d.csv"
        path.write_text(f"{header}\n{','.join(full[h] for h in header.split(','))}\n"
                        f"{short_row}\n{short_row}\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, tiny_schema)
        assert (err.value.row, err.value.column) == (1, column)

    @pytest.mark.parametrize("text", [CSV_TEXT + "\n", CSV_TEXT.replace("junk\n", "junk\n\n", 1)],
                             ids=["trailing", "between_rows"])
    def test_blank_lines_skipped(self, tiny_schema, tmp_path, text):
        (tmp_path / "plain.csv").write_text(CSV_TEXT)
        (tmp_path / "blank.csv").write_text(text)
        plain = load_csv(tmp_path / "plain.csv", tiny_schema)
        ds = load_csv(tmp_path / "blank.csv", tiny_schema)
        assert ds.n == 3
        np.testing.assert_array_equal(ds.cf_truth, plain.cf_truth)
        np.testing.assert_array_equal(ds.labels, plain.labels)

    def test_short_row_after_blank_line_reports_data_row(self, tiny_schema, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("age,color,status,y\n1.0,blue,a,no\n\n2.0,red\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, tiny_schema)
        assert (err.value.row, err.value.column) == (1, "status")

    @pytest.mark.parametrize("text, row", [
        ("age,color,status,y\n1.0,{big},a,no\n", 0),
        ("age,color,status,y\n1.0,blue,a,no\n\n2.0,{big},a,no\n", 1),
        ("age,{big},status,y\n1.0,blue,a,no\n", None),
    ], ids=["first_row", "after_blank_line", "header"])
    def test_reader_error_reports_data_row(self, tiny_schema, tmp_path, text, row):
        """A record the csv module rejects, here a quoted cell over its
        field size limit, is a ParseError naming the data row."""
        path = tmp_path / "d.csv"
        path.write_text(text.format(big='"' + "x" * 200_000 + '"'))
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            load_csv(path, tiny_schema)
        assert err.value.row == row

    @pytest.mark.parametrize("ages, row", [
        (["1.0", "inf", "nope"], 1),     # non-finite before unparsable
        (["1.0", "nope", "-inf"], 1),    # unparsable before non-finite
        (["1.0", "2.0", "nan"], 2),
    ])
    def test_bad_number_reports_first_bad_row(self, tiny_schema, tmp_path, ages, row):
        path = tmp_path / "d.csv"
        path.write_text("age,color,status,y\n" + "".join(f"{a},blue,a,no\n" for a in ages))
        with pytest.raises(ParseError) as err:
            load_csv(path, tiny_schema)
        assert (err.value.row, err.value.column) == (row, "age")

    def test_unknown_category_reports_first_bad_row(self, tiny_schema, tmp_path):
        path = tmp_path / "d.csv"
        colors = ["blue", "red", "mauve", "pink"]
        path.write_text("age,color,status,y\n" + "".join(f"1.0,{c},a,no\n" for c in colors))
        with pytest.raises(UnknownCategoryError) as err:
            load_csv(path, tiny_schema)
        assert (err.value.row, err.value.column) == (2, "color")

    def test_question_mark_is_ordinary_category(self, tmp_path):
        """Missing-value tokens stay in the vocabulary, inferred from data."""
        rows = ["1.0,?,a,no", "2.0,w,b,yes", "3.0,?,c,no", "4.0,v,a,yes"]
        path = tmp_path / "d.csv"
        path.write_text("age,work,status,y\n" + "\n".join(rows) + "\n")
        schema = FeatureSchema((
            Column("age", "quantitative", "OF"),
            Column("work", "categorical", "OF"),      # vocabulary inferred
            Column("status", "categorical", "CF", ("a", "b", "c")),
            Column("y", "binary", "label", ("no", "yes")),
        ))
        # independent one-pass count of distinct raw categories
        distinct = sorted({line.split(",")[1] for line in rows})
        ds = load_csv(path, schema)
        assert ds.schema.columns[1].vocabulary == tuple(distinct)
        assert ds.schema.columns[1].vocabulary[0] == "?"

    def test_round_trip(self, tiny_schema, tmp_path):
        src = tmp_path / "d.csv"
        src.write_text(CSV_TEXT)
        ds = load_csv(src, tiny_schema)
        back = tmp_path / "back.csv"
        write_csv(ds, back)
        again = load_csv(back, tiny_schema)
        assert again.schema == ds.schema
        np.testing.assert_array_equal(again.cf_truth, ds.cf_truth)
        np.testing.assert_array_equal(again.labels, ds.labels)
        for a, b in zip(again.of_values, ds.of_values):
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([1.7e308, -1.7e308, 5e-324, -5e-324, 2.2e-308, -0.0])),
        st.integers(1, 4), st.integers(1, 3), st.integers(1, 2)), max_size=12))
    def test_round_trip_is_bit_exact(self, tiny_schema, tmp_path, rows):
        """Floats and codes survive write_csv then load_csv bit for bit,
        and writing the reloaded dataset gives the same bytes."""
        ages = np.array([r[0] for r in rows], dtype=np.float64)
        codes = np.array([r[1:] for r in rows], dtype=np.int64).reshape(len(rows), 3)
        ds = Dataset(schema=tiny_schema, of_values=(ages, codes[:, 0]), labels=codes[:, 2],
                     cf_truth=codes[:, 1:2])
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_csv(ds, first)
        back = load_csv(first, tiny_schema)
        np.testing.assert_array_equal(back.of_values[0].view(np.uint64),
                                      ds.of_values[0].view(np.uint64))
        np.testing.assert_array_equal(back.of_values[1], ds.of_values[1])
        np.testing.assert_array_equal(back.cf_truth, ds.cf_truth)
        np.testing.assert_array_equal(back.labels, ds.labels)
        write_csv(back, second)
        assert second.read_bytes() == first.read_bytes()


class TestDatasetInvariants:
    def test_observed_equal_truth_rejected(self, tiny_schema):
        with pytest.raises(DataError, match="never equal"):
            Dataset(
                schema=tiny_schema,
                of_values=(np.array([1.0]), np.array([2])),
                labels=np.array([1]),
                cf_truth=np.array([[2]]),
                cf_observed=np.array([[2]]),
            )

    def test_code_range_checked(self, tiny_schema):
        with pytest.raises(DataError, match="out of range"):
            Dataset(
                schema=tiny_schema,
                of_values=(np.array([1.0]), np.array([9])),
                labels=np.array([1]),
                cf_truth=np.array([[1]]),
            )

    def test_arrays_frozen(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.labels[0] = 2


class TestSynthesizeCf:
    def test_never_emits_truth(self, tiny_dataset):
        ds = synthesize_cf(tiny_dataset, seed=7)
        assert (ds.cf_observed != ds.cf_truth).all()

    def test_requires_truth(self, tiny_schema):
        ds = build_dataset(tiny_schema, 5)
        ds = Dataset(schema=ds.schema, of_values=ds.of_values, labels=ds.labels)
        with pytest.raises(MissingTruthError):
            synthesize_cf(ds, seed=0)

    def test_deterministic(self, tiny_dataset):
        a = synthesize_cf(tiny_dataset, seed=3)
        b = synthesize_cf(tiny_dataset, seed=3)
        np.testing.assert_array_equal(a.cf_observed, b.cf_observed)
        c = synthesize_cf(tiny_dataset, seed=4)
        assert (a.cf_observed != c.cf_observed).any()

    def test_single_cell_repeatable(self, tiny_schema):
        ds = build_dataset(tiny_schema, 1, cf_truth=np.array([[1]]))
        first = synthesize_cf(ds, seed=0).cf_observed[0, 0]
        second = synthesize_cf(ds, seed=0).cf_observed[0, 0]
        assert first == second and first in (2, 3)

    def test_complement_draws_uniform(self, tiny_schema):
        """Both complement values appear with frequency 1/2 within 1%."""
        n = 100_000
        ds = build_dataset(tiny_schema, n, cf_truth=np.full((n, 1), 2))
        observed = synthesize_cf(ds, seed=11).cf_observed[:, 0]
        freq_1 = np.mean(observed == 1)
        freq_3 = np.mean(observed == 3)
        assert abs(freq_1 - 0.5) < 0.01 and abs(freq_3 - 0.5) < 0.01
        assert not np.any(observed == 2)


class TestSplit:
    def test_half_split(self, tiny_schema):
        ds = build_dataset(tiny_schema, 10)
        train, test = split_train_test(ds, 0.5, seed=0)
        assert len(train) == 5 and len(test) == 5
        assert set(train).isdisjoint(test)
        assert sorted(np.concatenate([train, test])) == list(range(10))

    def test_floor_on_odd_sizes(self, tiny_schema):
        n = 45211
        ds = build_dataset(tiny_schema, n)
        train, test = split_train_test(ds, 0.5, seed=1)
        expected = int(np.floor(0.5 * n))  # independent arithmetic
        assert len(train) == expected == 22605
        assert len(test) == n - expected

    def test_deterministic(self, tiny_dataset):
        a = split_train_test(tiny_dataset, 0.3, seed=5)
        b = split_train_test(tiny_dataset, 0.3, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
