import csv
import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from compfeat import data
from compfeat.data import (
    STREAM_GUESS,
    STREAM_OBSERVE,
    Column,
    Dataset,
    FeatureSchema,
    complement_draws,
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
    ShapeMismatchError,
    UnknownCategoryError,
)
from compfeat.oracle import make_bank_like

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

    def test_duplicated_schema_column_in_header(self, tiny_schema, tmp_path):
        """A header naming a schema column twice is refused, not read from
        its first copy."""
        path = tmp_path / "d.csv"
        path.write_text("age,color,status,y,age\n1.0,blue,a,no,2.0\n")
        with pytest.raises(ParseError, match="'age' appears more than once") as err:
            load_csv(path, tiny_schema)
        assert (err.value.row, err.value.column) == (None, "age")

    def test_duplicated_extra_column_is_ignored(self, tiny_schema, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(CSV_TEXT.replace("extra", "extra,extra").replace("junk", "junk,junk"))
        assert load_csv(path, tiny_schema).n == 3

    def test_crlf_quoted_cells_and_inferred_vocabularies(self, tmp_path):
        """CRLF line ends and quoted cells holding commas, quotes and line
        breaks read as their text; the vocabularies inferred from them
        sort lexicographically."""
        path = tmp_path / "d.csv"
        path.write_bytes(b'age,work,status,y\r\n"1.5","b,c",a,no\r\n'
                         b'2,"say ""hi""",b,yes\r\n\r\n3e0,"two\r\nlines",c,no\r\n'
                         b'-4,"b,c",a,yes\r\n')
        schema = FeatureSchema((
            Column("age", "quantitative", "OF"),
            Column("work", "categorical", "OF"),
            Column("status", "categorical", "CF"),
            Column("y", "binary", "label"),
        ))
        ds = load_csv(path, schema)
        assert ds.schema.columns[1].vocabulary == ("b,c", 'say "hi"', "two\r\nlines")
        assert ds.schema.columns[3].vocabulary == ("no", "yes")
        np.testing.assert_array_equal(ds.of_values[0], [1.5, 2.0, 3.0, -4.0])
        np.testing.assert_array_equal(ds.of_values[1], [1, 2, 3, 1])
        np.testing.assert_array_equal(ds.cf_truth[:, 0], [1, 2, 3, 1])
        np.testing.assert_array_equal(ds.labels, [1, 2, 1, 2])

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

    @pytest.mark.parametrize("read, text", [
        ("csv", "age,color,status,y\n1.0,{big},a,no\n2.0,blue,a,no\n"),
        ("csv", "age,{big},status,y\n1.0,blue,a,no\n"),
        ("schema", "age = quantitative OF\nno equals sign\ny = binary label no,yes\n"),
    ], ids=["data_row", "header", "schema"])
    def test_error_leaves_no_file_open(self, tiny_schema, tmp_path, monkeypatch, read, text):
        """The file is closed when the error leaves the reader, though the
        caller keeps the error and with it the reader's frames; it used to
        stay open until the cycle collector ran, and the ResourceWarning
        then failed whichever test was running."""
        opened = []
        monkeypatch.setattr(data, "open", lambda *args, **kwargs: opened.append(
            open(*args, **kwargs)) or opened[-1], raising=False)
        path = tmp_path / "d.txt"
        path.write_text(text.format(big='"' + "x" * 200_000 + '"'))
        with pytest.raises(ParseError) as err:
            load_csv(path, tiny_schema) if read == "csv" else load_schema(path)
        assert len(opened) == 1 and opened[0].closed
        assert err.value.__traceback__ is not None

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

    def test_row_of_one_empty_cell_round_trips(self, tmp_path):
        """A row whose one cell is the empty string is written as ``""``,
        as ``csv.writer`` writes it, and reads back as that cell."""
        schema = FeatureSchema((Column("y", "categorical", "label", ("", "a")),))
        ds = Dataset(schema=schema, of_values=(), labels=np.array([1, 2, 1]),
                     cf_truth=np.zeros((3, 0), np.int64))
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        assert path.read_bytes() == b'y\r\n""\r\na\r\n""\r\n'
        np.testing.assert_array_equal(load_csv(path, schema).labels, ds.labels)

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


# Vocabulary entries: every character csv.writer may quote for, edge
# spaces, non-ASCII text and the empty string.
VOCAB_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "\t", "a", "é", "€", "𝄞"]),
                     max_size=4)


class TestWriteCsvAgainstCsvModule:
    """``write_csv`` renders each distinct cell text once; its files must
    still be what ``csv.writer`` writes cell by cell."""

    @staticmethod
    def expected_bytes(ds, observed_columns, tmp_path):
        """The bytes ``csv.writer(fh).writerows`` writes for the header and
        rows of ``ds``, floats as ``repr``, each code as its entry."""
        columns = list(ds.schema.columns)
        arrays = dict(zip((c.name for c in ds.schema.of_columns), ds.of_values))
        arrays[ds.schema.label_column.name] = ds.labels
        arrays.update((c.name, ds.cf_truth[:, j]) for j, c in enumerate(ds.schema.cf_columns))
        header = [c.name for c in columns]
        cells = [[repr(float(v)) if c.kind == "quantitative" else c.vocabulary[v - 1]
                  for v in arrays[c.name]] for c in columns]
        if observed_columns:
            for j, c in enumerate(ds.schema.cf_columns):
                header.append(f"{c.name}__observed")
                cells.append([c.vocabulary[v - 1] for v in ds.cf_observed[:, j]])
        path = tmp_path / "want.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([header, *zip(*cells)])
        return path.read_bytes()

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(of_vocab=st.lists(VOCAB_TEXT, min_size=1, max_size=4, unique=True),
           cf_vocab=st.lists(VOCAB_TEXT, min_size=3, max_size=5, unique=True),
           label_vocab=st.lists(VOCAB_TEXT, min_size=2, max_size=2, unique=True),
           rows=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                   st.integers(0, 3), st.integers(0, 4), st.integers(0, 1)),
                         max_size=10),
           seed=st.integers(0, 2**64 - 1))
    def test_bytes_equal_csv_writer(self, tmp_path, of_vocab, cf_vocab, label_vocab, rows, seed):
        schema = FeatureSchema((
            Column("x", "quantitative", "OF"),
            Column('c, "of"', "categorical", "OF", tuple(of_vocab)),
            Column("f", "categorical", "CF", tuple(cf_vocab)),
            Column("y é", "binary", "label", tuple(label_vocab)),
        ))
        n = len(rows)
        ds = synthesize_cf(Dataset(
            schema=schema,
            of_values=(np.array([r[0] for r in rows], dtype=np.float64),
                       np.array([r[1] % len(of_vocab) + 1 for r in rows], dtype=np.int64)),
            labels=np.array([r[3] + 1 for r in rows], dtype=np.int64),
            cf_truth=np.array([[r[2] % len(cf_vocab) + 1] for r in rows],
                              dtype=np.int64).reshape(n, 1)), seed)
        for observed_columns in (False, True):
            path = tmp_path / "got.csv"
            write_csv(ds, path, observed_columns=observed_columns)
            assert path.read_bytes() == self.expected_bytes(ds, observed_columns, tmp_path)

    @pytest.mark.parametrize("block", [1, 2, 3, 1024])
    def test_write_rows_returns_the_hash_of_the_bytes_written(self, tmp_path, monkeypatch,
                                                               block):
        """Whatever the rows per block, ``write_rows`` writes the same
        bytes and returns their SHA-256."""
        ds = synthesize_cf(make_bank_like(7, seed=0)[0], 3)
        want = tmp_path / "want.csv"
        write_csv(ds, want, observed_columns=True)
        monkeypatch.setattr(data, "_WRITE_BLOCK", block)
        path = tmp_path / "got.csv"
        digest = data.write_rows(path, data.format_rows(ds), data.format_rows(ds, observed=True))
        assert path.read_bytes() == want.read_bytes()
        assert digest == hashlib.sha256(want.read_bytes()).hexdigest()


class TestLoadCsvInSmallBlocks(TestLoadCsv):
    """Every :class:`TestLoadCsv` case again, with ``load_csv`` reading
    one or two data rows per block."""

    @pytest.fixture(autouse=True, params=[1, 2], ids=["block1", "block2"])
    def small_blocks(self, request, monkeypatch):
        monkeypatch.setattr(data, "_CSV_BLOCK", request.param)


def block_rows(*rows):
    """CSV text for ``tiny_schema`` with each given row in turn, or a
    valid row where one is None."""
    return "age,color,status,y\n" + "".join(f"{r or '1.0,blue,a,no'}\n" for r in rows)


BIG = '"' + "x" * 200_000 + '"'


class TestLoadCsvAcrossBlocks:
    """Problems in different blocks of three data rows: the first of each
    kind is raised, in the order the docstring of ``load_csv`` gives,
    with its row counted over the whole file."""

    @pytest.fixture(autouse=True)
    def three_row_blocks(self, monkeypatch):
        monkeypatch.setattr(data, "_CSV_BLOCK", 3)

    @pytest.mark.parametrize("text, kind, row, column", [
        (block_rows(None, None, None, None, "x,blue,a,no"), ParseError, 4, "age"),
        (block_rows(None, None, None, None, "1.0,blue,mauve,no"), UnknownCategoryError, 4,
         "status"),
        # A column's first bad row, in schema order, beats an earlier bad row of a later column.
        (block_rows(None, "1.0,blue,mauve,no", None, "inf,blue,a,no"), ParseError, 3, "age"),
        # The reader error in block 3 beats the bad number in block 1.
        (block_rows(None, "nope,blue,a,no", None, None, None, None, f"1.0,{BIG},a,no"),
         ParseError, 6, None),
        # The short row in block 2 beats the bad number before it.
        (block_rows("nope,blue,a,no", None, None, None, "1.0,blue"), ParseError, 4, "status"),
        # The missing column beats a bad number in a later block.
        (block_rows(None, None, None, "nope,blue,a,no").replace("status", "state", 1),
         MissingColumnError, None, None),
        # The reader error beats the missing column and the short row.
        (block_rows(None, "1.0", None, None, None, None, f"1.0,{BIG},a,no").replace(
            ",y", ",why", 1), ParseError, 6, None),
    ], ids=["bad_number_in_block_2", "unknown_category_in_block_2", "schema_order",
            "reader_error_beats_bad_number", "short_row_beats_bad_number",
            "missing_column_beats_bad_number", "reader_error_beats_missing_column"])
    def test_first_problem_wins(self, tiny_schema, tmp_path, text, kind, row, column):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataError) as err:
            load_csv(path, tiny_schema)
        assert type(err.value) is kind
        assert (getattr(err.value, "row", None), getattr(err.value, "column", None)) == (row,
                                                                                      column)

    def test_incomplete_schema_beats_bad_number(self, tmp_path):
        """A binary label inferred with three values across blocks is
        refused before the bad number in block 1."""
        path = tmp_path / "d.csv"
        path.write_text(block_rows("nope,blue,a,no", None, None, None, "1.0,blue,a,yes",
                                   None, "1.0,blue,a,maybe"))
        schema = FeatureSchema((
            Column("age", "quantitative", "OF"),
            Column("y", "binary", "label"),
        ))
        with pytest.raises(DataError, match="binary column 'y' needs exactly 2 values") as err:
            load_csv(path, schema)
        assert type(err.value) is DataError

    def test_inferred_vocabulary_spans_blocks(self, tmp_path):
        """Values first seen in different blocks get the codes of the
        whole column's sorted vocabulary."""
        colors = ["red", "teal", "red", "blue", "red", "blue", "green", "blue", "teal", "aqua"]
        path = tmp_path / "d.csv"
        path.write_text(block_rows(*(f"{i}.0,{c},a,no" for i, c in enumerate(colors))))
        schema = FeatureSchema((
            Column("age", "quantitative", "OF"),
            Column("color", "categorical", "OF"),
            Column("status", "categorical", "CF", ("a", "b", "c")),
            Column("y", "binary", "label", ("no", "yes")),
        ))
        ds = load_csv(path, schema)
        vocabulary = tuple(sorted(set(colors)))
        assert ds.schema.columns[1].vocabulary == vocabulary
        np.testing.assert_array_equal(ds.of_values[1], [vocabulary.index(c) + 1 for c in colors])
        np.testing.assert_array_equal(ds.of_values[0], np.arange(10.0))


def test_load_csv_memory_is_a_small_multiple_of_the_file(tmp_path):
    """``load_csv`` reads a 10,000-row bank-like CSV with a traced peak
    under 4x the file's bytes; reading every row as Python strings
    before converting took 9.4x."""
    ds, _ = make_bank_like(10_000, seed=0)
    path = tmp_path / "bank.csv"
    write_csv(ds, path)
    tracemalloc.start()
    try:
        back = load_csv(path, ds.schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.n == 10_000
    assert peak < 4 * os.path.getsize(path)


def test_format_rows_memory_is_close_to_the_text_it_returns():
    """``format_rows`` of a 20,000-row bank-like table peaks within 1.2x
    the row texts it returns (1.05x measured): each column's values are
    converted to Python objects one ``_WRITE_BLOCK`` of rows at a time.
    Converting every column whole first peaked at 2.33x."""
    ds, _ = make_bank_like(20_000, seed=0)
    tracemalloc.start()
    try:
        rows = data.format_rows(ds)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 20_001
    assert peak <= 1.2 * held


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

    def test_arrays_copied_from_the_caller(self, tiny_schema):
        """Writes to the arrays the constructor received, already of the
        stored dtypes, leave the dataset unchanged."""
        age, color = np.array([1.5, 2.5]), np.array([2, 3], dtype=np.int64)
        labels = np.array([1, 2], dtype=np.int64)
        truth, observed = np.array([[1], [2]], dtype=np.int64), np.array([[2], [3]], dtype=np.int64)
        ds = Dataset(schema=tiny_schema, of_values=(age, color), labels=labels,
                     cf_truth=truth, cf_observed=observed)
        for arr in (age, color, labels, truth, observed):
            arr[...] = 1
        np.testing.assert_array_equal(ds.of_values[0], [1.5, 2.5])
        np.testing.assert_array_equal(ds.of_values[1], [2, 3])
        np.testing.assert_array_equal(ds.labels, [1, 2])
        np.testing.assert_array_equal(ds.cf_truth, [[1], [2]])
        np.testing.assert_array_equal(ds.cf_observed, [[2], [3]])

    def test_builders_hold_one_copy_of_each_array(self, tmp_path):
        """``load_csv`` and ``subset`` keep the arrays they build, and
        ``synthesize_cf`` shares its source's: no call's traced peak holds
        a second copy of its result (2.57x and 2.04x the result's bytes
        when every dataset copied its arrays)."""
        ds, _ = make_bank_like(10_000, seed=0)
        path = tmp_path / "bank.csv"
        write_csv(ds, path)

        def traced(call):
            tracemalloc.start()
            try:
                return call(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def array_bytes(d):
            return sum(a.nbytes for a in (*d.of_values, d.labels, d.cf_truth, d.cf_observed)
                       if a is not None)

        back, peak = traced(lambda: load_csv(path, ds.schema))
        assert peak < 2 * array_bytes(back)
        sub, peak = traced(lambda: back.subset(np.arange(0, back.n, 2)))
        assert peak < 1.5 * array_bytes(sub)
        synth = synthesize_cf(back, seed=3)
        assert synth.labels is back.labels and synth.cf_truth is back.cf_truth
        assert all(a is b for a, b in zip(synth.of_values, back.of_values))
        for d in (back, sub, synth):
            assert not any(a.flags.writeable for a in (*d.of_values, d.labels, d.cf_truth))

    @pytest.mark.parametrize("field, value, error", [
        ("labels", [1.9, 2.2], DataError),
        ("labels", [True, False], DataError),
        ("cf_truth", [[1.0], [2.0]], DataError),
        ("cf_observed", [[2.5], [3.5]], DataError),
        ("color", np.array([2.0, 3.0]), DataError),
        ("labels", [[1], [2, 1]], ShapeMismatchError),
        ("cf_truth", [[1], [2, 1]], ShapeMismatchError),
        ("age", [[1.5], [2.5, 3.5]], ShapeMismatchError),
        ("age", np.array(["1", "2"]), DataError),
        ("age", np.array([1.5, 2.5], dtype=object), DataError),
        ("age", np.array([1.5 + 0j, 2.5]), DataError),
        ("age", [1.5, np.nan], DataError),
        ("age", [np.inf, 2.5], DataError),
        pytest.param("age", np.array(["1e600", "2"]).astype(np.longdouble), DataError,
                     marks=pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= 1024,
                                              reason="long double is float64 here")),
    ])
    def test_malformed_arrays_refused(self, tiny_schema, field, value, error):
        """Codes must be integers: a float or bool code is refused, not
        truncated.  A ragged array is a shape error, not a raw ValueError.
        A quantitative column holds finite reals, as load_csv requires: text,
        object and complex values, NaN or inf, and a long double past
        float64's range are refused, not left for the encoder or the CSV
        writer to trip on."""
        arrays = {"age": np.array([1.5, 2.5]), "color": np.array([2, 3]),
                  "labels": np.array([1, 2]), "cf_truth": np.array([[1], [2]]),
                  "cf_observed": np.array([[2], [3]])}
        arrays[field] = value
        with pytest.raises(error):
            Dataset(schema=tiny_schema, of_values=(arrays.pop("age"), arrays.pop("color")),
                    **arrays)

    @pytest.mark.parametrize("age", [np.array([1, 2]), np.array([True, False]),
                                     np.array([1.5, 2.5], np.float32)],
                             ids=["int", "bool", "float32"])
    def test_quantitative_column_stored_as_float64(self, tiny_schema, age):
        ds = Dataset(schema=tiny_schema, of_values=(age, np.array([2, 3])),
                     labels=np.array([1, 2]))
        assert ds.of_values[0].dtype == np.float64
        np.testing.assert_array_equal(ds.of_values[0], age)

    @pytest.mark.parametrize("indices", [np.array([1.9]), [True, False], np.array([True] * 40),
                                         np.array(["1"])],
                             ids=["float", "bool_list", "bool_mask", "text"])
    def test_subset_refuses_non_integer_indices(self, tiny_dataset, indices):
        """A float index is refused, not truncated, and a boolean mask is
        refused, not read as the indices 0 and 1."""
        with pytest.raises(DataError, match="subset indices must be integers"):
            tiny_dataset.subset(indices)

    @pytest.mark.parametrize("of_values", [(np.array([1.5, 2.5]),), ()])
    def test_one_array_per_of_column(self, tiny_schema, of_values):
        with pytest.raises(ShapeMismatchError, match="2 OF columns"):
            Dataset(schema=tiny_schema, of_values=of_values, labels=np.array([1, 2]))

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

    def test_shares_the_source_of_arrays(self, tiny_dataset):
        """The seed runners share a round-1 graph between datasets that
        hold the same OF arrays: ``synthesize_cf`` hands on its source's,
        and ``subset``, even of every row, makes its own."""
        ds = synthesize_cf(tiny_dataset, seed=5)
        assert all(a is b for a, b in zip(ds.of_values, tiny_dataset.of_values, strict=True))
        every = ds.subset(np.arange(ds.n))
        assert not any(a is b for a, b in zip(every.of_values, ds.of_values, strict=True))

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

    @pytest.mark.parametrize("sizes", [(3, 12, 4), (5,), ()])
    def test_draws_on_a_grid_equal_per_feature_calls(self, sizes):
        """(n, 1) indices with (F,) features and sizes draw, in one call,
        what one call per feature draws, bit for bit."""
        n, rng = 50, np.random.default_rng(0)
        avoid = rng.integers(1, 4, size=(n, len(sizes)))
        for seed, stream in ((0, STREAM_OBSERVE), (2**64 - 1, STREAM_GUESS)):
            grid = complement_draws(seed, np.arange(n)[:, None], np.arange(len(sizes)), sizes,
                                    avoid, stream)
            assert grid.shape == (n, len(sizes)) and grid.dtype == np.int64
            for j, u in enumerate(sizes):
                np.testing.assert_array_equal(
                    grid[:, j], complement_draws(seed, np.arange(n), j, u, avoid[:, j], stream))


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

    def test_split_of_ten_rows(self, tiny_schema):
        """The split is pinned: the first 5 of ``seeded_order(7, 10,
        STREAM_SPLIT)`` train, whatever the rows hold."""
        train, test = split_train_test(build_dataset(tiny_schema, 10), 0.5, seed=7)
        assert train.tolist() == [0, 1, 2, 4, 7]
        assert test.tolist() == [3, 5, 6, 8, 9]
        np.testing.assert_array_equal(data.seeded_order(7, 10, data.STREAM_SPLIT),
                                      [1, 0, 2, 7, 4, 8, 3, 9, 6, 5])

    def test_deterministic(self, tiny_dataset):
        a = split_train_test(tiny_dataset, 0.3, seed=5)
        b = split_train_test(tiny_dataset, 0.3, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
