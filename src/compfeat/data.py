"""Dataset ingestion, schema declaration, and seeded synthesis of
complementary-feature observations.

A *complementary feature* (CF) is a categorical column whose cells are
observed only as a value the feature is NOT.  Ordinary features (OFs) are
observed exactly.  Category codes are 1-based integers in vocabulary
order; instance indices are 0-based.

Schema files are flat text, one column per line::

    <name> = <kind> <role> [<v1>|<v2>|...]

where kind is one of ``quantitative``, ``binary``, ``categorical`` and
role is one of ``OF``, ``CF``, ``label``.  The trailing ``|``-joined
vocabulary is optional for non-quantitative columns; when absent it is
inferred from the data, sorted lexicographically.

CSVs are read in blocks of rows, each converted a column at a time.  A
row is written as the comma join of its cells' texts: a float's
``repr``, or a vocabulary entry as ``csv.writer`` quotes it, each
distinct entry rendered once per column.  Columns that several files
share are rendered once, and each file is written and hashed in blocks
of rows, its SHA-256 returned to the caller.  A malformed CSV raises a
typed error that names the first bad row and its column.

This module owns the package's array checks, which every public function
admits its arrays through: a ragged array, integers given as floats, bools
or text, reals of another dtype or codes outside 1..u raise typed errors,
and so does a matrix of instance vectors or design rows that is not 2-D
or holds NaN or inf (:func:`_finite_matrix`).
It also owns the scalar check (:func:`_scalar`), which every public
function and the configuration admit each count, seed and bounded real
through: a bool, text, None, NaN, a float where an integer belongs, or a
value outside its interval raises :class:`DataError`.  The schema file
and the configuration file share one line reader (:func:`_assignments`):
blank lines and ``#`` comments are skipped, and any other line must hold
``=``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass, replace
from itertools import chain, islice, repeat
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from .errors import (
    DataError,
    MissingColumnError,
    MissingTruthError,
    ParseError,
    ShapeMismatchError,
    UnknownCategoryError,
)

KINDS = ("quantitative", "binary", "categorical")
ROLES = ("OF", "CF", "label")

# Stream tags keep independent counter-based draws from colliding.
STREAM_OBSERVE = 0    # synthesize_cf
STREAM_GUESS = 1      # baseline hard estimates
STREAM_SPLIT = 2      # split_train_test
STREAM_SUBSAMPLE = 3  # a seed's max_n row subset

_CSV_BLOCK = 512  # data rows load_csv converts at a time
_WRITE_BLOCK = 1024  # rows write_rows encodes, hashes and writes at a time


@dataclass(frozen=True)
class Column:
    name: str
    kind: str
    role: str
    vocabulary: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown kind {self.kind!r} for column {self.name!r}")
        if self.role not in ROLES:
            raise DataError(f"unknown role {self.role!r} for column {self.name!r}")

    @property
    def size(self) -> int:
        """Number of category codes (0 for quantitative columns)."""
        return len(self.vocabulary)


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered column declarations for one dataset."""

    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names in schema")
        labels = [c for c in self.columns if c.role == "label"]
        if len(labels) != 1:
            raise DataError(f"schema must have exactly one label column, got {len(labels)}")
        for c in self.columns:
            if c.role == "CF" and c.kind != "categorical":
                raise DataError(f"CF column {c.name!r} must be categorical")
            if c.vocabulary and len(set(c.vocabulary)) != len(c.vocabulary):
                raise DataError(f"duplicate vocabulary entries in column {c.name!r}")
            if c.kind == "quantitative" and c.vocabulary:
                raise DataError(f"quantitative column {c.name!r} cannot have a vocabulary")

    def validate_complete(self):
        """Check invariants that need filled-in vocabularies."""
        for c in self.columns:
            if c.kind == "quantitative":
                continue
            if not c.vocabulary:
                raise DataError(f"column {c.name!r} has no vocabulary")
            if c.kind == "binary" and len(c.vocabulary) != 2:
                raise DataError(f"binary column {c.name!r} needs exactly 2 values")
            if c.role == "CF" and len(c.vocabulary) < 3:
                # With only two values, the complement pins down the exact
                # value and there is nothing to estimate.
                raise DataError(f"CF column {c.name!r} needs at least 3 values")

    @property
    def of_columns(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.role == "OF")

    @property
    def cf_columns(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.role == "CF")

    @property
    def cf_sizes(self) -> tuple[int, ...]:
        """Number of codes of each CF column, in schema order."""
        return tuple(c.size for c in self.cf_columns)

    @property
    def label_column(self) -> Column:
        return next(c for c in self.columns if c.role == "label")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _as_array(values, name: str) -> np.ndarray:
    try:
        return np.asarray(values)
    except ValueError:  # ragged rows
        raise ShapeMismatchError(f"{name} must form a rectangular array") from None


def _integer_array(values, name: str) -> np.ndarray:
    """``values`` as an array of an integer dtype: a float, bool or text
    entry is refused, never truncated or cast."""
    arr = _as_array(values, name)
    if not np.issubdtype(arr.dtype, np.integer):
        raise DataError(f"{name} must be integers, got dtype {arr.dtype}")
    return arr


def _code_array(values, name: str, copy: bool) -> np.ndarray:
    """``values`` as frozen int64 codes, copied when ``copy``; the codes
    must already be integers (:func:`_integer_array`)."""
    return _frozen(_integer_array(values, name).astype(np.int64, copy=copy))


def _real_array(values, name: str, copy: bool = False) -> np.ndarray:
    """``values`` as float64, copied when ``copy``: a bool, integer or
    float array; a wider float past float64's range becomes inf."""
    arr = _as_array(values, name)
    if arr.dtype.kind not in "biuf":
        raise DataError(f"{name} must be real numbers, got dtype {arr.dtype}")
    with np.errstate(over="ignore"):
        return arr.astype(np.float64, copy=copy)


def _finite_matrix(values, name: str) -> np.ndarray:
    """``values`` as a 2-D float64 array (:func:`_real_array`) of finite reals."""
    arr = _real_array(values, name)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{name} must form a 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{name} must be finite")
    return arr


def _scalar(value, name: str, lo, hi=np.inf, ends: str = "[)", integer: bool = False):
    """``value`` as an ``int`` when ``integer``, else as a ``float``, once
    it lies between ``lo`` and ``hi``; ``ends`` brackets the interval,
    ``"[)"`` (closed below, open above) by default.  An integer must be a
    Python or numpy integer, a real an integer or float that is not NaN; a
    bool, text or None is neither."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds) or value != value:
        raise DataError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    try:
        value = int(value) if integer else float(value)
    except OverflowError:  # an integer past float64's range
        value = np.inf if value > 0 else -np.inf
    if not (lo < value < hi or value == lo and ends[0] == "[" or value == hi and ends[1] == "]"):
        raise DataError(f"{name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {value!r}")
    return value


def _check_codes(codes: np.ndarray, sizes, name: str):
    """Refuse integer codes outside 1..u: (n,) codes of the int width
    ``sizes``, or (n, F) codes whose column j has width ``sizes[j]``."""
    if codes.size and (codes.min() < 1 or (codes.max(axis=0) > np.asarray(sizes)).any()):
        raise DataError(f"{name} out of range: codes must lie in 1..u, u = {sizes}")


def _adopted(cls, **fields):
    """An instance of the frozen dataclass ``cls``, :class:`Dataset`,
    :class:`~compfeat.graph.WeightGraph` or
    :class:`~compfeat.propagation.EstimationResult`, that holds the
    arrays it is handed in ``fields``, not copies; a field left out takes
    its default.  Each array must be one its builder made for it, which
    is frozen in place, or one that another instance already froze,
    which is shared.  ``cls._settle(copy=False)`` checks every field, as
    the constructor's ``_settle(copy=True)`` checks copies."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    obj._settle(copy=False)
    return obj


@dataclass(frozen=True, eq=False)
class Dataset:
    """Column-typed table with optional hidden CF ground truth.

    ``of_values`` holds one array per OF column in schema order: float64
    for quantitative columns, given as finite bool, integer or float
    values, and 1-based int64 codes otherwise.
    ``cf_observed`` / ``cf_truth`` are (n, F_c) code arrays; either may
    be None.  Codes must be given as integers, and a ragged array is a
    :class:`ShapeMismatchError`.  All arrays are frozen after
    construction.  The constructor freezes copies of the arrays it is
    handed, so a caller's later writes cannot reach the dataset; the
    package's own builders (:func:`load_csv`, :meth:`subset`,
    :func:`synthesize_cf`) go through :func:`_adopted` instead.
    """

    schema: FeatureSchema
    of_values: tuple[np.ndarray, ...]
    labels: np.ndarray
    cf_truth: np.ndarray | None = None
    cf_observed: np.ndarray | None = None

    def __post_init__(self):
        self._settle(copy=True)

    def _settle(self, copy: bool):
        """Check every field and freeze the arrays, or copies of them when ``copy``."""
        self.schema.validate_complete()
        labels = _code_array(self.labels, "labels", copy)
        if labels.ndim != 1:
            raise DataError(f"labels have shape {labels.shape}, expected one code per row")
        n = labels.shape[0]
        if len(self.of_values) != len(self.schema.of_columns):
            raise ShapeMismatchError(f"{len(self.of_values)} OF arrays for "
                                     f"{len(self.schema.of_columns)} OF columns")
        of_values = []
        for arr, col in zip(self.of_values, self.schema.of_columns):
            name = f"column {col.name!r}"
            if col.kind == "quantitative":
                arr = _frozen(_real_array(arr, name, copy))
                if not np.isfinite(arr).all():
                    raise DataError(f"{name} holds a value that is not a finite float64")
            else:
                arr = _code_array(arr, name, copy)
            if arr.shape != (n,):
                raise DataError(f"{name} has shape {arr.shape}, expected {(n,)}")
            if col.kind != "quantitative":
                _check_codes(arr, col.size, name)
            of_values.append(arr)
        _check_codes(labels, self.schema.label_column.size, "labels")
        object.__setattr__(self, "of_values", tuple(of_values))
        object.__setattr__(self, "labels", labels)
        f_c = len(self.schema.cf_columns)
        for attr in ("cf_truth", "cf_observed"):
            val = getattr(self, attr)
            if val is None:
                continue
            val = _code_array(val, attr, copy)
            if val.shape != (n, f_c):
                raise DataError(f"{attr} has shape {val.shape}, expected {(n, f_c)}")
            _check_codes(val, self.schema.cf_sizes, attr)
            object.__setattr__(self, attr, val)
        if self.cf_truth is not None and self.cf_observed is not None:
            if np.any(self.cf_truth == self.cf_observed):
                raise DataError("cf_observed may never equal cf_truth")

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    def subset(self, indices: np.ndarray) -> "Dataset":
        """The rows at ``indices``, which must be integers in [0, n): a
        float index, an index outside [0, n) or a boolean mask is a
        :class:`DataError`."""
        idx = _integer_array(indices, "subset indices")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise DataError(f"subset indices must lie in [0, {self.n})")
        return _adopted(
            Dataset, schema=self.schema,
            of_values=tuple(a[idx] for a in self.of_values),
            labels=self.labels[idx],
            cf_truth=None if self.cf_truth is None else self.cf_truth[idx],
            cf_observed=None if self.cf_observed is None else self.cf_observed[idx],
        )


# ---------------------------------------------------------------------------
# Schema file I/O


def _read_lines(path, newline=None):
    """Yield the lines of a UTF-8 text file; any other bytes raise :class:`DataError` naming it."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc})") from None


def load_schema(path) -> FeatureSchema:
    with contextlib.closing(_read_lines(path)) as lines:
        return FeatureSchema(tuple(_read_columns(lines)))


def _assignments(lines, what: str) -> Iterator[tuple[int, str, str]]:
    """``(lineno, name, rest)`` of each ``name = rest`` line of ``lines``,
    numbered from 1, both sides stripped.  Blank lines and ``#`` comments
    are skipped; any other line without ``=`` raises :class:`ParseError`
    naming ``what`` and the line."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{what} line {lineno}: missing '='", row=lineno)
        name, rest = line.split("=", 1)
        yield lineno, name.strip(), rest.strip()


def _read_columns(lines) -> list[Column]:
    columns = []
    for lineno, name, rest in _assignments(lines, "schema"):
        parts = rest.split(None, 2)
        if len(parts) < 2:
            raise ParseError(f"schema line {lineno}: need '<kind> <role>'", row=lineno)
        kind, role = parts[0], parts[1]
        vocab = tuple(parts[2].split("|")) if len(parts) == 3 else ()
        columns.append(Column(name, kind, role, vocab))
    return columns


def save_schema(schema: FeatureSchema, path):
    """Write ``schema`` for :func:`load_schema`.  A column whose line would
    read back otherwise (a vocabulary entry holding ``|`` or edge
    whitespace, say) raises :class:`DataError` naming it; nothing is written."""
    lines = [f"{c.name} = {c.kind} {c.role} {'|'.join(c.vocabulary)}".rstrip(" ") + "\n"
             for c in schema.columns]
    for c, line in zip(schema.columns, lines):
        try:
            back = _read_columns(io.StringIO(line, newline=None))
        except DataError:
            back = None
        if back != [c]:
            raise DataError(f"column {c.name!r} would not read back unchanged from a schema file")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


# ---------------------------------------------------------------------------
# CSV I/O


def load_csv(path, schema: FeatureSchema) -> Dataset:
    """Read an RFC-4180 CSV (UTF-8, header required) against ``schema``.

    Raw values of CF columns populate ``cf_truth``, which is (n, 0) when
    the schema has no CF columns; ``cf_observed`` is left unset until
    :func:`synthesize_cf`.  Columns in the file but not in the schema are
    ignored.  Missing-value tokens such as ``?`` are ordinary vocabulary
    entries.  Blank lines, which ``csv.reader`` returns as empty records,
    are skipped, so a trailing newline after the last row is accepted.

    The data rows are read in blocks of ``_CSV_BLOCK``.  Each block is
    transposed and each schema column of it converted to a typed chunk
    before the next block is read, so only one block's row lists and
    cell strings are alive at a time; the chunks are joined at the end.
    An inferred vocabulary numbers its values as they first appear and
    is sorted, and its codes renumbered, once the file has been read.

    Malformed input raises a typed error carrying the first bad row
    (0-based among the data rows, header and blank lines excluded) and
    its column.  The whole file is read before any other problem is
    raised, and the first problem of each kind is raised in this order:

    1. a record that ``csv.reader`` rejects, such as one holding a cell
       over its field size limit (:class:`ParseError`, no column; in the
       header, no row), or a file that is not UTF-8 (:class:`DataError`
       naming it);
    2. a schema column missing from the header
       (:class:`MissingColumnError`), then one named there twice
       (:class:`ParseError`), each the first in schema order;
    3. a row too short to hold every schema column (:class:`ParseError`);
    4. an incomplete schema once vocabularies are inferred
       (:meth:`FeatureSchema.validate_complete`);
    5. in schema order, a column's first bad cell: a quantitative cell
       that is not a finite number (:class:`ParseError`) or a value
       outside a declared vocabulary (:class:`UnknownCategoryError`).
    """
    # A caller that keeps a raised error keeps, through its traceback,
    # the reader and its open file; so the file is closed as the error
    # leaves, not when the cycle collector finds it.
    with contextlib.closing(_read_lines(path, newline="")) as lines:
        return _read_csv(lines, schema)


def _read_csv(lines, schema: FeatureSchema) -> Dataset:
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file: header row required") from None
    except csv.Error as exc:
        raise ParseError(f"header (line {reader.line_num}): {exc}") from None

    problem = None  # the first header or short-row problem; later blocks are not converted
    missing = [c.name for c in schema.columns if c.name not in header]
    twice = [c.name for c in schema.columns if header.count(c.name) > 1]
    if missing:
        problem = MissingColumnError(f"column {missing[0]!r} missing from CSV header")
    elif twice:
        problem = ParseError(f"column {twice[0]!r} appears more than once in the CSV header",
                             column=twice[0])
    else:
        positions = [header.index(c.name) for c in schema.columns]
        width = max(positions) + 1
    chunks = [_ColumnChunks(c) for c in schema.columns]
    n = 0
    for start, block in _row_blocks(reader):
        n = start + len(block)
        if problem is not None:
            continue
        if min(map(len, block)) < width:
            i = next(i for i, row in enumerate(block) if len(row) < width)
            name = next(c.name for c, pos in zip(schema.columns, positions) if pos >= len(block[i]))
            problem = ParseError(f"row {start + i}: too few cells", row=start + i, column=name)
            continue
        columns = list(zip(*block))
        for chunk, pos in zip(chunks, positions):
            chunk.add(start, columns[pos])
        del columns  # before the next block is read
    if problem is not None:
        raise problem

    schema = FeatureSchema(tuple(chunk.column for chunk in chunks))
    schema.validate_complete()
    for chunk in chunks:
        if chunk.error is not None:
            raise chunk.error
    values = {chunk.col.name: chunk.values() for chunk in chunks}
    cf = [values[c.name] for c in schema.cf_columns]
    return _adopted(
        Dataset, schema=schema, of_values=tuple(values[c.name] for c in schema.of_columns),
        labels=values[schema.label_column.name],
        cf_truth=np.column_stack(cf) if cf else np.zeros((n, 0), dtype=np.int64))


def _row_blocks(reader):
    """Yield ``(start, rows)`` for each run of up to ``_CSV_BLOCK``
    non-blank records, ``start`` being the data-row index of the first.
    The list is emptied before the next block is read.  A record that
    ``csv.reader`` rejects raises :class:`ParseError` naming its row."""
    start, block = 0, []
    try:
        for row in reader:
            if row:
                block.append(row)
                if len(block) == _CSV_BLOCK:
                    yield start, block
                    start += len(block)
                    block.clear()
    except csv.Error as exc:
        row = start + len(block)
        raise ParseError(f"row {row} (line {reader.line_num}): {exc}", row=row) from None
    if block:
        yield start, block


class _ColumnChunks:
    """One schema column read block by block: its typed chunks, its
    vocabulary so far, and its first bad cell."""

    def __init__(self, col: Column):
        self.col = col
        self.infer = col.kind != "quantitative" and not col.vocabulary
        # Declared: the code of each value.  Inferred: the order in which
        # each value first appeared, 0-based; renumbered in values().
        self.codes = {v: i + 1 for i, v in enumerate(col.vocabulary)}
        self.chunks = []
        self.error = None

    @property
    def column(self) -> Column:
        """The column, its vocabulary filled in when inferred (sorted)."""
        return replace(self.col, vocabulary=tuple(sorted(self.codes))) if self.infer else self.col

    def add(self, start: int, cells: tuple[str, ...]):
        """Convert the cells of one block whose first row is data row
        ``start``; after the column's first bad cell, do nothing."""
        if self.error is not None:
            return
        col = self.col
        if col.kind == "quantitative":
            try:
                values = np.fromiter(map(float, cells), np.float64, len(cells))
                if np.isfinite(values).all():
                    self.chunks.append(values)
                    return
            except ValueError:
                pass
            i = next(i for i, v in enumerate(cells) if not _is_finite(v))
            self.error = ParseError(
                f"row {start + i}: {cells[i]!r} is not a finite number in column {col.name!r}",
                row=start + i, column=col.name)
            return
        if self.infer:
            for v in dict.fromkeys(cells):
                self.codes.setdefault(v, len(self.codes))
        try:
            self.chunks.append(np.fromiter(map(self.codes.__getitem__, cells), np.int64,
                                           len(cells)))
        except KeyError:
            i = next(i for i, v in enumerate(cells) if v not in self.codes)
            self.error = UnknownCategoryError(
                f"row {start + i}: value {cells[i]!r} not in vocabulary of column {col.name!r}",
                row=start + i, column=col.name)

    def values(self) -> np.ndarray:
        """The joined chunks: float64 values or 1-based int64 codes."""
        dtype = np.float64 if self.col.kind == "quantitative" else np.int64
        values = np.concatenate(self.chunks) if self.chunks else np.zeros(0, dtype)
        self.chunks = []
        if self.infer:
            rank = {v: i + 1 for i, v in enumerate(sorted(self.codes))}
            values = np.array([rank[v] for v in self.codes], dtype=np.int64)[values]
        return values


def _is_finite(text: str) -> bool:
    try:
        return bool(np.isfinite(float(text)))
    except ValueError:
        return False


def write_csv(ds: Dataset, path, observed_columns: bool = False):
    """Write the dataset back to CSV in schema column order.

    CF cells hold the ground-truth values, so ``load_csv`` on the output
    reproduces the dataset.  With ``observed_columns=True`` an extra
    ``<name>__observed`` column per CF is appended.  The file is
    :func:`write_rows` of the :func:`format_rows` parts, which
    ``compfeat prepare`` calls itself: when its seeds share the source
    rows it renders the schema columns' rows once per command and only
    the observed columns' rows per seed.
    """
    parts = [format_rows(ds)]
    if observed_columns:
        parts.append(format_rows(ds, observed=True))
    write_rows(path, *parts)


def format_rows(ds: Dataset, observed: bool = False) -> list[str]:
    """The CSV text of the header and of each row over the schema columns,
    CF cells holding the truth, or with ``observed=True`` over the
    ``<name>__observed`` columns, for :func:`write_rows` to join.

    Each text is rendered with an empty first field and without its line
    terminator, so it starts with the comma that joins it to the text
    before it; with no columns each text is empty.  The header goes
    through ``csv.writer``; a data row is a plain comma join of its
    cells' texts from :func:`_cell_text`, which renders each distinct
    categorical value once and makes each cell's text as its row is
    joined, so only the row texts are held.
    """
    schema = ds.schema
    cf_cols = schema.cf_columns
    if observed:
        if ds.cf_observed is None:
            raise MissingTruthError("no observed CF values to write")
        names = [f"{c.name}__observed" for c in cf_cols]
        cells = [_cell_text(ds.cf_observed[:, j], c) for j, c in enumerate(cf_cols)]
    else:
        if cf_cols and ds.cf_truth is None:
            raise MissingTruthError("dataset has no CF ground truth to write")
        arrays = dict(zip((c.name for c in schema.of_columns), ds.of_values))
        arrays[schema.label_column.name] = ds.labels
        arrays.update((c.name, ds.cf_truth[:, j]) for j, c in enumerate(cf_cols))
        names = [c.name for c in schema.columns]
        cells = [_cell_text(arrays[c.name], c) for c in schema.columns]
    if not names:
        return [""] * (ds.n + 1)
    return [*_csv_texts([("", *names)]), *map(",".join, zip(repeat(""), *cells))]


def write_rows(path, *parts: list[str]) -> str:
    """Write one CSV whose row i, the header first, joins text i of each
    :func:`format_rows` part, and return the SHA-256 hex digest of the
    bytes written.  A row of one empty field is written as ``""``, as
    ``csv.writer`` writes it.  Rows are encoded, hashed and written
    ``_WRITE_BLOCK`` at a time, so the file's whole text is never held."""
    digest = hashlib.sha256()
    rows = ((row[1:] or '""') + "\r\n" for row in map("".join, zip(*parts)))
    with open(path, "wb") as fh:
        while block := "".join(islice(rows, _WRITE_BLOCK)).encode("utf-8"):
            digest.update(block)
            fh.write(block)
    return digest.hexdigest()


def _cell_text(arr: np.ndarray, col: Column) -> Iterator[str]:
    """The CSV text of each of ``col``'s values ``arr`` within a row, each
    made as it is read from Python values converted ``_WRITE_BLOCK`` at a
    time, so neither a column's texts nor its Python values are ever all
    held.  A finite float's text is its ``repr``, which never needs
    quoting.  A code's is its vocabulary entry as ``csv.writer`` renders
    it inside a row, each entry rendered once."""
    if col.kind == "quantitative":
        values, text = np.asarray(arr, dtype=np.float64), repr
    else:
        # Indexed by code, 1..u; no code is 0.
        texts = ["", *(text[1:] for text in _csv_texts(("", v) for v in col.vocabulary))]
        values, text = np.asarray(arr, dtype=np.int64), texts.__getitem__
    return map(text, chain.from_iterable(values[start:start + _WRITE_BLOCK].tolist()
                                         for start in range(0, len(values), _WRITE_BLOCK)))


def _csv_texts(rows) -> list[str]:
    """The text ``csv.writer`` writes for each of ``rows``, without its
    line terminator."""
    texts = []
    # The C writer passes each whole row to write().  Its default line
    # terminator, cut here and put back by write_rows, also decides how
    # fields holding \r or \n are quoted.
    csv.writer(SimpleNamespace(write=lambda row: texts.append(row[:-2]))).writerows(rows)
    return texts


# ---------------------------------------------------------------------------
# Counter-based draws
#
# Draws depend only on (seed, instance, stream), and for complements on
# the feature too, never on call order, so synthesis, splits and subsets
# are reproducible and parallelizable.  Each row's key is the SplitMix64
# finalizer of the seed, stream and row index (:func:`_row_keys`); the
# finalizer and the step by an odd constant are bijections of the 64-bit
# integers, so the keys of distinct rows are distinct.  A complement
# draw mixes the feature into the key and reduces it modulo the
# complement's size, with a modulo bias over <= 64 categories of ~2^-58.
# A split or ``max_n`` subset orders the rows by their keys
# (:func:`seeded_order`) and takes a prefix.

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _row_keys(seed: int, indices, stream: int) -> np.ndarray:
    """The uint64 key of each row index under ``seed``, an integer in
    [0, 2**64), and ``stream``."""
    seed = _scalar(seed, "seed", 0, 2**64, integer=True)
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        z = np.uint64(seed) ^ _mix64(np.uint64(stream) + _GOLDEN)
        return _mix64(z + idx * _GOLDEN)


def complement_draws(seed: int, indices, j, u, avoid: np.ndarray, stream: int) -> np.ndarray:
    """Uniform draws from ``{1..u} \\ {avoid}``, keyed per (seed, i, j).  The
    arguments broadcast: (n, 1) ``indices`` with (F,) ``j`` and ``u`` draw
    all F features at once, each entry as its own (i, j) call would."""
    z = _row_keys(seed, indices, stream)
    with np.errstate(over="ignore"):
        z = _mix64(z ^ ((np.asarray(j, dtype=np.uint64) + np.uint64(1))
                        * np.uint64(0xD1B54A32D192ED03)))
    r = (z % (np.asarray(u, dtype=np.uint64) - np.uint64(1))).astype(np.int64) + 1
    return np.where(r < avoid, r, r + 1)


def seeded_order(seed: int, n: int, stream: int) -> np.ndarray:
    """The row indices ``0..n-1`` in increasing order of their keys under
    ``seed`` and ``stream``.  Row i's key depends on (seed, i, stream)
    alone, so the order of ``n`` rows is that of any larger ``n`` with
    the rows past ``n`` left out."""
    return np.argsort(_row_keys(seed, np.arange(_scalar(n, "n", 0, integer=True)), stream))


def synthesize_cf(ds: Dataset, seed: int) -> Dataset:
    """Draw observed CF values uniformly from the complement of the truth.

    Same seed gives bit-identical output regardless of evaluation order.
    The new dataset shares every array of ``ds``; only ``cf_observed``
    is new.
    """
    if ds.cf_truth is None:
        raise MissingTruthError("synthesize_cf needs cf_truth on every CF column")
    sizes = ds.schema.cf_sizes
    observed = complement_draws(seed, np.arange(ds.n)[:, None], np.arange(len(sizes)), sizes,
                                ds.cf_truth, STREAM_OBSERVE)
    return _adopted(Dataset, schema=ds.schema, of_values=ds.of_values, labels=ds.labels,
                    cf_truth=ds.cf_truth, cf_observed=observed)


def split_train_test(ds: Dataset, fraction: float, seed: int):
    """Seeded disjoint split, each side's indices in increasing order.

    The train side is the first ``floor(fraction * n)`` rows of
    ``seeded_order(seed, n, STREAM_SPLIT)`` and the test side the rest.
    """
    if ds.n < 2:
        raise DataError("need at least 2 instances to split")
    fraction = _scalar(fraction, "fraction", 0, 1, "()")
    order = seeded_order(seed, ds.n, STREAM_SPLIT)
    n_train = int(fraction * ds.n)
    return np.sort(order[:n_train]), np.sort(order[n_train:])
