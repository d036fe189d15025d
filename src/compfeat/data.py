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

CSVs are read and written a column at a time.  A malformed CSV raises a
typed error that names the first bad row and its column.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DataError,
    MissingColumnError,
    MissingTruthError,
    ParseError,
    UnknownCategoryError,
)

KINDS = ("quantitative", "binary", "categorical")
ROLES = ("OF", "CF", "label")

# Stream tags keep independent counter-based draws from colliding.
STREAM_OBSERVE = 0  # synthesize_cf
STREAM_GUESS = 1    # baseline hard estimates


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


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """Column-typed table with optional hidden CF ground truth.

    ``of_values`` holds one array per OF column in schema order: float64
    for quantitative columns, 1-based int64 codes otherwise.
    ``cf_observed`` / ``cf_truth`` are (n, F_c) code arrays; either may
    be None.  All arrays are frozen after construction.
    """

    schema: FeatureSchema
    of_values: tuple[np.ndarray, ...]
    labels: np.ndarray
    cf_truth: np.ndarray | None = None
    cf_observed: np.ndarray | None = None

    def __post_init__(self):
        self.schema.validate_complete()
        object.__setattr__(self, "of_values", tuple(_freeze(a) for a in self.of_values))
        object.__setattr__(self, "labels", _freeze(np.asarray(self.labels, dtype=np.int64)))
        n = self.labels.shape[0]
        for arr, col in zip(self.of_values, self.schema.of_columns, strict=True):
            if arr.shape != (n,):
                raise DataError(f"column {col.name!r} has {arr.shape[0]} rows, expected {n}")
            if col.kind != "quantitative":
                _check_codes(arr, col)
        lab = self.schema.label_column
        _check_codes(self.labels, lab)
        f_c = len(self.schema.cf_columns)
        for attr in ("cf_truth", "cf_observed"):
            val = getattr(self, attr)
            if val is None:
                continue
            val = _freeze(np.asarray(val, dtype=np.int64))
            if val.shape != (n, f_c):
                raise DataError(f"{attr} has shape {val.shape}, expected {(n, f_c)}")
            for j, col in enumerate(self.schema.cf_columns):
                _check_codes(val[:, j], col)
            object.__setattr__(self, attr, val)
        if self.cf_truth is not None and self.cf_observed is not None:
            if np.any(self.cf_truth == self.cf_observed):
                raise DataError("cf_observed may never equal cf_truth")

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            schema=self.schema,
            of_values=tuple(a[idx] for a in self.of_values),
            labels=self.labels[idx],
            cf_truth=None if self.cf_truth is None else self.cf_truth[idx],
            cf_observed=None if self.cf_observed is None else self.cf_observed[idx],
        )


def _check_codes(arr: np.ndarray, col: Column):
    if arr.size and (arr.min() < 1 or arr.max() > col.size):
        raise DataError(f"codes out of range 1..{col.size} in column {col.name!r}")


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
    return FeatureSchema(tuple(_read_columns(_read_lines(path))))


def _read_columns(lines) -> list[Column]:
    columns = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"schema line {lineno}: missing '='", row=lineno)
        name, rest = line.split("=", 1)
        parts = rest.strip().split(None, 2)
        if len(parts) < 2:
            raise ParseError(f"schema line {lineno}: need '<kind> <role>'", row=lineno)
        kind, role = parts[0], parts[1]
        vocab = tuple(parts[2].split("|")) if len(parts) == 3 else ()
        columns.append(Column(name.strip(), kind, role, vocab))
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

    Malformed input raises a typed error carrying the first bad row
    (0-based among the data rows, header and blank lines excluded) and
    its column: :class:`ParseError` for a row too short to hold every
    schema column or a quantitative cell that is not a finite number,
    and for a record that ``csv.reader`` rejects, such as one holding a
    cell over its field size limit (no column; in the header, no row),
    :class:`UnknownCategoryError` for a value outside a declared
    vocabulary.  Columns are checked in schema order.  A file that is not
    UTF-8 raises :class:`DataError` naming it.
    """
    reader = csv.reader(_read_lines(path, newline=""))
    header, rows = None, []
    try:
        header = next(reader)
        for row in reader:
            if row:
                rows.append(row)
    except StopIteration:
        raise ParseError("empty file: header row required") from None
    except csv.Error as exc:
        if header is None:
            raise ParseError(f"header (line {reader.line_num}): {exc}") from None
        raise ParseError(f"row {len(rows)} (line {reader.line_num}): {exc}",
                         row=len(rows)) from None

    for col in schema.columns:
        if col.name not in header:
            raise MissingColumnError(f"column {col.name!r} missing from CSV header")
    positions = [header.index(c.name) for c in schema.columns]
    width = max(positions) + 1
    if rows and min(map(len, rows)) < width:
        i = next(i for i, row in enumerate(rows) if len(row) < width)
        name = next(c.name for c, pos in zip(schema.columns, positions) if pos >= len(rows[i]))
        raise ParseError(f"row {i}: too few cells", row=i, column=name)
    cells = {c.name: [row[pos] for row in rows] for c, pos in zip(schema.columns, positions)}

    # Infer vocabularies left open by the schema (sorted for determinism).
    schema = FeatureSchema(tuple(
        c if c.kind == "quantitative" or c.vocabulary
        else replace(c, vocabulary=tuple(sorted(set(cells[c.name]))))
        for c in schema.columns))
    schema.validate_complete()
    values = {c.name: _convert(cells[c.name], c) for c in schema.columns}
    cf = [values[c.name] for c in schema.cf_columns]
    return Dataset(schema=schema, of_values=tuple(values[c.name] for c in schema.of_columns),
                   labels=values[schema.label_column.name],
                   cf_truth=np.column_stack(cf) if cf else np.zeros((len(rows), 0), dtype=np.int64))


def _convert(cells: list[str], col: Column) -> np.ndarray:
    """One column as float64 values or 1-based int64 codes; a failure scans for its row."""
    if col.kind != "quantitative":
        lookup = {v: i + 1 for i, v in enumerate(col.vocabulary)}
        try:
            return np.array([lookup[v] for v in cells], dtype=np.int64)
        except KeyError:
            i = next(i for i, v in enumerate(cells) if v not in lookup)
            raise UnknownCategoryError(
                f"row {i}: value {cells[i]!r} not in vocabulary of column {col.name!r}",
                row=i, column=col.name,
            ) from None
    try:
        values = np.array([float(v) for v in cells], dtype=np.float64)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    for i, v in enumerate(cells):
        try:
            if np.isfinite(float(v)):
                continue
        except ValueError:
            pass
        raise ParseError(f"row {i}: {v!r} is not a finite number in column {col.name!r}",
                         row=i, column=col.name)


def write_csv(ds: Dataset, path, observed_columns: bool = False):
    """Write the dataset back to CSV in schema column order.

    CF cells hold the ground-truth values, so ``load_csv`` on the output
    reproduces the dataset.  With ``observed_columns=True`` an extra
    ``<name>__observed`` column per CF is appended.
    """
    schema = ds.schema
    cf_cols = schema.cf_columns
    if observed_columns and ds.cf_observed is None:
        raise MissingTruthError("no observed CF values to write")
    if cf_cols and ds.cf_truth is None:
        raise MissingTruthError("dataset has no CF ground truth to write")

    arrays = dict(zip((c.name for c in schema.of_columns), ds.of_values))
    arrays[schema.label_column.name] = ds.labels
    arrays.update((c.name, ds.cf_truth[:, j]) for j, c in enumerate(cf_cols))
    header = [c.name for c in schema.columns]
    columns = [_cell_text(arrays[c.name], c) for c in schema.columns]
    if observed_columns:
        header += [f"{c.name}__observed" for c in cf_cols]
        columns += [_cell_text(ds.cf_observed[:, j], c) for j, c in enumerate(cf_cols)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def _cell_text(arr: np.ndarray, col: Column) -> list[str]:
    if col.kind == "quantitative":
        return [repr(v) for v in np.asarray(arr, dtype=np.float64).tolist()]
    return [col.vocabulary[code - 1] for code in np.asarray(arr, dtype=np.int64).tolist()]


# ---------------------------------------------------------------------------
# Counter-based complement draws
#
# Draws depend only on (seed, instance, feature, stream), never on call
# order, so synthesis is reproducible and parallelizable.  The mixer is
# the SplitMix64 finalizer; modulo bias over <= 64 categories is ~2^-58.

_M = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def complement_draws(seed: int, indices: np.ndarray, j: int, u: int,
                     avoid: np.ndarray, stream: int) -> np.ndarray:
    """Uniform draws from ``{1..u} \\ {avoid[i]}``, keyed per (seed, i, j)."""
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ _mix64(np.uint64(stream) + _GOLDEN)
        z = _mix64(z + idx * _GOLDEN)
        z = _mix64(z ^ ((np.uint64(j) + np.uint64(1)) * np.uint64(0xD1B54A32D192ED03)))
    r = (z % np.uint64(u - 1)).astype(np.int64) + 1
    return np.where(r < avoid, r, r + 1)


def synthesize_cf(ds: Dataset, seed: int) -> Dataset:
    """Draw observed CF values uniformly from the complement of the truth.

    Same seed gives bit-identical output regardless of evaluation order.
    """
    if ds.cf_truth is None:
        raise MissingTruthError("synthesize_cf needs cf_truth on every CF column")
    idx = np.arange(ds.n)
    observed = np.empty_like(ds.cf_truth)
    for j, col in enumerate(ds.schema.cf_columns):
        observed[:, j] = complement_draws(
            seed, idx, j, col.size, ds.cf_truth[:, j], STREAM_OBSERVE
        )
    return Dataset(
        schema=ds.schema,
        of_values=ds.of_values,
        labels=ds.labels,
        cf_truth=ds.cf_truth,
        cf_observed=observed,
    )


def split_train_test(ds: Dataset, fraction: float, seed: int):
    """Seeded disjoint split; the train side gets ``floor(fraction * n)``."""
    if ds.n < 2:
        raise DataError("need at least 2 instances to split")
    if not 0.0 < fraction < 1.0:
        raise DataError("fraction must lie in (0, 1)")
    perm = np.random.default_rng(seed).permutation(ds.n)
    n_train = int(fraction * ds.n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])
