"""Dataset schema, CSV ingestion, cleansing, one-hot encoding, min-max
normalization and the two train/test split regimes.

A Dataset stores its cells in one read-only float64 matrix, `values`: a
numeric cell is its value, a categorical cell is the index of its category
and a null is NaN. Cleansing, encoding, scaling and splitting are array
expressions over that matrix. A Dataset comes in as CSV text (`load_csv`),
Python cells (`Dataset(schema, rows)`, converted one at a time) or a matrix
(`dataset_from_matrix`), and goes out only as its matrix or a CSV file
(`save_csv`, which formats a column at a time). Every downstream module reads
the all-numeric, null-free matrix of `encode_one_hot` + `apply_normalize`
through `Dataset.matrix()`, which returns the stored array without a copy.

Configurations and documents (the JSON form of schemas, one-hot maps, norm
params and fitted models) are checked by one rule, `check_value`, against a
domain: a tuple of allowed values, a type, a `Range` of numbers, an `Array` of
finite numbers, `STRINGS` or `Items`. A class whose document is a table of
fields reads it with `read_fields` and writes it with `write_fields` (for
the seven config types, their base `Config` does); a check that relates one
field to another is made by the constructor. A file that cannot be read or
written is a DataError naming its path.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import numbers
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import ConfigError, DataError, FraudkitError, ModelError

Cell = float | str | None
T = TypeVar("T")

NUMERIC = "numeric"
CATEGORICAL = "categorical"


def round_half_up(x: float) -> int:
    """Round to nearest integer, .5 away from zero upward."""
    return int(math.floor(x + 0.5))


def _parser(error: type[FraudkitError]) -> Callable[[Callable[..., T]], Callable[..., T]]:
    """Decorator: `parse` (a `from_dict`) raising `error`, not a LookupError,
    TypeError, ValueError, AttributeError or OverflowError, when its document
    is not a mapping, lacks a key or holds a wrong value. Another
    `FraudkitError` raised inside it fails it with `error` too: a
    `check_value` failure (a ConfigError) on one of its fields, or a nested
    document that fails with another class (a malformed network spec inside
    a model document is a ConfigError)."""

    def decorate(parse: Callable[..., T]) -> Callable[..., T]:
        @functools.wraps(parse)
        def checked(*args):
            try:
                return parse(*args)
            except error:
                raise
            except (LookupError, TypeError, ValueError, AttributeError, OverflowError, FraudkitError) as exc:
                raise error(f"malformed document: {exc!r}") from exc

        return checked

    return decorate


document_parser = _parser(ModelError)  # documents of fitted models
config_parser = _parser(ConfigError)  # configuration documents


@dataclass(frozen=True)
class Feature:
    """One column of the schema."""

    name: str
    kind: str
    categories: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise DataError(f"feature name must be a nonempty string, got {self.name!r}")
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise DataError(f"unknown feature kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if not self.categories:
                raise DataError(f"categorical feature {self.name!r} needs >= 1 category")
            if self.categories not in STRINGS:
                raise DataError(f"categories of feature {self.name!r} must be strings")
            if len(set(self.categories)) != len(self.categories):
                raise DataError(f"duplicate categories on feature {self.name!r}")
        elif self.categories is not None:
            raise DataError(f"numeric feature {self.name!r} must not list categories")


class FeatureSchema:
    """Ordered, uniquely named feature list."""

    def __init__(self, features: Sequence[Feature]):
        features = tuple(features)
        names = [f.name for f in features]
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")
        self.features = features

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self):
        return iter(self.features)

    def __getitem__(self, i: int) -> Feature:
        return self.features[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureSchema) and self.features == other.features

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.features]

    @property
    def numeric_indices(self) -> list[int]:
        return [i for i, f in enumerate(self.features) if f.kind == NUMERIC]

    @property
    def categorical_indices(self) -> list[int]:
        return [i for i, f in enumerate(self.features) if f.kind == CATEGORICAL]

    def to_dict(self) -> dict:
        out = []
        for f in self.features:
            entry: dict = {"name": f.name, "kind": f.kind}
            if f.categories is not None:
                entry["categories"] = list(f.categories)
            out.append(entry)
        return {"format": "fraudkit.schema/1", "features": out}

    @classmethod
    @_parser(DataError)
    def from_dict(cls, doc: dict) -> "FeatureSchema":
        """Keys other than a feature's name, kind and categories (such as the
        `mutable` and `range` of older documents) are ignored. Categories are
        a list of strings; `Feature` checks the name and kind."""
        _check_format(doc, "fraudkit.schema/1")
        features = []
        for e in doc["features"]:
            categories = e.get("categories")
            if categories is not None:
                categories = tuple(check_value("categories", categories, STRINGS)) or None
            features.append(Feature(e["name"], e["kind"], categories))
        return cls(features)

    def save(self, path: str | Path) -> None:
        with _writing(Path(path)) as fh:
            fh.write(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FeatureSchema":
        """The schema `save` wrote; a missing or unreadable file, bad JSON or
        a malformed document is a DataError naming the path."""
        return read_document(path, cls.from_dict, DataError)


class Dataset:
    """Immutable table of cells plus optional binary labels (1 = fraud/positive).

    `values` is the read-only (n, d) float64 matrix of cells: a numeric
    cell is its value, a categorical cell is the index of its category in
    the feature's `categories`, and a null is NaN. `Dataset(schema, rows,
    labels)` converts Python cells (float, category token or None) once.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        rows: Iterable[Sequence[Cell]],
        labels: Sequence[int] | np.ndarray | None = None,
    ):
        cells = []
        for row in rows:
            row = tuple(row)
            if len(row) != len(schema):
                raise DataError(f"row has {len(row)} cells, schema has {len(schema)}")
            cells.append([_cell_value(f, cell) for f, cell in zip(schema.features, row)])
        self._set(schema, np.array(cells, dtype=float).reshape(len(cells), len(schema)), labels)

    def _set(self, schema: FeatureSchema, values: np.ndarray, labels) -> None:
        values.setflags(write=False)
        if labels is not None:
            labels = binary_labels(labels)  # a copy: the caller's array stays writable
            if labels.shape != (values.shape[0],):
                raise DataError("labels length must match row count")
            labels.setflags(write=False)
        self.schema = schema
        self.values = values
        self.labels: np.ndarray | None = labels

    @classmethod
    def _of(cls, schema: FeatureSchema, values: np.ndarray, labels) -> "Dataset":
        """A Dataset that takes ownership of a float matrix of cells."""
        data = cls.__new__(cls)
        data._set(schema, values, labels)
        return data

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return len(self.schema)

    def matrix(self) -> np.ndarray:
        """The stored `values` themselves, not a copy; requires an
        all-numeric, null-free, finite dataset."""
        if self.schema.categorical_indices:
            raise DataError("matrix() requires an all-numeric schema (encode first)")
        return require_finite(self.values, "matrix() cells")

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        labels = None if self.labels is None else self.labels[idx]
        return Dataset._of(self.schema, self.values[idx], labels)

    def require_labels(self) -> np.ndarray:
        if self.labels is None:
            raise DataError("operation requires labels")
        return self.labels


def _cell_value(feature: Feature, cell: Cell) -> float:
    """One Python cell of `feature` as the float that `Dataset.values` stores."""
    if cell is None:
        return math.nan
    if feature.kind == CATEGORICAL:
        if cell not in feature.categories:  # type: ignore[operator]
            raise DataError(f"unknown category {cell!r} for feature {feature.name!r}")
        return float(feature.categories.index(cell))  # type: ignore[union-attr]
    if not isinstance(cell, numbers.Real):
        raise DataError(f"feature {feature.name!r}: numeric cell required, got {cell!r}")
    return float(cell)


def numeric_schema(names: Sequence[str]) -> FeatureSchema:
    """Convenience: schema of all-numeric features."""
    return FeatureSchema([Feature(n, NUMERIC) for n in names])


def dataset_from_matrix(
    matrix: np.ndarray,
    labels: Sequence[int] | None = None,
    names: Sequence[str] | None = None,
    schema: FeatureSchema | None = None,
) -> Dataset:
    """Dataset over a copy of a float matrix; non-finite cells (NaN, inf)
    become nulls, as in `load_csv`."""
    values = np.array(matrix, dtype=float)
    if values.ndim != 2:
        raise DataError("matrix must be 2-D")
    if schema is None:
        if names is None:
            names = [f"f{i}" for i in range(values.shape[1])]
        schema = numeric_schema(names)
    if schema.categorical_indices:
        raise DataError("dataset_from_matrix requires an all-numeric schema")
    if values.shape[1] != len(schema):
        raise DataError(f"row has {values.shape[1]} cells, schema has {len(schema)}")
    values[~np.isfinite(values)] = np.nan
    return Dataset._of(schema, values, labels)


def require_finite(x: np.ndarray, what: str) -> np.ndarray:
    """`x` itself; DataError if any cell is NaN or infinite."""
    if not np.isfinite(x).all():
        raise DataError(f"{what} must be finite (found NaN or inf)")
    return x


def binary_labels(labels) -> np.ndarray:
    """A new int array of `labels`; DataError unless each is exactly 0 or 1,
    checked before the cast, which would truncate 0.5."""
    labels = np.asarray(labels)
    if not np.all((labels == 0) | (labels == 1)):
        raise DataError("labels must be 0/1")
    return labels.astype(int)


def as_matrix(rows, width: int) -> np.ndarray:
    """Rows handed to a fitted model (a Dataset, one row or a matrix) as a
    finite float matrix of the model's width."""
    if isinstance(rows, Dataset):
        rows = rows.matrix()
    x = np.asarray(rows, dtype=float)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != width:
        raise ModelError(f"expected rows of width {width}, got shape {x.shape}")
    return require_finite(x, "rows")


BLOCK = 2**17  # float64 entries (1 MB) per block of a pairwise kernel; ROADMAP's Baseline has the size sweep


def block_rows(n_other: int) -> int:
    """Rows per block when each row is paired with `n_other` rows, so that a
    block of pairs holds at most BLOCK entries (at least one row)."""
    return max(1, BLOCK // n_other)


# ---------------------------------------------------------------------------
# Configuration values and document fields

@dataclass(frozen=True)
class Range:
    """The numbers from `low` to `high`, both included unless `open_low`
    leaves `low` out: integers when `number` is int, any real number when it
    is float, never a bool."""

    number: type
    low: float
    high: float = math.inf
    open_low: bool = False

    def __contains__(self, value) -> bool:
        kind = numbers.Integral if self.number is int else numbers.Real
        if not isinstance(value, kind) or isinstance(value, bool):
            return False
        return (self.low < value if self.open_low else self.low <= value) and value <= self.high

    def __str__(self) -> str:
        what = "an integer" if self.number is int else "a real number"
        return f"{what} in {'(' if self.open_low else '['}{self.low}, {self.high}]"


SEED = Range(int, 0)
COUNT = Range(int, 1)
TOLERANCE = Range(float, 1e-12, 1.0)  # no gradient test or duality-gap certificate can meet 0
FINITE = Range(float, -float(np.finfo(float).max), float(np.finfo(float).max))  # no NaN or infinity


@dataclass(frozen=True)
class Array:
    """Arrays of finite numbers of `shape`, where -1 is any nonzero length:
    integers when `number` is int, any real numbers when it is float, never
    a bool or a string. `check_value` returns the new intp or float64 array
    it reads."""

    number: type
    shape: tuple[int, ...]

    def read(self, value) -> np.ndarray | None:
        """`value` (nested lists) as a new array, or None unless it lies in
        this domain."""
        items = [value]
        try:
            for _ in self.shape:
                items = itertools.chain.from_iterable(items)
            kinds = set(map(type, items))
            array = np.array(value, dtype=np.intp if self.number is int else float)
        except (TypeError, ValueError, OverflowError):
            return None
        number = numbers.Integral if self.number is int else numbers.Real
        typed = all(issubclass(t, number) and not issubclass(t, (bool, np.bool_)) for t in kinds)
        fits = array.ndim == len(self.shape) and all(s in (a, -1) and a > 0 for s, a in zip(self.shape, array.shape))
        return array if typed and fits and np.isfinite(array).all() else None

    def __str__(self) -> str:
        what = "integers" if self.number is int else "real numbers"
        return f"an array of finite {what} of shape {self.shape} (-1: any nonzero length)"


class _Strings:
    """Lists (or tuples) of strings: feature names and categories."""

    def __contains__(self, value) -> bool:
        return isinstance(value, (list, tuple)) and all(isinstance(s, str) for s in value)

    def __str__(self) -> str:
        return "a list of strings"


STRINGS = _Strings()


def check_value(name: str, value, domain):
    """`value`, or the new array an Array domain reads from it; ConfigError
    unless it lies in `domain`: a tuple of the allowed values, a type (`bool`,
    `dict`, a config type), a Range, an Array, STRINGS or Items. The message
    shows the value as a bounded `reprlib.repr`."""
    if isinstance(domain, Array):
        array = domain.read(value)
        if array is not None:
            return array
    elif isinstance(domain, type):
        if isinstance(value, domain):
            return value
    elif not isinstance(value, np.ndarray) and value in domain:
        return value
    what = f"a {domain.__name__}" if isinstance(domain, type) else domain
    what = f"one of {domain}" if isinstance(domain, tuple) else what
    raise ConfigError(f"{name} must be {what}, got {reprlib.repr(value)}")


def check_fields(source, domains: dict) -> None:
    """`check_value` on each field of `source` that `domains` names: a key
    of a document, which must be there, or an attribute of a config."""
    for name, domain in domains.items():
        check_value(name, source[name] if isinstance(source, Mapping) else getattr(source, name), domain)


def _check_format(doc: Mapping, tag: str) -> None:
    """ConfigError when `doc` has a `format` key naming another tag than
    `tag`; a document without one, written before the tag, passes."""
    check_value("format", doc.get("format", tag), (tag,))


def read_fields(doc: Mapping, fields: dict) -> dict:
    """The fields of `doc` that `fields` names, each read by the `from_dict`
    of its entry (the type of a nested document, or Items), by its entry when
    that is a function, else checked by `check_value` against its domain. A
    key that `doc` lacks is left out, so that a constructor given the result
    takes its default or fails for want of the argument."""
    return {key: _read(key, doc[key], domain) for key, domain in fields.items() if key in doc}


def _read(key: str, value, domain):
    if hasattr(domain, "from_dict"):
        return domain.from_dict(value)
    return domain(value) if callable(domain) and not isinstance(domain, type) else check_value(key, value, domain)


def write_fields(owner, fields) -> dict:
    """The attributes of `owner` that `fields` names, in order, as
    `read_fields` reads them back: an array as nested lists, a list or tuple
    item by item, a dict as a new dict, and an object with a `to_dict` as its
    document."""
    return {key: _plain(getattr(owner, key)) for key in fields}


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    return value.to_dict() if hasattr(value, "to_dict") else value


class Config:
    """Base of the config types, frozen dataclasses that list their fields
    once, in order, in `_FIELDS`, each mapped to its domain: a nested config's
    is its type (`Items` of it for a tuple). The constructor checks each field
    (a subclass's `__post_init__` adds the checks that relate two fields),
    `to_dict` writes them and `from_dict` reads them back; a key a document
    leaves out takes its default, and one that names no field is a
    ConfigError."""

    def __post_init__(self) -> None:
        check_fields(self, self._FIELDS)

    def to_dict(self):
        return write_fields(self, self._FIELDS)

    @classmethod
    @config_parser
    def from_dict(cls, doc):
        unknown = doc.keys() - cls._FIELDS.keys()  # an AttributeError, so a ConfigError, unless doc is a mapping
        if unknown:
            raise ConfigError(f"{cls.__name__} has no field {sorted(unknown)}")
        return cls(**read_fields(doc, cls._FIELDS))


@dataclass(frozen=True)
class Items:
    """Nonempty tuples of the config type `kind`; in a document, the list of
    their documents."""

    kind: type

    def __contains__(self, value) -> bool:
        return isinstance(value, tuple) and len(value) > 0 and all(isinstance(v, self.kind) for v in value)

    @config_parser
    def from_dict(self, docs: list) -> tuple:
        if not isinstance(docs, list) or not docs:
            raise ConfigError(f"expected a nonempty list of {self.kind.__name__} documents, got {reprlib.repr(docs)}")
        return tuple(map(self.kind.from_dict, docs))

    def __str__(self) -> str:
        return f"a nonempty tuple of {self.kind.__name__}"


def check_table(owner: str, parameters, table: dict) -> dict:
    """`parameters`; ConfigError unless it is a dict (`write_fields` copies a
    dict into a document, and would leave a mapping proxy as is) that maps
    names in `table` to values in their domains. A parameter table maps each
    name to (default, domain); a default of None is worked out by the fitter
    from other values."""
    check_value(f"{owner}: parameters", parameters, dict)
    for name, value in parameters.items():
        if name not in table:
            raise ConfigError(f"{owner}: unknown hyperparameter {name!r}")
        check_value(f"{owner}: {name}", value, table[name][1])
    return parameters


def with_defaults(parameters: Mapping, table: dict) -> dict:
    """Every parameter of `table`: its value in `parameters`, else its default."""
    return {name: parameters.get(name, default) for name, (default, _) in table.items()}


def write_document(doc: dict, path: str | Path) -> None:
    p = Path(path)
    try:
        p.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ModelError(f"cannot write {p}: {exc}") from exc


@contextlib.contextmanager
def _writing(path: Path):
    """The text file at `path`, open for writing, in a directory made if
    missing; an OSError is a DataError naming the path. `save_csv` builds
    its text inside the `with`, once the file is open: building that large
    text first reorders the large allocations and raises the peak RSS."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def read_document(path: str | Path, parse: Callable[[dict], T], error: type[FraudkitError] = ModelError) -> T:
    """`parse` of the JSON document at `path`; a missing or unreadable file,
    bad JSON or a malformed document is an `error` naming the path."""
    p = Path(path)
    try:
        return parse(json.loads(p.read_text(encoding="utf-8")))
    except (OSError, ValueError, FraudkitError) as exc:
        raise error(f"cannot load {p}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV ingestion / persistence

def _parse_cell(token: str, feature: Feature, nulls: set) -> float:
    if token in nulls:
        return math.nan
    if feature.kind == CATEGORICAL:
        return _cell_value(feature, token)
    try:
        return float(token)  # inf and nan are made null with the whole matrix
    except ValueError:
        return math.nan  # unparseable numerics are nulls, not errors


def load_csv(
    path: str | Path,
    schema: FeatureSchema,
    label_column: str | None = None,
    null_token: str | None = None,
) -> Dataset:
    """Read an RFC-4180-style CSV whose header matches the schema (+ label).

    Columns may appear in any order; extra or missing columns are errors.
    Empty cells and `null_token` parse to null; numeric cells that fail to
    parse or are not finite (inf, nan) become null; an unknown category
    token is an error (schema drift). A file that cannot be read as UTF-8
    text, or as CSV (a field longer than `csv.field_size_limit()`, say), is
    a DataError naming the path, and so is a label column named like a
    feature, which would be read as both.
    """
    if label_column in schema.names:
        raise DataError(f"label column {label_column!r} is also a feature name")
    p = Path(path)
    if not p.exists():
        raise DataError(f"file not found: {p}")
    try:
        with p.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"empty CSV: {p}") from None
            expected = set(schema.names) | ({label_column} if label_column else set())
            if set(header) != expected or len(header) != len(expected):
                raise DataError(f"header mismatch: expected {sorted(expected)}, found {header}")
            col_of = {name: header.index(name) for name in header}
            columns = [(col_of[f.name], f) for f in schema]
            nulls = {"", null_token}
            cells: list[list[float]] = []
            labels: list[int] | None = [] if label_column else None
            for lineno, record in enumerate(reader, start=2):
                if len(record) != len(header):
                    raise DataError(f"{p}:{lineno}: expected {len(header)} cells")
                cells.append([_parse_cell(record[j], f, nulls) for j, f in columns])
                if labels is not None:
                    raw = record[col_of[label_column]]  # type: ignore[index]
                    try:
                        value = float(raw)
                    except ValueError:
                        raise DataError(f"{p}:{lineno}: bad label {raw!r}") from None
                    if value not in (0.0, 1.0):
                        raise DataError(f"{p}:{lineno}: label must be 0 or 1, got {raw!r}")
                    labels.append(int(value))
    except csv.Error as exc:
        raise DataError(f"{p}:{reader.line_num}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {p}: {exc}") from exc
    values = np.array(cells, dtype=float).reshape(len(cells), len(schema))
    values[~np.isfinite(values)] = np.nan  # inf and nan tokens are nulls too
    return Dataset._of(schema, values, labels)


def _csv_field(text: str) -> str:
    """text as one CSV field: quoted, with its double quotes doubled, when it
    holds a comma, a double quote or a line break. That is `csv.writer`'s
    minimal quoting, except that a carriage return is quoted even where the
    line terminator is a newline alone, so that `csv.reader` reads it back."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_column(values: np.ndarray, feature: Feature) -> list[str]:
    """One column of cells as CSV fields: "" for a null, the category token
    (quoted by `_csv_field`), str(int) for a whole number below 1e15 in
    magnitude, else repr."""
    null = np.isnan(values)
    text = np.full(values.shape, "", dtype=object)
    if feature.kind == CATEGORICAL:
        tokens = np.array([_csv_field(c) for c in feature.categories], dtype=object)
        text[~null] = tokens[values[~null].astype(np.intp)]
        return text.tolist()
    whole = (np.abs(values) < 1e15) & (values == np.trunc(values))
    rest = ~null & ~whole
    text[whole] = list(map(str, values[whole].astype(np.int64).tolist()))
    text[rest] = list(map(repr, values[rest].tolist()))
    return text.tolist()


def save_csv(data: Dataset, path: str | Path, label_column: str = "label") -> None:
    """Write a dataset back out, a header line and then one line per row,
    each ended by a newline, with the bytes `csv.writer` would write;
    deterministic bytes for identical inputs. A label column named like a
    feature is a DataError, since `load_csv` could not read the file back."""
    if data.labels is not None and label_column in data.schema.names:
        raise DataError(f"label column {label_column!r} is also a feature name")
    columns = [_format_column(data.values[:, j], f) for j, f in enumerate(data.schema)]
    header = [_csv_field(name) for name in data.schema.names]
    if data.labels is not None:
        header.append(_csv_field(label_column))
        columns.append(list(map(str, data.labels.tolist())))
    lines = [",".join(header), *map(",".join, zip(*columns))] if columns else [""] * (data.n + 1)
    if len(columns) == 1:
        lines = [line or '""' for line in lines]  # a lone empty field, quoted so that the row is not blank
    del columns
    with _writing(Path(path)) as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


# ---------------------------------------------------------------------------
# Cleansing

def cleanse(data: Dataset, null_feature_threshold: float = 0.9) -> Dataset:
    """Deduplicate exact rows, drop null-heavy features, then drop null rows.

    Order: duplicates first (key = cells + label; null equals null and -0.0
    equals 0.0; the first of equal rows is kept), then features whose null
    fraction is >= the threshold, then any remaining row containing a null.
    No imputation is performed.
    """
    check_value("null_feature_threshold", null_feature_threshold, Range(float, 0.0, 1.0))
    key = data.values.copy() if data.labels is None else np.column_stack([data.values, data.labels])
    key += 0.0  # -0.0 becomes 0.0
    key[np.isnan(key)] = np.nan  # one bit pattern for every null
    row_bytes = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
    _, first = np.unique(row_bytes, return_index=True)  # index of the first of equal rows
    kept = np.sort(first)

    n = len(kept)
    if n == 0:
        raise DataError("cleanse produced zero rows")
    null = np.isnan(data.values)[kept]
    keep_features = np.flatnonzero(null.sum(axis=0) / n < null_feature_threshold)
    if not keep_features.size:
        raise DataError("cleanse dropped every feature")
    rows = kept[~null[:, keep_features].any(axis=1)]
    if not rows.size:
        raise DataError("cleanse produced zero rows")
    schema = FeatureSchema([data.schema[j] for j in keep_features])
    labels = None if data.labels is None else data.labels[rows]
    return Dataset._of(schema, data.values[np.ix_(rows, keep_features)], labels)


# ---------------------------------------------------------------------------
# One-hot encoding

@dataclass(frozen=True)
class OneHotMap:
    """Mapping between a mixed schema and its all-numeric encoded form."""

    source_schema: FeatureSchema
    encoded_schema: FeatureSchema
    # per source feature: (encoded start column, width); width 1 for numerics
    spans: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        spans = _spans(self.source_schema)
        if tuple(self.spans) != spans or sum(w for _, w in spans) != len(self.encoded_schema):
            raise DataError("one-hot spans must give each source feature its encoded columns, in order")

    def groups(self) -> list[list[int]]:
        """Encoded column index groups of the categorical features."""
        out = []
        for f, (start, width) in zip(self.source_schema, self.spans):
            if f.kind == CATEGORICAL:
                out.append(list(range(start, start + width)))
        return out

    def to_dict(self) -> dict:
        return {
            "format": "fraudkit.onehot/1",
            "source": self.source_schema.to_dict(),
            "encoded": self.encoded_schema.to_dict(),
            "spans": [list(s) for s in self.spans],
        }

    @classmethod
    @_parser(DataError)
    def from_dict(cls, doc: dict) -> "OneHotMap":
        _check_format(doc, "fraudkit.onehot/1")
        spans = tuple(map(tuple, check_value("spans", doc["spans"], Array(int, (-1, 2))).tolist()))
        return cls(FeatureSchema.from_dict(doc["source"]), FeatureSchema.from_dict(doc["encoded"]), spans)


def _spans(schema: FeatureSchema) -> tuple[tuple[int, int], ...]:
    """(encoded start column, width) of each feature: width 1 for a numeric
    feature, one column per category for a categorical one."""
    widths = [1 if f.kind == NUMERIC else len(f.categories) for f in schema]  # type: ignore[arg-type]
    return tuple(zip(np.cumsum([0, *widths]).tolist(), widths))


def encode_one_hot(data: Dataset) -> tuple[Dataset, OneHotMap]:
    """Expand each categorical feature into 0/1 indicator columns."""
    if np.isnan(data.values).any():
        raise DataError("encode_one_hot requires null-free data (cleanse first)")
    encoded_features: list[Feature] = []
    for f in data.schema:
        encoded_features += [f] if f.kind == NUMERIC else [Feature(f"{f.name}={c}", NUMERIC) for c in f.categories]
    spans = _spans(data.schema)
    mapping = OneHotMap(data.schema, FeatureSchema(encoded_features), spans)
    values = np.zeros((data.n, len(encoded_features)))
    for j, (f, (start, _)) in enumerate(zip(data.schema, spans)):
        if f.kind == NUMERIC:
            values[:, start] = data.values[:, j]
        else:
            values[np.arange(data.n), start + data.values[:, j].astype(np.intp)] = 1.0
    return Dataset._of(mapping.encoded_schema, values, data.labels), mapping


# ---------------------------------------------------------------------------
# Min-max normalization

@dataclass(frozen=True)
class NormParams:
    """Per-numeric-feature (min, max) observed on the fitting set."""

    bounds: tuple[tuple[str, float, float], ...]  # (feature name, min, max)

    def __post_init__(self) -> None:
        for name, low, high in self.bounds:
            if not (low <= high):
                raise DataError(f"norm bounds for {name!r}: min > max")

    def to_dict(self) -> dict:
        return {"format": "fraudkit.norm/1", **write_fields(self, ("bounds",))}

    @classmethod
    @_parser(DataError)
    def from_dict(cls, doc: dict) -> "NormParams":
        _check_format(doc, "fraudkit.norm/1")
        bounds = doc["bounds"]
        check_value("bound names", [b[0] for b in bounds], STRINGS)
        return cls(tuple((b[0], *check_value("bounds", b[1:], Array(float, (2,))).tolist()) for b in bounds))


def fit_normalize(data: Dataset) -> NormParams:
    """Each numeric feature's (min, max) over its non-null cells; of equal
    extremes (0.0 and -0.0) the first in row order is kept, as Python's
    `min` and `max` keep it."""
    bounds = []
    for j in data.schema.numeric_indices:
        col = data.values[:, j]
        col = col[~np.isnan(col)]
        if not col.size:
            raise DataError(f"feature {data.schema[j].name!r} has no numeric values to fit")
        low = col[np.argmax(col == col.min())]
        high = col[np.argmax(col == col.max())]
        bounds.append((data.schema[j].name, float(low), float(high)))
    return NormParams(tuple(bounds))


def apply_normalize(data: Dataset, params: NormParams) -> Dataset:
    """Min-max scale numeric features to [0,1]; a constant feature maps to 0.0, a null stays null."""
    by_name = {n: (lo, hi) for n, lo, hi in params.bounds}
    cols = data.schema.numeric_indices
    for j in cols:
        if data.schema[j].name not in by_name:
            raise DataError(f"normalization params lack feature {data.schema[j].name!r}")
    low, high = np.array([by_name[data.schema[j].name] for j in cols]).reshape(-1, 2).T
    const = high == low
    values = data.values.copy()
    x = values[:, cols]
    null = np.isnan(x[:, const])
    with np.errstate(divide="ignore", invalid="ignore"):
        x -= low
        x /= high - low
    x[:, const] = np.where(null, np.nan, 0.0)
    values[:, cols] = x
    return Dataset._of(data.schema, values, data.labels)


# ---------------------------------------------------------------------------
# Splits

@dataclass(frozen=True)
class SplitPair:
    train: Dataset
    test: Dataset
    seed: int


def stratified_split(data: Dataset, train_fraction: float, seed: int) -> SplitPair:
    """Hold-out split keeping per-class proportions.

    Per class, round_half_up(count * fraction) rows go to train via a seeded
    permutation; the remainder is the test side. Rows keep their original
    relative order inside each side.
    """
    labels = data.require_labels()
    check_value("train_fraction", train_fraction, Range(float, 0.0, 1.0, open_low=True))
    check_value("seed", seed, SEED)
    rng = np.random.default_rng(seed)
    in_train = np.zeros(data.n, dtype=bool)
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        if len(members) < 2:
            raise DataError(f"class {cls} has fewer than 2 rows")
        n_train = round_half_up(len(members) * train_fraction)
        in_train[members[rng.permutation(len(members))[:n_train]]] = True
    return SplitPair(data.subset(np.flatnonzero(in_train)), data.subset(np.flatnonzero(~in_train)), seed)


def occ_split(data: Dataset) -> SplitPair:
    """Train = every negative row, test = every positive row, order kept."""
    labels = data.require_labels()
    neg = np.flatnonzero(labels == 0)
    pos = np.flatnonzero(labels == 1)
    if not neg.size:
        raise DataError("no negative rows to train on")
    if not pos.size:
        raise DataError("no positive rows to test on")
    return SplitPair(data.subset(neg), data.subset(pos), 0)


def save_split(
    split: SplitPair,
    out_dir: str | Path,
    train_fraction: float | None = None,
    label_column: str = "label",
) -> None:
    """Persist a split as two CSVs plus a manifest recording seed/fraction."""
    out = Path(out_dir)
    save_csv(split.train, out / "train.csv", label_column)
    save_csv(split.test, out / "test.csv", label_column)
    manifest = {
        "format": "fraudkit.split/1",
        "seed": split.seed,
        "train_fraction": train_fraction,
        "train_rows": split.train.n,
        "test_rows": split.test.n,
    }
    with _writing(out / "split_manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
