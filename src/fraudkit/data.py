"""Dataset schema, CSV ingestion, cleansing, one-hot encoding, min-max
normalization and the two train/test split regimes.

A Dataset is an immutable row-major table whose cells are floats, category
tokens or None (null). All downstream modules consume the purely numeric
form produced by `encode_one_hot` + `apply_normalize`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, ModelError

Cell = float | str | None

NUMERIC = "numeric"
CATEGORICAL = "categorical"


def round_half_up(x: float) -> int:
    """Round to nearest integer, .5 away from zero upward."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Feature:
    """One column of the schema.

    `value_range` bounds are used by counterfactual generation; `mutable`
    marks whether counterfactuals may change the feature.
    """

    name: str
    kind: str
    categories: tuple[str, ...] | None = None
    mutable: bool = True
    value_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise DataError("feature name must be nonempty")
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise DataError(f"unknown feature kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if not self.categories:
                raise DataError(f"categorical feature {self.name!r} needs >= 1 category")
            if len(set(self.categories)) != len(self.categories):
                raise DataError(f"duplicate categories on feature {self.name!r}")
        elif self.categories is not None:
            raise DataError(f"numeric feature {self.name!r} must not list categories")
        if self.value_range is not None:
            low, high = self.value_range
            if not (low <= high):
                raise DataError(f"feature {self.name!r} range low > high")


class FeatureSchema:
    """Ordered, uniquely named feature list."""

    def __init__(self, features: Sequence[Feature]):
        features = tuple(features)
        names = [f.name for f in features]
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")
        self.features = features
        self._index = {f.name: i for i, f in enumerate(features)}

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

    def index(self, name: str) -> int:
        if name not in self._index:
            raise DataError(f"unknown feature {name!r}")
        return self._index[name]

    def feature(self, name: str) -> Feature:
        return self.features[self.index(name)]

    @property
    def numeric_indices(self) -> list[int]:
        return [i for i, f in enumerate(self.features) if f.kind == NUMERIC]

    @property
    def categorical_indices(self) -> list[int]:
        return [i for i, f in enumerate(self.features) if f.kind == CATEGORICAL]

    def to_dict(self) -> dict:
        out = []
        for f in self.features:
            entry: dict = {"name": f.name, "kind": f.kind, "mutable": f.mutable}
            if f.categories is not None:
                entry["categories"] = list(f.categories)
            if f.value_range is not None:
                entry["range"] = list(f.value_range)
            out.append(entry)
        return {"format": "fraudkit.schema/1", "features": out}

    @classmethod
    def from_dict(cls, doc: dict) -> "FeatureSchema":
        try:
            raw = doc["features"]
        except (TypeError, KeyError) as exc:
            raise DataError("schema document lacks a 'features' list") from exc
        feats = []
        for entry in raw:
            feats.append(
                Feature(
                    name=entry["name"],
                    kind=entry["kind"],
                    categories=tuple(entry["categories"]) if entry.get("categories") else None,
                    mutable=bool(entry.get("mutable", True)),
                    value_range=tuple(entry["range"]) if entry.get("range") else None,
                )
            )
        return cls(feats)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "FeatureSchema":
        p = Path(path)
        if not p.exists():
            raise DataError(f"schema file not found: {p}")
        return cls.from_dict(json.loads(p.read_text(encoding="utf-8")))


class Dataset:
    """Immutable rows + optional binary labels (1 = fraud/positive)."""

    def __init__(
        self,
        schema: FeatureSchema,
        rows: Iterable[Sequence[Cell]],
        labels: Sequence[int] | np.ndarray | None = None,
    ):
        self.schema = schema
        self.rows: tuple[tuple[Cell, ...], ...] = tuple(tuple(r) for r in rows)
        d = len(schema)
        for r in self.rows:
            if len(r) != d:
                raise DataError(f"row has {len(r)} cells, schema has {d}")
        if labels is not None:
            labels = np.asarray(labels, dtype=int)
            if labels.shape != (len(self.rows),):
                raise DataError("labels length must match row count")
            if not np.all((labels == 0) | (labels == 1)):
                raise DataError("labels must be 0/1")
            labels.setflags(write=False)
        self.labels: np.ndarray | None = labels

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def d(self) -> int:
        return len(self.schema)

    def matrix(self) -> np.ndarray:
        """Float matrix view; requires an all-numeric, null-free, finite dataset."""
        if self.schema.categorical_indices:
            raise DataError("matrix() requires an all-numeric schema (encode first)")
        try:
            m = np.array(self.rows, dtype=float).reshape(self.n, self.d)
        except (TypeError, ValueError) as exc:
            raise DataError("matrix() requires null-free numeric cells") from exc
        # nulls become NaN in the conversion
        return require_finite(m, "matrix() cells")

    def subset(self, indices: Sequence[int]) -> "Dataset":
        rows = [self.rows[i] for i in indices]
        labels = None if self.labels is None else self.labels[list(indices)]
        return Dataset(self.schema, rows, labels)

    def require_labels(self) -> np.ndarray:
        if self.labels is None:
            raise DataError("operation requires labels")
        return self.labels


def numeric_schema(names: Sequence[str], value_range: tuple[float, float] | None = None) -> FeatureSchema:
    """Convenience: schema of all-numeric mutable features."""
    return FeatureSchema([Feature(n, NUMERIC, value_range=value_range) for n in names])


def dataset_from_matrix(
    matrix: np.ndarray,
    labels: Sequence[int] | None = None,
    names: Sequence[str] | None = None,
    schema: FeatureSchema | None = None,
) -> Dataset:
    """Dataset of a float matrix; non-finite cells (NaN, inf) become nulls,
    as in `load_csv`."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise DataError("matrix must be 2-D")
    if schema is None:
        if names is None:
            names = [f"f{i}" for i in range(matrix.shape[1])]
        schema = numeric_schema(names)
    rows = matrix.tolist()
    if not np.isfinite(matrix).all():
        rows = [[v if math.isfinite(v) else None for v in row] for row in rows]
    return Dataset(schema, rows, labels)


def require_finite(x: np.ndarray, what: str) -> np.ndarray:
    """`x` itself; DataError if any cell is NaN or infinite."""
    if not np.isfinite(x).all():
        raise DataError(f"{what} must be finite (found NaN or inf)")
    return x


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


# ---------------------------------------------------------------------------
# CSV ingestion / persistence

def _parse_cell(token: str, feature: Feature, null_token: str | None) -> Cell:
    if token == "" or (null_token is not None and token == null_token):
        return None
    if feature.kind == NUMERIC:
        try:
            value = float(token)
        except ValueError:
            return None  # unparseable numerics are nulls, not errors
        return value if math.isfinite(value) else None
    if token not in feature.categories:  # type: ignore[operator]
        raise DataError(f"unknown category {token!r} for feature {feature.name!r}")
    return token


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
    token is an error (schema drift).
    """
    p = Path(path)
    if not p.exists():
        raise DataError(f"file not found: {p}")
    with p.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty CSV: {p}") from None
        expected = set(schema.names) | ({label_column} if label_column else set())
        if set(header) != expected or len(header) != len(expected):
            raise DataError(
                f"header mismatch: expected {sorted(expected)}, found {header}"
            )
        col_of = {name: header.index(name) for name in header}
        rows: list[tuple[Cell, ...]] = []
        labels: list[int] | None = [] if label_column else None
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise DataError(f"{p}:{lineno}: expected {len(header)} cells")
            rows.append(
                tuple(
                    _parse_cell(record[col_of[f.name]], f, null_token)
                    for f in schema
                )
            )
            if labels is not None:
                raw = record[col_of[label_column]]  # type: ignore[index]
                try:
                    value = float(raw)
                except ValueError:
                    raise DataError(f"{p}:{lineno}: bad label {raw!r}") from None
                if value not in (0.0, 1.0):
                    raise DataError(f"{p}:{lineno}: label must be 0 or 1, got {raw!r}")
                labels.append(int(value))
    return Dataset(schema, rows, labels)


def _format_cell(cell: Cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, str):
        return cell
    if isinstance(cell, float) and cell == int(cell) and abs(cell) < 1e15:
        return str(int(cell))
    return repr(float(cell))


def save_csv(data: Dataset, path: str | Path, label_column: str = "label") -> None:
    """Write a dataset back out; deterministic bytes for identical inputs."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(data.schema.names)
        if data.labels is not None:
            header.append(label_column)
        writer.writerow(header)
        for i, row in enumerate(data.rows):
            record = [_format_cell(c) for c in row]
            if data.labels is not None:
                record.append(str(int(data.labels[i])))
            writer.writerow(record)


# ---------------------------------------------------------------------------
# Cleansing

def cleanse(data: Dataset, null_feature_threshold: float = 0.9) -> Dataset:
    """Deduplicate exact rows, drop null-heavy features, then drop null rows.

    Order: duplicates first (key = cells + label), then features whose null
    fraction is >= the threshold, then any remaining row containing a null.
    No imputation is performed.
    """
    if not 0.0 <= null_feature_threshold <= 1.0:
        raise DataError("null_feature_threshold must lie in [0, 1]")
    seen: set = set()
    kept: list[int] = []
    for i, row in enumerate(data.rows):
        key = (row, None if data.labels is None else int(data.labels[i]))
        if key not in seen:
            seen.add(key)
            kept.append(i)
    rows = [data.rows[i] for i in kept]
    labels = None if data.labels is None else data.labels[kept]

    n = len(rows)
    if n == 0:
        raise DataError("cleanse produced zero rows")
    keep_features = []
    for j, feature in enumerate(data.schema):
        nulls = sum(1 for r in rows if r[j] is None)
        if nulls / n < null_feature_threshold:
            keep_features.append(j)
    if not keep_features:
        raise DataError("cleanse dropped every feature")
    schema = FeatureSchema([data.schema[j] for j in keep_features])

    final_rows = []
    final_idx = []
    for i, r in enumerate(rows):
        cells = tuple(r[j] for j in keep_features)
        if any(c is None for c in cells):
            continue
        final_rows.append(cells)
        final_idx.append(i)
    if not final_rows:
        raise DataError("cleanse produced zero rows")
    final_labels = None if labels is None else labels[final_idx]
    return Dataset(schema, final_rows, final_labels)


# ---------------------------------------------------------------------------
# One-hot encoding

@dataclass(frozen=True)
class OneHotMap:
    """Mapping between a mixed schema and its all-numeric encoded form."""

    source_schema: FeatureSchema
    encoded_schema: FeatureSchema
    # per source feature: (encoded start column, width); width 1 for numerics
    spans: tuple[tuple[int, int], ...]

    def groups(self) -> list[list[int]]:
        """Encoded column index groups of the categorical features."""
        out = []
        for f, (start, width) in zip(self.source_schema, self.spans):
            if f.kind == CATEGORICAL:
                out.append(list(range(start, start + width)))
        return out

    def encode_row(self, row: Sequence[Cell]) -> list[float]:
        if len(row) != len(self.source_schema):
            raise DataError("row width does not match source schema")
        out: list[float] = []
        for f, cell, (_, width) in zip(self.source_schema, row, self.spans):
            if f.kind == NUMERIC:
                if not isinstance(cell, (int, float)) or cell is None:
                    raise DataError(f"feature {f.name!r}: numeric cell required")
                out.append(float(cell))
            else:
                if cell not in f.categories:  # type: ignore[operator]
                    raise DataError(f"unknown category {cell!r} for {f.name!r}")
                onehot = [0.0] * width
                onehot[f.categories.index(cell)] = 1.0  # type: ignore[union-attr]
                out.extend(onehot)
        return out

    def decode_row(self, encoded: Sequence[float]) -> list[Cell]:
        if len(encoded) != len(self.encoded_schema):
            raise DataError("row width does not match encoded schema")
        out: list[Cell] = []
        for f, (start, width) in zip(self.source_schema, self.spans):
            if f.kind == NUMERIC:
                out.append(float(encoded[start]))
            else:
                block = list(encoded[start : start + width])
                out.append(f.categories[int(np.argmax(block))])  # type: ignore[index]
        return out

    def to_dict(self) -> dict:
        return {
            "format": "fraudkit.onehot/1",
            "source": self.source_schema.to_dict(),
            "encoded": self.encoded_schema.to_dict(),
            "spans": [list(s) for s in self.spans],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "OneHotMap":
        return cls(
            FeatureSchema.from_dict(doc["source"]),
            FeatureSchema.from_dict(doc["encoded"]),
            tuple((int(a), int(b)) for a, b in doc["spans"]),
        )


def encode_one_hot(data: Dataset) -> tuple[Dataset, OneHotMap]:
    """Expand each categorical feature into 0/1 indicator columns."""
    encoded_features: list[Feature] = []
    spans: list[tuple[int, int]] = []
    col = 0
    for f in data.schema:
        if f.kind == NUMERIC:
            encoded_features.append(f)
            spans.append((col, 1))
            col += 1
        else:
            for cat in f.categories:  # type: ignore[union-attr]
                encoded_features.append(
                    Feature(f"{f.name}={cat}", NUMERIC, mutable=f.mutable, value_range=(0.0, 1.0))
                )
            spans.append((col, len(f.categories)))  # type: ignore[arg-type]
            col += len(f.categories)  # type: ignore[arg-type]
    mapping = OneHotMap(data.schema, FeatureSchema(encoded_features), tuple(spans))
    rows = []
    for row in data.rows:
        if any(c is None for c in row):
            raise DataError("encode_one_hot requires null-free data (cleanse first)")
        rows.append(tuple(mapping.encode_row(row)))
    return Dataset(mapping.encoded_schema, rows, data.labels), mapping


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
        return {
            "format": "fraudkit.norm/1",
            "bounds": [[n, lo, hi] for n, lo, hi in self.bounds],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NormParams":
        return cls(tuple((str(n), float(lo), float(hi)) for n, lo, hi in doc["bounds"]))


def fit_normalize(data: Dataset) -> NormParams:
    bounds = []
    for j in data.schema.numeric_indices:
        values = [r[j] for r in data.rows if r[j] is not None]
        if not values:
            raise DataError(f"feature {data.schema[j].name!r} has no numeric values to fit")
        bounds.append((data.schema[j].name, float(min(values)), float(max(values))))
    return NormParams(tuple(bounds))


def _norm_lookup(data: Dataset, params: NormParams) -> dict[int, tuple[float, float]]:
    by_name = {n: (lo, hi) for n, lo, hi in params.bounds}
    lookup = {}
    for j in data.schema.numeric_indices:
        name = data.schema[j].name
        if name not in by_name:
            raise DataError(f"normalization params lack feature {name!r}")
        lookup[j] = by_name[name]
    return lookup


def apply_normalize(data: Dataset, params: NormParams) -> Dataset:
    """Min-max scale numeric features to [0,1]; constant features map to 0.0."""
    lookup = _norm_lookup(data, params)
    rows = []
    for row in data.rows:
        cells = list(row)
        for j, (lo, hi) in lookup.items():
            if cells[j] is None:
                continue
            cells[j] = 0.0 if hi == lo else (float(cells[j]) - lo) / (hi - lo)
        rows.append(tuple(cells))
    return Dataset(data.schema, rows, data.labels)


def invert_normalize(data: Dataset, params: NormParams) -> Dataset:
    lookup = _norm_lookup(data, params)
    rows = []
    for row in data.rows:
        cells = list(row)
        for j, (lo, hi) in lookup.items():
            if cells[j] is None:
                continue
            cells[j] = lo if hi == lo else float(cells[j]) * (hi - lo) + lo
        rows.append(tuple(cells))
    return Dataset(data.schema, rows, data.labels)


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
    if not 0.0 < train_fraction <= 1.0:
        raise DataError("train_fraction must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        if len(members) < 2:
            raise DataError(f"class {cls} has fewer than 2 rows")
        n_train = round_half_up(len(members) * train_fraction)
        perm = rng.permutation(len(members))
        train_idx.extend(int(members[k]) for k in perm[:n_train])
    train_set = set(train_idx)
    train_sorted = sorted(train_set)
    test_sorted = [i for i in range(data.n) if i not in train_set]
    return SplitPair(data.subset(train_sorted), data.subset(test_sorted), seed)


def occ_split(data: Dataset) -> SplitPair:
    """Train = every negative row, test = every positive row, order kept."""
    labels = data.require_labels()
    neg = [i for i in range(data.n) if labels[i] == 0]
    pos = [i for i in range(data.n) if labels[i] == 1]
    if not neg:
        raise DataError("no negative rows to train on")
    if not pos:
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
    out.mkdir(parents=True, exist_ok=True)
    save_csv(split.train, out / "train.csv", label_column)
    save_csv(split.test, out / "test.csv", label_column)
    manifest = {
        "format": "fraudkit.split/1",
        "seed": split.seed,
        "train_fraction": train_fraction,
        "train_rows": split.train.n,
        "test_rows": split.test.n,
    }
    (out / "split_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
