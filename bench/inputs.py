"""Seeded benchmark inputs shaped like the ULB credit-card set.

Rows have 30 numeric features (Time, V1..V28, Amount) and a scarce positive
class. Positives are shifted on twelve of the V features and spread wider, so
the classes overlap and balanced accuracy tells models apart.

Everything here is written with numpy and the stdlib `csv` module only, never
with fraudkit, so the input bytes for a seed are the same on every commit of
the library under test.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

FEATURES = ("Time",) + tuple(f"V{i}" for i in range(1, 29)) + ("Amount",)
LABEL = "Class"
CATEGORIES = {
    "channel": ("online", "store", "atm"),
    "region": ("north", "south", "east", "west"),
}
# Positive mean shift on V1..V12, in units of the negative standard deviation.
POS_SHIFT = 1.4 * np.array([-0.8, 0.7, -0.9, 0.8, -0.6, 0.5, -0.7, 0.6, -0.5, 0.6, -0.4, 0.5])
POS_SPREAD = 1.4
NULL_RATE = 0.001  # share of cells left empty in the mixed CSV
DUPLICATE_RATE = 0.01  # share of rows repeated verbatim in the mixed CSV


def transactions(rng: np.random.Generator, n_neg: int, n_pos: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unscaled) feature matrix and 0/1 labels, rows in random order."""
    n = n_neg + n_pos
    y = np.zeros(n, dtype=np.int64)
    y[n_neg:] = 1
    v = rng.standard_normal((n, 28))
    v[n_neg:] *= POS_SPREAD
    v[n_neg:, : len(POS_SHIFT)] += POS_SHIFT
    time = rng.uniform(0.0, 172_792.0, size=n)
    amount = np.where(
        y == 1,
        rng.lognormal(3.6, 1.5, size=n),
        rng.lognormal(3.0, 1.2, size=n),
    )
    x = np.column_stack([time, v, np.round(amount, 2)])
    order = rng.permutation(n)
    return x[order], y[order]


def split_counts(n: int, pos_rate: float) -> tuple[int, int]:
    n_pos = max(2, int(round(n * pos_rate)))
    return n - n_pos, n_pos


def minmax(fit_on: np.ndarray, *others: np.ndarray) -> list[np.ndarray]:
    """Scale every matrix by the column range of `fit_on` (which lands in [0, 1])."""
    lo = fit_on.min(axis=0)
    span = fit_on.max(axis=0) - lo
    span[span == 0.0] = 1.0
    return [(m - lo) / span for m in (fit_on, *others)]


def _cell(v: float) -> str:
    return repr(float(v))


def write_numeric_csv(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FEATURES + (LABEL,))
        for row, label in zip(x.tolist(), y.tolist()):
            writer.writerow([_cell(v) for v in row] + [str(label)])


def write_mixed_csv(path: Path, rng: np.random.Generator, x: np.ndarray, y: np.ndarray) -> None:
    """Numerics plus two categoricals, a few empty cells and duplicate rows.

    Positives lean towards the `online` channel. Categorical columns come
    first, so the header order differs from the schema order.
    """
    n = len(y)
    online_p = np.where(y == 1, 0.6, 0.3)
    u = rng.uniform(size=n)
    channel = np.where(u < online_p, 0, np.where(u < online_p + 0.4, 1, 2))
    region = rng.integers(0, len(CATEGORIES["region"]), size=n)
    records = []
    for i, row in enumerate(x.tolist()):
        records.append(
            [CATEGORIES["channel"][channel[i]], CATEGORIES["region"][region[i]]]
            + [_cell(v) for v in row]
            + [str(int(y[i]))]
        )
    width = len(records[0]) - 1  # never blank the label
    blanks = rng.uniform(size=(n, width)) < NULL_RATE
    for i, j in zip(*np.nonzero(blanks)):
        records[i][j] = ""
    n_dup = int(round(n * DUPLICATE_RATE))
    sources = rng.integers(0, n, size=n_dup)
    slots = np.sort(rng.integers(0, n, size=n_dup))[::-1]
    for src, slot in zip(sources.tolist(), slots.tolist()):
        records.insert(slot, list(records[src]))
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(CATEGORIES) + list(FEATURES) + [LABEL])
        writer.writerows(records)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_array(a: np.ndarray) -> str:
    """Digest of dtype, shape and C-order bytes."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()
