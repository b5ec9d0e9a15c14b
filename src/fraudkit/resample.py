"""Training-set imbalance correction: SMOTE, ENN filtering, Tomek-link
removal, the two SMOTE composites, ADASYN, and the method dispatcher that
also routes to the GAN oversamplers.

Every neighbour-based method, and the angle-based detector in `occ`, finds
its neighbours with `knn`: exact squared Euclidean distances, ties broken
toward the lowest row index, worked out a block of rows at a time
(`data.block_rows`) so that no n x n matrix is ever held; every method is
deterministic for a fixed (data, config) pair.

SMOTE and ADASYN build each synthetic row as x_b + u * (x_nn - x_b): x_b a
minority row, x_nn one of its k nearest minority neighbours and u ~ U[0, 1).
For w synthetic rows both draw from `default_rng(seed)` in one order: SMOTE
first draws the w bases as one `integers(m, size=w)` over the m minority
rows (ADASYN takes them from its allocation instead, each minority row in
turn repeated as often as it is allotted), then the w neighbour slots as one
`integers(k, size=w)`, then the w factors as one `uniform(size=w)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import (
    COUNT, SEED, Config, Dataset, Range, block_rows, dataset_from_matrix, require_finite, round_half_up,
)
from .errors import DataError

METHODS = ("none", "smote", "smote_enn", "smote_tomek", "adasyn", "vgan", "wgan")


@dataclass(frozen=True)
class BalancerConfig(Config):
    method: str = "none"
    k_neighbors: int = 5
    target_ratio: float = 1.0
    enn_k: int = 3
    seed: int = 0

    _FIELDS = {
        "method": METHODS, "k_neighbors": COUNT, "target_ratio": Range(float, 0.0, 1.0, open_low=True), "enn_k": COUNT,
        "seed": SEED,
    }


def knn(
    a: np.ndarray, b: np.ndarray, k: int, exclude: np.ndarray | None = None, floor: float | None = None
) -> np.ndarray:
    """Indices of the k nearest rows of b for each row of a, nearest first:
    the smallest exact squared distances sum((b_j - a_i)**2), the lower
    index of b on ties. Row i of a never gets b row exclude[i], nor, given a
    floor, a row at squared distance <= floor; where the floor leaves fewer
    than k rows, the row ends in -1. DataError when k exceeds the rows not
    excluded.

    Each block of `data.block_rows(len(b))` rows of a (at most `data.BLOCK`
    pairs) is screened by |a_i|² + |b_j|² - 2 a_i·b_j, off by at most
    tol = 8 (d + 2) eps (|a_i|² + max |b|²); only rows within 2 tol of the
    k-th smallest screened value among the rows certainly eligible get
    their exact distance worked out. At k = 1 without a floor that is each
    row's least screened value (`np.fmin` skips the excluded row's NaN).
    """
    n, d = b.shape
    if k > n - (exclude is not None):
        raise DataError(f"{k} neighbours need {k + (exclude is not None)} rows, got {n}")
    require_finite(a, "rows")
    require_finite(b, "rows")
    out = np.full((a.shape[0], k), -1, dtype=np.intp)
    b_sq = np.sum(b * b, axis=1)
    b_max = b_sq.max(initial=0.0)
    step, chunk = block_rows(n), block_rows(8 * d)  # exact distances in small chunks, beside the two buffers
    # one pair of buffers serves every block: fresh 1 MB arrays per block cost more in page faults than the product
    screen_buf, kth_buf = np.empty((2, min(step, a.shape[0]), n))
    for start in range(0, a.shape[0], step):
        block = a[start : start + step]
        a_sq = np.sum(block * block, axis=1)
        screen = np.matmul(-2.0 * block, b.T, out=screen_buf[: len(block)])
        screen += b_sq
        screen += a_sq[:, None]
        if exclude is not None:
            # NaN sorts last and compares false: the row is neither counted nor screened in
            screen[np.arange(len(block)), exclude[start : start + step]] = np.nan
        tol = 8 * (d + 2) * np.finfo(float).eps * (a_sq + b_max)
        if k == 1 and floor is None:
            kth = np.fmin.reduce(screen, axis=1)
        else:
            ranked = kth_buf[: len(block)]
            np.copyto(ranked, screen)
            if floor is not None:
                np.copyto(ranked, np.inf, where=screen <= (floor + tol)[:, None])
            ranked.partition(k - 1, axis=1)
            kth = ranked[:, k - 1]
        near = screen <= (kth + 2.0 * tol)[:, None]
        if floor is not None:
            near &= screen > (floor - tol)[:, None]
        rows, cols = np.divmod(np.flatnonzero(near), n)  # 2-D nonzero took ten times as long
        dist2 = np.empty(rows.size)
        for at in range(0, rows.size, chunk):
            diffs = b[cols[at : at + chunk]] - block[rows[at : at + chunk]]
            dist2[at : at + chunk] = np.sum(diffs * diffs, axis=1)
        if floor is not None:
            kept = dist2 > floor
            rows, cols, dist2 = rows[kept], cols[kept], dist2[kept]
        # rows are in order already, so the sort ranks each row's candidates, nearest
        # first; it is stable, so equal distances stay in index order
        order = np.lexsort((dist2, rows))
        rank = np.arange(rows.size) - np.searchsorted(rows, rows)
        first = rank < k
        out[start + rows[first], rank[first]] = cols[order[first]]
    return out


def minority_rows(data: Dataset) -> tuple[np.ndarray, int]:
    """Indices and label of the minority class (label 1 on a tie)."""
    labels = data.require_labels()
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("both classes must be nonempty")
    return (pos, 1) if len(pos) <= len(neg) else (neg, 0)


def project_onehot(matrix: np.ndarray, groups: Sequence[Sequence[int]]) -> np.ndarray:
    """Snap each one-hot column group to its nearest valid indicator vector."""
    out = matrix.copy()
    for group in groups:
        cols = list(group)
        block = out[:, cols]
        winners = np.argmax(block, axis=1)
        block[:] = 0.0
        block[np.arange(block.shape[0]), winners] = 1.0
        out[:, cols] = block
    return out


def with_synthetic(
    data: Dataset,
    synth_rows,
    minority_label: int,
    onehot_groups: Sequence[Sequence[int]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and labels of `data` with synthetic minority rows appended, each
    one-hot column group of theirs snapped to a valid indicator vector."""
    synth = np.reshape(synth_rows, (-1, data.d))
    if onehot_groups:
        synth = project_onehot(synth, onehot_groups)
    labels = np.concatenate([data.require_labels(), np.full(len(synth), minority_label)])
    return np.vstack([data.matrix(), synth]), labels


def rows_wanted(data: Dataset, minority_count: int, target_ratio: float) -> int:
    """Synthetic minority rows that lift minority/majority to target_ratio
    (0 when the ratio is already met)."""
    return max(round_half_up((data.n - minority_count) * target_ratio) - minority_count, 0)


def _minority(data: Dataset, cfg: BalancerConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Feature matrix, minority indices and minority label of a dataset whose
    features lie in the unit box and whose minority exceeds k_neighbors."""
    x = data.matrix()
    if x.size and (x.min() < -1e-9 or x.max() > 1.0 + 1e-9):
        raise DataError("features must be normalized to [0, 1] before resampling")
    minority_idx, minority_label = minority_rows(data)
    if len(minority_idx) <= cfg.k_neighbors:
        raise DataError(f"minority size {len(minority_idx)} must exceed k_neighbors {cfg.k_neighbors}")
    return x, minority_idx, minority_label


def _draw(x: np.ndarray, minority_idx: np.ndarray, base: np.ndarray, k: int, rng) -> tuple:
    """(base_index, neighbor_index, u) for the local minority rows `base`:
    one neighbour slot per row from one `integers(k)` draw, then one factor
    per row from one `uniform` draw; indices are rows of x."""
    minority = x[minority_idx]
    table = knn(minority, minority, k, np.arange(len(minority_idx)))
    neighbor = table[base, rng.integers(k, size=len(base))]
    u = rng.uniform(size=len(base))
    return minority_idx[base], minority_idx[neighbor], u


def _interpolated(data: Dataset, draws: tuple, minority_label: int, onehot_groups) -> Dataset:
    """`data` with one row x_b + u * (x_nn - x_b) appended per draw."""
    x = data.matrix()
    base, neighbor, u = draws
    synth = x[base] + u[:, None] * (x[neighbor] - x[base])
    x, labels = with_synthetic(data, synth, minority_label, onehot_groups)
    return dataset_from_matrix(x, labels, schema=data.schema)


def smote_draws(data: Dataset, cfg: BalancerConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Provenance of SMOTE's synthetic rows, in order: base and neighbour row
    indices of `data` and the interpolation factor u of each."""
    x, minority_idx, _ = _minority(data, cfg)
    m = len(minority_idx)
    rng = np.random.default_rng(cfg.seed)
    base = rng.integers(m, size=rows_wanted(data, m, cfg.target_ratio))
    return _draw(x, minority_idx, base, cfg.k_neighbors, rng)


def smote(
    data: Dataset,
    cfg: BalancerConfig,
    onehot_groups: Sequence[Sequence[int]] | None = None,
) -> Dataset:
    """Append minority rows interpolated at `smote_draws` until
    minority/majority hits the target ratio."""
    draws = smote_draws(data, cfg)
    return _interpolated(data, draws, minority_rows(data)[1], onehot_groups)


def enn_filter(data: Dataset, enn_k: int = 3, majority_label: int | None = None) -> Dataset:
    """Drop majority rows whose class loses the vote of their enn_k nearest
    neighbors. Votes are computed against the original dataset and the
    removals applied atomically. Vote ties keep the row.
    """
    x = data.matrix()
    labels = data.require_labels()
    if majority_label is None:
        counts = np.bincount(labels, minlength=2)
        majority_label = 0 if counts[0] >= counts[1] else 1
    majority = np.flatnonzero(labels == majority_label)
    votes = np.sum(labels[knn(x[majority], x, enn_k, majority)] == majority_label, axis=1)
    keep = labels != majority_label
    keep[majority] = 2 * votes >= enn_k  # row's own class wins or ties the vote
    return data.subset(np.flatnonzero(keep))


def tomek_remove(data: Dataset, majority_label: int | None = None) -> Dataset:
    """Remove the majority member of every Tomek link (mutual single nearest
    neighbors of opposite class)."""
    x = data.matrix()
    labels = data.require_labels()
    if len(np.unique(labels)) < 2:
        raise DataError("both classes must be nonempty")
    if majority_label is None:
        counts = np.bincount(labels, minlength=2)
        majority_label = 0 if counts[0] >= counts[1] else 1
    a = np.arange(data.n)
    nn = knn(x, x, 1, a)[:, 0]
    link = (nn[nn] == a) & (nn > a) & (labels != labels[nn])
    keep = np.ones(data.n, dtype=bool)
    keep[np.where(labels[link] == majority_label, a[link], nn[link])] = False
    return data.subset(np.flatnonzero(keep))


def smote_enn(
    data: Dataset,
    cfg: BalancerConfig,
    onehot_groups: Sequence[Sequence[int]] | None = None,
) -> Dataset:
    """SMOTE, then ENN cleanup over the full augmented set."""
    return enn_filter(smote(data, cfg, onehot_groups), cfg.enn_k, 1 - minority_rows(data)[1])


def smote_tomek(
    data: Dataset,
    cfg: BalancerConfig,
    onehot_groups: Sequence[Sequence[int]] | None = None,
) -> Dataset:
    """SMOTE, then Tomek-link removal over the full augmented set."""
    return tomek_remove(smote(data, cfg, onehot_groups), 1 - minority_rows(data)[1])


def allocate_adaptive(r: np.ndarray | Sequence[float], total: int) -> np.ndarray:
    """Distribute `total` (at least 0) synthetic samples proportionally to
    hardness ratios, rounding half-up; uniform fallback when every ratio is zero."""
    r = np.asarray(r, dtype=float)
    total = max(total, 0)
    if r.sum() > 0:
        return np.floor(r / r.sum() * total + 0.5).astype(int)
    base, rem = divmod(total, len(r))
    alloc = np.full(len(r), base, dtype=int)
    alloc[:rem] += 1
    return alloc


def adasyn(
    data: Dataset,
    cfg: BalancerConfig,
    onehot_groups: Sequence[Sequence[int]] | None = None,
) -> Dataset:
    """Density-adaptive oversampling: minority rows with more majority-class
    neighbors receive proportionally more synthetic samples."""
    x, minority_idx, minority_label = _minority(data, cfg)
    total = round_half_up((data.n - 2 * len(minority_idx)) * cfg.target_ratio)
    # hardness ratio per minority row: majority share among its kNN over all rows
    nn = knn(x[minority_idx], x, cfg.k_neighbors, minority_idx)
    r = np.sum(data.require_labels()[nn] != minority_label, axis=1) / cfg.k_neighbors
    base = np.repeat(np.arange(len(minority_idx)), allocate_adaptive(r, total))
    draws = _draw(x, minority_idx, base, cfg.k_neighbors, np.random.default_rng(cfg.seed))
    return _interpolated(data, draws, minority_label, onehot_groups)


def balance(
    data: Dataset,
    cfg: BalancerConfig,
    onehot_groups: Sequence[Sequence[int]] | None = None,
    gan_overrides: dict | None = None,
) -> Dataset:
    """Dispatch on cfg.method; `none` returns the input unchanged."""
    if cfg.method == "none":
        return data
    if cfg.method in ("vgan", "wgan"):
        from . import augment  # GAN methods live in their own module

        return augment.oversample_gan(data, cfg, onehot_groups, overrides=gan_overrides)
    oversample = {"smote": smote, "smote_enn": smote_enn, "smote_tomek": smote_tomek, "adasyn": adasyn}
    return oversample[cfg.method](data, cfg, onehot_groups)
