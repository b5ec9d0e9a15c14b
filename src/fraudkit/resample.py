"""Training-set imbalance correction: SMOTE, ENN filtering, Tomek-link
removal, the two SMOTE composites, ADASYN, and the method dispatcher that
also routes to the GAN oversamplers.

Every neighbour-based method finds its neighbours with `knn`: Euclidean
distances over the (normalized) feature matrix, computed a block of rows at
a time so that no n x n matrix is ever held, with ties broken toward the
lowest row index, so every method is deterministic for a fixed
(data, config) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, dataset_from_matrix, round_half_up
from .errors import ConfigError, DataError

METHODS = ("none", "smote", "smote_enn", "smote_tomek", "adasyn", "vgan", "wgan")
SMOTE_FAMILY = ("smote", "smote_enn", "smote_tomek", "adasyn")


@dataclass(frozen=True)
class BalancerConfig:
    method: str = "none"
    k_neighbors: int = 5
    target_ratio: float = 1.0
    enn_k: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"unknown balancing method {self.method!r}")
        if self.k_neighbors < 1:
            raise ConfigError("k_neighbors must be positive")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ConfigError("target_ratio must lie in (0, 1]")
        if self.enn_k < 1:
            raise ConfigError("enn_k must be positive")

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "k_neighbors": self.k_neighbors,
            "target_ratio": self.target_ratio,
            "enn_k": self.enn_k,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BalancerConfig":
        known = {"method", "k_neighbors", "target_ratio", "enn_k", "seed"}
        extra = set(doc) - known
        if extra:
            raise ConfigError(f"unknown balancer fields {sorted(extra)}")
        return cls(**doc)


@dataclass(frozen=True)
class SmoteDraw:
    """Provenance of one synthetic row: endpoints and interpolation factor."""

    base_index: int
    neighbor_index: int
    u: float


_CHUNK = 1024  # rows of `a` per distance block in `knn`


def knn(a: np.ndarray, b: np.ndarray, k: int, exclude: np.ndarray) -> np.ndarray:
    """Indices of the k nearest rows of b for each row of a, nearest first.

    Row i of a never gets back b row exclude[i]. Distances are Euclidean, so
    ties (sqrt can make distinct squared distances equal) go to the lower
    index. Distances are worked out for _CHUNK rows of a at a time: memory is
    O(_CHUNK * len(b)), never len(a) * len(b).
    """
    if k > b.shape[0] - 1:
        raise DataError(f"{k} neighbours need more than {k} rows, got {b.shape[0]}")
    out = np.empty((a.shape[0], k), dtype=np.intp)
    b_sq = np.sum(b * b, axis=1)
    for start in range(0, a.shape[0], _CHUNK):
        block = a[start : start + _CHUNK]
        rows = np.arange(block.shape[0])
        d = np.sum(block * block, axis=1)[:, None] + b_sq[None, :]
        # doubling the factor, not the product: `block @ b.T` of a view of b
        # may take a different BLAS routine with different rounding
        d -= (2.0 * block) @ b.T
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        d[rows, exclude[start : start + _CHUNK]] = np.inf
        for j in range(k):
            nearest = np.argmin(d, axis=1)  # first minimum: the lowest index
            out[start + rows, j] = nearest
            d[rows, nearest] = np.inf
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


def _check_unit_box(x: np.ndarray) -> None:
    if x.size and (x.min() < -1e-9 or x.max() > 1.0 + 1e-9):
        raise DataError("features must be normalized to [0, 1] before resampling")


def smote(
    data: Dataset,
    cfg: BalancerConfig,
    onehot_groups: Sequence[Sequence[int]] | None = None,
    with_provenance: bool = False,
):
    """Append interpolated minority rows until minority/majority hits the
    target ratio. Each synthetic row is x_i + u * (x_nn - x_i) with u ~ U[0,1]
    and x_nn one of the k nearest minority neighbors of a random minority row.
    """
    x = data.matrix()
    _check_unit_box(x)
    minority_idx, minority_label = minority_rows(data)
    majority_count = data.n - len(minority_idx)
    if len(minority_idx) <= cfg.k_neighbors:
        raise DataError(
            f"minority size {len(minority_idx)} must exceed k_neighbors {cfg.k_neighbors}"
        )

    wanted = round_half_up(majority_count * cfg.target_ratio) - len(minority_idx)
    minority = x[minority_idx]
    neighbor_table = knn(minority, minority, cfg.k_neighbors, np.arange(len(minority_idx)))

    rng = np.random.default_rng(cfg.seed)
    synth_rows = []
    draws: list[SmoteDraw] = []
    for _ in range(max(wanted, 0)):
        i = int(rng.integers(len(minority_idx)))
        nn_local = int(neighbor_table[i][int(rng.integers(cfg.k_neighbors))])
        u = float(rng.uniform())
        row = minority[i] + u * (minority[nn_local] - minority[i])
        synth_rows.append(row)
        draws.append(SmoteDraw(int(minority_idx[i]), int(minority_idx[nn_local]), u))

    x, labels = with_synthetic(data, synth_rows, minority_label, onehot_groups)
    out = dataset_from_matrix(x, labels, schema=data.schema)
    if with_provenance:
        return out, draws
    return out


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
    majority_label = 1 - minority_rows(data)[1]
    grown = smote(data, cfg, onehot_groups)
    return enn_filter(grown, cfg.enn_k, majority_label=majority_label)


def smote_tomek(
    data: Dataset,
    cfg: BalancerConfig,
    onehot_groups: Sequence[Sequence[int]] | None = None,
) -> Dataset:
    """SMOTE, then Tomek-link removal over the full augmented set."""
    majority_label = 1 - minority_rows(data)[1]
    grown = smote(data, cfg, onehot_groups)
    return tomek_remove(grown, majority_label=majority_label)


def allocate_adaptive(r: np.ndarray | Sequence[float], total: int) -> np.ndarray:
    """Distribute `total` synthetic samples proportionally to hardness ratios,
    rounding half-up; uniform fallback when every ratio is zero."""
    r = np.asarray(r, dtype=float)
    if r.sum() > 0:
        weights = r / r.sum()
        return np.array([round_half_up(w * total) for w in weights], dtype=int)
    base, rem = divmod(max(total, 0), len(r))
    alloc = np.full(len(r), base, dtype=int)
    alloc[:rem] += 1
    return alloc


def _adasyn_plan(data: Dataset, cfg: BalancerConfig):
    """(minority global indices, minority matrix, per-row sample counts)."""
    x = data.matrix()
    labels = data.require_labels()
    minority_idx, minority_label = minority_rows(data)
    majority_label = 1 - minority_label
    if len(minority_idx) <= cfg.k_neighbors:
        raise DataError(
            f"minority size {len(minority_idx)} must exceed k_neighbors {cfg.k_neighbors}"
        )
    majority_count = data.n - len(minority_idx)
    total = round_half_up((majority_count - len(minority_idx)) * cfg.target_ratio)
    minority = x[minority_idx]

    # hardness ratio per minority row: majority share among its kNN over all rows
    nn = knn(minority, x, cfg.k_neighbors, minority_idx)
    r = np.sum(labels[nn] == majority_label, axis=1) / cfg.k_neighbors

    return minority_idx, minority, minority_label, allocate_adaptive(r, total)


def adasyn(
    data: Dataset,
    cfg: BalancerConfig,
    onehot_groups: Sequence[Sequence[int]] | None = None,
) -> Dataset:
    """Density-adaptive oversampling: minority rows with more majority-class
    neighbors receive proportionally more synthetic samples.
    """
    _check_unit_box(data.matrix())
    minority_idx, minority, minority_label, alloc = _adasyn_plan(data, cfg)

    neighbor_table = knn(minority, minority, cfg.k_neighbors, np.arange(len(minority_idx)))
    rng = np.random.default_rng(cfg.seed)
    synth_rows = []
    for local, count in enumerate(alloc):
        for _ in range(int(count)):
            nn_local = int(neighbor_table[local][int(rng.integers(cfg.k_neighbors))])
            u = float(rng.uniform())
            synth_rows.append(minority[local] + u * (minority[nn_local] - minority[local]))

    x, labels = with_synthetic(data, synth_rows, minority_label, onehot_groups)
    return dataset_from_matrix(x, labels, schema=data.schema)


def adasyn_allocation(data: Dataset, cfg: BalancerConfig) -> np.ndarray:
    """Per-minority-row synthetic sample counts (exposed for verification)."""
    return _adasyn_plan(data, cfg)[3]


def balance(
    data: Dataset,
    cfg: BalancerConfig,
    onehot_groups: Sequence[Sequence[int]] | None = None,
    gan_overrides: dict | None = None,
) -> Dataset:
    """Dispatch on cfg.method; `none` returns the input unchanged."""
    if cfg.method == "none":
        return data
    if cfg.method == "smote":
        return smote(data, cfg, onehot_groups)
    if cfg.method == "smote_enn":
        return smote_enn(data, cfg, onehot_groups)
    if cfg.method == "smote_tomek":
        return smote_tomek(data, cfg, onehot_groups)
    if cfg.method == "adasyn":
        return adasyn(data, cfg, onehot_groups)
    from . import augment  # GAN methods live in their own module

    return augment.oversample_gan(data, cfg, onehot_groups, overrides=gan_overrides)
