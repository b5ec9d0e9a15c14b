"""One-class anomaly detectors fitted on negatives only: one-class SVM,
isolation forest, tail-ECDF (copula-style) scoring, angle-based factors,
minimum covariance determinant, and a variational autoencoder.

All detectors score with "higher = more anomalous" and cut decisions at the
(1 - contamination) quantile of their own training scores. A kind's
parameters are one table (`PARAMETERS`, checked by the base
`data.EstimatorConfig`), and its fitter and fitted class one entry of `_KINDS`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import (
    COUNT, FINITE, SEED, TOLERANCE, Array, Dataset, EstimatorConfig, Range, as_matrix, block_rows, check_fields,
    document_parser, read_fields, require_finite, write_fields,
)
from .errors import ConfigError, DataError, ModelError
from .neural import LayerSpec, Network, NetworkSpec, TrainConfig, descend, init_network, join_parameters, layer_stack
from .resample import knn
from .tree import Nodes, _breadth_first, _draw_by_rank, _next_level

OCSVM_KERNELS = ("linear", "rbf", "poly", "sigmoid")

PARAMETERS: dict[str, dict[str, tuple]] = {
    "ocsvm": {
        "kernel": ("rbf", OCSVM_KERNELS),
        "nu": (0.5, Range(float, 1e-9, 1.0)),
        "tol": (1e-6, TOLERANCE),
        "max_iter": (20000, Range(int, 1, 10**8)),
    },
    "iforest": {"n_estimators": (100, Range(int, 1, 10**6)), "max_samples": (500, Range(int, 2, 10**9))},
    "copod": {},
    "abod": {"n_neighbours": (10, Range(int, 2, 10**6))},
    "mcd": {"support_fraction": (None, Range(float, 0.5, 1.0))},
    "vae": {
        "epochs": (300, Range(int, 1, 10**7)),
        "learning_rate": (1e-3, Range(float, 0.0, 10.0)),
        "latent_dim": (2, Range(int, 1, 10**4)),
    },
}
"""Every detector parameter, as name -> (default, domain) (see
`data.check_table`). The mcd support_fraction defaults to None: the fitter
then takes subsets of (n + p + 1) // 2 rows."""
KINDS = tuple(PARAMETERS)


@dataclass(frozen=True)
class DetectorConfig(EstimatorConfig):
    kind: str
    parameters: dict = field(default_factory=dict)
    contamination: float = 0.05
    seed: int = 0

    _FIELDS = {"kind": KINDS, "parameters": dict, "contamination": Range(float, 0.0, 0.5, open_low=True), "seed": SEED}
    _PARAMETERS = PARAMETERS


def quantile_threshold(scores: np.ndarray, contamination: float) -> float:
    """(1 - contamination) quantile: the ceil((1-c)n)-th smallest score, so at
    most a contamination share of the fitting scores can exceed it."""
    s = np.sort(np.asarray(scores, dtype=float))
    n = len(s)
    if n == 0:
        raise DataError("quantile_threshold needs at least one score")
    idx = min(n - 1, max(0, math.ceil((1.0 - contamination) * n) - 1))
    return float(s[idx])


class TrainedDetector:
    """Fitted detector: kind, width, decision threshold, kind-specific state.

    Each subclass lists its state in `_fields(d)`, a table from each state
    key, which is also a constructor argument, to its domain, the type of a
    nested document or its parser (`data.read_fields`), for a detector of d
    features. `to_dict` writes those fields in that order and
    `detector_from_dict` reads them back; the constructor checks what
    relates one field to another."""

    kind: str = ""

    def __init__(self, n_features: int, threshold: float = 0.0):
        self.n_features = n_features
        self.threshold = float(threshold)

    def score(self, rows) -> np.ndarray:
        raise NotImplementedError

    def classify(self, rows) -> np.ndarray:
        return (self.score(rows) > self.threshold).astype(int)

    def to_dict(self) -> dict:
        head = {"format": "fraudkit.detector/1", "kind": self.kind, "n_features": self.n_features}
        return {**head, "threshold": self.threshold, "state": write_fields(self, self._fields(self.n_features))}


def classification_rate(predictions: Sequence[int] | np.ndarray) -> float:
    """Share of positive-only test rows flagged positive."""
    preds = np.asarray(predictions)
    if preds.size == 0:
        raise DataError("classification_rate needs a nonempty prediction vector")
    return float(np.mean(preds))


# ---------------------------------------------------------------------------
# One-class SVM

def kernel_matrix(a: np.ndarray, b: np.ndarray, kernel: str, gamma: float) -> np.ndarray:
    inner = a @ b.T
    if kernel == "linear":
        return inner
    if kernel == "rbf":
        d2 = (
            np.sum(a * a, axis=1)[:, None]
            + np.sum(b * b, axis=1)[None, :]
            - 2.0 * inner
        )
        return np.exp(-gamma * np.maximum(d2, 0.0))
    if kernel == "poly":
        return (inner + 1.0) ** 3
    if kernel == "sigmoid":
        return np.tanh(gamma * inner + 1.0)
    raise ConfigError(f"unknown kernel {kernel!r}")


class OcsvmDetector(TrainedDetector):
    kind = "ocsvm"

    def __init__(self, n_features, support_rows, alphas, rho, kernel, gamma, threshold=0.0):
        super().__init__(n_features, threshold)
        self.support_rows = np.asarray(support_rows, dtype=float)
        self.alphas = np.asarray(alphas, dtype=float)
        self.rho = float(rho)
        self.kernel = kernel
        self.gamma = float(gamma)
        if self.alphas.shape != self.support_rows.shape[:1]:
            raise ModelError("ocsvm needs one alpha per support row")

    @staticmethod
    def _fields(d):
        rows = {"support_rows": Array(float, (-1, d)), "alphas": Array(float, (-1,))}
        return {**rows, "rho": FINITE, "kernel": OCSVM_KERNELS, "gamma": FINITE}

    def score(self, rows) -> np.ndarray:
        """rho minus the kernel-weighted sum over the support rows, for
        `data.block_rows(support rows)` query rows at a time, so no block of
        kernel values exceeds `data.BLOCK` entries (or one row of them)."""
        x = as_matrix(rows, self.n_features)
        out = np.empty(len(x))
        step = block_rows(len(self.support_rows))
        for at in range(0, len(x), step):
            k = kernel_matrix(x[at : at + step], self.support_rows, self.kernel, self.gamma)
            out[at : at + step] = self.rho - k @ self.alphas
        return out


def _fit_ocsvm(x: np.ndarray, config: DetectorConfig) -> OcsvmDetector:
    n, d = x.shape
    if n < 2:
        raise DataError("ocsvm needs >= 2 rows")
    params = config.settings()
    kernel, nu, tol, max_iter = params["kernel"], float(params["nu"]), float(params["tol"]), int(params["max_iter"])
    gamma = 1.0 / d

    k = kernel_matrix(x, x, kernel, gamma)
    cap = 1.0 / (nu * n)
    alpha = np.zeros(n)
    full = int(math.floor(nu * n))
    alpha[:full] = cap
    if full < n:
        alpha[full] = 1.0 - full * cap

    # a NaN or inf kernel entry makes its row's sum non-finite
    grad = require_finite(k @ alpha, "ocsvm kernel (squared distances overflow)")
    for _ in range(max_iter):
        up = np.nonzero(alpha < cap - 1e-15)[0]
        down = np.nonzero(alpha > 1e-15)[0]
        if up.size == 0 or down.size == 0:
            break
        i = up[int(np.argmin(grad[up]))]
        j = down[int(np.argmax(grad[down]))]
        gap = grad[j] - grad[i]
        if gap < tol:
            break
        curv = k[i, i] + k[j, j] - 2.0 * k[i, j]
        step = gap / max(curv, 1e-12)
        step = min(step, cap - alpha[i], alpha[j])
        if step <= 0:
            break
        alpha[i] += step
        alpha[j] -= step
        grad += step * (k[:, i] - k[:, j])

    free = np.nonzero((alpha > 1e-9) & (alpha < cap - 1e-9))[0]
    anchors = free if free.size else np.nonzero(alpha > 1e-9)[0]
    rho = float(np.mean(grad[anchors]))

    support = np.nonzero(alpha > 1e-12)[0]
    return OcsvmDetector(d, x[support], alpha[support], rho, kernel, gamma)


# ---------------------------------------------------------------------------
# Isolation forest

def _path_length_table(m: int) -> np.ndarray:
    """c(0), ..., c(m): the expected unsuccessful-search depth of a binary
    search tree on n keys, 2 H(n - 1) - 2 (n - 1) / n, and 0 below 2 keys."""
    n = np.arange(2, m + 1)
    h = np.cumsum(1.0 / np.arange(1, m))  # H(1), ..., H(m - 1)
    return np.concatenate(([0.0, 0.0], 2.0 * h - 2.0 * (n - 1) / n))


def average_path_length(m: int) -> float:
    """c(m), as `_path_length_table` gives it."""
    return float(_path_length_table(m)[m]) if m > 1 else 0.0


def _draw_splits(x: np.ndarray, rows: np.ndarray, seg: np.ndarray, trees: np.ndarray, rank: np.ndarray, rngs: list):
    """(feature, threshold, goes left) for splittable nodes, drawn as
    `_fit_iforest` states. `rows` holds the nodes' rows node after node,
    seg[i] of them for node i of tree trees[i], whose breadth-first rank is
    rank[i]; feature -1 means no column varies on the node. `goes left` is
    per row and means nothing there."""
    d = x.shape[1]
    starts = np.cumsum(seg) - seg
    u1, u2 = _draw_by_rank(rngs, trees, rank, lambda rng, k: rng.random((2, k)).T).T
    feature = (u1 * d).astype(np.intp)
    values = x[rows, np.repeat(feature, seg)]
    lo, hi = np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)
    flat = np.nonzero(hi == lo)[0]
    if flat.size:
        # a column at a time, so that no rows x features array is gathered
        in_flat = np.repeat(hi == lo, seg)
        flat_rows = rows[in_flat]
        flat_starts = np.cumsum(seg[flat]) - seg[flat]
        col_lo, col_hi = np.empty((2, flat.size, d))
        for j in range(d):
            column = x[flat_rows, j]
            col_lo[:, j] = np.minimum.reduceat(column, flat_starts)
            col_hi[:, j] = np.maximum.reduceat(column, flat_starts)
        usable = col_hi > col_lo
        u3 = _draw_by_rank(rngs, trees[flat], rank[flat], lambda rng, k: rng.random(k))
        pick = (u3 * usable.sum(axis=1)).astype(np.intp)
        redrawn = np.argmax(np.cumsum(usable, axis=1) > pick[:, None], axis=1)  # the pick-th usable column
        feature[flat] = np.where(usable.any(axis=1), redrawn, -1)
        lo[flat] = col_lo[np.arange(flat.size), redrawn]
        hi[flat] = col_hi[np.arange(flat.size), redrawn]
        values[in_flat] = x[flat_rows, np.repeat(redrawn, seg[flat])]
    cut = np.nextafter(lo + (hi - lo) * u2, -np.inf)
    return feature, cut, values <= np.repeat(cut, seg)


def _grow_isolation_forest(x: np.ndarray, m: int, n_estimators: int, seed: int) -> list[Nodes]:
    """The trees of `_fit_iforest`, grown a depth at a time across all trees.

    `rows` holds the rows of every node of the current depth, node after
    node; rank[k] is node k's breadth-first position among the depth's
    nodes, tree by tree, in which the trees make their draws and
    `tree._breadth_first` numbers their nodes.
    """
    limit = math.ceil(math.log2(max(m, 2)))
    table = _path_length_table(m)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_estimators)]
    rows = np.concatenate([rng.permutation(x.shape[0])[:m] for rng in rngs])
    tree = rank = np.arange(n_estimators)
    size = np.full(n_estimators, m)
    columns: dict[str, list] = {c: [] for c in ("tree", "feature", "threshold", "value", "n_samples")}
    for depth in range(limit + 1):
        feature = np.full(tree.size, -1)
        threshold = np.zeros(tree.size)
        split = np.nonzero((size > 1) & (depth < limit))[0]
        next_tree = next_size = next_rank = np.zeros(0, dtype=np.intp)
        if split.size:
            rows = rows[np.repeat(size > 1, size)]
            f, cut, go_left = _draw_splits(x, rows, size[split], tree[split], rank[split], rngs)
            keep = np.repeat(f >= 0, size[split])
            rows, go_left = rows[keep], go_left[keep]
            inner = split[f >= 0]
            feature[inner], threshold[inner] = f[f >= 0], cut[f >= 0]
            rows, next_size, next_tree, next_rank = _next_level(rows, go_left, size[inner], tree[inner], rank[inner])
        value = np.where(feature < 0, depth + table[size], 0.0)
        by_rank = np.argsort(rank)
        for name, column in zip(columns, (tree, feature, threshold, value, size)):
            columns[name].append(column[by_rank])
        tree, size, rank = next_tree, next_size, next_rank
        if tree.size == 0:
            break
    return _breadth_first(columns, n_estimators)


class IsolationForestDetector(TrainedDetector):
    kind = "iforest"

    def __init__(self, n_features, trees, subsample_size, threshold=0.0):
        super().__init__(n_features, threshold)
        self.trees = trees
        self.subsample_size = int(subsample_size)
        if not trees or any(int(t.n_samples[0]) != self.subsample_size for t in trees):
            raise ModelError(f"iforest needs >= 1 tree, each root holding subsample_size = {subsample_size} rows")

    @staticmethod
    def _fields(d):
        size = PARAMETERS["iforest"]["max_samples"][1]
        return {"subsample_size": size, "trees": lambda docs: [Nodes.from_dict(t, d) for t in docs]}

    def score(self, rows) -> np.ndarray:
        """2^(-mean path length / c(subsample_size)), the path lengths added
        up tree by tree so that memory stays O(rows)."""
        x = as_matrix(rows, self.n_features)
        total = np.zeros(x.shape[0])
        for tree in self.trees:
            total += tree.value[tree.route(x)]
        exponent = -total / len(self.trees) / average_path_length(self.subsample_size)
        # Python's scalar pow: numpy's vectorized power can differ in the last bit
        return np.array([2.0**v for v in exponent.tolist()])


def _fit_iforest(x: np.ndarray, config: DetectorConfig) -> IsolationForestDetector:
    """n_estimators isolation trees (Liu, Ting & Zhou, ICDM 2008), each on
    m = min(max_samples, n) rows and cut at depth ceil(log2 m).

    Tree t draws from default_rng(SeedSequence(seed).spawn(n_estimators)[t]),
    so the first k trees of a forest are the k-tree forest. It first draws
    its subsample, permutation(n)[:m]. Then, depth by depth, it draws for its
    splittable nodes (more than one row, above the depth limit) in breadth-
    first order: one array u1, then one array u2, one value per node. A
    node's feature is floor(u1 * d). Where that feature is constant on the
    node's rows, one more array u3, one value per such node, picks
    usable[floor(u3 * len(usable))] among the node's non-constant features;
    with none the node is a leaf. The threshold is lo + (hi - lo) * u2 over
    the feature's values on the node, moved one ulp down so that rows `<=` it
    go left. A leaf's value is its depth plus c(rows) (average_path_length).
    Each tree's nodes are numbered breadth first, in the order they are drawn.
    """
    n, d = x.shape
    if n < 2:
        raise DataError("iforest needs >= 2 rows")
    params = config.settings()
    m = min(int(params["max_samples"]), n)
    return IsolationForestDetector(d, _grow_isolation_forest(x, m, int(params["n_estimators"]), config.seed), m)


# ---------------------------------------------------------------------------
# Tail-ECDF detector (copula-style)

def _skewness(values: np.ndarray) -> float:
    """The moment skewness of `values`, 0.0 for a constant column. The
    moments are taken after scaling the values by the power of two that
    brings their largest magnitude into [0.5, 1), which is exact, so no power
    overflows or underflows whatever their scale."""
    if values.min() == values.max():
        return 0.0
    scaled = np.ldexp(values, -np.frexp(np.max(np.abs(values)))[1])
    centered = scaled - scaled.mean()
    return float(np.mean(centered**3) / np.mean(centered**2) ** 1.5)


class CopodDetector(TrainedDetector):
    kind = "copod"

    def __init__(self, n_features, sorted_columns, skews, threshold=0.0):
        super().__init__(n_features, threshold)
        self.sorted_columns = [np.asarray(c, dtype=float) for c in sorted_columns]
        self.skews = np.asarray(skews, dtype=float)
        if any(np.any(c[1:] < c[:-1]) for c in self.sorted_columns):
            raise ModelError("copod sorted_columns must be sorted")

    @staticmethod
    def _fields(d):
        return {"sorted_columns": Array(float, (d, -1)), "skews": Array(float, (d,))}

    def score(self, rows) -> np.ndarray:
        x = as_matrix(rows, self.n_features)
        n = len(self.sorted_columns[0])
        # inside the fitted support tails are >= 1/n; a value outside it takes
        # the smallest positive probability, so its surprisal stays finite yet
        # dominates any combination of in-support terms
        floor = np.finfo(float).tiny
        left = np.empty_like(x)
        right = np.empty_like(x)
        for j, col in enumerate(self.sorted_columns):
            left[:, j] = np.searchsorted(col, x[:, j], side="right") / n
            right[:, j] = (n - np.searchsorted(col, x[:, j], side="left")) / n
        left = np.maximum(left, floor)
        right = np.maximum(right, floor)
        corrected = np.where(self.skews < 0, left, right)
        s_left = -np.log(left).sum(axis=1)
        s_right = -np.log(right).sum(axis=1)
        s_skew = -np.log(corrected).sum(axis=1)
        return np.maximum.reduce([s_left, s_right, s_skew])


def _fit_copod(x: np.ndarray, config: DetectorConfig) -> CopodDetector:
    if x.shape[0] < 2:
        raise DataError("copod needs >= 2 rows")
    cols = [np.sort(x[:, j]) for j in range(x.shape[1])]
    skews = [_skewness(x[:, j]) for j in range(x.shape[1])]
    return CopodDetector(x.shape[1], cols, skews)


# ---------------------------------------------------------------------------
# Angle-based detector

def _angle_factors(train: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Angle factor of each query row q: the variance, over pairs of its
    neighbours (`knn` with the 1e-24 floor), of v·w with v = (t - q) / |t - q|²
    for each neighbour t; 0 with fewer than 2 neighbours."""
    neighbours = knn(queries, train, min(k, len(train)), floor=1e-24)
    found = neighbours >= 0
    kept = np.count_nonzero(found, axis=1).tolist()
    pairs: dict[int, tuple] = {}  # upper-triangle indices by neighbour count
    factors = np.zeros(len(queries))
    step = block_rows(8 * neighbours.shape[1] * train.shape[1])  # v: an eighth of data.BLOCK, like `knn`'s chunks
    for at in range(0, len(queries), step):
        rows, slots = np.nonzero(found[at : at + step])
        v = train[neighbours[at + rows, slots]] - queries[at + rows]
        v /= np.sum(v * v, axis=1)[:, None]
        end = 0
        for i, m in enumerate(kept[at : at + step], start=at):
            u = v[end : end + m]
            end += m
            if m >= 2:
                if m not in pairs:
                    pairs[m] = np.triu_indices(m, k=1)
                terms = (u @ u.T)[pairs[m]]
                # np.var's arithmetic, without its per-call overhead
                dev = terms - terms.sum() / terms.size
                factors[i] = (dev * dev).sum() / terms.size
    return factors


class AbodDetector(TrainedDetector):
    """Angle-based outlier factors over the k nearest training rows
    (FastABOD; Kriegel, Schubert & Zimek, KDD 2008); score is minus the factor.

    Training rows at squared distance <= 1e-24 from a query (its duplicates)
    are left out, and a query with fewer than 2 other rows gets factor 0.
    """

    kind = "abod"

    def __init__(self, n_features, train_rows, n_neighbours, threshold=0.0):
        super().__init__(n_features, threshold)
        self.train_rows = np.asarray(train_rows, dtype=float)
        self.n_neighbours = int(n_neighbours)

    @staticmethod
    def _fields(d):
        return {"train_rows": Array(float, (-1, d)), "n_neighbours": PARAMETERS["abod"]["n_neighbours"][1]}

    def score(self, rows) -> np.ndarray:
        x = as_matrix(rows, self.n_features)
        return -_angle_factors(self.train_rows, x, self.n_neighbours)


def _fit_abod(x: np.ndarray, config: DetectorConfig) -> AbodDetector:
    if x.shape[0] < 3:
        raise DataError("abod needs >= 3 rows")
    k = int(config.settings()["n_neighbours"])
    return AbodDetector(x.shape[1], x, k)


# ---------------------------------------------------------------------------
# Minimum covariance determinant

def _cholesky(cov: np.ndarray):
    """(log det cov, lower Cholesky factor of cov), or None when cov is singular:
    the factorization fails or its smallest pivot² is at most
    p·eps·max(diag(cov)), where a rank deficiency is lost in rounding."""
    try:
        lower = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return None
    pivots = np.diagonal(lower)
    if not np.min(pivots) ** 2 > len(cov) * np.finfo(float).eps * np.max(np.diagonal(cov)):
        return None
    return 2.0 * float(np.log(pivots).sum()), lower


def _gaussian(rows: np.ndarray):
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / rows.shape[0]
    factor = _cholesky(cov)
    return None if factor is None else (mean, cov, *factor)


def _mahalanobis2(x: np.ndarray, mean: np.ndarray, lower: np.ndarray) -> np.ndarray:
    return np.square((x - mean) @ np.linalg.inv(lower).T).sum(axis=1)


def _c_step(x: np.ndarray, subset: np.ndarray, h: int, max_steps: int = 100):
    """Up to max_steps C-steps from `subset`, until it repeats: (sorted subset,
    its log det cov or inf when singular). Each keeps the h rows nearest its fit."""
    subset = np.sort(subset)
    for step in range(max_steps + 1):
        fit = _gaussian(x[subset])
        if fit is None or step == max_steps:
            break
        nearest = np.sort(np.argsort(_mahalanobis2(x, fit[0], fit[3]), kind="stable")[:h])
        if np.array_equal(nearest, subset):
            break
        subset = nearest
    return subset, math.inf if fit is None else fit[2]


class McdDetector(TrainedDetector):
    kind = "mcd"

    def __init__(self, n_features, mean, cov, support_indices=(), raw_log_det=0.0, threshold=0.0):
        super().__init__(n_features, threshold)
        self.mean = np.asarray(mean, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        factor = _cholesky(self.cov)
        if factor is None:
            raise ModelError("mcd covariance is singular")
        self.lower = factor[1]
        self.support_indices = tuple(int(i) for i in support_indices)
        self.raw_log_det = float(raw_log_det)

    @staticmethod
    def _fields(d):
        gaussian = {"mean": Array(float, (d,)), "cov": Array(float, (d, d))}
        return {**gaussian, "support_indices": Array(int, (-1,)), "raw_log_det": FINITE}

    def score(self, rows) -> np.ndarray:
        x = as_matrix(rows, self.n_features)
        return np.sqrt(_mahalanobis2(x, self.mean, self.lower))


EXHAUSTIVE_SUBSET_LIMIT = 20_000


_PI = "3.14159265358979323846264338327950288419716939937510582097494459"  # π to 60 digits


def _chi2_ppf(q: float, df: int) -> float:
    """The q-quantile of χ²(df), 0 < q < 1, correctly rounded to float.

    Newton's method in 50-digit decimal from the Wilson–Hilferty start,
    kept positive by halving, until a step is below 1e-40 relative. With
    y = x/2 and a = df/2, each step takes P(a, y) from its power series
    y^a e^(−y) / Γ(a + 1) · Σₖ yᵏ / ((a + 1)…(a + k)), and dP/dx as the
    front factor · a / x; Γ(a + 1) is exact from factorials (and √π for
    odd df).
    """
    # imported here: decimal costs a process about 0.5 MB of RSS, and only MCD needs it
    from decimal import Decimal, localcontext
    from statistics import NormalDist

    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(df) / 2
        if df % 2:
            m = (df + 1) // 2  # Γ(m + 1/2) = (2m)! √π / (4^m m!)
            gamma = math.factorial(2 * m) * Decimal(_PI).sqrt() / (Decimal(4) ** m * math.factorial(m))
        else:
            gamma = Decimal(math.factorial(df // 2))
        z = NormalDist().inv_cdf(q)
        x = Decimal(max(df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3, 0.01))
        target, tiny = Decimal(q), Decimal("1e-40")
        while True:
            y = x / 2
            front = (a * y.ln() - y).exp() / gamma
            term = total = Decimal(1)
            k = 0
            while term > tiny * total:
                k += 1
                term = term * y / (a + k)
                total += term
            last, x = x, max(x - (front * total - target) / (front * a / x), x / 2)
            if abs(x - last) <= tiny * x:
                return float(x)


def _consistent(x: np.ndarray, fit: tuple):
    """The fit's mean, and its cov and the d² of x scaled by median(d²) / χ²₀.₅(p)."""
    d2 = _mahalanobis2(x, fit[0], fit[3])
    factor = np.median(d2) / _chi2_ppf(0.5, x.shape[1])
    return fit[0], fit[1] * factor, d2 / factor


def _fit_mcd(x: np.ndarray, config: DetectorConfig) -> McdDetector:
    """Minimum covariance determinant over h-row subsets, h = (n + p + 1) // 2
    unless support_fraction sets it (FastMCD; Rousseeuw & Van Driessen,
    Technometrics 1999). A C-step fits a subset's Gaussian and keeps the h
    rows of x with the smallest squared Mahalanobis distance d² to it.

    When C(n, h) <= EXHAUSTIVE_SUBSET_LIMIT (20,000), every h-subset is tried.
    Otherwise 250 starts, each default_rng(seed).permutation(n)[:p + 1] in
    turn, get 3 C-steps; the 10 with the lowest log-determinants (the earlier
    start on a tie) are taken to convergence, at most 100 C-steps, and the
    lowest wins. A covariance is singular when its Cholesky factorization
    fails or its smallest pivot² is at most p·eps·max(diag(cov)); DataError
    when every candidate is. The winner's covariance is scaled by the
    consistency factor median(d²) / χ²₀.₅(p). The rows with d² <= χ²₀.₉₇₅(p)
    under that fit are then refitted and scaled the same way, unless at most
    p rows remain or their covariance is singular. Both quantiles are
    computed in decimal and correctly rounded (`_chi2_ppf`).
    """
    n, p = x.shape
    if n < p + 2:
        raise DataError(f"mcd needs at least {p + 2} rows for {p} features")
    fraction = config.settings()["support_fraction"]
    h = int(math.ceil(fraction * n)) if fraction is not None else (n + p + 1) // 2
    h = min(max(h, p + 1), n)

    if math.comb(n, h) <= EXHAUSTIVE_SUBSET_LIMIT:
        # the determinant-minimizing h-subset, by definition
        candidates = [_c_step(x, np.array(c), h, 0) for c in itertools.combinations(range(n), h)]
    else:
        rng = np.random.default_rng(config.seed)
        starts = [_c_step(x, rng.permutation(n)[: p + 1], h, 3) for _ in range(250)]
        starts.sort(key=lambda t: t[1])
        candidates = [_c_step(x, subset, h) for subset, _ in starts[:10]]
    best_subset, best_logdet = min(candidates, key=lambda t: t[1])
    if best_logdet == math.inf:
        raise DataError("mcd: covariance is singular on every candidate subset")

    raw = _consistent(x, _gaussian(x[best_subset]))
    inliers = raw[2] <= _chi2_ppf(0.975, p)
    reweighted = _gaussian(x[inliers]) if inliers.sum() > p else None
    mean, cov, _ = raw if reweighted is None else _consistent(x, reweighted)
    return McdDetector(p, mean, cov, best_subset, best_logdet)


# ---------------------------------------------------------------------------
# Variational autoencoder

class VaeDetector(TrainedDetector):
    kind = "vae"

    def __init__(self, n_features, encoder, mu_head, logvar_head, decoder, threshold=0.0):
        super().__init__(n_features, threshold)
        (enc_in, enc_out), (mu_in, mu_out), (lv_in, lv_out), (dec_in, dec_out) = (
            (net.spec.input_dim, net.spec.layers[-1].width) for net in (encoder, mu_head, logvar_head, decoder)
        )
        if not (enc_in == dec_out == n_features and mu_in == lv_in == enc_out and mu_out == lv_out == dec_in):
            raise ModelError(f"vae networks do not chain encoder -> heads -> decoder over {n_features} features")
        self.encoder = encoder
        self.mu_head = mu_head
        self.logvar_head = logvar_head
        self.decoder = decoder

    @staticmethod
    def _fields(d):
        return dict.fromkeys(("encoder", "mu_head", "logvar_head", "decoder"), Network)

    def reconstruct(self, rows) -> np.ndarray:
        """Decode from the posterior mean (no sampling, deterministic)."""
        x = as_matrix(rows, self.n_features)
        hidden = self.encoder.forward(x)
        mu = self.mu_head.forward(hidden)
        return self.decoder.forward(mu)

    def score(self, rows) -> np.ndarray:
        x = as_matrix(rows, self.n_features)
        recon = self.reconstruct(x)
        return np.mean((x - recon) ** 2, axis=1)


def _fit_vae(x: np.ndarray, config: DetectorConfig) -> VaeDetector:
    """Encoder, both heads and decoder start at seeds config.seed .. seed + 3
    and train as one vector with Adam through `neural.descend` at seed + 4, in
    batches of min(64, n) rows; each batch draws its reparameterization noise
    from the loop's generator, after the epoch's permutation."""
    n, d = x.shape
    if n < 2:
        raise DataError("vae needs >= 2 rows")
    params = config.settings()
    epochs, lr, latent = int(params["epochs"]), float(params["learning_rate"]), int(params["latent_dim"])

    # published layout: two ReLU layers of 9 and 10 units on each side
    encoder = init_network(NetworkSpec(d, layer_stack([9, 10], ["relu", "relu"]), "mse"), config.seed)
    mu_head = init_network(NetworkSpec(10, (LayerSpec(latent, "linear"),), "mse"), config.seed + 1)
    logvar_head = init_network(NetworkSpec(10, (LayerSpec(latent, "linear"),), "mse"), config.seed + 2)
    decoder = init_network(
        NetworkSpec(latent, layer_stack([9, 10, d], ["relu", "relu", "linear"]), "mse"), config.seed + 3
    )

    def batch_loss(idx: np.ndarray, rng: np.random.Generator) -> float:
        batch, m = x[idx], len(idx)
        hidden, enc_cache = encoder.forward_cached(batch)
        mu, mu_cache = mu_head.forward_cached(hidden)
        logvar, lv_cache = logvar_head.forward_cached(hidden)
        logvar = np.clip(logvar, -10.0, 10.0)
        eps = rng.standard_normal(mu.shape)
        std = np.exp(0.5 * logvar)
        recon, dec_cache = decoder.forward_cached(mu + std * eps)

        # loss = mean over batch of [ mean_j (x - x_hat)^2 + KL / d ]
        recon_err = recon - batch
        loss = float(np.mean(recon_err**2)) + float(
            np.mean(0.5 * np.sum(mu**2 + np.exp(logvar) - logvar - 1.0, axis=1)) / d
        )
        if not math.isfinite(loss):
            return loss

        dz = decoder.backward(dec_cache, 2.0 * recon_err / (m * d))
        d_mu = dz + mu / (m * d)
        d_logvar = dz * (0.5 * std * eps) + (np.exp(logvar) - 1.0) / (2.0 * m * d)
        dh1 = mu_head.backward(mu_cache, d_mu)
        dh2 = logvar_head.backward(lv_cache, d_logvar)
        encoder.backward(enc_cache, dh1 + dh2, input_grad=False)
        return loss

    joined = join_parameters((encoder, mu_head, logvar_head, decoder))
    descend(*joined, n, TrainConfig("adam", lr, epochs, min(64, n), config.seed + 4), batch_loss)
    return VaeDetector(d, encoder, mu_head, logvar_head, decoder)


# ---------------------------------------------------------------------------
# Fit dispatch and documents; `_KINDS` maps kind -> (fitter, fitted class)

_KINDS = {
    "ocsvm": (_fit_ocsvm, OcsvmDetector),
    "iforest": (_fit_iforest, IsolationForestDetector),
    "copod": (_fit_copod, CopodDetector),
    "abod": (_fit_abod, AbodDetector),
    "mcd": (_fit_mcd, McdDetector),
    "vae": (_fit_vae, VaeDetector),
}


def fit_detector(config: DetectorConfig, negatives: Dataset | np.ndarray) -> TrainedDetector:
    """Fit config.kind on negative rows and cut the decision threshold at the
    (1 - contamination) quantile of the training scores."""
    x = negatives.matrix() if isinstance(negatives, Dataset) else np.asarray(negatives, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("need a nonempty 2-D matrix of negative rows")
    require_finite(x, "negative rows")
    detector = _KINDS[config.kind][0](x, config)
    detector.threshold = quantile_threshold(detector.score(x), config.contamination)
    return detector


@document_parser
def detector_from_dict(doc: dict) -> TrainedDetector:
    check_fields(doc, {"format": ("fraudkit.detector/1",), "kind": KINDS, "n_features": COUNT, "threshold": FINITE})
    cls, d = _KINDS[doc["kind"]][1], doc["n_features"]
    return cls(d, threshold=doc["threshold"], **read_fields(doc["state"], cls._fields(d)))
