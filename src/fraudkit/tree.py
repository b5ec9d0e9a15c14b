"""CART trees: greedy binary splits over midpoint thresholds with gini,
entropy or squared-error criteria, stored in the flat `Nodes` layout. The
isolation forest grows its own trees (`occ._fit_iforest`) and stores and
routes them as `Nodes` too.

Shared by the decision-tree classifier, the random forest and the boosted
ensemble. Tie-breaks are fixed (lowest feature index, then lowest
threshold) so fits are reproducible. An impure node splits even at zero
impurity decrease, which is what lets a depth-2 tree carve out XOR. A
node's split search sorts and scores all its candidate columns as one
array, with no loop over features. Trees are grown, routed and serialized
without recursion, so depth is bounded only by the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError

GINI = "gini"
ENTROPY = "entropy"
SQUARED = "squared_error"


def _impurity(pos: float, n: float, criterion: str) -> float:
    if n <= 0:
        return 0.0
    p = pos / n
    if criterion == GINI:
        return 2.0 * p * (1.0 - p)
    q = 1.0 - p
    out = 0.0
    if p > 0:
        out -= p * np.log2(p)
    if q > 0:
        out -= q * np.log2(q)
    return float(out)


TREE_FORMAT = "fraudkit.tree/2"
COLUMNS = ("feature", "threshold", "left", "right", "value", "n_samples", "n_positive")
_FLOAT_COLUMNS = ("threshold", "value")


@dataclass
class Nodes:
    """One tree as parallel per-node columns, nodes numbered in pre-order.

    A row at split node i goes to `left[i]` when x[feature[i]] <= threshold[i]
    and to `right[i]` otherwise; children always come after their parent. A
    leaf has feature, left and right -1 and predicts `value`.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    n_positive: np.ndarray

    def __len__(self) -> int:
        return len(self.feature)

    def route(self, x: np.ndarray) -> np.ndarray:
        """Leaf id reached by each row of x, moving every row one level per step."""
        at = np.zeros(x.shape[0], dtype=np.intp)
        rows = np.arange(x.shape[0])
        while rows.size:
            node = at[rows]
            feature = self.feature[node]
            inner = feature >= 0
            rows, node, feature = rows[inner], node[inner], feature[inner]
            go_left = x[rows, feature] <= self.threshold[node]
            at[rows] = np.where(go_left, self.left[node], self.right[node])
        return at

    def to_dict(self) -> dict:
        return {"format": TREE_FORMAT, **{c: getattr(self, c).tolist() for c in COLUMNS}}

    @classmethod
    def from_dict(cls, doc: dict, n_features: int) -> "Nodes":
        """Columns of a tree document, checked so that routing always ends."""
        if doc.get("format") != TREE_FORMAT:
            raise ModelError(f"unsupported tree document {doc.get('format')!r}")
        try:
            cols = _as_columns(doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"bad tree columns: {exc}") from None
        n = len(cols["feature"])
        if n == 0 or any(v.shape != (n,) for v in cols.values()):
            raise ModelError("tree columns must be nonempty and of equal length")
        feature, left, right = cols["feature"], cols["left"], cols["right"]
        inner = feature != -1
        if np.any(feature[inner] < 0) or np.any(feature[inner] >= n_features):
            raise ModelError(f"tree feature index outside [0, {n_features})")
        if np.any(left[~inner] != -1) or np.any(right[~inner] != -1):
            raise ModelError("tree leaf with children")
        parent = np.nonzero(inner)[0]
        for child in (left[inner], right[inner]):
            if np.any(child <= parent) or np.any(child >= n):
                raise ModelError("tree child index must exceed its parent's and lie in range")
        return cls(**cols)


def grow(x: np.ndarray, node_rule) -> tuple[Nodes, dict[int, np.ndarray]]:
    """Grow one CART tree over the rows of x with an explicit stack.

    `node_rule(indices, depth)` returns (feature, threshold, value, n_positive)
    for the node holding rows `indices`; feature -1 makes it a leaf. Rows go
    left where x[:, feature] <= threshold. The left child is taken first, so
    nodes are numbered in pre-order and `node_rule` sees them (and makes any
    random draws) in the order of a recursive left-first grower. Returns the
    nodes and, per leaf id, the indices of the rows that reached it.
    """
    cols: dict[str, list] = {c: [] for c in COLUMNS}
    leaf_rows: dict[int, np.ndarray] = {}
    stack: list[tuple[np.ndarray, int, int, list | None]] = [(np.arange(x.shape[0]), 0, -1, None)]
    while stack:
        indices, depth, parent, link = stack.pop()
        node = len(cols["feature"])
        if link is not None:
            link[parent] = node
        feature, threshold, value, n_positive = node_rule(indices, depth)
        for c, v in zip(COLUMNS, (feature, threshold, -1, -1, value, len(indices), n_positive)):
            cols[c].append(v)
        if feature < 0:
            leaf_rows[node] = indices
            continue
        go_left = x[indices, feature] <= threshold
        stack.append((indices[~go_left], depth + 1, node, cols["right"]))
        stack.append((indices[go_left], depth + 1, node, cols["left"]))
    return Nodes(**_as_columns(cols)), leaf_rows


def _as_columns(values) -> dict[str, np.ndarray]:
    return {c: np.asarray(values[c], dtype=float if c in _FLOAT_COLUMNS else np.intp) for c in COLUMNS}


def _best_cut(xs, decrease):
    """(column, threshold) of the largest decrease over cuts between distinct
    sorted values, or None when no column has two distinct values.

    Row i of decrease is the cut after sorted row i. The first maximum is
    taken per column and then across columns, which is the documented
    tie-break: lowest feature, then lowest threshold.
    """
    if xs.shape[1] == 0:
        return None
    decrease = np.where(xs[:-1] < xs[1:], decrease, -np.inf)
    rows = np.argmax(decrease, axis=0)
    best = decrease[rows, np.arange(decrease.shape[1])]
    j = int(np.argmax(best))
    if best[j] == -np.inf:
        return None
    i = rows[j]
    return j, float((xs[i, j] + xs[i + 1, j]) / 2.0)


def _best_split_classification(cols, y, criterion):
    """`_best_cut` by impurity decrease over all columns of one node's rows."""
    n = len(y)
    total_pos = int(y.sum())
    parent = _impurity(total_pos, n, criterion)
    # numpy's default sort is several times faster than its stable one; the
    # 0/1 label counts at a cut between distinct values do not depend on the
    # order it leaves tied rows in
    order = np.argsort(cols, axis=0)
    xs = np.take_along_axis(cols, order, axis=0)
    prefix_pos = np.cumsum(y[order], axis=0)[:-1]
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    pl = prefix_pos / nl
    pr = (total_pos - prefix_pos) / nr
    if criterion == GINI:
        il = 2.0 * pl * (1.0 - pl)
        ir = 2.0 * pr * (1.0 - pr)
    else:
        def ent(p):
            out = np.zeros_like(p)
            mask = (p > 0) & (p < 1)
            pm = p[mask]
            out[mask] = -(pm * np.log2(pm) + (1 - pm) * np.log2(1 - pm))
            return out

        il = ent(pl)
        ir = ent(pr)
    return _best_cut(xs, parent - (nl * il + nr * ir) / n)


def _best_split_regression(cols, t):
    """`_best_cut` by squared-error decrease over all columns of one node's rows."""
    n = len(t)
    sse_parent = float(np.sum((t - t.mean()) ** 2))
    order = np.argsort(cols, axis=0)
    xs = np.take_along_axis(cols, order, axis=0)
    # sums of real targets round differently in another order, so tied rows
    # must keep their row order: only columns with ties need a stable sort
    tied = np.any(xs[:-1] == xs[1:], axis=0)
    order[:, tied] = np.argsort(cols[:, tied], axis=0, kind="stable")
    ts = t[order]
    s1 = np.cumsum(ts, axis=0)
    s2 = np.cumsum(ts * ts, axis=0)
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    sl = s2[:-1] - s1[:-1] ** 2 / nl
    sr = (s2[-1] - s2[:-1]) - (s1[-1] - s1[:-1]) ** 2 / nr
    return _best_cut(xs, sse_parent - (sl + sr))


@dataclass
class DecisionTree:
    """Binary CART. criterion gini/entropy classifies {0,1} labels;
    squared_error regresses real targets (used by the boosted ensemble)."""

    criterion: str = GINI
    max_depth: int | None = None
    max_features: int | None = None  # per-node random subset size (forests)
    nodes: Nodes | None = None
    n_features: int = 0
    leaf_training_indices: dict[int, np.ndarray] = field(default_factory=dict)

    def fit(self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator | None = None) -> "DecisionTree":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ModelError("bad training shapes")
        if self.criterion not in (GINI, ENTROPY, SQUARED):
            raise ModelError(f"unknown criterion {self.criterion!r}")
        if self.max_features is not None and rng is None:
            rng = np.random.default_rng(0)
        self.n_features = x.shape[1]
        self.nodes, self.leaf_training_indices = grow(
            x, lambda indices, depth: self._split_or_leaf(x, y, indices, depth, rng)
        )
        return self

    def _split_or_leaf(self, x, y, indices, depth, rng) -> tuple[int, float, float, int]:
        n = len(indices)
        ys = y[indices]
        n_positive = 0 if self.criterion == SQUARED else int(ys.sum())
        if n < 2 or (ys == ys[0]).all() or (self.max_depth is not None and depth >= self.max_depth):
            return self._leaf(ys, n_positive)

        if self.max_features is not None and self.max_features < self.n_features:
            candidates = np.sort(rng.permutation(self.n_features)[: self.max_features])
        else:
            candidates = np.arange(self.n_features)

        cols = x[np.ix_(indices, candidates)]
        if self.criterion == SQUARED:
            best = _best_split_regression(cols, ys)
        else:
            best = _best_split_classification(cols, ys, self.criterion)
        if best is None:
            return self._leaf(ys, n_positive)
        return int(candidates[best[0]]), best[1], 0.0, n_positive

    def _leaf(self, ys: np.ndarray, n_positive: int) -> tuple[int, float, float, int]:
        value = float(ys.mean()) if self.criterion == SQUARED else n_positive / len(ys)
        return -1, 0.0, value, n_positive

    # ---------------------------------------------------------------- use

    def _require_fit(self) -> Nodes:
        if self.nodes is None:
            raise ModelError("tree is not fitted")
        return self.nodes

    def predict_value(self, x: np.ndarray) -> np.ndarray:
        nodes = self._require_fit()
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ModelError(f"expected rows of width {self.n_features}")
        return nodes.value[nodes.route(x)]

    def nodes_by_id(self) -> Nodes:
        """The node table; node id i is entry i of every column."""
        return self._require_fit()

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "max_depth": self.max_depth,
            "n_features": self.n_features,
            **self._require_fit().to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DecisionTree":
        n_features = doc.get("n_features")
        if not isinstance(n_features, int) or n_features < 1:
            raise ModelError(f"tree document needs a positive n_features, got {n_features!r}")
        nodes = Nodes.from_dict(doc, n_features)
        return cls(doc.get("criterion", GINI), doc.get("max_depth"), nodes=nodes, n_features=n_features)
