"""CART trees: greedy binary splits over midpoint thresholds with gini,
entropy or squared-error criteria, grown by `DecisionTree.fit` and stored in
the flat `Nodes` layout. The isolation forest grows its own trees
(`occ._fit_iforest`) and stores and routes them as `Nodes` too.

Shared by the decision-tree classifier, the random forest and the boosted
ensemble. Tie-breaks are fixed (lowest feature index, then lowest
threshold) so fits are reproducible. An impure node splits even at zero
impurity decrease, which is what lets a depth-2 tree carve out XOR.

Columns are sorted once per fit (`presort`, as in SLIQ: Mehta, Agrawal &
Rissanen, EDBT 1996), not per node: every node carries its rows' part of
each column's sorted list, a split hands each child its part of every list
in order, and a node's split search scores all its candidate columns'
lists as one array, with no loop over features. Callers that fit many
trees on one matrix share one presort: the boosted ensemble, and the random
forest, whose bootstrap samples enter as row counts. Trees are grown,
routed and serialized without recursion, so depth is bounded only by the
data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import document_parser, require_finite
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
    """One tree as parallel per-node columns, node 0 the root.

    A row at split node i goes to `left[i]` when x[feature[i]] <= threshold[i]
    and to `right[i]` otherwise; children always come after their parent. A
    leaf has feature, left and right -1 and predicts `value`. CART trees are
    numbered in pre-order, isolation trees breadth first.
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
    @document_parser
    def from_dict(cls, doc: dict, n_features: int) -> "Nodes":
        """Columns of a tree document, checked so that routing always ends."""
        if doc.get("format") != TREE_FORMAT:
            raise ModelError(f"unsupported tree document {doc.get('format')!r}")
        cols = _as_columns(doc)
        n = len(cols["feature"])
        if n == 0 or any(v.shape != (n,) for v in cols.values()):
            raise ModelError("tree columns must be nonempty and of equal length")
        if not (np.isfinite(cols["threshold"]).all() and np.isfinite(cols["value"]).all()):
            raise ModelError("tree thresholds and values must be finite")
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


def presort(x: np.ndarray) -> np.ndarray:
    """(d, n) row lists: row j is a stable argsort of column j of x, so tied
    values keep their row order."""
    columns = np.ascontiguousarray(x.T)
    # numpy's default sort is several times faster than its stable one, and
    # the two agree on a column without ties
    order = np.argsort(columns, axis=1)
    ranked = np.take_along_axis(columns, order, axis=1)
    tied = np.any(ranked[:, :-1] == ranked[:, 1:], axis=1)
    order[tied] = np.argsort(columns[tied], axis=1, kind="stable")
    return order


def _as_columns(values) -> dict[str, np.ndarray]:
    return {c: np.asarray(values[c], dtype=float if c in _FLOAT_COLUMNS else np.intp) for c in COLUMNS}


def _best_cut(xs, decrease):
    """(column, threshold) of the largest decrease over cuts between distinct
    sorted values, or None when no column has two distinct values.

    Row j of xs holds candidate column j's values in sorted order, and entry
    (j, i) of decrease is the cut after its sorted entry i. The first maximum
    in that row-major order wins, which is the documented tie-break: lowest
    feature, then lowest threshold. `decrease` is overwritten: a cut that
    does not lie between increasing values becomes -inf.
    """
    if xs.size == 0:
        return None
    np.putmask(decrease, ~(xs[:, :-1] < xs[:, 1:]), -np.inf)
    j, i = divmod(int(np.argmax(decrease)), decrease.shape[1])
    if decrease[j, i] == -np.inf:
        return None
    return j, float((xs[j, i] + xs[j, i + 1]) / 2.0)


def _entropy(p):
    out = np.zeros_like(p)
    mask = (p > 0) & (p < 1)
    pm = p[mask]
    out[mask] = -(pm * np.log2(pm) + (1 - pm) * np.log2(1 - pm))
    return out


def _best_split_classification(xs, ys, ws, n, total_pos, criterion):
    """`_best_cut` by impurity decrease, from the candidate columns' sorted
    values xs and, in the same order, each row's positive count ys and its
    number of copies ws (None: one each); the node holds n samples, total_pos
    of them positive. The counts left of a cut are the same integers a tree
    grown on the copies themselves would sum, so the decreases are too."""
    parent = _impurity(total_pos, n, criterion)
    prefix_pos = np.cumsum(ys[:, :-1], axis=1)
    nl = np.arange(1.0, n) if ws is None else np.cumsum(ws[:, :-1], axis=1)
    nr = n - nl
    pl = prefix_pos / nl
    pr = np.subtract(total_pos, prefix_pos, out=prefix_pos)
    pr /= nr
    # each side's row count times its impurity, in place
    if criterion == GINI:
        # (1 - p) p 2n rounds as n (2p (1 - p)) does, since doubling is exact
        left = np.subtract(1.0, pl)
        left *= pl
        left *= 2.0 * nl
        right = np.subtract(1.0, pr)
        right *= pr
        right *= 2.0 * nr
    else:
        left = nl * _entropy(pl)
        right = nr * _entropy(pr)
    left += right
    left /= n
    return _best_cut(xs, np.subtract(parent, left, out=left))


def _best_split_regression(xs, ts, t):
    """`_best_cut` by squared-error decrease sse_parent - (sl + sr), where
    sl = s2 - s1² / nl over prefix sums of the targets (s1) and of their
    squares (s2) and sr is the same over suffix sums; xs holds the candidate
    columns' sorted values, ts their targets in the same order (overwritten)
    and t the node's targets in row order."""
    n = len(t)
    sse_parent = float(np.sum((t - t.mean()) ** 2))
    # the lists are stable, so tied rows keep their row order and every
    # column's prefix sums round as a stable sort's would
    s1 = np.cumsum(ts, axis=1)
    s2 = np.cumsum(np.square(ts, out=ts), axis=1, out=ts)
    nl = np.arange(1.0, n)
    nr = n - nl
    decrease = np.square(s1[:, :-1])
    decrease /= nl
    np.subtract(s2[:, :-1], decrease, out=decrease)  # sl
    right = np.subtract(s1[:, -1:], s1[:, :-1], out=s1[:, :-1])
    np.square(right, out=right)
    right /= nr
    np.subtract(s2[:, -1:], s2[:, :-1], out=s2[:, :-1])
    np.subtract(s2[:, :-1], right, out=right)  # sr
    decrease += right
    return _best_cut(xs, np.subtract(sse_parent, decrease, out=decrease))


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

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator | None = None,
        order: np.ndarray | None = None,
        counts: np.ndarray | None = None,
    ) -> "DecisionTree":
        """Grow the tree on rows x with targets y with an explicit stack.
        `order` is `presort(x)`, computed here when not given, so that fits on
        one matrix can share it. `counts` (classification only) gives each
        row's number of copies in a bootstrap sample, 0 leaving it out: the
        tree is the one grown on those copies, and `leaf_training_indices`
        lists each leaf's rows once, ascending.

        A node holds its rows (in row order) and its part of every list of
        `order`, in the same order. Rows go left where x[:, feature] <=
        threshold. The left child is taken first, so nodes are numbered in
        pre-order and make their random draws in the order of a recursive
        left-first grower.
        """
        x = require_finite(np.asarray(x, dtype=float), "training rows")
        y = require_finite(np.asarray(y, dtype=float), "training targets")
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ModelError("bad training shapes")
        if self.criterion not in (GINI, ENTROPY, SQUARED):
            raise ModelError(f"unknown criterion {self.criterion!r}")
        if counts is not None and self.criterion == SQUARED:
            raise ModelError("row counts need a classification criterion")
        if self.max_features is not None and rng is None:
            rng = np.random.default_rng(0)
        self.n_features = x.shape[1]
        values = np.ascontiguousarray(x.T).ravel()
        lists = presort(x) if order is None else order
        rows = np.arange(x.shape[0])
        if counts is not None:
            counts = np.asarray(counts, dtype=float)
            rows = np.flatnonzero(counts)
            lists = lists.compress(counts.take(lists).ravel() > 0).reshape(len(lists), -1)
        cols: dict[str, list] = {c: [] for c in COLUMNS}
        self.leaf_training_indices = {}
        go_left = np.zeros(x.shape[0], dtype=bool)
        stack: list[tuple[np.ndarray, np.ndarray, int, int, list | None]] = [(rows, lists, 0, -1, None)]
        while stack:
            indices, lists, depth, parent, link = stack.pop()
            node = len(cols["feature"])
            if link is not None:
                link[parent] = node
            feature, threshold, value, n_samples, n_positive = self._split_or_leaf(
                values, y, counts, indices, lists, depth, rng
            )
            for c, v in zip(COLUMNS, (feature, threshold, -1, -1, value, n_samples, n_positive)):
                cols[c].append(v)
            if feature < 0:
                self.leaf_training_indices[node] = indices
                continue
            left = x[indices, feature] <= threshold
            go_left[indices] = left
            # each child keeps its entries of every list, in order; compress on
            # the flat mask is several times faster than 2-D boolean indexing
            in_left = go_left[lists].ravel()
            d = len(lists)
            stack.append((indices[~left], lists.compress(~in_left).reshape(d, -1), depth + 1, node, cols["right"]))
            stack.append((indices[left], lists.compress(in_left).reshape(d, -1), depth + 1, node, cols["left"]))
        self.nodes = Nodes(**_as_columns(cols))
        return self

    def _split_or_leaf(self, values, y, counts, indices, lists, depth, rng) -> tuple[int, float, float, int, int]:
        """`values` is x column by column, flattened, so that entry
        j * n + i is x[i, j]."""
        ys = y[indices]
        weights = None if counts is None else counts[indices]
        n = len(indices) if weights is None else int(weights.sum())
        n_positive = 0 if self.criterion == SQUARED else int(ys.sum() if weights is None else ys @ weights)
        if n < 2 or (ys == ys[0]).all() or (self.max_depth is not None and depth >= self.max_depth):
            return self._leaf(ys, n, n_positive)

        if self.max_features is not None and self.max_features < self.n_features:
            candidates = np.sort(rng.permutation(self.n_features)[: self.max_features])
            lists = lists[candidates]
        else:
            candidates = np.arange(self.n_features)
        xs = values[lists + (candidates * len(y))[:, None]]
        if self.criterion == SQUARED:
            best = _best_split_regression(xs, y[lists], ys)
        else:
            ws = None if counts is None else counts[lists]
            labels = y[lists] if ws is None else y[lists] * ws
            best = _best_split_classification(xs, labels, ws, n, n_positive, self.criterion)
        if best is None:
            return self._leaf(ys, n, n_positive)
        return int(candidates[best[0]]), best[1], 0.0, n, n_positive

    def _leaf(self, ys: np.ndarray, n: int, n_positive: int) -> tuple[int, float, float, int, int]:
        value = float(ys.mean()) if self.criterion == SQUARED else n_positive / n
        return -1, 0.0, value, n, n_positive

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
    @document_parser
    def from_dict(cls, doc: dict) -> "DecisionTree":
        n_features = doc.get("n_features")
        if not isinstance(n_features, int) or n_features < 1:
            raise ModelError(f"tree document needs a positive n_features, got {n_features!r}")
        nodes = Nodes.from_dict(doc, n_features)
        return cls(doc.get("criterion", GINI), doc.get("max_depth"), nodes=nodes, n_features=n_features)
