"""CART trees: greedy binary splits over midpoint thresholds with gini,
entropy or squared-error criteria, grown by `DecisionTree.fit` (one tree)
and `fit_forest` (many trees on one matrix) and stored in the flat `Nodes`
layout. The isolation forest grows its own trees (`occ._fit_iforest`) with
the same segment partition and numbering, and stores and routes them as
`Nodes` too.

Shared by the decision-tree classifier, the random forest and the boosted
ensemble. Tie-breaks are fixed (lowest feature index, then lowest
threshold) so fits are reproducible. An impure node splits even at zero
impurity decrease, which is what lets a depth-2 tree carve out XOR.

Columns are sorted once per fit (`presort`, as in SLIQ: Mehta, Agrawal &
Rissanen, EDBT 1996), not per node, and trees grow a level at a time, as
SLIQ's do: every open node of one depth is split at once. Each sorted list
holds the entries of all the level's nodes, node after node, so a node is a
contiguous segment of every list. One search scores the cuts of every node
and candidate column, and one stable partition by segment (`_partition`)
hands each child its part of every list, in order. Callers that fit many
trees on one matrix share one presort: the boosted ensemble, and the random
forest, whose bootstrap samples enter as row counts and whose trees grow
together. Every tree is numbered breadth first (`Nodes`), and trees are
grown, routed and serialized without recursion, so depth is bounded only by
the data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .data import (
    BLOCK, COUNT, Array, Range, binary_labels, check_fields, check_value, document_parser, read_fields, require_finite,
    write_fields,
)
from .errors import DataError, ModelError

GINI = "gini"
ENTROPY = "entropy"
SQUARED = "squared_error"

TREE_FORMAT = "fraudkit.tree/2"
COLUMNS = ("feature", "threshold", "left", "right", "value", "n_samples", "n_positive")


@dataclass
class Nodes:
    """One tree as parallel per-node columns, node 0 the root.

    A row at split node i goes to `left[i]` when x[feature[i]] <= threshold[i]
    and to `right[i]` otherwise. A leaf has feature, left and right -1 and
    predicts `value`. Every grower numbers its trees breadth first: a depth's
    nodes follow the previous depth's, and the i-th split node's children are
    nodes 2i + 1 (left) and 2i + 2 (right). A document only has to put
    children after their parent.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    n_positive: np.ndarray

    _FIELDS = {c: Array(float if c in ("threshold", "value") else int, (-1,)) for c in COLUMNS}

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
        return {"format": TREE_FORMAT, **write_fields(self, COLUMNS)}

    @classmethod
    @document_parser
    def from_dict(cls, doc: dict, n_features: int) -> "Nodes":
        """Columns of a tree document, checked so that routing always ends.
        The index checks stay here, not in the constructor: a `Nodes` does
        not know its width, and the growers' trees are right by construction."""
        check_fields(doc, {"format": (TREE_FORMAT,)})
        cols = read_fields(doc, cls._FIELDS)
        n = len(cols["feature"])
        if any(v.shape != (n,) for v in cols.values()):
            raise ModelError("tree columns must be of equal length")
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


# ---------------------------------------------------------------- levels
#
# A grower keeps a level's nodes as segments: seg[k] consecutive entries for
# node k along the last axis of every array of the level. Splitting puts all
# left children first (`_partition`), so the order of a level's segments is
# not breadth first; rank[k] is node k's position in breadth-first order,
# tree by tree, and draws and numbering follow it.


def _partition(entries: np.ndarray, side: np.ndarray) -> np.ndarray:
    """Every row's entries whose side is 0 (left), then those whose side is
    1 (right), both in order, dropping the rest: with segments along the
    rows, every segment's left part, in segment order, comes before every
    right part. Every row keeps as many entries on each side as the first."""
    shape = (*entries.shape[:-1], -1)
    side = side.ravel()
    parts = [entries.compress(side == s).reshape(shape) for s in (0, 1)]
    return np.concatenate(parts, axis=-1)


def _next_level(rows, go_left, seg, tree, rank):
    """The rows, segment sizes, trees and ranks of the children of a level's
    split nodes, whose rows are `rows`, seg[k] of them for node k: the i-th
    split node in breadth-first order has children ranked 2i and 2i + 1."""
    lefts = np.add.reduceat(go_left, np.cumsum(seg) - seg, dtype=np.intp)
    i = np.empty_like(rank)
    i[np.argsort(rank)] = np.arange(len(rank))
    return (
        _partition(rows, (~go_left).view(np.int8)),
        np.concatenate((lefts, seg - lefts)),
        np.concatenate((tree, tree)),
        np.concatenate((2 * i, 2 * i + 1)),
    )


def _draw_by_rank(rngs: list, tree: np.ndarray, rank: np.ndarray, draw) -> np.ndarray:
    """draw(rngs[t], k), one entry along axis 0 per node of tree t, taken by
    each tree for its nodes in breadth-first order and returned in node
    order."""
    by_rank = np.argsort(rank)
    counts = np.bincount(tree, minlength=len(rngs))
    drawn = np.concatenate([draw(rngs[t], k) for t, k in enumerate(counts.tolist()) if k])
    out = np.empty_like(drawn)
    out[by_rank] = drawn
    return out


def _breadth_first(columns: dict[str, list], n_trees: int) -> list[Nodes]:
    """Each tree's `Nodes` from per-depth node columns.

    columns[c] holds one array per depth with that depth's nodes in
    breadth-first order, tree by tree; columns["tree"] names each node's
    tree. A stable sort by tree then puts each tree's nodes breadth first,
    where the i-th split node's children are nodes 2i + 1 and 2i + 2.
    The columns are gathered one at a time, each freed as it goes.
    """
    tree = np.concatenate(columns.pop("tree"))
    order = np.argsort(tree, kind="stable")
    sizes = np.bincount(tree, minlength=n_trees)
    starts = np.cumsum(sizes) - sizes
    del tree
    cols = {name: np.concatenate(columns.pop(name))[order] for name in list(columns)}
    is_split = cols["feature"] >= 0
    before = np.cumsum(is_split) - is_split  # split nodes before each node, over all trees
    i = before - np.repeat(before[starts], sizes)  # ... and within its own tree
    cols["left"] = np.where(is_split, 2 * i + 1, -1)
    cols["right"] = np.where(is_split, 2 * i + 2, -1)
    if "n_positive" not in cols:
        cols["n_positive"] = np.zeros(is_split.size, dtype=np.intp)
    parts = {c: np.split(v, starts[1:]) for c, v in cols.items()}
    return [Nodes(**{c: parts[c][t] for c in COLUMNS}) for t in range(n_trees)]


def _segment_cumsum(a: np.ndarray, starts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Running sums along each row of `a` (overwritten) that restart at every
    segment, whose sum in every row is totals[k], from one cumsum: each
    segment's first entry takes away the previous segment's total. Exact for
    the integer-valued counts it is used on."""
    a[:, starts[1:]] -= totals[:-1]
    return np.cumsum(a, axis=-1, out=a)


def _entropy(p):
    out = np.zeros_like(p)
    mask = (p > 0) & (p < 1)
    pm = p[mask]
    out[mask] = -(pm * np.log2(pm) + (1 - pm) * np.log2(1 - pm))
    return out


def _impurity(p: np.ndarray, criterion: str) -> np.ndarray:
    return 2.0 * p * (1.0 - p) if criterion == GINI else _entropy(p)


def _classification_decrease(yl, wl, seg, n, pos, criterion):
    """Impurity decrease of the cut after every entry: yl (overwritten) holds
    each entry's positive count and wl (overwritten) its number of copies
    (None: one each), and segment k holds n[k] samples, pos[k] of them
    positive. The counts left of a cut are the same integers a tree grown
    on the copies themselves would sum, so the decreases are too."""
    starts = np.cumsum(seg) - seg
    prefix_pos = _segment_cumsum(yl, starts, pos)
    nl = np.arange(1.0, yl.shape[-1] + 1) - np.repeat(starts, seg) if wl is None else _segment_cumsum(wl, starts, n)
    n_rep, pos_rep = np.repeat(n, seg), np.repeat(pos, seg)
    nr = n_rep - nl
    pl = prefix_pos / nl
    pr = np.subtract(pos_rep, prefix_pos, out=prefix_pos)
    pr /= nr  # inf or nan at a segment's last entry, which is no cut
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
    left /= n_rep
    return np.subtract(np.repeat(_impurity(pos / n, criterion), seg), left, out=left)


def _regression_proxy(tl, seg):
    """Squared-error decrease of the cut after every entry up to a per-node
    constant: sl² / nl + sr² / nr, with sl the running sum of the targets tl
    (overwritten) and sr the rest (scikit-learn's proxy impurity
    improvement). Each node sums its own entries, so that its sums round as
    a tree grown on that node alone would round them."""
    starts = np.cumsum(seg) - seg
    for s, m in zip(starts.tolist(), seg.tolist()):
        np.cumsum(tl[:, s : s + m], axis=1, out=tl[:, s : s + m])
    nl = np.arange(1.0, tl.shape[1] + 1) - np.repeat(starts, seg)
    nr = np.repeat(seg, seg) - nl
    right = np.repeat(tl[:, starts + seg - 1], seg, axis=1)
    right -= tl
    np.square(right, out=right)
    right /= nr  # inf or nan at a segment's last entry, which is no cut
    proxy = np.square(tl, out=tl)
    proxy /= nl
    proxy += right
    return proxy


def _best_cuts(xs, score, seg):
    """(candidate row, threshold, score) of each segment's largest score over
    cuts between distinct sorted values; the score is -inf where no row has
    two distinct values.

    Row j of xs holds candidate column j's values, sorted within each
    segment, and score[j, i] scores the cut after entry i (overwritten: a
    cut that does not lie between increasing values becomes -inf). A
    segment's first maximum in row-major order wins, which is the
    documented tie-break: lowest feature, then lowest threshold.
    """
    starts = np.cumsum(seg) - seg
    np.putmask(score[:, :-1], xs[:, :-1] >= xs[:, 1:], -np.inf)
    score[:, starts + seg - 1] = -np.inf
    best_of_row = np.maximum.reduceat(score, starts, axis=1)
    row = np.argmax(best_of_row, axis=0)
    best = best_of_row[row, np.arange(len(seg))]
    along = score[np.repeat(row, seg), np.arange(score.shape[1])]
    hits = np.flatnonzero(along == np.repeat(best, seg))
    at = np.minimum(hits[np.searchsorted(hits, starts)], score.shape[1] - 2)
    return row, (xs[row, at] + xs[row, at + 1]) / 2.0, best


# list entries per block of candidate rows that one search pass scores, so
# that a large level's temporaries stay 512 KB each; at the bench's size a
# whole level is one block, and smaller blocks were slower there
_SEARCH_BLOCK = 2**16


def _best_splits(xt, row_of, lists, candidates, seg, labels, weight, n, pos, criterion):
    """(candidate index, threshold) of each segment's best cut, index -1
    where there is none.

    `lists` holds the segments' part of every sorted list, in segment
    order; sample s is row row_of[s] (None: row s) of x, and xt is x.T,
    C-contiguous. candidates[k] names segment k's candidate columns in
    ascending order (None: every column). The targets are `labels` (positive
    counts for classification), with `weight` copies per sample (None: one
    each); segment k holds n[k] samples, pos[k] of them positive. Candidate
    rows are scored a block at a time; a later block's cut must score
    strictly higher to win, which keeps the lowest-feature tie-break.
    """
    k = len(lists) if candidates is None else candidates.shape[1]
    if candidates is not None:
        chosen = np.repeat(candidates.T, seg, axis=1)
    row, cut, best = np.full(len(seg), -1), np.zeros(len(seg)), np.full(len(seg), -np.inf)
    step = max(1, _SEARCH_BLOCK // lists.shape[1])
    for j in range(0, k, step):
        if candidates is None:
            column = np.arange(j, min(j + step, k))[:, None]
            cl = lists[j : j + step].astype(np.intp)  # numpy gathers far faster by intp indices
        else:
            column = chosen[j : j + step]
            cl = np.take_along_axis(lists, column, axis=0).astype(np.intp)
        xs = xt.take((cl if row_of is None else row_of.take(cl)) + column * xt.shape[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            if criterion == SQUARED:
                score = _regression_proxy(labels.take(cl), seg)
            else:
                wl = None if weight is None else weight.take(cl)
                score = _classification_decrease(labels.take(cl), wl, seg, n, pos, criterion)
        block_row, block_cut, block_best = _best_cuts(xs, score, seg)
        better = block_best > best
        row[better], cut[better], best[better] = block_row[better] + j, block_cut[better], block_best[better]
    return row, cut


# ---------------------------------------------------------------- grower


def _grow(template: "DecisionTree", xt, y, order, counts, rngs) -> list[Nodes]:
    """The `Nodes` of trees with `template`'s settings, grown together a
    level at a time.

    Tree t grows on the rows with counts[t] > 0, each standing for that many
    copies (counts None: one tree on every row once), and draws its
    max_features subsets from rngs[t]: per level, one permutation(d) per
    open node, breadth first, the first max_features entries of which,
    sorted, are the node's candidate columns. A node is open, and searched,
    when it holds two or more samples with different targets above the
    depth limit; it splits when some candidate column has two distinct
    values on it. A gini or entropy leaf's value is its positive share of
    the samples' copies; a squared-error leaf's is the mean of its targets.

    A sample is one distinct row of one tree. `rows` holds the samples of
    every node of the level, node after node in the level's order (see
    `_partition`), each node's in row order; `lists` holds the open nodes'
    part of every list of `order`, in the same node order; rank[k] is node
    k's breadth-first position in the level, which fixes the draws and the
    node ids.
    """
    criterion, max_depth, max_features = template.criterion, template.max_depth, template.max_features
    d, n = xt.shape
    # 32-bit list entries halve the memory the partitions move
    entry = np.int32 if n * len(rngs) < 2**31 else np.intp
    if counts is None:
        sample_row, weight, lists, seg = np.arange(n), None, order.astype(entry), np.array([n])
    else:
        rows_of, parts, offset = [], [], 0
        for c in counts:
            present = c > 0
            if not present.any():
                raise DataError("a tree needs at least one training row")
            ids = np.cumsum(present, dtype=entry) + entry(offset - 1)  # sample id of each present row
            parts.append(ids.take(order.compress(present.take(order).ravel()).reshape(d, -1)))
            rows_of.append(np.flatnonzero(present))
            offset += len(rows_of[-1])
        sample_row, lists = np.concatenate(rows_of), np.concatenate(parts, axis=1)
        weight = np.concatenate([c[r] for c, r in zip(counts, rows_of)]).astype(float)
        seg = np.array([len(r) for r in rows_of])
        del parts
    n_trees = len(seg)
    row_of = None if counts is None else sample_row
    target = y[sample_row]
    labels = target if weight is None else target * weight
    draw = max_features is not None and max_features < d

    def node_stats(rows, seg, depth):
        """Each node's samples, positives, and whether it is open."""
        starts = np.cumsum(seg) - seg
        t = target[rows]
        n_node = seg.astype(float) if weight is None else np.add.reduceat(weight[rows], starts)
        pos = np.zeros(len(seg)) if criterion == SQUARED else np.add.reduceat(labels[rows], starts)
        open_ = (n_node >= 2) & (np.minimum.reduceat(t, starts) < np.maximum.reduceat(t, starts))
        if max_depth is not None and depth >= max_depth:
            open_[:] = False
        return n_node, pos, open_

    rows, tree, rank = np.arange(len(sample_row)), np.arange(n_trees), np.arange(n_trees)
    depth = 0
    n_node, pos, open_ = node_stats(rows, seg, depth)
    if not open_.all():
        lists = lists.compress(np.repeat(open_, seg), axis=1)
    side = np.empty(len(sample_row), dtype=np.int8)  # where each sample of a split node goes
    columns: dict[str, list] = {c: [] for c in ("tree", "feature", "threshold", "value", "n_samples", "n_positive")}
    while True:
        feature = np.full(len(seg), -1)
        threshold = np.zeros(len(seg))
        if open_.any():
            o_seg = seg[open_]
            candidates = None
            if draw:
                candidates = _draw_by_rank(
                    rngs, tree[open_], rank[open_], lambda rng, k: rng.permuted(np.tile(np.arange(d), (k, 1)), axis=1)
                )[:, :max_features]
                candidates.sort(axis=1)
            best, cut = _best_splits(
                xt, row_of, lists, candidates, o_seg, labels, weight, n_node[open_], pos[open_], criterion
            )
            found = best >= 0
            picked = best[found] if candidates is None else candidates[np.flatnonzero(found), best[found]]
            feature[np.flatnonzero(open_)[found]] = picked
            threshold[np.flatnonzero(open_)[found]] = cut[found]
            if not found.all():
                lists = lists.compress(np.repeat(found, o_seg), axis=1)
        split = feature >= 0
        if criterion == SQUARED:
            value = np.zeros(len(seg))
            starts = np.cumsum(seg) - seg
            for k in np.flatnonzero(~split).tolist():
                value[k] = target[rows[starts[k] : starts[k] + seg[k]]].mean()
        else:
            value = np.where(split, 0.0, pos / n_node)
        by_rank = np.argsort(rank)
        level = (tree, feature, threshold, value, n_node.astype(np.intp), pos.astype(np.intp))
        for name, column in zip(columns, level):
            columns[name].append(column[by_rank])
        if not split.any():
            break
        if not split.all():
            rows = rows.compress(np.repeat(split, seg))
        split_seg = seg[split]
        at = rows if row_of is None else row_of[rows]
        go = xt[np.repeat(feature[split], split_seg), at] <= np.repeat(threshold[split], split_seg)
        parents = rows
        rows, seg, tree, rank = _next_level(rows, go, split_seg, tree[split], rank[split])
        depth += 1
        n_node, pos, open_ = node_stats(rows, seg, depth)
        if not open_.any():  # the depth limit, say: no child is searched
            continue
        # the lists keep the entries of the open children only
        child = np.repeat(np.arange(len(split_seg)), split_seg) + np.where(go, 0, len(split_seg))
        side[parents] = np.where(open_[child], (~go).view(np.int8), 2)
        lists = _partition(lists, side.take(lists))
    return _breadth_first(columns, n_trees)


def _training_arrays(x, y, criterion: str) -> tuple[np.ndarray, np.ndarray]:
    """Finite float rows and targets of matching shapes; a classification
    criterion also needs every target to be 0 or 1."""
    x = require_finite(np.asarray(x, dtype=float), "training rows")
    y = require_finite(np.asarray(y, dtype=float), "training targets")
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ModelError("bad training shapes")
    if x.shape[0] == 0:
        raise DataError("a tree needs at least one training row")
    if criterion != SQUARED:
        binary_labels(y)
    return x, y


@dataclass
class DecisionTree:
    """Binary CART. criterion gini/entropy classifies {0,1} labels (any
    other target is a DataError); squared_error regresses real targets
    (used by the boosted ensemble)."""

    criterion: str = GINI
    max_depth: int | None = None
    max_features: int | None = None  # per-node random subset size (forests)
    nodes: Nodes | None = None
    n_features: int = 0

    # the settings a document holds next to the tree's `Nodes`
    _FIELDS = {
        "criterion": (GINI, ENTROPY, SQUARED),
        "max_depth": lambda depth: None if depth is None else check_value("max_depth", depth, Range(int, 1)),
        "n_features": COUNT,
    }

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator | None = None,
        order: np.ndarray | None = None,
    ) -> "DecisionTree":
        """Grow the tree on rows x with targets y, a level at a time.
        `order` is `presort(x)`, computed here when not given, so that fits on
        one matrix can share it. Rows go left where x[:, feature] <=
        threshold, so `nodes.route(x)` gives each training row's leaf. With
        max_features, the tree draws its candidate columns from rng as
        `_grow` states.
        """
        self._check_criterion()
        x, y = _training_arrays(x, y, self.criterion)
        if self.max_features is not None and rng is None:
            rng = np.random.default_rng(0)
        order = presort(x) if order is None else order
        self.nodes = _grow(self, np.ascontiguousarray(x.T), y, order, None, [rng])[0]
        self.n_features = x.shape[1]
        return self

    def _check_criterion(self, allowed=(GINI, ENTROPY, SQUARED)) -> None:
        if self.criterion not in allowed:
            raise ModelError(f"criterion {self.criterion!r} is not one of {allowed}")

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
        return {**write_fields(self, self._FIELDS), **self._require_fit().to_dict()}

    @classmethod
    @document_parser
    def from_dict(cls, doc: dict) -> "DecisionTree":
        """A fitted tree: its settings and its `Nodes`, in one document."""
        fields = read_fields(doc, cls._FIELDS)
        return cls(**fields, nodes=Nodes.from_dict(doc, fields["n_features"]))


def fit_forest(
    template: DecisionTree,
    x: np.ndarray,
    y: np.ndarray,
    samples: Iterable[tuple[np.ndarray, np.random.Generator]],
) -> list[DecisionTree]:
    """One classification tree with `template`'s settings per (counts, rng)
    of `samples`: counts gives each row's number of copies in a bootstrap
    sample, 0 leaving it out, and the tree is the one `DecisionTree.fit`
    would grow on those copies with that rng.

    The trees grow together a level at a time, in groups taken in order:
    a group's sorted lists hold at most `data.BLOCK` entries (d per distinct
    row of each tree, at least one tree), so that a level's arrays stay
    within a few MB. Each tree draws its candidate columns from its own rng,
    breadth first: at every level, one permutation(d) per open node, as
    `_grow` states.
    """
    template._check_criterion((GINI, ENTROPY))
    x, y = _training_arrays(x, y, template.criterion)
    order = presort(x)
    xt = np.ascontiguousarray(x.T)
    grown: list[Nodes] = []
    group: list[tuple[np.ndarray, np.random.Generator]] = []
    entries = 0
    for counts, rng in samples:
        size = np.count_nonzero(counts) * x.shape[1]
        if group and entries + size > BLOCK:
            grown += _grow(template, xt, y, order, *zip(*group))
            group, entries = [], 0
        group.append((np.asarray(counts), rng))
        entries += size
    if group:
        grown += _grow(template, xt, y, order, *zip(*group))
    return [replace(template, nodes=nodes, n_features=x.shape[1]) for nodes in grown]
