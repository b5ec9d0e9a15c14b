"""The flat tree layout: deep trees, checked tree documents and the split
tie-breaks."""

import json
import tracemalloc
from collections import deque

import numpy as np
import pytest

from fraudkit.classify import ClassifierConfig, extract_rules, fit_arrays, load_model
from fraudkit.errors import DataError, ModelError
from fraudkit.occ import DetectorConfig, detector_from_dict, fit_detector
from fraudkit.tree import SQUARED, TREE_FORMAT, DecisionTree, fit_forest


def test_unbounded_tree_on_deep_data(tmp_path):
    # period-3 labels on one feature need a split every few rows: depth ~ n/3
    n = 4000
    x = np.arange(n, dtype=float).reshape(-1, 1)
    y = (np.arange(n) % 3 == 0).astype(int)
    model = fit_arrays(ClassifierConfig("dt"), x, y)
    assert np.array_equal(model.predict_proba(x), y)
    path = tmp_path / "dt.json"
    model.save(path)
    assert np.array_equal(load_model(path).predict_proba(x), y)
    json.dumps(model.to_dict())
    rules = extract_rules(model)
    assert sum(r.support for r in rules) == n


@pytest.mark.parametrize("criterion", ["gini", "entropy", "squared_error"])
def test_split_tie_goes_to_lowest_feature(criterion):
    # columns 1 and 2 are identical and separate the labels; column 0 is noise
    rng = np.random.default_rng(5)
    signal = rng.uniform(size=40)
    x = np.column_stack([rng.uniform(size=40), signal, signal])
    y = (signal > 0.5).astype(float)
    nodes = DecisionTree(criterion=criterion, max_depth=1).fit(x, y).nodes_by_id()
    assert nodes.feature[0] == 1


@pytest.mark.parametrize("criterion", ["gini", "entropy", "squared_error"])
def test_split_tie_goes_to_lowest_threshold(criterion):
    # cutting at 0.5 or at 2.5 isolates one pure row: equal decrease
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    nodes = DecisionTree(criterion=criterion, max_depth=1).fit(x, y).nodes_by_id()
    assert (nodes.feature[0], nodes.threshold[0]) == (0, 0.5)


@pytest.mark.parametrize("width", [0, 2])
def test_node_without_a_distinct_column_is_a_leaf(width):
    x = np.ones((5, width))  # no column, or only constant ones
    y = np.array([0, 1, 0, 1, 1])
    for criterion in ("gini", "squared_error"):
        nodes = DecisionTree(criterion=criterion).fit(x, y).nodes_by_id()
        assert nodes.feature.tolist() == [-1]
        assert nodes.value[0] == 0.6


def test_nodes_are_numbered_breadth_first():
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(200, 3))
    y = (x[:, 0] + x[:, 1] > 1.0).astype(int)
    tree = DecisionTree(max_depth=5).fit(x, y)
    nodes = tree.nodes_by_id()
    inner = np.nonzero(nodes.feature >= 0)[0]
    # the i-th split node's children are nodes 2i + 1 and 2i + 2
    assert np.array_equal(nodes.left[inner], 2 * np.arange(inner.size) + 1)
    assert np.array_equal(nodes.right[inner], nodes.left[inner] + 1)
    assert len(nodes) == 2 * inner.size + 1
    # depth never falls along the numbering
    assert np.all(np.diff(_depths(nodes)) >= 0)
    # a split node's rows are the sum of its children's
    children = nodes.n_samples[nodes.left[inner]] + nodes.n_samples[nodes.right[inner]]
    assert np.array_equal(nodes.n_samples[inner], children)
    # every leaf holds training rows
    assert np.array_equal(np.unique(nodes.route(x)), np.flatnonzero(nodes.feature < 0))


def _tree_doc() -> dict:
    x = np.array([[0.0, 5.0], [1.0, 4.0], [2.0, 3.0], [3.0, 2.0]])
    y = np.array([0, 1, 0, 1])
    return DecisionTree().fit(x, y).to_dict()


def test_tree_document_round_trip():
    doc = _tree_doc()
    assert doc["format"] == TREE_FORMAT
    back = DecisionTree.from_dict(json.loads(json.dumps(doc)))
    assert back.to_dict() == doc


def _nested_layout(doc):
    return {
        "criterion": "gini",
        "max_depth": None,
        "n_features": 2,
        "root": {
            "feature": 0,
            "threshold": 0.5,
            "n": 2,
            "pos": 1,
            "left": {"value": 0.0, "n": 1, "pos": 0},
            "right": {"value": 1.0, "n": 1, "pos": 1},
        },
    }


def _unequal_columns(doc):
    doc["value"] = doc["value"][:-1]


def _child_not_after_parent(doc):
    doc["left"][0] = 0


def _child_out_of_range(doc):
    doc["right"][0] = len(doc["feature"])


def _feature_too_large(doc):
    doc["feature"][0] = doc["n_features"]


def _feature_negative(doc):
    doc["feature"][0] = -2


@pytest.mark.parametrize(
    "corrupt",
    [_nested_layout, _unequal_columns, _child_not_after_parent, _child_out_of_range, _feature_too_large, _feature_negative],
)
def test_malformed_tree_document_is_model_error(corrupt):
    doc = _tree_doc()
    doc = corrupt(doc) or doc
    with pytest.raises(ModelError):
        DecisionTree.from_dict(doc)


def test_malformed_isolation_tree_is_model_error():
    x = np.random.default_rng(2).normal(size=(60, 2))
    doc = fit_detector(DetectorConfig("iforest", {"n_estimators": 3, "max_samples": 32}), x).to_dict()
    doc["state"]["trees"][1]["right"][0] = 0  # would route rows back to the root forever
    with pytest.raises(ModelError):
        detector_from_dict(doc)


# ---------------------------------------------------------------- per-node argsort oracle
#
# A CART grower that takes one node at a time, breadth first from a queue,
# and argsorts its candidate columns again at every node (stably for tied
# squared-error columns), as the grower did before the presort. The
# level-at-a-time grower must give the same node table, bit for bit.


def _oracle_cut(xs, decrease):
    decrease = np.where(xs[:-1] < xs[1:], decrease, -np.inf)
    if decrease.shape[1] == 0:
        return None
    rows = np.argmax(decrease, axis=0)
    best = decrease[rows, np.arange(decrease.shape[1])]
    j = int(np.argmax(best))
    if best[j] == -np.inf:
        return None
    return j, float((xs[rows[j], j] + xs[rows[j] + 1, j]) / 2.0)


def _oracle_split(cols, t, criterion):
    n = len(t)
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    if criterion == "squared_error":
        order = np.argsort(cols, axis=0)
        xs = np.take_along_axis(cols, order, axis=0)
        tied = np.any(xs[:-1] == xs[1:], axis=0)
        order[:, tied] = np.argsort(cols[:, tied], axis=0, kind="stable")
        s1 = np.cumsum(t[order], axis=0)
        # the proxy decrease sl^2 / nl + sr^2 / nr
        return _oracle_cut(xs, s1[:-1] ** 2 / nl + (s1[-1] - s1[:-1]) ** 2 / nr)
    total = int(t.sum())
    order = np.argsort(cols, axis=0)
    xs = np.take_along_axis(cols, order, axis=0)
    prefix = np.cumsum(t[order], axis=0)[:-1]
    pl, pr = prefix / nl, (total - prefix) / nr

    def impurity(p):
        if criterion == "gini":
            return 2.0 * p * (1.0 - p)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
        return np.where((p > 0) & (p < 1), out, 0.0)

    parent = float(impurity(np.array(total / n)))
    return _oracle_cut(xs, parent - (nl * impurity(pl) + nr * impurity(pr)) / n)


def _oracle_tree(x, y, criterion, max_depth=None, max_features=None, rng=None):
    """Node columns and leaf rows of a breadth-first CART grower: nodes are
    numbered as they leave the queue, and a splittable node draws its
    candidate columns, permutation(d)[:max_features], when it leaves."""
    d = x.shape[1]
    cols = {c: [] for c in ("feature", "threshold", "left", "right", "value", "n_samples", "n_positive")}
    leaves = {}
    queue = deque([(np.arange(len(y)), 0, -1, None)])
    while queue:
        rows, depth, parent, side = queue.popleft()
        node = len(cols["feature"])
        if side is not None:
            cols[side][parent] = node
        ys = y[rows]
        n_positive = 0 if criterion == "squared_error" else int(ys.sum())
        best = None
        if len(rows) >= 2 and not (ys == ys[0]).all() and (max_depth is None or depth < max_depth):
            if max_features is not None and max_features < d:
                candidates = np.sort(rng.permutation(d)[:max_features])
            else:
                candidates = np.arange(d)
            best = _oracle_split(x[np.ix_(rows, candidates)], ys, criterion)
        if best is None:
            value = float(ys.mean()) if criterion == "squared_error" else n_positive / len(ys)
            feature, threshold = -1, 0.0
        else:
            feature, threshold, value = int(candidates[best[0]]), best[1], 0.0
        for c, v in zip(cols, (feature, threshold, -1, -1, value, len(rows), n_positive)):
            cols[c].append(v)
        if feature < 0:
            leaves[node] = rows
            continue
        go_left = x[rows, feature] <= threshold
        queue.append((rows[go_left], depth + 1, node, "left"))
        queue.append((rows[~go_left], depth + 1, node, "right"))
    return cols, leaves


def _tied_rows(seed, n=240, d=6):
    """Few distinct values per column, duplicated rows, one continuous column."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, size=(n, d)).astype(float)
    x[:, -1] = rng.uniform(size=n)
    x = np.vstack([x, x[rng.integers(0, n, size=n // 4)]])
    signal = x[:, 0] + x[:, 1] * x[:, 2] + rng.normal(0.0, 1.5, size=len(x))
    return x, signal


def _assert_same_tree(tree, oracle, x, rows):
    """The tree has the oracle's columns, and its training rows, `rows` of
    x ascending, reach the oracle's leaves: each leaf the rows it lists."""
    cols, leaves = oracle
    nodes = tree.nodes_by_id()
    for c, v in cols.items():
        expected = np.asarray(v, dtype=float if c in ("threshold", "value") else np.intp)
        assert np.array_equal(getattr(nodes, c), expected), c
    leaf = nodes.route(x[rows])
    assert np.unique(leaf).tolist() == sorted(leaves)
    for node, members in leaves.items():
        assert np.array_equal(rows[leaf == node], members)


@pytest.mark.parametrize("max_features", [None, 2])
@pytest.mark.parametrize("criterion", ["gini", "entropy", "squared_error"])
@pytest.mark.parametrize("seed", [0, 1])
def test_tree_matches_per_node_argsort_oracle(seed, criterion, max_features):
    x, signal = _tied_rows(seed)
    y = signal if criterion == "squared_error" else (signal > 3.0).astype(float)
    tree = DecisionTree(criterion=criterion, max_depth=7, max_features=max_features)
    tree.fit(x, y, rng=np.random.default_rng(seed))
    oracle = _oracle_tree(x, y, criterion, 7, max_features, np.random.default_rng(seed))
    _assert_same_tree(tree, oracle, x, np.arange(len(y)))


def _depths(nodes):
    depth = np.zeros(len(nodes), dtype=int)
    for i in np.nonzero(nodes.feature >= 0)[0]:
        depth[[nodes.left[i], nodes.right[i]]] = depth[i] + 1
    return depth


def _assert_forest_matches_oracle(criterion, estimators):
    x, signal = _tied_rows(4)
    y = (signal > 3.0).astype(int)
    params = {"criterion": criterion, "estimators": estimators, "maxdepth": 6}
    model = fit_arrays(ClassifierConfig("rf", params, seed=9), x, y)
    for tree, seq in zip(model.trees, np.random.SeedSequence(9).spawn(estimators)):
        rng = np.random.default_rng(seq)  # the draws `_fit_rf` makes for this tree; sqrt(6) rounds to 2
        idx = rng.integers(0, len(y), size=len(y))
        cols, leaves = _oracle_tree(x[idx], y[idx].astype(float), criterion, 6, 2, rng)
        # each leaf's sample positions as the distinct rows of x they hold
        in_bag = {leaf: np.unique(idx[rows]) for leaf, rows in leaves.items()}
        _assert_same_tree(tree, (cols, in_bag), x, np.unique(idx))
    return model


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_forest_matches_per_node_argsort_oracle_on_bootstrap_samples(criterion):
    _assert_forest_matches_oracle(criterion, 4)


def test_forest_level_of_many_nodes_matches_oracle():
    # the 40 trees grow in one group, whose deep levels split more than 127
    # nodes at once, past what an int8 child index could number
    model = _assert_forest_matches_oracle("gini", 40)
    assert sum(np.bincount(_depths(t.nodes_by_id()), minlength=7) for t in model.trees).max() > 2 * 127


@pytest.mark.parametrize("criterion", ["gini", "squared_error"])
def test_fit_rejects_non_finite_rows_and_targets(criterion):
    # a NaN row used to be fitted: every comparison with it is false, so it went right
    x, y = [[0.0], [1.0], [2.0], [3.0]], [0.0, 1.0, 1.0, 0.0]
    for bad_x, bad_y in (([[0.0], [1.0], [np.nan], [2.0]], y), (x, [0.0, np.inf, 1.0, 0.0])):
        with pytest.raises(DataError):
            DecisionTree(criterion).fit(bad_x, bad_y)


def test_fit_without_rows_is_a_data_error():
    # no rows, or a bootstrap sample that leaves every row out, divided by zero
    with pytest.raises(DataError):
        DecisionTree().fit(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DataError):
        fit_forest(DecisionTree(), np.ones((3, 2)), [0, 1, 0], [(np.zeros(3), np.random.default_rng(0))])


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_classification_targets_must_be_zero_or_one(criterion):
    # these targets once grew leaves valued 1.5, 2.0 and 5.0
    x, y = np.arange(6.0).reshape(-1, 1), [0, 2, 2, 5, 0, 1.5]
    with pytest.raises(DataError, match="0/1"):
        DecisionTree(criterion).fit(x, y)
    with pytest.raises(DataError, match="0/1"):
        fit_forest(DecisionTree(criterion), x, y, [(np.ones(6), np.random.default_rng(0))])


def test_squared_error_keeps_real_targets():
    x, y = np.arange(6.0).reshape(-1, 1), [0, 2, 2, 5, 0, 1.5]
    assert DecisionTree(SQUARED).fit(x, y).predict_value(x).tolist() == y


def test_regression_split_search_works_in_place():
    # a search allocating a fresh array per step of sl and sr peaked at 13.0 MB
    rng = np.random.default_rng(5)
    x, y = rng.uniform(size=(5000, 30)), rng.uniform(size=5000)
    tracemalloc.start()
    try:
        DecisionTree(SQUARED, max_depth=3).fit(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * x.nbytes


def _traced_peak(fit) -> int:
    tracemalloc.start()
    try:
        fit()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_level_arrays_stay_near_the_size_of_the_data():
    # the per-node grower, which scored the root's whole lists at once, peaked at 8.3 times the data
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(20_000, 30))
    y = (x[:, 0] + x[:, 1] * x[:, 2] + rng.normal(0.0, 0.3, size=len(x)) > 0.8).astype(int)
    assert _traced_peak(lambda: fit_arrays(ClassifierConfig("dt", {"maxdepth": 8}), x, y)) <= 5 * x.nbytes
    # growing all ten trees of a forest in one group would hold ten trees' lists at once
    x, y = x[:5_000], y[:5_000]
    config = ClassifierConfig("rf", {"estimators": 10, "maxdepth": 8})
    assert _traced_peak(lambda: fit_arrays(config, x, y)) <= 8 * x.nbytes


@pytest.mark.parametrize(
    "config",
    [
        ClassifierConfig("dt"),
        ClassifierConfig("rf", {"estimators": 20}),
        ClassifierConfig("gbt", {"estimators": 20, "maxdepth": 6}),
    ],
    ids=lambda config: config.kind,
)
def test_fitted_model_keeps_little_more_than_its_nodes(config):
    # each tree kept a list of every leaf's training rows, and the model 3.1,
    # 2.9 and 5.4 times its node columns' bytes; without them, 1.15, 1.08 and 1.34
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2_000, 5))
    y = (x[:, 0] + x[:, 1] * x[:, 2] + rng.normal(0.0, 0.8, size=len(x)) > 0.4).astype(int)
    fit_arrays(config, x, y)  # imports and caches are made on the first fit
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = fit_arrays(config, x, y)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    trees = [model.tree] if config.kind == "dt" else model.trees
    columns = sum(value.nbytes for tree in trees for value in vars(tree.nodes).values())
    assert kept <= 2 * columns


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_value_rejects_a_row_that_is_not_finite(bad):
    # a NaN compares false, so the row went right and came back as a leaf value
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(40, 3))
    tree = DecisionTree(max_depth=3).fit(x, (x[:, 0] > 0.5).astype(int))
    with pytest.raises(DataError, match="rows must be finite"):
        tree.predict_value([[bad, 0.2, 0.3]])
    with pytest.raises(ModelError, match="width 3"):
        tree.predict_value(x[:, :2])
