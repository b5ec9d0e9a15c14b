"""The flat tree layout: deep trees, checked tree documents and the split
tie-breaks."""

import json

import numpy as np
import pytest

from fraudkit.classify import ClassifierConfig, extract_rules, fit_arrays, load_model
from fraudkit.errors import ModelError
from fraudkit.occ import DetectorConfig, detector_from_dict, fit_detector
from fraudkit.tree import TREE_FORMAT, DecisionTree


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


def test_nodes_are_numbered_in_pre_order():
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(200, 3))
    y = (x[:, 0] + x[:, 1] > 1.0).astype(int)
    tree = DecisionTree(max_depth=5).fit(x, y)
    nodes = tree.nodes_by_id()
    inner = np.nonzero(nodes.feature >= 0)[0]
    assert np.array_equal(nodes.left[inner], inner + 1)
    assert np.all(nodes.right[inner] > nodes.left[inner])
    # a split node's rows are the sum of its children's
    children = nodes.n_samples[nodes.left[inner]] + nodes.n_samples[nodes.right[inner]]
    assert np.array_equal(nodes.n_samples[inner], children)
    assert sorted(tree.leaf_training_indices) == np.nonzero(nodes.feature < 0)[0].tolist()


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
