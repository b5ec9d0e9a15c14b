import tracemalloc

import numpy as np
import pytest

from fraudkit.classify import ClassifierConfig
from fraudkit.data import dataset_from_matrix
from fraudkit.errors import ConfigError, DataError
from fraudkit.occ import DetectorConfig
from fraudkit.resample import (
    BalancerConfig,
    adasyn,
    allocate_adaptive,
    balance,
    enn_filter,
    knn,
    project_onehot,
    smote,
    smote_draws,
    smote_enn,
    smote_tomek,
    tomek_remove,
)


def labeled(x, y):
    return dataset_from_matrix(np.asarray(x, dtype=float), y)


# ------------------------------------------------------------------ config


def test_config_rejects_bad_method():
    with pytest.raises(ConfigError):
        BalancerConfig(method="undersample")


def test_config_rejects_bad_ratio():
    with pytest.raises(ConfigError):
        BalancerConfig(target_ratio=1.5)


@pytest.mark.parametrize(
    "parse, doc",
    [
        (BalancerConfig.from_dict, {"k_neighbors": "5"}),
        (BalancerConfig.from_dict, {"k_neighbors": True}),
        (BalancerConfig.from_dict, {"enn_k": 2.5}),
        (BalancerConfig.from_dict, {"seed": None}),
        (BalancerConfig.from_dict, {"seed": -1}),
        (BalancerConfig.from_dict, {"target_ratio": None}),
        (BalancerConfig.from_dict, {"target_ratio": "0.5"}),
        (BalancerConfig.from_dict, None),
        (BalancerConfig.from_dict, ["method"]),
        (ClassifierConfig.from_dict, {}),
        (ClassifierConfig.from_dict, "nb"),
        (ClassifierConfig.from_dict, {"kind": "nb", "seed": "x"}),
        (ClassifierConfig.from_dict, {"kind": "nb", "seed": float("inf")}),
        (ClassifierConfig.from_dict, {"kind": "dt", "parameters": 3}),
        (DetectorConfig.from_dict, {"parameters": {}}),
        (DetectorConfig.from_dict, 7),
        (DetectorConfig.from_dict, {"kind": "iforest", "contamination": "x"}),
        (DetectorConfig.from_dict, {"kind": "iforest", "contamination": None}),
        (ClassifierConfig.from_dict, {"kind": "nb", "seed": 3.7}),
        (ClassifierConfig.from_dict, {"kind": "rf", "seed": -1}),
        (DetectorConfig.from_dict, {"kind": "iforest", "seed": -1}),
        (DetectorConfig.from_dict, {"kind": "iforest", "seed": True}),
        (DetectorConfig.from_dict, {"kind": "iforest", "parameters": [["n_estimators", 10]]}),
        (ClassifierConfig.from_dict, {"kind": "lr", "params": {"max_iter": 5}}),
        (DetectorConfig.from_dict, {"kind": "iforest", "params": {"n_estimators": 5}}),
        (BalancerConfig.from_dict, {"method": "smote", "k": 3}),
    ],
    ids=[
        "balancer-k-string", "balancer-k-bool", "balancer-enn-float", "balancer-seed-null",
        "balancer-seed-negative", "balancer-ratio-null", "balancer-ratio-string", "balancer-null",
        "balancer-list", "classifier-no-kind", "classifier-string", "classifier-seed-string",
        "classifier-seed-inf", "classifier-parameters-int", "detector-no-kind", "detector-int",
        "detector-contamination-string", "detector-contamination-null", "classifier-seed-fraction",
        "classifier-seed-negative", "detector-seed-negative", "detector-seed-bool", "detector-parameters-pairs",
        "classifier-unknown-key", "detector-unknown-key", "balancer-unknown-key",
    ],
)
def test_config_documents_fail_only_with_config_error(parse, doc):
    with pytest.raises(ConfigError):
        parse(doc)


@pytest.mark.parametrize(
    "make",
    [
        lambda: DetectorConfig("iforest", contamination="x"),
        lambda: DetectorConfig("iforest", contamination=None),
        lambda: DetectorConfig("iforest", parameters=None),
        lambda: DetectorConfig("iforest", seed="x"),
        lambda: DetectorConfig("iforest", seed=-1),
        lambda: DetectorConfig("iforest", seed=2.0),
        lambda: ClassifierConfig("nb", parameters=None),
        lambda: ClassifierConfig("nb", seed="x"),
        lambda: ClassifierConfig("rf", seed=-1),
        lambda: ClassifierConfig("nb", seed=False),
    ],
    ids=[
        "detector-contamination-string", "detector-contamination-none", "detector-parameters-none",
        "detector-seed-string", "detector-seed-negative", "detector-seed-float", "classifier-parameters-none",
        "classifier-seed-string", "classifier-seed-negative", "classifier-seed-bool",
    ],
)
def test_config_constructors_check_field_types(make):
    with pytest.raises(ConfigError):
        make()


# ------------------------------------------------------------------ knn


def _quarter_lattice(n, d, seed):
    # squared distances between quarter-lattice points are exact in float64,
    # so a direct difference formula sees the same ties as `knn`
    return np.random.default_rng(seed).integers(0, 5, size=(n, d)) / 4.0


def test_knn_equidistant_rows_come_back_lowest_index_first():
    b = np.array([[0.75, 0.5], [0.0, 0.0], [0.5, 0.5], [0.5, 0.25], [0.25, 0.5], [0.5, 0.75]])
    nn = knn(b[[2, 0]], b, 5, np.array([2, 0]))
    assert nn.tolist() == [[0, 3, 4, 5, 1], [2, 3, 5, 4, 1]]


@pytest.mark.parametrize("k", [1, 4])  # k = 1 takes a row minimum in place of a partition
def test_knn_matches_stable_sort_oracle_across_chunks(k):
    x = _quarter_lattice(1500, 3, seed=8)  # more rows than one distance chunk, 125 distinct: many ties
    exclude = np.arange(len(x))
    nn = knn(x, x, k, exclude)
    for i in range(len(x)):
        d2 = np.sum((x - x[i]) ** 2, axis=1)
        d2[i] = np.inf
        assert nn[i].tolist() == np.argsort(d2, kind="stable")[:k].tolist()


def test_knn_excluded_index_is_never_returned():
    a = np.array([[i / 4.0, j / 4.0] for i in range(5) for j in range(5)])
    b = np.vstack([a, a])  # each row of a appears twice in b
    exclude = np.arange(25)
    nn = knn(a, b, 3, exclude)
    assert not np.any(nn == exclude[:, None])
    assert nn[:, 0].tolist() == list(range(25, 50))


def test_knn_needs_more_rows_than_k():
    x = np.zeros((3, 2))
    assert knn(x, x, 2, np.arange(3)).tolist() == [[1, 2], [0, 2], [0, 1]]
    with pytest.raises(DataError):
        knn(x, x, 3, np.arange(3))


@pytest.mark.parametrize("k", [1, 3])
def test_knn_matches_stable_sort_oracle_far_from_the_origin(k):
    # |a|² + |b|² - 2 a·b cancels here: ranking by it disagreed with the
    # exact order in 218 of these 300 trials (k = 3)
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = rng.uniform(1e3, 1e4, 3) + rng.normal(scale=1e-4, size=(6, 3))
        d2 = np.sum((x - x[0]) ** 2, axis=1)
        d2[0] = np.inf
        assert knn(x[:1], x, k, np.array([0]))[0].tolist() == np.argsort(d2, kind="stable")[:k].tolist()


def test_knn_floor_leaves_out_close_rows_and_pads_with_minus_one():
    b = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1e-13], [3.0, 0.0], [0.0, 2.0]])
    nn = knn(np.array([[0.0, 0.0], [2.0, 0.0]]), b, 4, floor=1e-24)
    assert nn.tolist() == [[1, 5, 4, -1], [1, 4, 0, 2]]
    assert knn(b[:1], b, 6).tolist() == [[0, 2, 3, 1, 5, 4]]  # without a floor the query's copies come first
    with pytest.raises(DataError):
        knn(b, b, 7)


def test_knn_rejects_rows_that_are_not_finite():
    x = np.zeros((4, 2))
    x[2, 1] = np.nan
    with pytest.raises(DataError):
        knn(x, x, 1, np.arange(4))
    with pytest.raises(DataError):
        knn(np.full((1, 2), np.inf), np.zeros((4, 2)), 1)


@pytest.mark.parametrize("method", [enn_filter, tomek_remove], ids=["enn_filter", "tomek_remove"])
def test_neighbour_filters_keep_the_same_rows_after_a_shift(method):
    # shifting by 1e6 changed the rows ENN kept in 3 of these 5 draws and the rows
    # Tomek kept in all 5 while neighbours were ranked by the dot-product expansion
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(size=(400, 5))
        y = (rng.uniform(size=400) < 0.3).astype(int)
        kept, moved = method(labeled(x, y)), method(labeled(x + 1e6, y))
        assert moved.n == kept.n
        assert np.array_equal(moved.require_labels(), kept.require_labels())
        assert np.allclose(moved.matrix() - 1e6, kept.matrix(), rtol=0.0, atol=1e-6)


@pytest.mark.parametrize(
    "method",
    [
        tomek_remove,
        enn_filter,
        lambda data: knn(data.matrix(), data.matrix(), 5, np.arange(data.n)),
        lambda data: smote_tomek(data, BalancerConfig("smote_tomek")),
    ],
    ids=["tomek_remove", "enn_filter", "knn", "smote_tomek"],
)
def test_neighbour_filters_never_hold_a_full_distance_matrix(method):
    # one n x n float64 matrix is 200 MB; 1,024-row blocks of distances took
    # 82-151 MB, blocks of at most data.BLOCK distances 2-6 MB
    n = 5000
    rng = np.random.default_rng(3)
    data = labeled(rng.uniform(size=(n, 30)), (rng.uniform(size=n) < 0.1).astype(int))
    tracemalloc.start()
    try:
        method(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# ------------------------------------------------------------------ smote


def test_smote_identical_minority_points_stay_put():
    x = [[0.1, 0.1]] * 6 + [[0.5, 0.5], [0.5, 0.5]]
    y = [0] * 6 + [1, 1]
    out = smote(labeled(x, y), BalancerConfig(method="smote", k_neighbors=1, seed=0))
    synth = out.matrix()[8:]
    assert synth.shape[0] == 4  # 6 majority - 2 minority
    assert np.allclose(synth, 0.5)


def test_smote_segment_form():
    x = [[0.1, 0.9]] * 6 + [[0.0, 0.0], [1.0, 1.0]]
    y = [0] * 6 + [1, 1]
    out = smote(labeled(x, y), BalancerConfig(method="smote", k_neighbors=1, seed=3))
    synth = out.matrix()[8:]
    assert np.allclose(synth[:, 0], synth[:, 1], atol=1e-12)
    assert np.all((synth >= 0.0) & (synth <= 1.0))


def test_smote_count_arithmetic(imbalanced_blobs):
    out = smote(imbalanced_blobs, BalancerConfig(method="smote", k_neighbors=5, seed=1))
    assert out.n == imbalanced_blobs.n + 76  # 88 - 12
    labels = out.labels
    assert int(np.sum(labels == 1)) == int(np.sum(labels == 0)) == 88


def test_smote_provenance_betweenness(imbalanced_blobs):
    cfg = BalancerConfig(method="smote", k_neighbors=5, seed=7)
    out = smote(imbalanced_blobs, cfg)
    base_index, neighbor_index, u = smote_draws(imbalanced_blobs, cfg)
    x = imbalanced_blobs.matrix()
    synth = out.matrix()[imbalanced_blobs.n :]
    assert len(u) == len(base_index) == len(neighbor_index) == synth.shape[0]
    for row, b, nn, f in zip(synth, base_index, neighbor_index, u):
        expected = x[b] + f * (x[nn] - x[b])
        assert np.allclose(row, expected, atol=1e-9, rtol=0)
        assert 0.0 <= f <= 1.0
        assert imbalanced_blobs.labels[b] == 1
        assert imbalanced_blobs.labels[nn] == 1


def test_smote_draws_follow_the_documented_order(imbalanced_blobs):
    # one default_rng(seed) stream: all bases, then all neighbour slots, then all u
    cfg = BalancerConfig(method="smote", k_neighbors=5, seed=13)
    minority = np.flatnonzero(imbalanced_blobs.labels == 1)
    x = imbalanced_blobs.matrix()[minority]
    rng = np.random.default_rng(13)
    base = rng.integers(len(minority), size=76)  # 88 majority - 12 minority
    slot = rng.integers(5, size=76)
    u = rng.uniform(size=76)
    neighbor = knn(x, x, 5, np.arange(len(minority)))[base, slot]
    base_index, neighbor_index, drawn_u = smote_draws(imbalanced_blobs, cfg)
    assert base_index.tolist() == minority[base].tolist()
    assert neighbor_index.tolist() == minority[neighbor].tolist()
    assert drawn_u.tolist() == u.tolist()
    synth = smote(imbalanced_blobs, cfg).matrix()[imbalanced_blobs.n :]
    assert synth.tolist() == [(x[b] + f * (x[n] - x[b])).tolist() for b, n, f in zip(base, neighbor, u)]


def test_smote_with_the_ratio_met_appends_nothing():
    x = [[0.1, 0.1]] * 4 + [[0.5, 0.5], [0.6, 0.6], [0.7, 0.7]]
    y = [0] * 4 + [1] * 3
    data = labeled(x, y)
    cfg = BalancerConfig(method="smote", k_neighbors=2, target_ratio=0.5, seed=0)
    base_index, neighbor_index, u = smote_draws(data, cfg)
    assert len(base_index) == len(neighbor_index) == len(u) == 0
    out = smote(data, cfg)
    assert np.array_equal(out.values, data.values)
    assert out.labels.tolist() == y


def test_smote_originals_untouched_and_labels_pure(imbalanced_blobs):
    out = smote(imbalanced_blobs, BalancerConfig(method="smote", k_neighbors=5, seed=2))
    assert np.array_equal(out.values[: imbalanced_blobs.n], imbalanced_blobs.values)
    assert np.array_equal(out.labels[: imbalanced_blobs.n], imbalanced_blobs.labels)
    assert np.all(out.labels[imbalanced_blobs.n :] == 1)


def test_smote_deterministic(imbalanced_blobs):
    cfg = BalancerConfig(method="smote", k_neighbors=5, seed=11)
    a = smote(imbalanced_blobs, cfg)
    b = smote(imbalanced_blobs, cfg)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.labels, b.labels)


def test_smote_k_must_be_below_minority_size():
    x = [[0.0, 0.0]] * 6 + [[1.0, 1.0]] * 3
    y = [0] * 6 + [1] * 3
    with pytest.raises(DataError):
        smote(labeled(x, y), BalancerConfig(method="smote", k_neighbors=3))


def test_smote_requires_unit_box():
    x = [[5.0, 0.0]] * 4 + [[1.0, 1.0]] * 2
    y = [0] * 4 + [1] * 2
    with pytest.raises(DataError, match="normalized"):
        smote(labeled(x, y), BalancerConfig(method="smote", k_neighbors=1))


def test_smote_equidistant_neighbours_go_to_lowest_index():
    # quarter-lattice points: squared distances are exact, so rows 0, 3, 4
    # and 5 are all exactly 0.25 from the centre (row 2)
    minority = [[0.75, 0.5], [0.0, 0.0], [0.5, 0.5], [0.5, 0.25], [0.25, 0.5], [0.5, 0.75]]
    x = np.array(minority + [[1.0, 0.0]] * 200)
    y = [1] * 6 + [0] * 200
    cfg = BalancerConfig(method="smote", k_neighbors=2, seed=0)
    base_index, neighbor_index, _ = smote_draws(labeled(x, y), cfg)
    drawn = {}
    for b, nn in zip(base_index.tolist(), neighbor_index.tolist()):
        drawn.setdefault(b, set()).add(nn)
    assert drawn[2] == {0, 3}  # not 4 or 5
    assert drawn[0] == {2, 3}  # rows 3 and 5 tie for second
    for base, neighbours in drawn.items():
        d2 = np.sum((x[:6] - x[base]) ** 2, axis=1)
        d2[base] = np.inf
        assert neighbours <= set(np.argsort(d2, kind="stable")[:2].tolist())


def test_smote_onehot_reprojection():
    # first two columns form a one-hot group; synthetic rows must stay valid
    x = [[1.0, 0.0, 0.2]] * 6 + [[1.0, 0.0, 0.8], [0.0, 1.0, 0.9], [1.0, 0.0, 0.85]]
    y = [0] * 6 + [1] * 3
    out = smote(
        labeled(x, y),
        BalancerConfig(method="smote", k_neighbors=2, seed=5),
        onehot_groups=[[0, 1]],
    )
    synth = out.matrix()[9:]
    assert np.all(np.isin(synth[:, :2], (0.0, 1.0)))
    assert np.all(synth[:, 0] + synth[:, 1] == 1.0)


# ------------------------------------------------------------------ ENN


def _enn_oracle(x, y, k, majority_label):
    """Exhaustive re-derivation: drop majority rows outvoted by their kNN."""
    keep = []
    for i in range(len(x)):
        if y[i] != majority_label:
            keep.append(i)
            continue
        d = np.linalg.norm(x - x[i], axis=1)
        d[i] = np.inf
        nn = np.argsort(d, kind="stable")[:k]
        own = int(np.sum(y[nn] == y[i]))
        if 2 * own >= k:
            keep.append(i)
    return keep


def test_enn_removes_surrounded_majority_point():
    x = [[0.5, 0.5], [0.5, 0.52], [0.48, 0.5], [0.52, 0.5], [0.0, 0.0], [0.0, 0.1], [0.1, 0.0], [0.1, 0.1]]
    y = [0, 1, 1, 1, 0, 0, 0, 0]
    out = enn_filter(labeled(x, y), enn_k=3)
    assert [0.5, 0.5] not in out.values.tolist()
    assert out.n == 7


def test_enn_separated_clusters_remove_nothing():
    x = [[0.0, 0.0], [0.01, 0.0], [0.0, 0.01], [1.0, 1.0], [0.99, 1.0], [1.0, 0.99]]
    y = [0, 0, 0, 1, 1, 1]
    out = enn_filter(labeled(x, y), enn_k=2)
    assert out.n == 6


def test_enn_matches_bruteforce_oracle():
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(8, 2))
    y = np.array([0, 0, 0, 0, 0, 1, 1, 1])
    ds = labeled(x, y)
    out = enn_filter(ds, enn_k=3)
    keep = _enn_oracle(x, y, 3, majority_label=0)
    assert np.array_equal(out.values, ds.values[keep])
    assert np.array_equal(out.labels, y[keep])


def test_enn_needs_more_rows_than_k():
    with pytest.raises(DataError):
        enn_filter(labeled([[0.0], [1.0]], [0, 1]), enn_k=2)


# ------------------------------------------------------------------ Tomek


def _tomek_oracle(x, y, majority_label):
    n = len(x)
    nn = []
    for i in range(n):
        d = np.linalg.norm(x - x[i], axis=1)
        d[i] = np.inf
        nn.append(int(np.argsort(d, kind="stable")[0]))
    drop = set()
    for a in range(n):
        b = nn[a]
        if nn[b] == a and y[a] != y[b]:
            drop.add(a if y[a] == majority_label else b)
    return [i for i in range(n) if i not in drop]


def test_tomek_removes_majority_member_of_link():
    x = [[0.5, 0.5], [0.52, 0.5], [0.0, 0.0], [0.0, 0.05], [1.0, 1.0], [1.0, 0.95]]
    y = [0, 1, 0, 0, 0, 0]
    out = tomek_remove(labeled(x, y))
    assert [0.5, 0.5] not in out.values.tolist()
    assert [0.52, 0.5] in out.values.tolist()
    assert out.n == 5


def test_tomek_no_links_when_nearest_neighbors_share_class():
    x = [[0.0, 0.0], [0.0, 0.01], [1.0, 1.0], [1.0, 0.99]]
    y = [0, 0, 1, 1]
    out = tomek_remove(labeled(x, y))
    assert out.n == 4


def test_tomek_matches_bruteforce_oracle():
    rng = np.random.default_rng(29)
    x = rng.uniform(size=(10, 2))
    y = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1])
    ds = labeled(x, y)
    out = tomek_remove(ds)
    keep = _tomek_oracle(x, y.copy(), majority_label=0)
    assert np.array_equal(out.values, ds.values[keep])
    assert np.array_equal(out.labels, y[keep])


# ------------------------------------------------------------------ composites


def test_smote_enn_equals_smote_on_separated_clusters():
    rng = np.random.default_rng(17)
    neg = np.clip(rng.normal(0.15, 0.02, size=(20, 2)), 0, 1)
    pos = np.clip(rng.normal(0.85, 0.02, size=(6, 2)), 0, 1)
    ds = labeled(np.vstack([neg, pos]), [0] * 20 + [1] * 6)
    cfg = BalancerConfig(method="smote_enn", k_neighbors=2, seed=31)
    filtered, oversampled = smote_enn(ds, cfg), smote(ds, cfg)
    assert np.array_equal(filtered.values, oversampled.values)
    assert np.array_equal(filtered.labels, oversampled.labels)


def test_smote_enn_drops_planted_majority_point():
    rng = np.random.default_rng(23)
    neg = np.clip(rng.normal(0.2, 0.02, size=(20, 2)), 0, 1)
    pos = np.clip(rng.normal(0.8, 0.02, size=(6, 2)), 0, 1)
    planted = np.array([[0.8, 0.8]])  # majority point inside minority cluster
    x = np.vstack([neg, planted, pos])
    y = [0] * 21 + [1] * 6
    ds = labeled(x, y)
    cfg = BalancerConfig(method="smote_enn", k_neighbors=2, enn_k=3, seed=5)
    out = smote_enn(ds, cfg)
    assert [0.8, 0.8] not in out.values.tolist()
    # the real negatives survive
    assert np.array_equal(out.values[:20], ds.values[:20])


def test_smote_tomek_removes_link_member():
    neg = [[0.1, 0.1], [0.1, 0.12], [0.12, 0.1], [0.14, 0.12], [0.12, 0.14], [0.5, 0.5]]
    pos = [[0.52, 0.5], [0.9, 0.9], [0.88, 0.9]]
    ds = labeled(neg + pos, [0] * 6 + [1] * 3)
    cfg = BalancerConfig(method="smote_tomek", k_neighbors=2, seed=2)
    out = smote_tomek(ds, cfg)
    assert [0.5, 0.5] not in out.values.tolist()  # majority member of the planted link


# ------------------------------------------------------------------ adasyn


def test_allocate_adaptive_hand_arithmetic():
    assert allocate_adaptive([0.6, 0.2, 0.2], 20).tolist() == [12, 4, 4]


def test_allocate_adaptive_degenerate_pair():
    assert allocate_adaptive([1.0, 0.0], 10).tolist() == [10, 0]


def test_allocate_adaptive_uniform_fallback():
    assert allocate_adaptive([0.0, 0.0, 0.0], 8).tolist() == [3, 3, 2]


@pytest.mark.parametrize("r", [[0.5, 0.5], [0.0, 0.0]])
def test_allocate_adaptive_negative_total_allocates_nothing(r):
    assert allocate_adaptive(r, -4).tolist() == [0, 0]


def adasyn_fixture():
    # 1-D layout with hand-derivable hardness ratios at k=2:
    # minority A,B,C isolated cluster (r=0); D between two majority (r=1);
    # E,F each with one majority and one minority neighbor (r=0.5).
    minority = [0.0, 0.01, 0.02, 0.50, 0.60, 0.61]
    majority = [0.49, 0.51, 0.59] + [0.90 + 0.002 * i for i in range(11)]
    x = np.array(minority + majority).reshape(-1, 1)
    y = [1] * 6 + [0] * 14
    return labeled(x, y)


def test_adasyn_appends_allocated_rows():
    ds = adasyn_fixture()
    cfg = BalancerConfig(method="adasyn", k_neighbors=2, seed=4)
    out = adasyn(ds, cfg)
    assert out.n == ds.n + 8
    assert np.all(out.labels[ds.n :] == 1)


def test_adasyn_rows_follow_the_documented_draw_order():
    # bases repeat each minority row by its allocation, then slots, then u;
    # G = 14 - 6 = 8 and r_hat = (0, 0, 0, .5, .25, .25) give (0, 0, 0, 4, 2, 2)
    ds = adasyn_fixture()
    x = ds.matrix()[:6]
    base = np.repeat(np.arange(6), [0, 0, 0, 4, 2, 2])
    rng = np.random.default_rng(4)
    slot = rng.integers(2, size=8)
    u = rng.uniform(size=8)
    neighbor = knn(x, x, 2, np.arange(6))[base, slot]
    synth = adasyn(ds, BalancerConfig(method="adasyn", k_neighbors=2, seed=4)).matrix()[ds.n :]
    assert synth.tolist() == [(x[b] + f * (x[n] - x[b])).tolist() for b, n, f in zip(base, neighbor, u)]


def test_adasyn_ratio_reached_within_rounding(imbalanced_blobs):
    cfg = BalancerConfig(method="adasyn", k_neighbors=5, seed=3)
    out = adasyn(imbalanced_blobs, cfg)
    labels = out.labels
    gap = abs(int(np.sum(labels == 1)) - int(np.sum(labels == 0)))
    assert gap <= cfg.k_neighbors


# ------------------------------------------------------------------ dispatcher


def test_balance_none_is_identity(imbalanced_blobs):
    out = balance(imbalanced_blobs, BalancerConfig(method="none"))
    assert out is imbalanced_blobs


def test_balance_routes_to_smote(imbalanced_blobs):
    cfg = BalancerConfig(method="smote", k_neighbors=5, seed=8)
    routed, direct = balance(imbalanced_blobs, cfg), smote(imbalanced_blobs, cfg)
    assert np.array_equal(routed.values, direct.values)
    assert np.array_equal(routed.labels, direct.labels)


def test_project_onehot_ties_go_to_lowest_index():
    out = project_onehot(np.array([[0.5, 0.5, 3.0]]), [[0, 1]])
    assert out.tolist() == [[1.0, 0.0, 3.0]]
