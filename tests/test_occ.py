import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fraudkit.data import check_value, read_document, write_document
from fraudkit.errors import ConfigError, DataError, ModelError
from fraudkit.neural import NetworkSpec, Optimizer, init_network, join_parameters, layer_stack
from fraudkit.occ import (
    PARAMETERS,
    AbodDetector,
    DetectorConfig,
    VaeDetector,
    _chi2_ppf,
    _path_length_table,
    average_path_length,
    classification_rate,
    detector_from_dict,
    fit_detector,
    quantile_threshold,
)


@pytest.fixture(scope="module")
def negatives():
    rng = np.random.default_rng(42)
    return rng.normal(0.0, 1.0, size=(100, 2))


def planted_anomalies(sigma_multiples=8.0, n=20, seed=1):
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(n, 2))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return directions * sigma_multiples


# ---------------------------------------------------------------- config


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        DetectorConfig("lof")


def test_config_rejects_bad_kernel():
    with pytest.raises(ConfigError):
        DetectorConfig("ocsvm", {"kernel": "wavelet"})


def test_config_rejects_bad_contamination():
    with pytest.raises(ConfigError):
        DetectorConfig("copod", contamination=0.6)


def test_config_rejects_unknown_parameter():
    with pytest.raises(ConfigError):
        DetectorConfig("iforest", {"depth": 3})


@pytest.mark.parametrize(
    "kind,name,value",
    [
        ("iforest", "n_estimators", 2.5),
        ("iforest", "max_samples", 64.0),
        ("abod", "n_neighbours", 5.5),
        ("ocsvm", "max_iter", 100.5),
        ("vae", "epochs", 1.5),
        ("vae", "latent_dim", 2.0),
        ("iforest", "n_estimators", True),
    ],
)
def test_config_rejects_a_fractional_count(kind, name, value):
    # counts used to be bounded as reals and then truncated by the fitters
    with pytest.raises(ConfigError, match=name):
        DetectorConfig(kind, {name: value})
    with pytest.raises(ConfigError, match=name):
        DetectorConfig.from_dict({"kind": kind, "parameters": {name: value}})


def test_every_default_lies_in_its_domain():
    worked_out = set()
    for kind, table in PARAMETERS.items():
        for name, (default, domain) in table.items():
            if default is None:
                worked_out.add((kind, name))
            else:
                check_value(f"{kind}: {name}", default, domain)
    assert worked_out == {("mcd", "support_fraction")}


def test_ocsvm_tol_has_a_positive_floor(negatives):
    # a gap below 0 is never reached, so a tolerance of 0 ran all of max_iter
    for tol in (0.0, 1e-13):
        with pytest.raises(ConfigError, match="tol"):
            DetectorConfig("ocsvm", {"tol": tol})
    fit_detector(DetectorConfig("ocsvm", {"tol": 1e-12}), negatives)


# ---------------------------------------------------------------- threshold


def test_quantile_threshold_of_no_scores_is_data_error():
    with pytest.raises(DataError):
        quantile_threshold([], 0.1)


def test_quantile_threshold_rule():
    scores = np.arange(100, dtype=float)
    thr = quantile_threshold(scores, 0.05)
    assert thr == 94.0
    assert np.sum(scores > thr) == 5


ALL_CONFIGS = [
    DetectorConfig("ocsvm", {"kernel": "rbf", "nu": 0.5}),
    DetectorConfig("iforest", {"n_estimators": 50, "max_samples": 64}),
    DetectorConfig("copod"),
    DetectorConfig("abod", {"n_neighbours": 10}),
    DetectorConfig("mcd"),
    DetectorConfig("vae", {"epochs": 40}),
]


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.kind)
def test_threshold_calibration_on_training_set(config, negatives):
    det = fit_detector(config, negatives)
    flagged = det.classify(negatives).mean()
    assert flagged <= config.contamination + 1.0 / len(negatives)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.kind)
def test_detector_determinism(config, negatives):
    probe = planted_anomalies(3.0, 10, seed=9)
    a = fit_detector(config, negatives)
    b = fit_detector(config, negatives)
    assert np.array_equal(a.score(probe), b.score(probe))
    assert a.threshold == b.threshold


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.kind)
def test_detector_scores_no_rows(config, negatives):
    det = fit_detector(config, negatives)
    assert det.score(np.zeros((0, negatives.shape[1]))).shape == (0,)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.kind)
def test_detector_round_trip(tmp_path, config, negatives):
    det = fit_detector(config, negatives)
    path = tmp_path / f"{config.kind}.json"
    write_document(det.to_dict(), path)
    back = read_document(path, detector_from_dict)
    probe = planted_anomalies(4.0, 8, seed=3)
    assert np.allclose(det.score(probe), back.score(probe))
    assert back.threshold == det.threshold


@pytest.mark.parametrize(
    "config",
    [
        DetectorConfig("iforest", {"n_estimators": 100, "max_samples": 100}),
        DetectorConfig("mcd"),
        DetectorConfig("abod", {"n_neighbours": 20}),
        DetectorConfig("copod"),
        DetectorConfig("ocsvm", {"kernel": "rbf", "nu": 0.1}),
    ],
    ids=lambda c: c.kind,
)
def test_planted_anomalies_flagged(config, negatives):
    det = fit_detector(config, negatives)
    preds = det.classify(planted_anomalies(8.0, 20))
    assert classification_rate(preds) >= 0.9


def test_detector_rejects_wrong_width(negatives):
    det = fit_detector(DetectorConfig("copod"), negatives)
    with pytest.raises(ModelError):
        det.score(np.ones((2, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_detector_rejects_non_finite_rows(negatives, bad):
    x = negatives.copy()
    x[3, 0] = bad
    with pytest.raises(DataError):
        fit_detector(DetectorConfig("mcd"), x)
    det = fit_detector(DetectorConfig("iforest", {"n_estimators": 5}), negatives)
    with pytest.raises(DataError):
        det.score(x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e154, 1e200])
def test_ocsvm_whose_kernel_overflows_is_a_data_error(scale):
    # squared distances overflow, the kernel is NaN and no support row
    # survived: the fit raised ZeroDivisionError
    rows = np.random.default_rng(0).uniform(size=(84, 4)) * scale
    with pytest.raises(DataError, match="ocsvm kernel"):
        fit_detector(DetectorConfig("ocsvm"), rows)


@pytest.mark.parametrize("kind", ["iforest", "abod", "ocsvm", "copod", "mcd", "vae"])
def test_fit_and_score_peak_memory_is_a_small_multiple_of_the_input(kind):
    # an array of queries x training rows alone would be 800 MB for iforest,
    # 80 MB for abod and 160 MB for ocsvm (about 1,000 support rows); the
    # ocsvm fit still builds its n x n kernel, so only its score is traced
    n_train, n_queries = {"abod": (5000, 2000), "ocsvm": (2000, 20000)}.get(kind, (5000, 20000))
    config = DetectorConfig(kind, {"epochs": 5} if kind == "vae" else {})
    rng = np.random.default_rng(0)
    train, queries = rng.uniform(size=(n_train, 30)), rng.uniform(size=(n_queries, 30))
    detector = fit_detector(config, train) if kind == "ocsvm" else None
    tracemalloc.start()
    try:
        if detector is None:
            detector = fit_detector(config, train)
        detector.score(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (train.nbytes + queries.nbytes)


# ---------------------------------------------------------------- CR


def test_classification_rate_arithmetic():
    assert classification_rate([1, 1, 1, 0]) == 0.75


def test_classification_rate_all_ones():
    assert classification_rate([1, 1, 1]) == 1.0


def test_classification_rate_empty_errors():
    with pytest.raises(DataError):
        classification_rate([])


# ---------------------------------------------------------------- iforest


def test_average_path_length_constants():
    assert average_path_length(2) == 1.0  # 2*H(1) - 2*(1)/2
    assert average_path_length(1) == 0.0
    assert average_path_length(4) == pytest.approx(2.0 * (1 + 0.5 + 1 / 3) - 1.5)


def test_iforest_scores_in_unit_interval(negatives):
    det = fit_detector(DetectorConfig("iforest", {"n_estimators": 50, "max_samples": 64}), negatives)
    scores = det.score(negatives)
    assert np.all((scores > 0) & (scores < 1))


def test_iforest_far_point_scores_at_least_max_training(negatives):
    det = fit_detector(DetectorConfig("iforest", {"n_estimators": 100, "max_samples": 100}), negatives)
    far = det.score(np.array([[50.0, 50.0]]))[0]
    assert far >= det.score(negatives).max()


def test_iforest_subsample_capped_at_n(negatives):
    det = fit_detector(DetectorConfig("iforest", {"n_estimators": 5, "max_samples": 2000}), negatives)
    assert det.subsample_size == 100


def test_iforest_nodes_are_numbered_breadth_first(negatives):
    det = fit_detector(DetectorConfig("iforest", {"n_estimators": 20, "max_samples": 64}, seed=3), negatives)
    for tree in det.trees:
        inner = np.nonzero(tree.feature >= 0)[0]
        assert np.array_equal(tree.left[inner], 2 * np.arange(inner.size) + 1)
        assert np.array_equal(tree.right[inner], tree.left[inner] + 1)
        assert len(tree) == 2 * inner.size + 1


def test_iforest_first_trees_equal_the_smaller_forest(negatives):
    big = fit_detector(DetectorConfig("iforest", {"n_estimators": 12, "max_samples": 64}, seed=4), negatives)
    small = fit_detector(DetectorConfig("iforest", {"n_estimators": 5, "max_samples": 64}, seed=4), negatives)
    assert [t.to_dict() for t in big.trees[:5]] == [t.to_dict() for t in small.trees]


def test_iforest_never_splits_on_a_constant_column():
    x = np.random.default_rng(6).normal(size=(80, 4))
    x[:, 1] = 0.25
    det = fit_detector(DetectorConfig("iforest", {"n_estimators": 30, "max_samples": 64}), x)
    assert all(not np.any(tree.feature == 1) for tree in det.trees)
    assert sum(int(np.sum(tree.feature >= 0)) for tree in det.trees) > 0


def test_iforest_path_length_table_follows_the_harmonic_formula():
    table = _path_length_table(700)
    assert table.shape == (701,)
    assert table[0] == table[1] == 0.0
    expected = [2.0 * math.fsum(1.0 / i for i in range(1, m)) - 2.0 * (m - 1) / m for m in range(2, 701)]
    assert table[2:] == pytest.approx(expected, rel=1e-14)


def _reference_isolation_forest(x, n_estimators, max_samples, seed):
    """The documented draw order, one node at a time: per tree, the
    subsample, then per depth u1 and u2 for the splittable nodes in
    breadth-first order and u3 for those whose first feature is constant.
    Returns each tree's columns, nodes numbered breadth first."""
    n, d = x.shape
    m = min(max_samples, n)
    limit = math.ceil(math.log2(max(m, 2)))
    forest = []
    for seq in np.random.SeedSequence(seed).spawn(n_estimators):
        rng = np.random.default_rng(seq)
        level = [(x[rng.permutation(n)[:m]], None)]  # (rows, (parent, side))
        nodes = []
        for depth in range(limit + 1):
            if not level:
                break
            split = [i for i, (rows, _) in enumerate(level) if len(rows) > 1 and depth < limit]
            u1 = rng.random(len(split))
            u2 = rng.random(len(split))
            feature = {i: int(u * d) for i, u in zip(split, u1)}
            redraw = [i for i in split if np.ptp(level[i][0][:, feature[i]]) == 0]
            for i, u in zip(redraw, rng.random(len(redraw))):
                rows = level[i][0]
                usable = np.nonzero(rows.max(axis=0) > rows.min(axis=0))[0]
                feature[i] = int(usable[int(u * usable.size)]) if usable.size else -1
            draw = dict(zip(split, u2))
            next_level = []
            for i, (rows, link) in enumerate(level):
                node = {"rows": len(rows), "left": -1, "right": -1}
                if link is not None:
                    nodes[link[0]][link[1]] = len(nodes)
                f = feature.get(i, -1)
                if f < 0:
                    node.update(feature=-1, threshold=0.0, value=depth + average_path_length(len(rows)))
                else:
                    lo, hi = rows[:, f].min(), rows[:, f].max()
                    threshold = float(np.nextafter(lo + (hi - lo) * draw[i], -np.inf))
                    node.update(feature=f, threshold=threshold, value=0.0)
                    go_left = rows[:, f] <= threshold
                    next_level += [(rows[go_left], (len(nodes), "left")), (rows[~go_left], (len(nodes), "right"))]
                nodes.append(node)
            level = next_level
        forest.append({
            "feature": [node["feature"] for node in nodes],
            "threshold": [node["threshold"] for node in nodes],
            "left": [node["left"] for node in nodes],
            "right": [node["right"] for node in nodes],
            "value": [node["value"] for node in nodes],
            "n_samples": [node["rows"] for node in nodes],
            "n_positive": [0] * len(nodes),
        })
    return forest


def test_iforest_matches_the_documented_draw_order():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(40, 4))
    x[:, 2] = 1.0  # constant: every draw of it is drawn again
    x[:, 3] = rng.integers(0, 2, size=40)  # binary: constant on many small nodes
    x[30:36] = x[0]  # duplicates: nodes whose rows are all equal end as leaves
    det = fit_detector(DetectorConfig("iforest", {"n_estimators": 8, "max_samples": 24}, seed=7), x)
    reference = _reference_isolation_forest(x, 8, 24, 7)
    assert len(det.trees) == len(reference)
    for tree, expected in zip(det.trees, reference):
        doc = tree.to_dict()
        for column, values in expected.items():
            assert doc[column] == values, column


# ---------------------------------------------------------------- copod


def test_copod_tail_monotonicity_1d():
    rng = np.random.default_rng(0)
    train = rng.uniform(size=(200, 1))
    det = fit_detector(DetectorConfig("copod"), train)
    assert det.score([[0.999]])[0] > det.score([[0.5]])[0]


def test_copod_sweep_is_valley_shaped():
    rng = np.random.default_rng(1)
    train = rng.uniform(size=(300, 1))
    det = fit_detector(DetectorConfig("copod"), train)
    sweep = np.linspace(0.01, 0.99, 60).reshape(-1, 1)
    scores = det.score(sweep)
    trough = int(np.argmin(scores))
    assert np.all(np.diff(scores[: trough + 1]) <= 1e-9)
    assert np.all(np.diff(scores[trough:]) >= -1e-9)


def test_copod_finite_outside_support():
    det = fit_detector(DetectorConfig("copod"), np.random.default_rng(2).uniform(size=(50, 3)))
    scores = det.score(np.array([[-5.0, 10.0, 0.5]]))
    assert np.all(np.isfinite(scores))


@pytest.mark.parametrize("scale", [1e-130, 1e120, 1e160])
def test_copod_fits_scores_and_reloads_at_any_scale(scale):
    # the skew's moments overflowed (an OverflowError at 1e120, NaN skews at
    # 1e160) or underflowed to 0 / 0 (NaN skews at 1e-130), and
    # detector_from_dict rejected the detector's own document
    normal = np.random.default_rng(0).standard_normal((20, 2))
    rows = np.column_stack([normal, np.full(20, -0.1), np.zeros(20)])  # two constant columns, skew 0
    reference = fit_detector(DetectorConfig("copod"), rows)
    det = fit_detector(DetectorConfig("copod"), rows * scale)
    assert np.array_equal(np.sign(det.skews), np.sign(reference.skews))
    assert det.skews[2:].tolist() == [0.0, 0.0]
    back = detector_from_dict(det.to_dict())
    # the tail probabilities depend only on the order of the cells
    for d in (det, back):
        assert np.array_equal(d.score(rows * scale), reference.score(rows))
        assert d.threshold == reference.threshold


# ---------------------------------------------------------------- abod


def _reference_angle_factor(train, row, k):
    """One row's factor by the per-row formula the blocked scorer replaces:
    the variance over neighbour pairs of inverse-square-weighted angle terms,
    among the k nearest rows at squared distance above 1e-24."""
    diffs = train - row
    dist2 = np.sum(diffs * diffs, axis=1)
    usable = np.nonzero(dist2 > 1e-24)[0]
    if usable.size < 2:
        return 0.0
    order = usable[np.argsort(dist2[usable], kind="stable")][:k]
    v = diffs[order] / dist2[order, None]
    w = v @ v.T
    return float(np.var(w[np.triu_indices(len(order), k=1)]))


def test_abod_centroid_has_higher_angle_variance():
    rng = np.random.default_rng(7)
    cloud = rng.uniform(-1, 1, size=(50, 2))
    det = fit_detector(DetectorConfig("abod", {"n_neighbours": 49}), cloud)
    centroid, outlier = det.score([cloud.mean(axis=0), [10.0, 10.0]])
    # lower angle variance => more anomalous => higher score
    assert outlier > centroid


def test_abod_fast_equals_bruteforce_when_k_covers_all():
    rng = np.random.default_rng(11)
    train = rng.normal(size=(12, 3))
    det = fit_detector(DetectorConfig("abod", {"n_neighbours": 12}), train)
    query = rng.normal(size=3)

    diffs = train - query
    pairs = []
    for i, j in itertools.combinations(range(len(train)), 2):
        di, dj = diffs[i], diffs[j]
        pairs.append(float(di @ dj) / (float(di @ di) * float(dj @ dj)))
    brute = float(np.var(pairs))
    assert -det.score([query])[0] == pytest.approx(brute, abs=1e-9)


def test_abod_excludes_zero_distance_neighbors():
    train = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    det = fit_detector(DetectorConfig("abod", {"n_neighbours": 3}), train)
    assert np.all(np.isfinite(det.score(train)))


@pytest.mark.parametrize("k, d", [(2, 4), (5, 4), (10, 4), (60, 4), (10, 30), (48, 4), (50, 4)])
def test_abod_scores_equal_the_per_row_formula(k, d):
    rng = np.random.default_rng(21)
    train = rng.normal(size=(50, d))
    train[40:45] = train[3]  # exact duplicates: zero distances to exclude
    train[45:] = train[10] + 1e-13  # within the 1e-24 squared-distance rule
    queries = np.vstack([train, rng.normal(size=(30, d)), rng.normal(scale=50.0, size=(5, d))])
    det = fit_detector(DetectorConfig("abod", {"n_neighbours": k}), train)
    expected = [-_reference_angle_factor(train, row, k) for row in queries]
    assert np.array_equal(det.score(queries), expected)


def test_abod_scores_zero_with_fewer_than_two_usable_neighbours():
    train = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    det = fit_detector(DetectorConfig("abod", {"n_neighbours": 3}), train)
    queries = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    expected = [-_reference_angle_factor(train, row, 3) for row in queries]
    assert np.array_equal(det.score(queries), expected)
    assert det.score(queries)[0] == 0.0  # one row lies apart from it


# ---------------------------------------------------------------- mcd


def test_mcd_flags_planted_8_sigma_rows(negatives):
    det = fit_detector(DetectorConfig("mcd"), negatives)
    assert np.all(det.classify(planted_anomalies(8.0, 5, seed=5)) == 1)


def test_mcd_exhaustive_subset_matches_enumeration_oracle():
    rng = np.random.default_rng(3)
    x = np.vstack([rng.normal(0, 1, size=(9, 2)), rng.normal(6, 0.5, size=(3, 2))])
    det = fit_detector(DetectorConfig("mcd"), x)
    n, p = x.shape
    h = (n + p + 1) // 2
    best = math.inf
    for combo in itertools.combinations(range(n), h):
        rows = x[list(combo)]
        cov = (rows - rows.mean(axis=0)).T @ (rows - rows.mean(axis=0)) / h
        sign, logdet = np.linalg.slogdet(cov)
        if sign > 0:
            best = min(best, logdet)
    assert det.raw_log_det == pytest.approx(best, abs=1e-9)
    assert len(det.support_indices) == h


def test_mcd_support_excludes_cluster_of_outliers():
    rng = np.random.default_rng(4)
    x = np.vstack([rng.normal(0, 1, size=(9, 2)), rng.normal(6, 0.5, size=(3, 2))])
    det = fit_detector(DetectorConfig("mcd"), x)
    assert all(i < 9 for i in det.support_indices)


def _reference_c_steps(x, subset, h, steps):
    # up to `steps` C-steps, each an ML fit of the subset and then the h rows
    # nearest to it in Mahalanobis distance; stops once the set repeats
    for _ in range(steps):
        rows = x[subset]
        centered = x - rows.mean(axis=0)
        cov = np.cov(rows, rowvar=False, bias=True)
        d2 = np.sum(centered * np.linalg.solve(cov, centered.T).T, axis=1)
        new = np.argsort(d2, kind="stable")[:h]
        if set(new) == set(subset):
            break
        subset = new
    return np.sort(subset), np.linalg.slogdet(np.cov(x[subset], rowvar=False, bias=True))[1]


def test_mcd_random_starts_follow_the_documented_search():
    rng = np.random.default_rng(5)
    x = np.vstack([rng.normal(size=(100, 3)), rng.normal(4.0, 0.5, size=(20, 3))])
    n, p = x.shape
    h = (n + p + 1) // 2
    starts = np.random.default_rng(9)
    trials = [_reference_c_steps(x, starts.permutation(n)[: p + 1], h, 3) for _ in range(250)]
    trials.sort(key=lambda t: t[1])
    finals = [_reference_c_steps(x, subset, h, 100) for subset, _ in trials[:10]]
    support, log_det = min(finals, key=lambda t: t[1])
    det = fit_detector(DetectorConfig("mcd", seed=9), x)
    assert det.support_indices == tuple(support.tolist())
    assert det.raw_log_det == pytest.approx(log_det, rel=0.0, abs=1e-12)


def test_mcd_singular_data_raises():
    x = np.zeros((10, 2))
    with pytest.raises(DataError):
        fit_detector(DetectorConfig("mcd"), x)


@pytest.mark.parametrize("seed", range(8))
def test_mcd_rank_deficient_data_raises(seed):
    # rank 3 of 5: whether a factorization of such a covariance succeeds is
    # down to rounding, so the pivots must be checked against their scale
    a = np.random.default_rng(seed).uniform(size=(80, 3))
    x = np.column_stack([a, a[:, 0] + a[:, 1], a[:, 1] - 0.5 * a[:, 2]])
    with pytest.raises(DataError, match="singular"):
        fit_detector(DetectorConfig("mcd", seed=0), x)


def test_chi2_ppf_is_correctly_rounded():
    # the exact quantile at 60 digits: the root of the regularized P(df/2, y) = q, bracketed
    # by y = 0 and y = df + 10, doubled; MCD asks for q = 0.5 and 0.975, and q = 0.01 starts
    # Newton's method below zero for small df
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for df in [*range(1, 65), 100, 256, 1000]:
            a = mpmath.mpf(df) / 2
            for q in (0.5, 0.975, 0.01):
                y = mpmath.findroot(
                    lambda y: mpmath.gammainc(a, 0, y, regularized=True) - q, (0, df + 10), solver="pegasus"
                )
                assert _chi2_ppf(q, df) == float(2 * y), (df, q)


def test_mcd_needs_enough_rows():
    with pytest.raises(DataError):
        fit_detector(DetectorConfig("mcd"), np.random.default_rng(0).normal(size=(3, 2)))


# ---------------------------------------------------------------- vae


def test_vae_zero_decoder_scores_mean_square():
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(10, 4))
    det = fit_detector(DetectorConfig("vae", {"epochs": 2}), x)
    for net in (det.decoder,):
        for w, b in zip(net.weights, net.biases):
            w[:] = 0.0
            b[:] = 0.0
    assert np.allclose(det.score(x), np.sum(x * x, axis=1) / 4)


def test_vae_networks_share_one_parameter_vector():
    x = np.random.default_rng(8).uniform(size=(10, 4))
    det = fit_detector(DetectorConfig("vae", {"epochs": 2}), x)
    nets = (det.encoder, det.mu_head, det.logvar_head, det.decoder)
    joint = nets[0].params.base
    assert joint is not None and all(net.params.base is joint for net in nets)
    assert joint.size == sum(net.params.size for net in nets)
    joint[:] = 0.0
    assert all(np.all(w == 0.0) for net in nets for w in net.weights + net.biases)
    assert np.allclose(det.score(x), np.sum(x * x, axis=1) / 4)


@pytest.mark.parametrize(
    "name, spec",
    [
        ("encoder", NetworkSpec(3, layer_stack([9, 10], ["relu", "relu"]), "mse")),
        ("mu_head", NetworkSpec(9, layer_stack([2], ["linear"]), "mse")),
        ("logvar_head", NetworkSpec(10, layer_stack([3], ["linear"]), "mse")),
        ("decoder", NetworkSpec(2, layer_stack([9, 10, 5], ["relu", "relu", "linear"]), "mse")),
    ],
    ids=["encoder-input", "head-input", "head-output", "decoder-output"],
)
def test_vae_document_whose_networks_do_not_chain_is_a_model_error(name, spec):
    x = np.random.default_rng(8).uniform(size=(10, 4))
    doc = fit_detector(DetectorConfig("vae", {"epochs": 2}), x).to_dict()
    doc["state"][name] = init_network(spec, 0).to_dict()
    with pytest.raises(ModelError, match="chain"):
        detector_from_dict(doc)


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("mcd", lambda s: {"mean": [0.0] * 4, "cov": np.eye(4).tolist()}),
        ("mcd", lambda s: {"cov": np.zeros((3, 3)).tolist()}),
        ("mcd", lambda s: {"cov": np.full((3, 3), np.nan).tolist()}),
        ("ocsvm", lambda s: {"support_rows": [row + [0.0] for row in s["support_rows"]]}),
        ("ocsvm", lambda s: {"alphas": s["alphas"][:-1]}),
        ("abod", lambda s: {"train_rows": [row[:-1] for row in s["train_rows"]]}),
        ("copod", lambda s: {"sorted_columns": s["sorted_columns"][:2]}),
        ("copod", lambda s: {"skews": s["skews"][:2]}),
        ("copod", lambda s: {"sorted_columns": [[], [], []]}),
        ("iforest", lambda s: {"subsample_size": 1}),
        ("iforest", lambda s: {"subsample_size": s["subsample_size"] + 1}),
        ("abod", lambda s: {"n_neighbours": 1}),
        ("ocsvm", lambda s: {"kernel": "wavelet"}),
    ],
    ids=[
        "mcd-four-wide", "mcd-zero-cov", "mcd-nan-cov", "ocsvm-wide-support-rows", "ocsvm-short-alphas",
        "abod-narrow-train-rows", "copod-two-columns", "copod-two-skews", "copod-empty-columns",
        "iforest-subsample-below-two", "iforest-subsample-not-the-root-size", "abod-one-neighbour",
        "ocsvm-unknown-kernel",
    ],
)
def test_detector_document_whose_state_does_not_fit_its_features_is_a_model_error(kind, edit):
    x = np.random.default_rng(8).normal(size=(40, 3))
    doc = fit_detector(DetectorConfig(kind), x).to_dict()
    doc["state"].update(edit(doc["state"]))
    with pytest.raises(ModelError):
        detector_from_dict(doc)


@pytest.mark.parametrize(
    "field, value",
    [
        ("threshold", math.nan),
        ("threshold", math.inf),
        ("n_features", 3.7),
        ("n_features", 0),
        ("n_features", True),
        ("rho", math.nan),
        ("gamma", math.inf),
    ],
    ids=["threshold-nan", "threshold-inf", "n-features-fractional", "n-features-zero", "n-features-bool", "rho-nan",
         "gamma-inf"],
)
def test_detector_document_with_a_bad_scalar_is_a_model_error(field, value):
    # a NaN threshold used to load and flag nothing, and 3.7 features load as 3
    x = np.random.default_rng(8).normal(size=(40, 3))
    doc = fit_detector(DetectorConfig("ocsvm"), x).to_dict()
    (doc["state"] if field in ("rho", "gamma") else doc)[field] = value
    with pytest.raises(ModelError, match=field):
        detector_from_dict(doc)


def reference_vae_networks(x: np.ndarray, epochs: int, seed: int, lr: float = 1e-3, latent: int = 2):
    """The VAE fit as its own epoch loop wrote it: networks from seed ..
    seed + 3, one Adam over their joined vector, one generator at seed + 4
    drawing a permutation per epoch and then, per batch of min(64, n) rows,
    the reparameterization noise."""
    n, d = x.shape
    nets = (
        init_network(NetworkSpec(d, layer_stack([9, 10], ["relu", "relu"]), "mse"), seed),
        init_network(NetworkSpec(10, layer_stack([latent], ["linear"]), "mse"), seed + 1),
        init_network(NetworkSpec(10, layer_stack([latent], ["linear"]), "mse"), seed + 2),
        init_network(NetworkSpec(latent, layer_stack([9, 10, d], ["relu", "relu", "linear"]), "mse"), seed + 3),
    )
    encoder, mu_head, logvar_head, decoder = nets
    opt = Optimizer("adam", lr, *join_parameters(nets))
    rng = np.random.default_rng(seed + 4)
    batch_size = min(64, n)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = x[order[start : start + batch_size]]
            m = batch.shape[0]
            hidden, enc_cache = encoder.forward_cached(batch)
            mu, mu_cache = mu_head.forward_cached(hidden)
            logvar, lv_cache = logvar_head.forward_cached(hidden)
            logvar = np.clip(logvar, -10.0, 10.0)
            eps = rng.standard_normal(mu.shape)
            std = np.exp(0.5 * logvar)
            recon, dec_cache = decoder.forward_cached(mu + std * eps)
            dz = decoder.backward(dec_cache, 2.0 * (recon - batch) / (m * d))
            d_mu = dz + mu / (m * d)
            d_logvar = dz * (0.5 * std * eps) + (np.exp(logvar) - 1.0) / (2.0 * m * d)
            dh1 = mu_head.backward(mu_cache, d_mu)
            dh2 = logvar_head.backward(lv_cache, d_logvar)
            encoder.backward(enc_cache, dh1 + dh2, input_grad=False)
            opt.step()
    return nets


@pytest.mark.parametrize("seed", [0, 6])
@pytest.mark.parametrize("n", [2, 60, 64, 65, 300])
def test_vae_fit_keeps_the_draw_order_of_its_reference_loop(n, seed):
    x = np.random.default_rng(n).uniform(size=(n, 3))
    det = fit_detector(DetectorConfig("vae", {"epochs": 3}, seed=seed), x)
    fitted = (det.encoder, det.mu_head, det.logvar_head, det.decoder)
    for net, ref in zip(fitted, reference_vae_networks(x, 3, seed)):
        assert net.params.tobytes() == ref.params.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_vae_whose_loss_overflows_is_a_model_error():
    rows = np.random.default_rng(0).uniform(-1, 1, (40, 3)) * 1e154
    with pytest.raises(ModelError, match="non-finite loss"):
        fit_detector(DetectorConfig("vae", {"epochs": 3}), rows)


def test_vae_training_reduces_reconstruction_error():
    rng = np.random.default_rng(9)
    x = np.clip(rng.normal(0.5, 0.05, size=(80, 3)), 0, 1)
    short = fit_detector(DetectorConfig("vae", {"epochs": 1}, seed=2), x)
    long = fit_detector(DetectorConfig("vae", {"epochs": 200}, seed=2), x)
    assert long.score(x).mean() < short.score(x).mean()


# ---------------------------------------------------------------- ocsvm


def test_ocsvm_rbf_flags_radial_outliers(negatives):
    det = fit_detector(DetectorConfig("ocsvm", {"kernel": "rbf", "nu": 0.2}), negatives)
    far = planted_anomalies(8.0, 10, seed=13)
    assert np.mean(det.classify(far)) >= 0.9


@pytest.mark.parametrize("kernel", ["linear", "poly", "sigmoid"])
def test_ocsvm_halfspace_kernels_flag_low_side(kernel, negatives):
    # non-radial kernels draw a one-sided boundary: points far below the
    # (positive-shifted) support are anomalous, points far above are not
    shifted = negatives * 0.05 + 0.5
    det = fit_detector(DetectorConfig("ocsvm", {"kernel": kernel, "nu": 0.2}), shifted)
    assert np.mean(det.classify(np.full((10, 2), -8.0))) == 1.0


def test_ocsvm_alpha_constraints(negatives):
    det = fit_detector(DetectorConfig("ocsvm", {"kernel": "rbf", "nu": 0.5}), negatives)
    cap = 1.0 / (0.5 * len(negatives))
    assert det.alphas.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(det.alphas >= -1e-12)
    assert np.all(det.alphas <= cap + 1e-12)


def test_detector_from_dict_rejects_garbage():
    with pytest.raises(ModelError):
        detector_from_dict({"format": "nope"})


def test_vae_detector_manual_zero_everything():
    # fully zeroed nets: reconstruction is 0 regardless of input
    from fraudkit.neural import NetworkSpec, layer_stack

    enc = init_network(NetworkSpec(3, layer_stack([9, 10], ["relu", "relu"]), "mse"), 0)
    mu = init_network(NetworkSpec(10, layer_stack([2], ["linear"]), "mse"), 1)
    lv = init_network(NetworkSpec(10, layer_stack([2], ["linear"]), "mse"), 2)
    dec = init_network(NetworkSpec(2, layer_stack([9, 10, 3], ["relu", "relu", "linear"]), "mse"), 3)
    for net in (dec,):
        for w in net.weights:
            w[:] = 0.0
    det = VaeDetector(3, enc, mu, lv, dec)
    x = np.array([[3.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
    assert np.allclose(det.score(x), [3.0, 3.0])
