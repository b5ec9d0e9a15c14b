import itertools
import math

import numpy as np
import pytest
from scipy.stats import chi2

from fraudkit.errors import ConfigError, DataError, ModelError
from fraudkit.neural import NetworkSpec, init_network, layer_stack
from fraudkit.occ import (
    AbodDetector,
    DetectorConfig,
    VaeDetector,
    _chi2_ppf,
    average_path_length,
    classification_rate,
    detector_from_dict,
    fit_detector,
    load_detector,
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


# ---------------------------------------------------------------- threshold


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
def test_detector_round_trip(tmp_path, config, negatives):
    det = fit_detector(config, negatives)
    path = tmp_path / f"{config.kind}.json"
    det.save(path)
    back = load_detector(path)
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


# ---------------------------------------------------------------- abod


def test_abod_centroid_has_higher_angle_variance():
    rng = np.random.default_rng(7)
    cloud = rng.uniform(-1, 1, size=(50, 2))
    det = fit_detector(DetectorConfig("abod", {"n_neighbours": 49}), cloud)
    centroid_factor = det.angle_factor(cloud.mean(axis=0))
    outlier_factor = det.angle_factor(np.array([10.0, 10.0]))
    assert centroid_factor > outlier_factor
    # lower variance => more anomalous => higher score
    assert det.score([[10.0, 10.0]])[0] > det.score([cloud.mean(axis=0)])[0]


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
    assert det.angle_factor(query) == pytest.approx(brute, abs=1e-9)


def test_abod_excludes_zero_distance_neighbors():
    train = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    det = fit_detector(DetectorConfig("abod", {"n_neighbours": 3}), train)
    assert math.isfinite(det.angle_factor(train[0]))


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


def test_chi2_ppf_equals_scipy_stats():
    for p in range(1, 65):
        for q in (0.5, 0.975):
            assert _chi2_ppf(q, p) == chi2.ppf(q, p)


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
    ],
    ids=[
        "mcd-four-wide", "mcd-zero-cov", "mcd-nan-cov", "ocsvm-wide-support-rows", "ocsvm-short-alphas",
        "abod-narrow-train-rows", "copod-two-columns", "copod-two-skews", "copod-empty-columns",
    ],
)
def test_detector_document_whose_state_does_not_fit_its_features_is_a_model_error(kind, edit):
    x = np.random.default_rng(8).normal(size=(40, 3))
    doc = fit_detector(DetectorConfig(kind), x).to_dict()
    doc["state"].update(edit(doc["state"]))
    with pytest.raises(ModelError):
        detector_from_dict(doc)


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


@pytest.mark.parametrize(
    "content",
    [None, "{not json", '{"format": "fraudkit.detector/1", "kind": "mcd"}'],
    ids=["missing-file", "bad-json", "missing-key"],
)
def test_load_detector_failure_is_a_model_error_naming_the_path(tmp_path, content):
    path = tmp_path / "detector.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(ModelError, match="detector.json"):
        load_detector(path)


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
