"""Golden outputs of the tree-based and linear models, the one-class
detectors, the SMOTE family and the data path on fixed seeds.

Each model digest is the SHA-256 of the float64 bytes of a model's output on
fixed rows, taken both from the fitted model and from its saved-and-reloaded
copy. A change to how trees are grown, stored, routed or serialized, or to how
a detector is fitted or scored, must leave every digest unchanged; the tree
digests stayed bit-identical when CART moved from a per-node argsort to one
presort per fit, and the `dt` digests when it moved to growing a level at a
time. `rf` (9bf83ec8… → 172ca77b…) was regenerated with that move: each tree
now draws its max_features subsets a level at a time, one permutation(d)
per open node in breadth-first order, instead of in pre-order (its
bootstrap draws did not change). `gbt` (4a1deeeb… → 09c49c0e…) was
regenerated when the squared-error search moved from sse_parent - (sl + sr)
to the proxy sl² / nl + sr² / nr: in the first round's tree, a depth-2 node
of 72 rows, 57 of them positive, has two cuts that each send 70 rows and all
57 positives left, feature 1 at 2.1359 and feature 3 at 2.4181, an exact
tie. The old form rounded feature 3's decrease higher; the proxy scores the
two the same, and the lowest-feature tie-break takes feature 1.
`gbt-exponential` pins the exponential loss's leaf step, and
`SQUARED_TREE_NODES` every node column of one squared-error tree. Both,
and every other tree digest, held when fitted trees stopped keeping each
leaf's training rows and `gbt` came to find each leaf's rows by routing
its training rows. The `lr-l2` and `svm-l2-squared-hinge` digests pin the
damped-Newton solver, `svm-l2` the smoothed-Newton hinge solver, and
`lr-l1`, `lr-elasticnet` and `svm-l1` (squared hinge) the same damped
Newton taking orthant-wise steps. Those three were regenerated when they
moved to it from step-halving gradient descent, which stopped at `max_iter`
300 (`lr-elasticnet` after 24 steps); each now converges in 5 steps.
`lr-l1` (f4b53c65… → ec2872bf…) went from objective 0.5055392163 to
0.5054390797, with one weight exactly 0; `lr-elasticnet` (5f718731… →
ab79b5ad…, 0.5077284509) and `svm-l1` (0dbe114f… → bc397ccb…,
0.6565434128) kept their objectives to 10 digits. `svm-l2` was regenerated
(12f09af6… → 1db3733b…) when the l2 hinge moved from step-halving descent,
which stopped at `max_iter` 300 with objective 0.5671954210744514, to
smoothed Newton, which certifies the optimum 0.5671951188927399 (duality
gap within `tol`) after 29 Newton steps. The resampling digests
cover the rows and labels each balancer returns on rows with exact distance
ties, so a change to the neighbour search must keep its lowest-index
tie-break. The `smote`, `smote_enn`, `smote_tomek` and `adasyn` row digests
and `SMOTE_PROVENANCE` were regenerated when SMOTE and ADASYN moved to one
vectorized draw: each now draws all bases, then all neighbour slots, then all
factors u (the order the `resample` module documents) instead of one row's
draws at a time. Each row's arithmetic stayed the same; only which random
numbers it gets changed; ADASYN's allocation did not change. The
`mcd-exhaustive` score digest and the `mcd-random-starts` score and threshold
digests were regenerated when MCD moved from an LU solve per Mahalanobis
distance to one Cholesky factor per fitted subset: distances now come from
whitened residuals, which round differently in the last bits (at most about
5e-16 relative). `MCD_SUPPORT` pins the support indices and raw
log-determinants, which did not change. The `mcd-exhaustive` score
(7b515183… → b1046f36…) and threshold (2ae37a2f… → 79d980b5…) digests and
the `mcd-random-starts` score digest (1ae0f76f… → ee326cfc…) were
regenerated again when the χ² quantiles moved from scipy's `gammaincinv` to
a correctly rounded decimal computation. scipy's χ²₀.₅(2) was
1.386294361119891, one ulp above 2 ln 2 = 1.3862943611198906, and its
χ²₀.₅(4) and χ²₀.₉₇₅(4) were 3.3566939800333224 and 11.143286781877796,
where the correctly rounded values are 3.356693980033321 and
11.143286781877794. The consistency factors, and so the covariances, moved
in their last bits (at most about 4e-16 relative); the χ²₀.₉₇₅ inlier sets
(7 of 12 and 286 of 300 rows) and `MCD_SUPPORT` did not change, and the
`mcd-random-starts` threshold kept its digest. `IFOREST_SCORE` (07f6564c… →
ed9dbbf1…) and `IFOREST_THRESHOLD` (47ef78b3… → cdb22457…) were regenerated
when the isolation forest moved from growing one node at a time, depth
first, to growing every node of one depth at once: each tree now draws one
array of feature draws and one of threshold draws per depth, breadth first
(the order the `_fit_iforest` docstring states), instead of an integer and a
uniform per node in pre-order, and picks a feature among all d columns
before falling back to the node's non-constant ones. The subsamples and the
path-length rule did not change. Scoring now adds the trees' path lengths
to one running total, tree by tree, instead of taking the mean of a rows x
trees array, which moves a score by at most about 7e-16 relative. The
data-path digests cover a mixed CSV taken through loading, cleansing,
one-hot encoding, min-max scaling, a stratified split and writing back, so a
change to how a dataset is stored must keep every cell, bound and written
byte. The neural digests pin the
`mlp` classifier under adam and sgd, the `vae` detector, both GAN variants'
samples and loss curves, and one saved network document, so a change to
how a network stores, updates or clips its parameters must keep every bit.
The document digests (`DOCUMENT_GOLDEN`) pin the SHA-256 of
`json.dumps(obj.to_dict())` for a fitted model of each of the seven
classifier kinds and each of the six detector kinds, one trained GAN, and one
schema, one-hot map and set of norm params, and check that each document
loads and writes the same bytes back; they did not change when every
document came to be read and written through one table of fields per class
(`data.read_fields` and `data.write_fields`), so every document saved before
still loads to the same object. `CONFIG_GOLDEN` pins the exact text of
`json.dumps(config.to_dict())` for each configuration type, at its defaults
and with every field off its default (`LayerSpec` inside `NetworkSpec` and
`GanSpec`); it did not change when the seven config types came to be
checked, written and read through one table of fields per type.
"""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fraudkit.augment import Gan, default_gan_spec, sample_synthetic, train_gan
from fraudkit.classify import ClassifierConfig, extract_rules, fit_arrays, format_rules, load_model, model_from_dict
from fraudkit.data import (
    Feature,
    FeatureSchema,
    NormParams,
    OneHotMap,
    apply_normalize,
    cleanse,
    dataset_from_matrix,
    encode_one_hot,
    fit_normalize,
    load_csv,
    read_document,
    save_csv,
    stratified_split,
    write_document,
)
from fraudkit.neural import NetworkSpec, TrainConfig, layer_stack
from fraudkit.occ import EXHAUSTIVE_SUBSET_LIMIT, DetectorConfig, detector_from_dict, fit_detector
from fraudkit.resample import BalancerConfig, adasyn, smote, smote_draws, smote_enn, smote_tomek
from fraudkit.tree import COLUMNS, SQUARED, DecisionTree


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def _train_rows():
    rng = np.random.default_rng(2024)
    x = rng.normal(size=(300, 4))
    noise = rng.normal(0.0, 0.8, size=300)
    y = (x[:, 0] + 0.7 * x[:, 1] * x[:, 2] + noise > 0.4).astype(int)
    return x, y


def _probe_rows():
    return np.random.default_rng(7).normal(scale=1.5, size=(400, 4))


CLASSIFIER_GOLDEN = {
    "dt-unbounded": (
        ClassifierConfig("dt", {}),
        "568eeb2925c46b15c622b170b391388d73d2c2887510546805f6efa33e883bc4",
    ),
    "dt-depth3": (
        ClassifierConfig("dt", {"maxdepth": 3, "criterion": "entropy"}),
        "90bec6536b09795d8fafcee43d94756c236d37efeae9829feaa33e0ddfe16b43",
    ),
    "rf": (
        ClassifierConfig("rf", {"estimators": 15, "maxdepth": 6}, seed=3),
        "172ca77b486795cea6d386493ec03dfae5682615f0fcb53b064ad6082091bbfd",
    ),
    "gbt": (
        ClassifierConfig("gbt", {"estimators": 25, "maxdepth": 3, "loss": "deviance"}),
        "09c49c0ed1b8b887e61e003ef18021018aec583b935ffc1e8d77a8dafd8889a6",
    ),
    "gbt-exponential": (
        ClassifierConfig("gbt", {"estimators": 25, "maxdepth": 3, "loss": "exponential"}),
        "02af9fc107abfb8bf7ada77288c47e010e6cb7def82ebc1f4bf168c6eecabb0a",
    ),
    "lr-l2": (
        ClassifierConfig("lr", {"penalty_strength": 0.01, "max_iter": 300}),
        "4a05c5d957ad00f4840232647a3565db58d4aa48c1fe8045ce4a2e02c5a31855",
    ),
    "lr-l1": (
        ClassifierConfig("lr", {"regularizer": "l1", "penalty_strength": 0.01, "max_iter": 300}),
        "ec2872bff6eb6616c32938f00d42068cea077f77f94f650be7b64b151a94c2ec",
    ),
    "lr-elasticnet": (
        ClassifierConfig("lr", {"regularizer": "elasticnet", "penalty_strength": 0.01, "max_iter": 300}),
        "ab79b5ad938e2c2f35936e491c7b6a3096ddcc16634d63d18b86df10e1c3c90f",
    ),
    "svm-l2": (
        ClassifierConfig("svm", {"penalty_strength": 0.01, "max_iter": 300}),
        "1db3733be5d0258b6fb9eec7687d6519fda7a0420480e2b37a44aa41ece82a2b",
    ),
    "svm-l2-squared-hinge": (
        ClassifierConfig("svm", {"loss": "squared-hinge", "penalty_strength": 0.01, "max_iter": 300}),
        "c2fcad4e754221c6df91ae69b36d4c247186a14f2160b8e6e542c180c65b25ea",
    ),
    "mlp-adam": (
        ClassifierConfig("mlp", {"epochs": 30}, seed=2),
        "3e8059f66f8d3da061af7ef1c30dc43630914d7f2cb5204ad80e4845e3d94218",
    ),
    "mlp-adam-logistic": (
        ClassifierConfig("mlp", {"activation": "logistic", "epochs": 30}, seed=2),
        "50c7a9be045483d0d048cc5855bf28fbd1f0e9e6a334fc20915c6b0433b66c3f",
    ),
    "mlp-sgd": (
        ClassifierConfig("mlp", {"solver": "sgd", "activation": "tanh", "epochs": 30}, seed=2),
        "819c0147764cc7c81ebd85b35331fd2c32e4c43a137f88e9fe88da4657bcf20c",
    ),
    "svm-l1": (
        ClassifierConfig(
            "svm", {"regularizer": "l1", "loss": "squared-hinge", "penalty_strength": 0.01, "max_iter": 300}
        ),
        "bc397ccb84023682c74935ef69128f539db210a20e63844e8071a1f6cadf1d48",
    ),
}

# name: (config, training rows, score digest, threshold digest)
DETECTOR_GOLDEN = {
    "mcd-exhaustive": (
        DetectorConfig("mcd"),
        lambda: np.random.default_rng(11).normal(size=(12, 2)),
        "b1046f363e9538904897c8f28dfe4d9a2225aa721fb8260daa63dac87179b79f",
        "79d980b5d29fb167ad70489c351e6e43e940c8dd2a2311f67267232c53dd66e2",
    ),
    "mcd-random-starts": (
        DetectorConfig("mcd", seed=4),
        lambda: _train_rows()[0],
        "ee326cfc0f8b4e1133d594da20eea68c29738e8246104187985d50eaceb8db4d",
        "6b59b9fd1e2eb2b5a5b6b0df51526269f2b53dcb2d3ff2283661f906dbbd26cd",
    ),
    "copod": (
        DetectorConfig("copod"),
        lambda: _train_rows()[0],
        "511db32ba0aee367c8f08aad2c4b1fc2b26abac5ad76b1938852ab0f477fcebc",
        "ae1db45693ca68e51c7e84f5315fe7a465c38a654936de95971d6cc695b007a3",
    ),
    "abod": (
        DetectorConfig("abod", {"n_neighbours": 10}),
        lambda: _train_rows()[0],
        "b544f9b320df09ffafbae965917f58056e6f5b69e33e4bb619ae00b0df9073b2",
        "afa1853883d91da6ab20b5868ded1a42e34f83b69b6713ef8c2fa78ed72e2eac",
    ),
    "ocsvm": (
        DetectorConfig("ocsvm", {"kernel": "rbf", "nu": 0.1}),
        lambda: _train_rows()[0],
        "2fa411820ae0211c81f7f4593b557c440b1c630fe263f5ce9548cf48094a607c",
        "fadd78ee14c53448480ab6aec85a6b8c49479708e4adf1a9063e2612059ffa3d",
    ),
    "vae": (
        DetectorConfig("vae", {"epochs": 20}, seed=6),
        lambda: _train_rows()[0],
        "bb1a0762d8d328a20726c231528215968121bcaaf7914e52e43193f365d60b9e",
        "283b3d9e9d1359fef2f9401aa7b2030c87667da5f2975d858ed061b8c75d35e2",
    ),
}

# name: (digest of the support indices, raw log-determinant)
MCD_SUPPORT = {
    "mcd-exhaustive": ("a70f10be45e3208fb7d440e5a21c4bd8f9ac84a13a64bbeb5a0797adfe1ab831", -4.330477846229576),
    "mcd-random-starts": ("b6dbee55fce42b12389f2562c131dd745b53a5a9d6ac221b2f9f7d0d0f6fd2af", -2.934825972620148),
}

# every node column of one squared-error tree, one column after another
SQUARED_TREE_NODES = "44dec8ad92dc7454f38c4cb5188971c7cf09f96554ed04fe2aace3ef8999adfd"
IFOREST_SCORE = "ed9dbbf1540c142231238fbaac987055d04de6d4cb76fc3d89b2ad9d96dbfd8b"
IFOREST_THRESHOLD = "cdb224570f4431df1c25ce983a521f1900ffa0e229e7e94887df8f4956147508"
RULES_TEXT = "f2f1139e295e7c96573042aa9cf39a8f7dbdd7baf2d99a29243352cd86e2ba60"


@pytest.mark.parametrize("name", sorted(CLASSIFIER_GOLDEN))
def test_classifier_proba_golden(tmp_path, name):
    config, expected = CLASSIFIER_GOLDEN[name]
    x, y = _train_rows()
    model = fit_arrays(config, x, y)
    path = tmp_path / "model.json"
    model.save(path)
    probe = _probe_rows()
    assert _digest(model.predict_proba(probe)) == expected
    assert _digest(load_model(path).predict_proba(probe)) == expected


def test_squared_error_tree_nodes_golden():
    x, _ = _train_rows()
    nodes = DecisionTree(SQUARED, max_depth=5).fit(x, x[:, 0] + 0.7 * x[:, 1] * x[:, 2]).nodes_by_id()
    assert _digest(np.concatenate([getattr(nodes, c) for c in COLUMNS])) == SQUARED_TREE_NODES


def test_iforest_score_and_threshold_golden(tmp_path):
    x, _ = _train_rows()
    config = DetectorConfig("iforest", {"n_estimators": 40, "max_samples": 128}, seed=5)
    detector = fit_detector(config, x)
    path = tmp_path / "detector.json"
    write_document(detector.to_dict(), path)
    back = read_document(path, detector_from_dict)
    probe = _probe_rows()
    for d in (detector, back):
        assert _digest(d.score(probe)) == IFOREST_SCORE
        assert _digest([d.threshold]) == IFOREST_THRESHOLD


@pytest.mark.parametrize("name", sorted(DETECTOR_GOLDEN))
def test_detector_score_and_threshold_golden(tmp_path, name):
    config, rows, score_digest, threshold_digest = DETECTOR_GOLDEN[name]
    x = rows()
    if name.startswith("mcd"):
        n, p = x.shape
        exhaustive = math.comb(n, (n + p + 1) // 2) <= EXHAUSTIVE_SUBSET_LIMIT
        assert exhaustive == (name == "mcd-exhaustive")
    detector = fit_detector(config, x)
    path = tmp_path / "detector.json"
    write_document(detector.to_dict(), path)
    probe = _probe_rows()[:, : x.shape[1]]
    for d in (detector, read_document(path, detector_from_dict)):
        assert _digest(d.score(probe)) == score_digest
        assert _digest([d.threshold]) == threshold_digest


@pytest.mark.parametrize("name", sorted(MCD_SUPPORT))
def test_mcd_support_and_raw_log_det_golden(name):
    config, rows, _, _ = DETECTOR_GOLDEN[name]
    support_digest, raw_log_det = MCD_SUPPORT[name]
    detector = fit_detector(config, rows())
    assert _digest(detector.support_indices) == support_digest
    assert detector.raw_log_det == pytest.approx(raw_log_det, rel=0.0, abs=1e-12)


def test_depth3_rules_text_golden():
    x, y = _train_rows()
    model = fit_arrays(ClassifierConfig("dt", {"maxdepth": 3}), x, y)
    text = format_rules(extract_rules(model))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RULES_TEXT


def _resample_rows():
    """Quarter-lattice numerics, a one-hot group (columns 3-4) and duplicated
    rows: many rows have several nearest neighbours at exactly equal distance."""
    rng = np.random.default_rng(41)
    numeric = np.vstack([rng.integers(0, 4, size=(64, 3)), rng.integers(2, 5, size=(16, 3))]) / 4.0
    group = np.eye(2)[rng.integers(0, 2, size=80)]
    x = np.hstack([numeric, group])
    y = np.array([0] * 64 + [1] * 16)
    dup = [3, 8, 64, 70, 71]
    return dataset_from_matrix(np.vstack([x, x[dup]]), np.concatenate([y, y[dup]]))


ONEHOT_GROUPS = [[3, 4]]
RESAMPLE_CONFIG = BalancerConfig(method="smote", k_neighbors=3, seed=9)

RESAMPLE_GOLDEN = {
    "smote": (smote, "a09ddb0bfcaa5959c75cf1d48d455a3998ed8bcad893121b885f6f0018058664"),
    "smote_enn": (smote_enn, "cc1ccbde956728195806883914e1895f7df083864066c170fa12a892a151b5f3"),
    "smote_tomek": (smote_tomek, "848201ab4e1bbd9141f8823ab94948f02a2f44dfcb983cc983f414b65e31aaf9"),
    "adasyn": (adasyn, "c63e6a797c07b8b0d00b1ff47aa560bb87c90209279f291db0e2f60cb5d6ce9e"),
}
SMOTE_PROVENANCE = "0278e9dbf4ca7e40a37c6d0d446d7558e449f1cbd97188b42bda0ef842891974"


@pytest.mark.parametrize("name", sorted(RESAMPLE_GOLDEN))
def test_resampled_rows_golden(name):
    method, expected = RESAMPLE_GOLDEN[name]
    out = method(_resample_rows(), RESAMPLE_CONFIG, ONEHOT_GROUPS)
    assert _digest(np.column_stack([out.matrix(), out.labels])) == expected


def test_smote_provenance_golden():
    data = _resample_rows()
    out = smote(data, RESAMPLE_CONFIG, ONEHOT_GROUPS)
    base_index, neighbor_index, u = smote_draws(data, RESAMPLE_CONFIG)
    assert out.n == data.n + len(u)
    assert _digest(np.column_stack([base_index, neighbor_index, u])) == SMOTE_PROVENANCE


def _mixed_csv_text() -> str:
    """A mixed CSV that exercises every cleansing rule: exact duplicates
    (also `-0` against `0`, null against null, and equal cells under another
    label), empty, `NA`, unparseable and infinite tokens, a column that is
    almost all null, two categorical columns, and a column whose minimum is
    reached by both 0.0 and -0.0 (0.0 first, so Python's `min` keeps 0.0)."""
    rng = np.random.default_rng(77)
    lines = ["kind,amount,zero,channel,sparse,score,label"]
    for i in range(48):
        kind = ("card", "wire", "cash")[int(rng.integers(3))]
        channel = ("web", "pos")[int(rng.integers(2))]
        amount = f"{rng.uniform(-20.0, 500.0):.4f}"
        zero = f"{rng.uniform(0.5, 9.0):.3f}"
        sparse = f"{rng.uniform():.2f}" if i in (5, 30) else ""
        score = f"{rng.normal():.5f}"
        label = "1" if i % 6 == 0 else "0"
        lines.append(f"{kind},{amount},{zero},{channel},{sparse},{score},{label}")
    lines += [
        "card,12.5,0,web,,0.25,0",  # the first minimum of `zero` is 0.0
        "card,12.5,-0,web,,0.25,0",  # equals the row above: dropped
        "wire,7,-0,pos,,1.5,1",  # -0.0 kept: its first occurrence
        "wire,7,0,pos,,1.5,1",  # equals the row above: dropped
        "cash,3.25,4,web,,NA,0",  # null score
        "cash,3.25,4,web,,NA,0",  # null/null duplicate: dropped
        "cash,3.25,4,web,,-2,0",
        "cash,3.25,4,web,,-2,1",  # same cells, other label: kept
        "card,,2,pos,,0.5,0",  # empty amount
        "card,oops,2,pos,,0.75,1",  # unparseable amount
        "wire,inf,3,web,,0.5,0",  # infinite amount
        "wire,1,-inf,web,,0.5,1",  # infinite zero
        "cash,NA,3,pos,,nan,0",
        "card,88,0.0,pos,,0.125,1",
        "card,-5,-0.0,web,,-0.125,0",
    ]
    return "\n".join(lines) + "\n"


DATA_PATH_GOLDEN = {
    "raw.csv": "ff792fb1cac3fda150ab4f8edc2124fa319a3f0cc95ae22234c0e2da6c112ab2",
    "clean.csv": "05c79e8f320a7099afb3bdec0d4ec605f2b54a2b245f64df3158cd3634753e77",
    "train.csv": "e2923a8dc9968bacd68369fa7425a3ea2978ef5c07a4e98d391b8264da3fcffc",
    "test.csv": "0f5027e4b765738c6f1966b9ec15e4806b1b5d7cfd0be2913fa1c6e119a5e730",
    "train": "6194296b4bb83c8c137ae27ced0085a61ffd48b6bc66e84b6fd2ca33c1218790",
    "test": "cd2c18e4f79f0da79b379ddcec04a2606fedd6cd80e1d45de324a1714190bb03",
    "norm": "7241ce58291c1ae9d753b1b6a38529b36e157bb2058806b8e3c83c444047626c",
}


def test_data_path_golden(tmp_path):
    schema = FeatureSchema(
        [
            Feature("kind", "categorical", categories=("card", "wire", "cash")),
            Feature("amount", "numeric"),
            Feature("zero", "numeric"),
            Feature("channel", "categorical", categories=("web", "pos")),
            Feature("sparse", "numeric"),
            Feature("score", "numeric"),
        ]
    )
    src = tmp_path / "mixed.csv"
    src.write_text(_mixed_csv_text(), encoding="utf-8")
    raw = load_csv(src, schema, label_column="label", null_token="NA")
    clean = cleanse(raw, 0.9)
    encoded, _ = encode_one_hot(clean)
    params = fit_normalize(encoded)
    scaled = apply_normalize(encoded, params)
    split = stratified_split(scaled, 0.7, seed=4)
    digests = {}
    for name, ds in (("raw", raw), ("clean", clean), ("train", split.train), ("test", split.test)):
        save_csv(ds, tmp_path / f"{name}.csv")
        digests[f"{name}.csv"] = hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
    digests["train"] = _digest(split.train.matrix())
    digests["test"] = _digest(split.test.matrix())
    norm = json.dumps(params.to_dict(), sort_keys=True).encode("utf-8")
    digests["norm"] = hashlib.sha256(norm).hexdigest()
    assert clean.schema.names == ["kind", "amount", "zero", "channel", "score"]
    assert digests == DATA_PATH_GOLDEN


# variant: (epochs, samples digest, disc_losses digest, gen_losses digest)
GAN_GOLDEN = {
    "vgan": (12, "537b74c30cd42469f7ec3b0af6e93caae538430a6698c5b1c1cbfd322afa6bea", "f27780fa587435bb11bd3def94cd28100a252bc810e86f916da2669fe5775e90", "e84d2426e8750a5564e8e27b273da59d5eeda5cfadea927896d993f8bc51e35a"),
    "wgan": (4, "9066cc59038b5caaf9f4f699f1ff42d2d64d8958e8dff6f444530699a5df1187", "006650b24de8959d8d15c725a84382671f3ea1d5354b433ee4ffcabb32f9dcda", "052c2c4edcf842c7435fdebbf2c656477373d7df92856b6e4c75bcbec6457bd0"),
}
NETWORK_DOCUMENT = "9402bd3b3613d96aaea6d47c250ddca16c2d9a7f0997d8f15d4803708b6ad13c"


@pytest.mark.parametrize("variant", sorted(GAN_GOLDEN))
def test_gan_samples_and_losses_golden(variant):
    epochs, samples, disc_losses, gen_losses = GAN_GOLDEN[variant]
    x = np.random.default_rng(13).uniform(size=(40, 4))
    spec = default_gan_spec(variant, 4)
    spec = replace(spec, train=replace(spec.train, epochs=epochs, seed=5))
    gan = train_gan(x, spec)
    assert len(gan.disc_losses) == epochs
    assert _digest(sample_synthetic(gan, 50, seed=8)) == samples
    assert _digest(gan.disc_losses) == disc_losses
    assert _digest(gan.gen_losses) == gen_losses


def test_network_document_golden():
    x, y = _train_rows()
    model = fit_arrays(ClassifierConfig("mlp", {"epochs": 5}, seed=4), x, y)
    text = json.dumps(model.network.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == NETWORK_DOCUMENT


def _document_rows():
    """The first 60 rows of `_train_rows`, for the detectors' documents."""
    return _train_rows()[0][:60]


def _data_documents():
    """The schema, one-hot map and norm params of a small mixed dataset."""
    schema = FeatureSchema(
        [
            Feature("kind", "categorical", categories=("card", "wire, cash", 'q"uote')),
            Feature("amount", "numeric"),
            Feature("hour", "numeric"),
        ]
    )
    rng = np.random.default_rng(19)
    i = np.arange(30)
    x = np.column_stack([i % 3, rng.uniform(-5.0, 90.0, size=30), i % 24])  # category index, amount, hour
    encoded, mapping = encode_one_hot(dataset_from_matrix(x, i % 2, schema=schema))
    return schema, mapping, fit_normalize(encoded)


def _gan_document_object():
    spec = default_gan_spec("vgan", 4)
    spec = replace(spec, train=replace(spec.train, epochs=2, seed=5))
    return train_gan(np.random.default_rng(13).uniform(size=(40, 4)), spec)


# name: (the object whose `to_dict` is pinned, its parser)
DOCUMENT_OBJECTS = {
    **{
        f"model-{config.kind}": (lambda config=config: fit_arrays(config, *_train_rows()), model_from_dict)
        for config in (
            ClassifierConfig("nb"),
            ClassifierConfig("lr", {"penalty_strength": 0.01, "max_iter": 300}),
            ClassifierConfig("svm", {"penalty_strength": 0.01, "max_iter": 300}),
            ClassifierConfig("dt", {"maxdepth": 3}),
            ClassifierConfig("rf", {"estimators": 3, "maxdepth": 3}, seed=3),
            ClassifierConfig("gbt", {"estimators": 3, "maxdepth": 2}),
            ClassifierConfig("mlp", {"epochs": 5}, seed=4),
        )
    },
    **{
        f"detector-{config.kind}": (lambda config=config, rows=rows: fit_detector(config, rows()), detector_from_dict)
        for config, rows in (
            (DetectorConfig("ocsvm", {"nu": 0.1}), _document_rows),
            (DetectorConfig("iforest", {"n_estimators": 5, "max_samples": 32}, seed=5), _document_rows),
            (DetectorConfig("copod"), _document_rows),
            (DetectorConfig("abod", {"n_neighbours": 5}), _document_rows),
            (DetectorConfig("mcd"), lambda: np.random.default_rng(11).normal(size=(12, 2))),
            (DetectorConfig("vae", {"epochs": 3}, seed=6), _document_rows),
        )
    },
    "gan": (_gan_document_object, Gan.from_dict),
    "schema": (lambda: _data_documents()[0], FeatureSchema.from_dict),
    "onehot": (lambda: _data_documents()[1], OneHotMap.from_dict),
    "norm": (lambda: _data_documents()[2], NormParams.from_dict),
}

DOCUMENT_GOLDEN = {
    "detector-abod": "c781118c89669dece177366988893954a95991a019998ab093094252bf8fc3a0",
    "detector-copod": "b5e75bf8260885fc3cf93009256d99c0ed5058822491a46e10e20ddaed9ff8b1",
    "detector-iforest": "49d76429529a88e542e7b31ca01c93e48e34909a9a71414ff3ff3b07d6967c72",
    "detector-mcd": "65b842f7391dd8c49c2c26aa23f6b13eef042660c33fd0186f05ef16d5627198",
    "detector-ocsvm": "19ac6a6dacddf4867e44d0d86ffe062268d3adecb737097c354ffede6b366b40",
    "detector-vae": "5f9413b2ceac4a881c9bee6ffa38c19cec36b2df88de575bc9e6aedce2e2578e",
    "gan": "0e07a3f4a43d13c35893bae0d6d0528484805841d4a0f8ab91be276c9e969e62",
    "model-dt": "72094978d6a991057e5ce41532498f1bb90d06fd082c1b8d1652f2ebd173da06",
    "model-gbt": "4883fc27226fcc3ae9770b45d0a992ef05687199b3584bd2b28d943dab79641b",
    "model-lr": "dacc0cc6f174a05989e5e43f3393cc63e1d9e1dc49830962b0674ac513a7e076",
    "model-mlp": "750f8fd0cb73ad5565680ba15727d4fe9b582505f8a0191f33bd81d80e548e46",
    "model-nb": "749757e442c5134ab1e25c8dd2846aec3e624c259c5b14dd4bfb1e5cd2204ad1",
    "model-rf": "9c8643460f4961c6c93f5198270ed02adc12895ae573c831a5f393461357825f",
    "model-svm": "604b4d333e84c1c8c34447812d1ad5c054649131e3b633f461df28e230efb4ce",
    "norm": "9f2efddca4822b0c804a9a3c6a300619d40749061ecf452b65a0ead2ab785b4e",
    "onehot": "a0f9c4a3eb0dab60f1ea3351263933a9aaffb2e9417777065849f5274b4a4c88",
    "schema": "bf11fb7f32edffa7bafa169798a358e0641d5cc758e1cb8ded882fe0c56afe3e",
}


@pytest.mark.parametrize("name", sorted(DOCUMENT_OBJECTS))
def test_document_bytes_golden(name):
    make, parse = DOCUMENT_OBJECTS[name]
    text = json.dumps(make().to_dict())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DOCUMENT_GOLDEN[name]
    # the document loads, and the loaded object writes the same bytes
    assert json.dumps(parse(json.loads(text)).to_dict()) == text


# name: (the config whose document is pinned, the exact text of that document);
# "-off" configs are those of `CONFIGS` in tests/test_documents.py
CONFIG_GOLDEN = {
    "ClassifierConfig": (lambda: ClassifierConfig("nb"), '{"kind": "nb", "parameters": {}, "seed": 0}'),
    "ClassifierConfig-off": (
        lambda: ClassifierConfig("rf", {"estimators": 5, "maxdepth": 3}, seed=2),
        '{"kind": "rf", "parameters": {"estimators": 5, "maxdepth": 3}, "seed": 2}',
    ),
    "DetectorConfig": (
        lambda: DetectorConfig("copod"), '{"kind": "copod", "parameters": {}, "contamination": 0.05, "seed": 0}'
    ),
    "DetectorConfig-off": (
        lambda: DetectorConfig("iforest", {"n_estimators": 5}, contamination=0.1, seed=4),
        '{"kind": "iforest", "parameters": {"n_estimators": 5}, "contamination": 0.1, "seed": 4}',
    ),
    "BalancerConfig": (
        BalancerConfig, '{"method": "none", "k_neighbors": 5, "target_ratio": 1.0, "enn_k": 3, "seed": 0}'
    ),
    "BalancerConfig-off": (
        lambda: BalancerConfig("smote_enn", k_neighbors=3, target_ratio=0.5, enn_k=2, seed=1),
        '{"method": "smote_enn", "k_neighbors": 3, "target_ratio": 0.5, "enn_k": 2, "seed": 1}',
    ),
    "TrainConfig": (
        TrainConfig,
        '{"optimizer": "adam", "learning_rate": 0.001, "epochs": 1, "batch_size": 32, "seed": 0, "weight_clip": null}',
    ),
    "TrainConfig-off": (
        lambda: TrainConfig("sgd", 0.05, 3, 16, 7, weight_clip=0.01),
        '{"optimizer": "sgd", "learning_rate": 0.05, "epochs": 3, "batch_size": 16, "seed": 7, "weight_clip": 0.01}',
    ),
    "NetworkSpec": (
        lambda: NetworkSpec(3, layer_stack([2], ["linear"]), "mse"),
        '{"input_dim": 3, "layers": [[2, "linear"]], "loss": "mse", "leaky_slope": 0.2}',
    ),
    "NetworkSpec-off": (
        lambda: NetworkSpec(4, layer_stack([3, 1], ["tanh", "logistic"]), "binary_cross_entropy", 0.1),
        '{"input_dim": 4, "layers": [[3, "tanh"], [1, "logistic"]], "loss": "binary_cross_entropy", '
        '"leaky_slope": 0.1}',
    ),
    "GanSpec": (
        lambda: default_gan_spec("vgan", 2),
        '{"variant": "vgan", "latent_dim": 8, '
        '"discriminator": {"input_dim": 2, "layers": [[128, "leaky_relu"], [64, "leaky_relu"], [32, "leaky_relu"], '
        '[8, "leaky_relu"], [1, "logistic"]], "loss": "binary_cross_entropy", "leaky_slope": 0.2}, '
        '"generator": {"input_dim": 8, "layers": [[8, "leaky_relu"], [32, "leaky_relu"], [64, "leaky_relu"], '
        '[128, "leaky_relu"], [2, "logistic"]], "loss": "mse", "leaky_slope": 0.2}, '
        '"train": {"optimizer": "adam", "learning_rate": 0.001, "epochs": 10000, "batch_size": 64, "seed": 0, '
        '"weight_clip": null}, "critic_steps": 5}',
    ),
    "GanSpec-off": (
        lambda: replace(default_gan_spec("wgan", 3, latent_dim=4), critic_steps=3),
        '{"variant": "wgan", "latent_dim": 4, '
        '"discriminator": {"input_dim": 3, "layers": [[256, "leaky_relu"], [128, "leaky_relu"], [64, "leaky_relu"], '
        '[32, "leaky_relu"], [1, "linear"]], "loss": "wasserstein_critic", "leaky_slope": 0.2}, '
        '"generator": {"input_dim": 4, "layers": [[32, "leaky_relu"], [64, "leaky_relu"], [128, "leaky_relu"], '
        '[256, "leaky_relu"], [3, "logistic"]], "loss": "mse", "leaky_slope": 0.2}, '
        '"train": {"optimizer": "adam", "learning_rate": 0.001, "epochs": 10000, "batch_size": 64, "seed": 0, '
        '"weight_clip": 0.01}, "critic_steps": 3}',
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIG_GOLDEN))
def test_config_bytes_golden(name):
    make, text = CONFIG_GOLDEN[name]
    config = make()
    assert json.dumps(config.to_dict()) == text
    # the document loads to an equal config, which writes the same bytes
    loaded = type(config).from_dict(json.loads(text))
    assert loaded == config and json.dumps(loaded.to_dict()) == text
