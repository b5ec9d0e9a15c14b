"""The two benchmark workloads, each driving fraudkit through its public API.

A workload has three parts:

- `setup(seed, work, tiny)` makes the inputs and returns a state dict;
- `pipeline(state, call)` is the measured part; every library call goes
  through `call`, which counts it and turns an exception into a failed call;
- `check(state, outputs)` validates the outputs outside the measured part.
"""

from __future__ import annotations

import csv
import hashlib
import traceback
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from fraudkit import classify, data, occ, resample
from fraudkit.data import CATEGORICAL, NUMERIC, Feature, FeatureSchema

FAILED = object()

TRAIN_FRACTION = 0.5
SPLIT_SEED = 0
POS_RATE = 0.05
# Classifier settings shared by every workload; dt, rf and gbt use values from
# the paper's search grids, and mlp trains for fewer epochs than its default.
MODEL_PARAMS = {
    "nb": {},
    "lr": {},
    "svm": {},
    "dt": {"maxdepth": 8},
    "rf": {"estimators": 10, "maxdepth": 8},
    "gbt": {"estimators": 10},
    "mlp": {"epochs": 60},
}
DETECTOR_PARAMS = {
    "ocsvm": {},
    "iforest": {},
    "copod": {},
    "abod": {},
    "mcd": {},
    "vae": {"epochs": 30},
}

# Row counts and epochs per workload; `tiny` is for the benchmark's own tests.
SIZES = {
    False: {
        "supervised_rows": 3000,
        "gan_rows": 4000,
        "gan_heldout": 2000,  # per class
        "gan_epochs": {"vgan": 100, "wgan": 20},
        "occ_negatives": 400,
        "occ_heldout_negatives": 300,
        "occ_positives": 200,
    },
    True: {
        "supervised_rows": 600,
        "gan_rows": 400,
        "gan_heldout": 100,
        "gan_epochs": {"vgan": 5, "wgan": 2},
        "occ_negatives": 120,
        "occ_heldout_negatives": 60,
        "occ_positives": 40,
    },
}


class Calls:
    """Counts pipeline calls. A call that raises, or whose input came from a
    failed call, counts as failed and returns FAILED; the pipeline goes on."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, name: str, fn: Callable, *args):
        self.attempted += 1
        if any(a is FAILED for a in args):
            self.failed += 1
            self.errors.append(f"{name}: skipped, an input failed")
            return FAILED
        try:
            return fn(*args)
        except Exception:  # the run records the failure and goes on
            self.failed += 1
            self.errors.append(f"{name}: {traceback.format_exc(limit=4)}")
            return FAILED


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def balanced_accuracy(y: np.ndarray, pred: np.ndarray) -> float:
    """(TPR + TNR) / 2."""
    tpr = float(np.mean(pred[y == 1] == 1))
    tnr = float(np.mean(pred[y == 0] == 0))
    return (tpr + tnr) / 2.0


class Checks:
    """Named pass/fail output checks plus per-model results."""

    def __init__(self) -> None:
        self.items: list[dict] = []
        self.models: dict[str, dict] = {}

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def predictions(self, model: str, y: np.ndarray, pred, values, kind: str) -> None:
        """Check a 0/1 prediction vector and its probabilities or scores."""
        if not self.add(f"{model}.produced", pred is not FAILED and values is not FAILED):
            return
        pred = np.asarray(pred)
        values = np.asarray(values, dtype=float)
        self.add(f"{model}.pred_length", pred.shape == y.shape, f"{pred.shape} vs {y.shape}")
        self.add(f"{model}.pred_binary", bool(np.isin(pred, (0, 1)).all()))
        self.add(f"{model}.{kind}_length", values.shape == y.shape, f"{values.shape} vs {y.shape}")
        self.add(f"{model}.{kind}_finite", bool(np.isfinite(values).all()))
        if kind == "proba":
            self.add(f"{model}.proba_in_unit", bool(((values >= 0) & (values <= 1)).all()))
        if pred.shape == y.shape:
            self.models[model] = {
                "balanced_accuracy": balanced_accuracy(y, pred),
                "pred_sha256": _digest(pred.astype(np.int8)),
                f"{kind}_sha256": _digest(values),
            }

    def mean_ba(self, floor: float) -> float:
        bas = [m["balanced_accuracy"] for m in self.models.values()]
        mean = float(np.mean(bas)) if bas else 0.0
        self.add("balanced_accuracy_floor", mean >= floor, f"{mean:.4f} >= {floor}")
        return mean


def _model_probas(models: dict, x: np.ndarray) -> dict:
    return {k: FAILED if m is FAILED else m.predict_proba(x) for k, m in models.items()}


# ---------------------------------------------------------------------------
# supervised_smote


def _mixed_schema() -> FeatureSchema:
    return FeatureSchema(
        [Feature(name, CATEGORICAL, categories=cats) for name, cats in inputs.CATEGORIES.items()]
        + [Feature(name, NUMERIC) for name in inputs.FEATURES]
    )


def supervised_setup(seed: int, work: Path, tiny: bool) -> dict:
    rng = np.random.default_rng(seed)
    x, y = inputs.transactions(rng, *inputs.split_counts(SIZES[tiny]["supervised_rows"], POS_RATE))
    path = work / "transactions.csv"
    inputs.write_mixed_csv(path, rng, x, y)
    return {
        "csv": path,
        "schema": _mixed_schema(),
        "work": work,
        "scored": work / "scored.csv",
        "input_rows": len(y),
        "inputs": {"transactions.csv": inputs.sha256_file(path)},
    }


SUPERVISED_KINDS = ("nb", "lr", "svm", "dt", "rf", "gbt")


def _save(model, path: Path) -> Path:
    model.save(path)
    return path


def _scored_rows(test: data.Dataset, x: np.ndarray, *probas: np.ndarray) -> data.Dataset:
    names = test.schema.names + [f"p_{k}" for k in SUPERVISED_KINDS]
    return data.dataset_from_matrix(np.column_stack((x,) + probas), test.labels, names)


def supervised_pipeline(state: dict, call: Calls) -> dict:
    raw = call("load_csv", data.load_csv, state["csv"], state["schema"], inputs.LABEL)
    clean = call("cleanse", data.cleanse, raw)
    encoded = call("encode_one_hot", data.encode_one_hot, clean)
    table, onehot = (FAILED, FAILED) if encoded is FAILED else encoded
    bounds = call("fit_normalize", data.fit_normalize, table)
    scaled = call("apply_normalize", data.apply_normalize, table, bounds)
    split = call("stratified_split", data.stratified_split, scaled, TRAIN_FRACTION, SPLIT_SEED)
    train = FAILED if split is FAILED else split.train
    test = FAILED if split is FAILED else split.test
    cfg = resample.BalancerConfig("smote_tomek", target_ratio=0.25, seed=0)
    groups = call("OneHotMap.groups", lambda m: m.groups(), onehot)
    balanced = call("balance", resample.balance, train, cfg, groups)
    x_test = call("Dataset.matrix", lambda d: d.matrix(), test)
    preds, probas = {}, {}
    for kind in SUPERVISED_KINDS:
        config = classify.ClassifierConfig(kind, MODEL_PARAMS[kind], seed=0)
        model = call(f"fit.{kind}", classify.fit, config, balanced)
        preds[kind] = call(f"predict.{kind}", lambda m, x: m.predict(x), model, x_test)
        # the read path of a deployed model: save it, load it back and score with the copy
        path = call(f"save.{kind}", _save, model, state["work"] / f"model_{kind}.json")
        loaded = call(f"load_model.{kind}", classify.load_model, path)
        probas[kind] = call(f"predict_proba.{kind}", lambda m, x: m.predict_proba(x), loaded, x_test)
    scored = call("scored_rows", _scored_rows, test, x_test, *probas.values())
    call("save_csv", data.save_csv, scored, state["scored"], inputs.LABEL)
    return {"test": test, "x_test": x_test, "preds": preds, "probas": probas, "balanced": balanced}


def supervised_check(state: dict, out: dict) -> Checks:
    checks = Checks()
    test = out["test"]
    if not checks.add("split.produced", test is not FAILED and out["x_test"] is not FAILED):
        return checks
    y = test.labels
    for kind in SUPERVISED_KINDS:
        checks.predictions(kind, y, out["preds"][kind], out["probas"][kind], "proba")
    balanced = out["balanced"]
    if checks.add("balance.produced", balanced is not FAILED):
        counts = np.bincount(balanced.labels, minlength=2)
        # SMOTE grows the minority to a quarter of the majority; Tomek only removes majority rows
        checks.add("balance.ratio", counts[1] >= 0.25 * counts[0] - 1, f"{counts.tolist()}")
    written = 0
    if state["scored"].exists():
        with state["scored"].open(newline="", encoding="utf-8") as fh:
            written = sum(1 for _ in csv.reader(fh)) - 1
        state["scored"].unlink()  # the next iteration must write its own
    checks.add("scored_csv.rows", written == len(y), f"{written} vs {len(y)}")
    return checks


# ---------------------------------------------------------------------------
# gan_one_class

GAN_VARIANTS = ("vgan", "wgan")


def gan_occ_setup(seed: int, work: Path, tiny: bool) -> dict:
    size = SIZES[tiny]
    rng = np.random.default_rng(seed)
    x, y = inputs.transactions(rng, *inputs.split_counts(size["gan_rows"], POS_RATE))
    x_test, y_test = inputs.transactions(rng, size["gan_heldout"], size["gan_heldout"])
    x, x_test = inputs.minmax(x, x_test)
    negatives, _ = inputs.transactions(rng, size["occ_negatives"], 0)
    occ_test, occ_y_test = inputs.transactions(rng, size["occ_heldout_negatives"], size["occ_positives"])
    negatives, occ_test = inputs.minmax(negatives, occ_test)
    arrays = {
        "x": x, "y": y, "x_test": x_test, "y_test": y_test,
        "negatives": negatives, "occ_test": occ_test, "occ_y_test": occ_y_test,
    }
    return arrays | {
        "epochs": size["gan_epochs"],
        "input_rows": len(y) + len(negatives),
        "inputs": {name: inputs.sha256_array(a) for name, a in arrays.items()},
    }


def gan_occ_pipeline(state: dict, call: Calls) -> dict:
    train = call("dataset_from_matrix", data.dataset_from_matrix, state["x"], state["y"], inputs.FEATURES)
    models, preds = {}, {}
    for variant in GAN_VARIANTS:
        cfg = resample.BalancerConfig(variant, target_ratio=0.25, seed=0)
        overrides = {"epochs": state["epochs"][variant]}
        balanced = call(f"balance.{variant}", resample.balance, train, cfg, None, overrides)
        config = classify.ClassifierConfig("mlp", MODEL_PARAMS["mlp"], seed=0)
        name = f"mlp_{variant}"
        models[name] = call(f"fit.{name}", classify.fit, config, balanced)
        preds[name] = call(f"predict.{name}", lambda m, x: m.predict(x), models[name], state["x_test"])
    detectors, detector_preds = {}, {}
    for kind, params in DETECTOR_PARAMS.items():
        config = occ.DetectorConfig(kind, params, seed=0)
        detectors[kind] = call(f"fit_detector.{kind}", occ.fit_detector, config, state["negatives"])
        detector_preds[kind] = call(
            f"classify.{kind}", lambda d, x: d.classify(x), detectors[kind], state["occ_test"]
        )
    return {"models": models, "preds": preds, "detectors": detectors, "detector_preds": detector_preds}


def gan_occ_check(state: dict, out: dict) -> Checks:
    checks = Checks()
    probas = _model_probas(out["models"], state["x_test"])
    for name, pred in out["preds"].items():
        checks.predictions(name, state["y_test"], pred, probas[name], "proba")
    for kind, pred in out["detector_preds"].items():
        det = out["detectors"][kind]
        scores = FAILED if det is FAILED else det.score(state["occ_test"])
        checks.predictions(kind, state["occ_y_test"], pred, scores, "score")
    return checks


WORKLOADS = {
    "supervised_smote": (supervised_setup, supervised_pipeline, supervised_check),
    "gan_one_class": (gan_occ_setup, gan_occ_pipeline, gan_occ_check),
}
