"""The seven binary classifiers behind one fit/predict contract, plus
IF-THEN rule extraction from fitted decision trees.

Every model exposes predict_proba in [0,1] and predict = proba >= 0.5.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (
    Dataset,
    as_matrix,
    check_integer,
    config_parser,
    document_parser,
    read_document,
    require_finite,
    round_half_up,
    write_document,
)
from .errors import ConfigError, DataError, ModelError
from .neural import LayerSpec, Network, NetworkSpec, TrainConfig, init_network, sigmoid, train
from .tree import SQUARED, DecisionTree

KINDS = ("nb", "lr", "svm", "dt", "rf", "gbt", "mlp")

# Enumerated hyperparameter domains; numeric parameters are sanity-checked
# but deliberately not pinned to the published search grids, since off-grid
# values (learning_rate 0, maxdepth 12, ...) are legitimate.
ENUM_PARAMS: dict[str, dict[str, tuple]] = {
    "lr": {"regularizer": ("l1", "l2", "elasticnet")},
    "svm": {
        "regularizer": ("l1", "l2"),
        "loss": ("hinge", "squared-hinge"),
    },
    "dt": {"criterion": ("gini", "entropy")},
    "rf": {"criterion": ("gini", "entropy"), "max_features": ("sqrt", "all")},
    "gbt": {"loss": ("deviance", "exponential")},
    "mlp": {
        "activation": ("logistic", "tanh", "relu"),
        "solver": ("adam", "sgd"),
    },
}

NUMERIC_PARAMS: dict[str, dict[str, tuple[float, float]]] = {
    # name -> (min, max) inclusive sanity bounds
    "lr": {"penalty_strength": (0.0, math.inf), "max_iter": (1, 1e7), "tol": (0.0, 1.0)},
    "svm": {"penalty_strength": (0.0, math.inf), "max_iter": (1, 1e7), "tol": (0.0, 1.0)},
    "dt": {"maxdepth": (1, 1e6)},
    "rf": {"maxdepth": (1, 1e6), "estimators": (1, 1e6)},
    "gbt": {"maxdepth": (1, 1e6), "estimators": (1, 1e6), "learning_rate": (0.0, 10.0)},
    "mlp": {"epochs": (1, 1e7), "learning_rate": (0.0, 10.0)},
}

BOOL_PARAMS: dict[str, tuple[str, ...]] = {"rf": ("bootstrap",)}

# Published search grids (exhaustive grid-search spaces).
TABLE_GRIDS: dict[str, dict[str, list]] = {
    "nb": {},
    "lr": {"regularizer": ["l1", "l2", "elasticnet"]},
    "svm": {"regularizer": ["l1", "l2"], "loss": ["hinge", "squared-hinge"]},
    "dt": {"criterion": ["gini", "entropy"], "maxdepth": list(range(1, 11))},
    "rf": {
        "criterion": ["gini", "entropy"],
        "maxdepth": list(range(1, 11)),
        "estimators": [10, 20, 50, 100, 200],
    },
    "gbt": {
        "loss": ["deviance", "exponential"],
        "learning_rate": [0.001, 0.01, 0.1],
        "maxdepth": list(range(1, 11)),
        "estimators": [10, 20, 50],
    },
    "mlp": {"activation": ["logistic", "tanh", "relu"], "solver": ["adam", "sgd"]},
}


def check_parameters(
    kind: str,
    parameters: dict,
    enums: dict[str, tuple],
    numerics: dict[str, tuple[float, float]],
    bools: tuple[str, ...] = (),
) -> None:
    """ConfigError unless parameters is a mapping and each parameter is a
    listed value of an enumerated one, a number within the bounds of a numeric
    one, or a bool."""
    if not isinstance(parameters, Mapping):
        raise ConfigError(f"{kind}: parameters must be a mapping, got {parameters!r}")
    for name, value in parameters.items():
        if name in enums:
            if value not in enums[name]:
                raise ConfigError(f"{kind}: {name} must be one of {enums[name]}, got {value!r}")
        elif name in numerics:
            low, high = numerics[name]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{kind}: {name} must be numeric")
            if not (low <= value <= high):
                raise ConfigError(f"{kind}: {name}={value} outside [{low}, {high}]")
        elif name in bools:
            if not isinstance(value, bool):
                raise ConfigError(f"{kind}: {name} must be boolean")
        else:
            raise ConfigError(f"{kind}: unknown hyperparameter {name!r}")


def validate_parameters(kind: str, parameters: dict) -> None:
    if kind not in KINDS:
        raise ConfigError(f"unknown classifier kind {kind!r}")
    check_parameters(
        kind, parameters, ENUM_PARAMS.get(kind, {}), NUMERIC_PARAMS.get(kind, {}), BOOL_PARAMS.get(kind, ())
    )


@dataclass(frozen=True)
class ClassifierConfig:
    kind: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        validate_parameters(self.kind, self.parameters)
        check_integer("seed", self.seed, 0)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "parameters": dict(self.parameters), "seed": self.seed}

    @classmethod
    @config_parser
    def from_dict(cls, doc: dict) -> "ClassifierConfig":
        return cls(doc["kind"], doc.get("parameters", {}), doc.get("seed", 0))


class TrainedModel:
    """Fitted classifier: kind, feature names, kind-specific state."""

    kind: str = ""

    def __init__(self, feature_names: Sequence[str]):
        self.feature_names = list(feature_names)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def predict_proba(self, rows) -> np.ndarray:
        raise NotImplementedError

    def predict(self, rows) -> np.ndarray:
        return (self.predict_proba(rows) >= 0.5).astype(int)

    def _state_dict(self) -> dict:
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {
            "format": "fraudkit.model/1",
            "kind": self.kind,
            "feature_names": self.feature_names,
            "state": self._state_dict(),
        }

    def save(self, path: str | Path) -> None:
        write_document(self.to_dict(), path)


# ---------------------------------------------------------------------------
# Naive Bayes

class NaiveBayesModel(TrainedModel):
    kind = "nb"

    def __init__(self, feature_names, log_prior, means, variances):
        super().__init__(feature_names)
        self.log_prior = np.asarray(log_prior, dtype=float)  # (2,)
        self.means = np.asarray(means, dtype=float)  # (2, d)
        self.variances = np.asarray(variances, dtype=float)  # (2, d)

    def predict_proba(self, rows) -> np.ndarray:
        x = as_matrix(rows, self.n_features)
        loglik = np.empty((x.shape[0], 2))
        for cls in (0, 1):
            var = self.variances[cls]
            loglik[:, cls] = self.log_prior[cls] - 0.5 * np.sum(
                np.log(2.0 * np.pi * var) + (x - self.means[cls]) ** 2 / var, axis=1
            )
        shifted = loglik - loglik.max(axis=1, keepdims=True)
        w = np.exp(shifted)
        return w[:, 1] / w.sum(axis=1)

    def _state_dict(self) -> dict:
        return {
            "log_prior": self.log_prior.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }

    @classmethod
    def _from_state(cls, names, state):
        return cls(names, state["log_prior"], state["means"], state["variances"])


def _fit_nb(x: np.ndarray, y: np.ndarray, names, config: ClassifierConfig) -> NaiveBayesModel:
    var_floor = 1e-9
    log_prior = []
    means = []
    variances = []
    for cls in (0, 1):
        rows = x[y == cls]
        log_prior.append(math.log(rows.shape[0] / x.shape[0]))
        means.append(rows.mean(axis=0))
        variances.append(np.maximum(rows.var(axis=0), var_floor))
    return NaiveBayesModel(names, log_prior, means, variances)


# ---------------------------------------------------------------------------
# Linear models (logistic regression / linear SVM)

class LinearModel(TrainedModel):
    """Coefficient vector + bias. lr scores through the logistic link;
    svm predicts the sign of the margin and reports logistic(margin) as a
    probability surrogate. `iterations` counts the solver's steps and
    `converged` says whether it stopped with max|grad| below `tol`."""

    def __init__(self, kind, feature_names, weights, bias, parameters, iterations=0, converged=False):
        super().__init__(feature_names)
        self.kind = kind
        self.weights = np.asarray(weights, dtype=float)
        self.bias = float(bias)
        self.parameters = dict(parameters)
        self.iterations = int(iterations)
        self.converged = bool(converged)

    def decision_score(self, rows) -> np.ndarray:
        x = as_matrix(rows, self.n_features)
        return x @ self.weights + self.bias

    def predict_proba(self, rows) -> np.ndarray:
        return sigmoid(self.decision_score(rows))

    def _state_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "parameters": self.parameters,
            "iterations": self.iterations,
            "converged": self.converged,
        }

    @classmethod
    def _from_state(cls, kind, names, state):
        signals = state.get("iterations", 0), state.get("converged", False)
        return cls(kind, names, state["weights"], state["bias"], state.get("parameters", {}), *signals)


def _penalty_terms(w: np.ndarray, regularizer: str, strength: float):
    if strength == 0.0:
        return 0.0, np.zeros_like(w)
    if regularizer == "l1":
        return strength * np.sum(np.abs(w)), strength * np.sign(w)
    if regularizer == "l2":
        return strength * np.sum(w * w), 2.0 * strength * w
    # elasticnet: even split
    l1 = np.sum(np.abs(w))
    l2 = np.sum(w * w)
    return 0.5 * strength * (l1 + l2), strength * (0.5 * np.sign(w) + w)


# An objective maps (w, b) to (loss, gradient in w, gradient in b, curvature).
# For a smooth loss, curvature() gives the per-row weights c of its
# (generalized) Hessian in the data term, X1' diag(c) X1 with X1 = [x, 1];
# for the hinge it is None.


def _lr_objective(x, y, regularizer, strength):
    yf = y.astype(float)
    n = len(yf)

    def objective(w, b):
        z = x @ w + b
        p = sigmoid(z)
        eps = 1e-12
        data = -np.mean(yf * np.log(p + eps) + (1 - yf) * np.log(1 - p + eps))
        grad_z = (p - yf) / n
        pen, pen_grad = _penalty_terms(w, regularizer, strength)
        return data + pen, x.T @ grad_z + pen_grad, float(grad_z.sum()), lambda: p * (1.0 - p) / n

    return objective


def _svm_objective(x, y, loss_name, regularizer, strength):
    ypm = 2.0 * y - 1.0  # {0,1} -> {-1,+1}
    n = len(y)

    def objective(w, b):
        margin = ypm * (x @ w + b)
        slack = np.maximum(0.0, 1.0 - margin)
        if loss_name == "hinge":
            data = float(np.mean(slack))
            coeff = np.where(slack > 0, -ypm, 0.0) / n
            curvature = None
        else:  # squared-hinge
            data = float(np.mean(slack * slack))
            coeff = -2.0 * slack * ypm / n
            curvature = lambda: np.where(slack > 0, 2.0 / n, 0.0)
        pen, pen_grad = _penalty_terms(w, regularizer, strength)
        return data + pen, x.T @ coeff + pen_grad, float(coeff.sum()), curvature

    return objective


def _descend(objective, d, max_iter, tol):
    """Monotone full-batch (sub)gradient descent with step halving, for the
    objectives Newton cannot take (l1, elasticnet, hinge). Returns
    (w, b, iterations, converged)."""
    w = np.zeros(d)
    b = 0.0
    step = 1.0
    loss, gw, gb, _ = objective(w, b)
    iterations = 0
    while iterations < max_iter and max(float(np.max(np.abs(gw))), abs(gb)) >= tol:
        while step > 1e-14:
            w2 = w - step * gw
            b2 = b - step * gb
            loss2, gw2, gb2, _ = objective(w2, b2)
            if loss2 <= loss + 1e-15:
                w, b, loss, gw, gb = w2, b2, loss2, gw2, gb2
                step *= 1.2
                break
            step *= 0.5
        else:
            break
        iterations += 1
    return w, b, iterations, max(float(np.max(np.abs(gw))), abs(gb)) < tol


def _newton(x, objective, ridge, max_iter, tol):
    """Damped Newton on theta = (w, b) for a smooth objective whose penalty
    is ridge/2 * |w|^2 (the bias is not penalized): IRLS for the logistic
    loss, generalized Newton for the squared hinge (Keerthi & DeCoste, JMLR
    2005). Each step solves the (d+1)x(d+1) system by least squares, so a
    singular Hessian (empty active set, duplicated columns, ridge 0) gives
    the minimum-norm step instead of an error, then halves the step until
    the loss does not rise. Returns (w, b, iterations, converged)."""
    n, d = x.shape
    x1 = np.hstack([x, np.ones((n, 1))])
    diagonal = np.append(np.full(d, ridge), 0.0)
    theta = np.zeros(d + 1)
    loss, gw, gb, curvature = objective(theta[:d], theta[d])
    grad = np.append(gw, gb)
    iterations = 0
    while iterations < max_iter and np.max(np.abs(grad)) >= tol:
        hessian = x1.T @ (curvature()[:, None] * x1) + np.diag(diagonal)
        direction = np.linalg.lstsq(hessian, -grad, rcond=None)[0]
        t = 1.0
        while True:
            candidate = theta + t * direction
            loss2, gw, gb, curvature2 = objective(candidate[:d], candidate[d])
            if loss2 <= loss:
                break
            t *= 0.5
            if t < 1e-12:  # no step lowers the loss: rounding noise at the optimum
                return theta[:d], float(theta[d]), iterations, False
        theta, loss, grad, curvature = candidate, loss2, np.append(gw, gb), curvature2
        iterations += 1
    return theta[:d], float(theta[d]), iterations, bool(np.max(np.abs(grad)) < tol)


def _solve(x, objective, smooth, strength, params):
    """(w, b, iterations, converged): Newton for an l2-penalized smooth
    objective, step-halving descent for the rest."""
    max_iter = int(params.get("max_iter", 2000))
    tol = float(params.get("tol", 1e-9))
    if smooth:
        return _newton(x, objective, 2.0 * strength, max_iter, tol)
    return _descend(objective, x.shape[1], max_iter, tol)


def _fit_lr(x, y, names, config: ClassifierConfig) -> LinearModel:
    params = config.parameters
    regularizer = params.get("regularizer", "l2")
    strength = float(params.get("penalty_strength", 1e-6))
    objective = _lr_objective(x, y, regularizer, strength)
    w, b, iterations, converged = _solve(x, objective, regularizer == "l2", strength, params)
    return LinearModel("lr", names, w, b, params, iterations, converged)


def _fit_svm(x, y, names, config: ClassifierConfig) -> LinearModel:
    params = config.parameters
    regularizer = params.get("regularizer", "l2")
    loss_name = params.get("loss", "hinge")
    strength = float(params.get("penalty_strength", 1e-4))
    objective = _svm_objective(x, y, loss_name, regularizer, strength)
    smooth = regularizer == "l2" and loss_name == "squared-hinge"
    w, b, iterations, converged = _solve(x, objective, smooth, strength, params)
    return LinearModel("svm", names, w, b, params, iterations, converged)


# ---------------------------------------------------------------------------
# Trees and ensembles

class TreeModel(TrainedModel):
    kind = "dt"

    def __init__(self, feature_names, tree: DecisionTree, parameters):
        super().__init__(feature_names)
        self.tree = tree
        self.parameters = dict(parameters)

    def predict_proba(self, rows) -> np.ndarray:
        return self.tree.predict_value(as_matrix(rows, self.n_features))

    def _state_dict(self) -> dict:
        return {"tree": self.tree.to_dict(), "parameters": self.parameters}

    @classmethod
    def _from_state(cls, names, state):
        return cls(names, DecisionTree.from_dict(state["tree"]), state.get("parameters", {}))


def _fit_dt(x, y, names, config: ClassifierConfig) -> TreeModel:
    params = config.parameters
    tree = DecisionTree(
        criterion=params.get("criterion", "gini"),
        max_depth=int(params["maxdepth"]) if "maxdepth" in params else None,
    ).fit(x, y)
    return TreeModel(names, tree, params)


class ForestModel(TrainedModel):
    kind = "rf"

    def __init__(self, feature_names, trees: list[DecisionTree], parameters):
        super().__init__(feature_names)
        self.trees = trees
        self.parameters = dict(parameters)

    def predict_proba(self, rows) -> np.ndarray:
        x = as_matrix(rows, self.n_features)
        votes = np.zeros(x.shape[0])
        for tree in self.trees:
            votes += (tree.predict_value(x) >= 0.5).astype(float)
        return votes / len(self.trees)

    def _state_dict(self) -> dict:
        return {"trees": [t.to_dict() for t in self.trees], "parameters": self.parameters}

    @classmethod
    def _from_state(cls, names, state):
        return cls(names, [DecisionTree.from_dict(t) for t in state["trees"]], state.get("parameters", {}))


def _fit_rf(x, y, names, config: ClassifierConfig) -> ForestModel:
    params = config.parameters
    n_estimators = int(params.get("estimators", 100))
    criterion = params.get("criterion", "gini")
    max_depth = int(params["maxdepth"]) if "maxdepth" in params else None
    bootstrap = bool(params.get("bootstrap", True))
    if params.get("max_features", "sqrt") == "sqrt":
        max_features = max(1, round_half_up(math.sqrt(x.shape[1])))
    else:
        max_features = None
    seeds = np.random.SeedSequence(config.seed).spawn(n_estimators)
    trees = []
    for seq in seeds:
        rng = np.random.default_rng(seq)
        idx = rng.integers(0, x.shape[0], size=x.shape[0]) if bootstrap else np.arange(x.shape[0])
        tree = DecisionTree(criterion=criterion, max_depth=max_depth, max_features=max_features)
        tree.fit(x[idx], y[idx], rng=rng)
        trees.append(tree)
    return ForestModel(names, trees, params)


class BoostedModel(TrainedModel):
    kind = "gbt"

    def __init__(self, feature_names, initial_score, trees, learning_rate, loss, parameters):
        super().__init__(feature_names)
        self.initial_score = float(initial_score)
        self.trees = trees
        self.learning_rate = float(learning_rate)
        self.loss = loss
        self.parameters = dict(parameters)

    def decision_score(self, rows) -> np.ndarray:
        x = as_matrix(rows, self.n_features)
        score = np.full(x.shape[0], self.initial_score)
        for tree in self.trees:
            score += self.learning_rate * tree.predict_value(x)
        return score

    def staged_scores(self, rows) -> list[np.ndarray]:
        """Additive score after each boosting stage (stage 0 = initial)."""
        x = as_matrix(rows, self.n_features)
        score = np.full(x.shape[0], self.initial_score)
        stages = [score.copy()]
        for tree in self.trees:
            score = score + self.learning_rate * tree.predict_value(x)
            stages.append(score.copy())
        return stages

    def predict_proba(self, rows) -> np.ndarray:
        return sigmoid(self.decision_score(rows))

    def _state_dict(self) -> dict:
        return {
            "initial_score": self.initial_score,
            "learning_rate": self.learning_rate,
            "loss": self.loss,
            "trees": [t.to_dict() for t in self.trees],
            "parameters": self.parameters,
        }

    @classmethod
    def _from_state(cls, names, state):
        return cls(
            names,
            state["initial_score"],
            [DecisionTree.from_dict(t) for t in state["trees"]],
            state["learning_rate"],
            state["loss"],
            state.get("parameters", {}),
        )


def _fit_gbt(x, y, names, config: ClassifierConfig) -> BoostedModel:
    params = config.parameters
    loss = params.get("loss", "deviance")
    learning_rate = float(params.get("learning_rate", 0.1))
    n_estimators = int(params.get("estimators", 50))
    max_depth = int(params.get("maxdepth", 3))

    p_base = float(np.mean(y))
    f0 = math.log(p_base / (1.0 - p_base))
    score = np.full(x.shape[0], f0)
    ypm = 2.0 * y.astype(float) - 1.0
    trees: list[DecisionTree] = []
    for _ in range(n_estimators):
        if loss == "deviance":
            p = sigmoid(score)
            residual = y - p
            hessian = np.maximum(p * (1.0 - p), 1e-12)
        else:  # exponential loss on half the score, so the score stays the log-odds
            w = np.exp(np.clip(-ypm * score / 2.0, -30.0, 30.0))
            residual = ypm * w
            hessian = np.maximum(w, 1e-12) / 2.0
        tree = DecisionTree(criterion=SQUARED, max_depth=max_depth).fit(x, residual)
        values = tree.nodes_by_id().value
        for leaf_id, idx in tree.leaf_training_indices.items():
            num = float(np.sum(residual[idx]))
            den = float(np.sum(hessian[idx]))
            values[leaf_id] = num / den if den > 0 else 0.0
        score = score + learning_rate * tree.predict_value(x)
        trees.append(tree)
    return BoostedModel(names, f0, trees, learning_rate, loss, params)


# ---------------------------------------------------------------------------
# MLP

class MlpModel(TrainedModel):
    kind = "mlp"

    def __init__(self, feature_names, network: Network, parameters):
        super().__init__(feature_names)
        self.network = network
        self.parameters = dict(parameters)

    def predict_proba(self, rows) -> np.ndarray:
        x = as_matrix(rows, self.n_features)
        return self.network.forward(x).ravel()

    def _state_dict(self) -> dict:
        return {"network": self.network.to_dict(), "parameters": self.parameters}

    @classmethod
    def _from_state(cls, names, state):
        return cls(names, Network.from_dict(state["network"]), state.get("parameters", {}))


def _fit_mlp(x, y, names, config: ClassifierConfig) -> MlpModel:
    params = config.parameters
    activation = params.get("activation", "relu")
    solver = params.get("solver", "adam")
    epochs = int(params.get("epochs", 300))
    default_lr = 0.01 if solver == "adam" else 0.3
    learning_rate = float(params.get("learning_rate", default_lr))
    d = x.shape[1]
    spec = NetworkSpec(
        d,
        (LayerSpec(d, activation), LayerSpec(1, "logistic")),
        "binary_cross_entropy",
    )
    net = init_network(spec, config.seed)
    cfg = TrainConfig(
        optimizer=solver,
        learning_rate=learning_rate,
        epochs=epochs,
        batch_size=max(32, min(256, x.shape[0])),
        seed=config.seed,
    )
    train(net, x, y.astype(float).reshape(-1, 1), cfg)
    return MlpModel(names, net, params)


# ---------------------------------------------------------------------------
# Fit dispatch + persistence

_FITTERS = {
    "nb": _fit_nb,
    "lr": _fit_lr,
    "svm": _fit_svm,
    "dt": _fit_dt,
    "rf": _fit_rf,
    "gbt": _fit_gbt,
    "mlp": _fit_mlp,
}


def fit(config: ClassifierConfig, train_data: Dataset) -> TrainedModel:
    """Fit config.kind on a labeled, all-numeric dataset."""
    x = train_data.matrix()
    y = train_data.require_labels()
    return fit_arrays(config, x, y, train_data.schema.names)


def fit_arrays(
    config: ClassifierConfig,
    x: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str] | None = None,
) -> TrainedModel:
    x = require_finite(np.asarray(x, dtype=float), "training matrix")
    y = np.asarray(y, dtype=int)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DataError("bad training shapes")
    if len(np.unique(y)) < 2:
        raise DataError("training data must contain both classes")
    names = list(feature_names) if feature_names is not None else [f"f{i}" for i in range(x.shape[1])]
    if len(names) != x.shape[1]:
        raise DataError("feature_names length must match columns")
    return _FITTERS[config.kind](x, y, names, config)


_MODEL_CLASSES = {
    "nb": NaiveBayesModel,
    "lr": LinearModel,
    "svm": LinearModel,
    "dt": TreeModel,
    "rf": ForestModel,
    "gbt": BoostedModel,
    "mlp": MlpModel,
}


@document_parser
def model_from_dict(doc: dict) -> TrainedModel:
    if doc.get("format") != "fraudkit.model/1":
        raise ModelError(f"unsupported model document {doc.get('format')!r}")
    kind = doc["kind"]
    if kind not in _MODEL_CLASSES:
        raise ModelError(f"unknown model kind {kind!r}")
    names = doc["feature_names"]
    state = doc["state"]
    if kind in ("lr", "svm"):
        return LinearModel._from_state(kind, names, state)
    return _MODEL_CLASSES[kind]._from_state(names, state)


def load_model(path: str | Path) -> TrainedModel:
    return read_document(path, model_from_dict)


# ---------------------------------------------------------------------------
# Rule extraction

@dataclass(frozen=True)
class Condition:
    """Half-open constraint low < feature <= high (either bound optional)."""

    feature: str
    low: float | None = None  # exclusive lower bound
    high: float | None = None  # inclusive upper bound

    def __post_init__(self) -> None:
        if self.low is None and self.high is None:
            raise ModelError("condition needs at least one bound")

    @property
    def comparator(self) -> str:
        if self.low is None:
            return "<="
        if self.high is None:
            return ">"
        return "interval"

    def holds(self, value: float) -> bool:
        if self.low is not None and not value > self.low:
            return False
        if self.high is not None and not value <= self.high:
            return False
        return True

    def render(self) -> str:
        if self.comparator == "<=":
            return f"{self.feature} <= {_fmt(self.high)}"
        if self.comparator == ">":
            return f"{self.feature} > {_fmt(self.low)}"
        return f"{_fmt(self.low)} < {self.feature} <= {_fmt(self.high)}"


def _fmt(v: float) -> str:
    return f"{v:.6g}"


@dataclass(frozen=True)
class Rule:
    conditions: tuple[Condition, ...]
    predicted: int  # 1 positive / 0 negative
    support: int
    purity: float

    def matches(self, row: Sequence[float], feature_index: dict[str, int]) -> bool:
        return all(c.holds(float(row[feature_index[c.feature]])) for c in self.conditions)

    def render(self) -> str:
        label = "Positive Class" if self.predicted == 1 else "Negative Class"
        if not self.conditions:
            return f"IF TRUE THEN {label}"
        body = " AND ".join(c.render() for c in self.conditions)
        return f"IF {body} THEN {label}"


def extract_rules(model: TrainedModel) -> list[Rule]:
    """One rule per leaf of a fitted decision tree, depth-first left-first,
    with repeated conditions on a feature merged into an interval."""
    if not isinstance(model, TreeModel):
        raise ModelError("rule extraction requires a decision-tree model")
    nodes = model.tree.nodes_by_id()
    rules: list[Rule] = []
    # (node, feature -> (low, high) bounds, features in order of first use)
    stack: list[tuple[int, dict, list[int]]] = [(0, {}, [])]
    while stack:
        i, bounds, order = stack.pop()
        j = int(nodes.feature[i])
        if j < 0:
            value = float(nodes.value[i])
            conditions = tuple(Condition(model.feature_names[k], *bounds[k]) for k in order)
            support = int(nodes.n_samples[i])
            rules.append(Rule(conditions, int(value >= 0.5), support, max(value, 1.0 - value)))
            continue
        thr = float(nodes.threshold[i])
        low, high = bounds.get(j, (None, None))
        if j not in bounds:
            order = order + [j]
        above = (thr if low is None else max(low, thr), high)  # right branch: feature > thr
        below = (low, thr if high is None else min(high, thr))  # left branch: feature <= thr
        stack.append((int(nodes.right[i]), {**bounds, j: above}, order))
        stack.append((int(nodes.left[i]), {**bounds, j: below}, order))
    return rules


def format_rules(rules: Sequence[Rule]) -> str:
    lines = ["Rule No.\tRULE"]
    for i, rule in enumerate(rules, start=1):
        lines.append(f"{i}\t{rule.render()}")
    return "\n".join(lines) + "\n"
