"""The seven binary classifiers behind one fit/predict contract, plus
IF-THEN rule extraction from fitted decision trees.

Every model exposes predict_proba in [0,1] and predict = proba >= 0.5. A
kind's parameters are one table (`PARAMETERS`, checked by the base
`data.EstimatorConfig`), and its fitter and fitted class one entry of `_KINDS`.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (
    FINITE,
    SEED,
    STRINGS,
    TOLERANCE,
    Array,
    Dataset,
    EstimatorConfig,
    Range,
    as_matrix,
    binary_labels,
    check_fields,
    check_table,
    document_parser,
    read_document,
    read_fields,
    require_finite,
    round_half_up,
    write_document,
    write_fields,
)
from .errors import DataError, ModelError
from .neural import LayerSpec, Network, NetworkSpec, TrainConfig, init_network, sigmoid, train
from .tree import SQUARED, DecisionTree, fit_forest, presort

_MAX_ITER = (2000, Range(int, 1, 10**7))
_TOL = (1e-9, TOLERANCE)
_CRITERION = ("gini", ("gini", "entropy"))
_DEPTH = Range(int, 1, 10**6)
_ESTIMATORS = Range(int, 1, 10**6)
PARAMETERS: dict[str, dict[str, tuple]] = {
    "nb": {},
    "lr": {
        "regularizer": ("l2", ("l1", "l2", "elasticnet")),
        "penalty_strength": (1e-6, Range(float, 0.0)),
        "max_iter": _MAX_ITER,
        "tol": _TOL,
    },
    "svm": {
        "regularizer": ("l2", ("l1", "l2")),
        "loss": ("hinge", ("hinge", "squared-hinge")),
        "penalty_strength": (1e-4, Range(float, 0.0)),
        "max_iter": _MAX_ITER,
        "tol": _TOL,
    },
    "dt": {"criterion": _CRITERION, "maxdepth": (None, _DEPTH)},
    "rf": {
        "criterion": _CRITERION,
        "maxdepth": (None, _DEPTH),
        "estimators": (100, _ESTIMATORS),
        "max_features": ("sqrt", ("sqrt", "all")),
        "bootstrap": (True, bool),
    },
    "gbt": {
        "loss": ("deviance", ("deviance", "exponential")),
        "learning_rate": (0.1, Range(float, 0.0, 10.0)),
        "maxdepth": (3, _DEPTH),
        "estimators": (50, _ESTIMATORS),
    },
    "mlp": {
        "activation": ("relu", ("logistic", "tanh", "relu")),
        "solver": ("adam", ("adam", "sgd")),
        "epochs": (300, Range(int, 1, 10**7)),
        "learning_rate": (None, Range(float, 0.0, 10.0)),
    },
}
"""Every classifier parameter, as name -> (default, domain) (see
`data.check_table`). Three defaults are None, worked out by the fitter: `dt`
and `rf` grow to any depth without `maxdepth`, and the `mlp` learning_rate is
0.01 under adam and 0.3 under sgd. Numeric bounds are sanity bounds, not the
published search grids, since off-grid values (learning_rate 0, maxdepth 12,
...) are legitimate."""
KINDS = tuple(PARAMETERS)

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


@dataclass(frozen=True)
class ClassifierConfig(EstimatorConfig):
    kind: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    _FIELDS = {"kind": KINDS, "parameters": dict, "seed": SEED}
    _PARAMETERS = PARAMETERS


class TrainedModel:
    """Fitted classifier: kind, feature names, kind-specific state.

    Each subclass lists its state in `_fields(kind, d)`, a table from each
    state key, which is also a constructor argument, to its domain, the type
    of a nested document or its parser (`data.read_fields`), for a model of d
    features. `to_dict` writes those fields in that order and
    `model_from_dict` reads them back; the constructor checks what relates
    one field to another."""

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

    def to_dict(self) -> dict:
        state = write_fields(self, self._fields(self.kind, self.n_features))
        return {"format": "fraudkit.model/1", "kind": self.kind, "feature_names": self.feature_names, "state": state}

    def save(self, path: str | Path) -> None:
        write_document(self.to_dict(), path)


def _parameters(kind: str):
    """The parser of a model document's `parameters`: those a config of
    `kind` accepts."""
    return functools.partial(check_table, kind, table=PARAMETERS[kind])


# ---------------------------------------------------------------------------
# Naive Bayes

class NaiveBayesModel(TrainedModel):
    kind = "nb"

    def __init__(self, feature_names, log_prior, means, variances):
        super().__init__(feature_names)
        self.log_prior = np.asarray(log_prior, dtype=float)  # (2,)
        self.means = np.asarray(means, dtype=float)  # (2, d)
        self.variances = np.asarray(variances, dtype=float)  # (2, d)
        if not ((self.variances > 0) & (self.variances < np.inf)).all():
            raise ModelError("nb variances must be positive and finite")

    @staticmethod
    def _fields(kind, d):
        return {"log_prior": Array(float, (2,)), "means": Array(float, (2, d)), "variances": Array(float, (2, d))}

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
    probability surrogate.

    `iterations` and `converged` depend on the loss:
    - logistic and squared hinge (`_newton`): Newton steps, and whether it
      stopped with max|grad| below `tol` times max(1, max|grad| at the
      start), where under an l1 term grad is the pseudo-gradient, the
      minimum-norm subgradient;
    - hinge (`_fit_hinge`): Newton steps over all smoothing stages, at most
      `max_iter`, and whether a duality-gap certificate within `tol` holds.
      An uncertified fit is the lowest-objective point it has seen."""

    def __init__(self, kind, feature_names, weights, bias, parameters=None, iterations=0, converged=False):
        super().__init__(feature_names)
        self.kind = kind
        self.weights = np.asarray(weights, dtype=float)
        self.bias = float(bias)
        self.parameters = dict(parameters or {})
        self.iterations = int(iterations)
        self.converged = bool(converged)

    @staticmethod
    def _fields(kind, d):
        signals = {"iterations": Range(int, 0), "converged": bool}
        return {"weights": Array(float, (d,)), "bias": FINITE, "parameters": _parameters(kind), **signals}

    def decision_score(self, rows) -> np.ndarray:
        x = as_matrix(rows, self.n_features)
        return x @ self.weights + self.bias

    def predict_proba(self, rows) -> np.ndarray:
        return sigmoid(self.decision_score(rows))


def _penalty(regularizer: str, strength: float) -> tuple[float, float]:
    """(l1, ridge) of a regularizer, whose penalty is then
    l1 * |w|_1 + ridge / 2 * |w|^2; elasticnet splits its strength evenly."""
    return {"l1": (strength, 0.0), "l2": (0.0, 2.0 * strength), "elasticnet": (0.5 * strength, strength)}[regularizer]


_OVERFLOW = "the linear fit overflowed: its Newton system is not finite; scale the features down"


# An objective maps (w, b) to (loss, gradient in w, gradient in b, curvature)
# of its smooth part, the data term plus ridge / 2 * |w|^2 (`_newton` adds
# the l1 term). curvature() gives the rows of X1 = [x, 1] with nonzero
# weight in the data term of its (generalized) Hessian, X1' diag(c) X1, and
# their weights c.


def _lr_objective(x, y, ridge):
    yf = y.astype(float)
    n = len(yf)

    def objective(w, b):
        z = x @ w + b
        p = sigmoid(z)
        eps = 1e-12
        data = -np.mean(yf * np.log(p + eps) + (1 - yf) * np.log(1 - p + eps))
        grad_z = (p - yf) / n
        penalty = 0.5 * ridge * np.sum(w * w)
        return data + penalty, x.T @ grad_z + ridge * w, float(grad_z.sum()), lambda: (slice(None), p * (1.0 - p) / n)

    return objective


def _squared_hinge_objective(x, y, ridge):
    ypm = 2.0 * y - 1.0  # {0,1} -> {-1,+1}
    n = len(y)

    def objective(w, b):
        margin = ypm * (x @ w + b)
        slack = np.maximum(0.0, 1.0 - margin)
        data = float(np.mean(slack * slack))
        coeff = -2.0 * slack * ypm / n
        curvature = lambda: (slice(None), np.where(slack > 0, 2.0 / n, 0.0))
        return data + 0.5 * ridge * np.sum(w * w), x.T @ coeff + ridge * w, float(coeff.sum()), curvature

    return objective


def _newton(x, objective, l1, ridge, max_iter, tol, start=None, bias_floor=0.0):
    """Damped Newton on theta = (w, b) from `start` (zeros by default) for
    l1 * |w|_1 plus a smooth objective that carries ridge/2 * |w|^2 (the
    bias is not penalized): IRLS for the logistic loss, generalized Newton
    for the squared hinge (Keerthi & DeCoste, JMLR 2005) and for the
    smoothed hinge, whose bias curvature is raised to at least `bias_floor`.

    Each step solves the (d+1)x(d+1) system. With a ridge and a bias floor
    the Hessian is positive definite and is solved directly unless it is
    singular in floating point (features of magnitude 1e7 swamp the ridge);
    otherwise by least squares, so a singular Hessian (empty active set,
    duplicated columns, ridge 0) gives the minimum-norm step. A
    step that raises the loss is cut back to the minimum of the parabola
    through the loss and slope at 0 and the loss at the step, kept within
    [1/10, 1/2] of it, until the loss does not rise. With l1 > 0 the steps
    are orthant-wise (Andrew & Gao, ICML 2007): grad is the pseudo-gradient
    (the minimum-norm subgradient), the system covers only the bias and the
    weights that are nonzero or have grad nonzero, its diagonal raised by
    0.1 * max|grad|, and a trial step zeroes each weight it carries out of
    its orthant (the sign of the weight, else of -grad).

    Stops when max|grad| < tol * max(1, max|grad at the start|)
    (converged), a test that scales with the features, or after max_iter
    steps; a Hessian or slope that is not finite is a DataError. Returns
    (w, b, iterations, converged)."""
    n, d = x.shape
    x1 = np.hstack([x, np.ones((n, 1))])
    diagonal = np.append(np.full(d, ridge), 0.0)
    theta = np.zeros(d + 1) if start is None else start

    def solve(a, b):
        if ridge > 0 and bias_floor > 0:
            with contextlib.suppress(np.linalg.LinAlgError):
                return np.linalg.solve(a, b)
        return np.linalg.lstsq(a, b, rcond=None)[0]

    def evaluate(theta):
        loss, gw, gb, curvature = objective(theta[:d], theta[d])
        grad = np.append(gw, gb)
        if l1 > 0:
            w = theta[:d]
            loss += l1 * float(np.abs(w).sum())
            grad[:d] = np.where(w != 0, gw + l1 * np.sign(w), gw - np.clip(gw, -l1, l1))
        return loss, grad, curvature

    loss, grad, curvature = evaluate(theta)
    tol = tol * max(1.0, float(np.max(np.abs(grad))))
    iterations = 0
    while iterations < max_iter and np.max(np.abs(grad)) >= tol:
        rows, c = curvature()
        xr = x1[rows]
        hessian = xr.T @ (c[:, None] * xr) + np.diag(diagonal)
        hessian[d, d] = max(hessian[d, d], bias_floor)
        if not np.isfinite(hessian).all():
            raise DataError(_OVERFLOW)
        if l1 > 0:
            free = np.flatnonzero(np.append(theta[:d] != 0, True) | (grad != 0))
            system = hessian[np.ix_(free, free)]
            system[np.diag_indices_from(system)] += 0.1 * np.max(np.abs(grad))
            direction = np.zeros(d + 1)
            direction[free] = solve(system, -grad[free])
            orthant = np.sign(np.where(theta[:d] != 0, theta[:d], -grad[:d]))
        else:
            direction = solve(hessian, -grad)
        slope = float(grad @ direction)
        if not math.isfinite(slope):
            raise DataError(_OVERFLOW)
        t = 1.0
        while True:
            candidate = theta + t * direction
            if l1 > 0:
                candidate[:d][np.sign(candidate[:d]) != orthant] = 0.0
            loss2, grad2, curvature2 = evaluate(candidate)
            if loss2 <= loss:
                break
            # the minimum of the parabola through the loss and slope at 0 and
            # the loss at t, kept within [t/10, t/2]
            rise = loss2 - loss - slope * t
            t = min(max(-slope * t * t / (2.0 * rise), 0.1 * t), 0.5 * t) if rise > 0 else 0.5 * t
            if t < 1e-12:  # no step lowers the loss: rounding noise at the optimum
                return theta[:d], float(theta[d]), iterations, False
        theta, loss, grad, curvature = candidate, loss2, grad2, curvature2
        iterations += 1
    return theta[:d], float(theta[d]), iterations, bool(np.max(np.abs(grad)) < tol)


# The hinge solver's smoothing schedule: the first width (above 1, so that at
# theta = 0, where every row has u = 1, the bias has curvature), the factor
# from one stage to the next, the number of stages and the Newton steps one
# stage may take; and the largest margin set the exact finish solves for,
# in multiples of d + 1.
_HUBER_START = 2.0
_HUBER_SHRINK = 0.2
_HUBER_STAGES = 14
_HUBER_STAGE_STEPS = 50
_FINISH_ROWS = 4


def _huber_hinge_objective(x, ypm, ridge, h):
    """Mean Huber-smoothed hinge of width h plus ridge / 2 * |w|^2. With
    u = 1 - y(w.x + b) a row's slope in u is a = clip((u + h) / 2h, 0, 1)
    and its loss is u for u >= h and h * a^2 below, that is (u + h)^2 / 4h
    for |u| < h and 0 for u <= -h."""
    n = len(ypm)
    pull = -ypm / n

    def objective(w, b):
        u = 1.0 - ypm * (x @ w + b)
        slope = np.clip((u + h) / (2.0 * h), 0.0, 1.0)
        loss = np.where(u >= h, u, h * slope * slope)
        coeff = slope * pull

        def curvature():
            rows = np.flatnonzero(np.abs(u) < h)
            return rows, np.full(rows.size, 1.0 / (2.0 * h * n))

        value = float(loss.sum()) / n + 0.5 * ridge * float(w @ w)
        return value, x.T @ coeff + ridge * w, float(coeff.sum()), curvature

    return objective


def _exact_finish(x, ypm, ridge, u, h):
    """(w, b, alpha) that solve the l2 hinge's optimality conditions when
    the rows S with |u| < h lie on the margin and the rows V with u >= h
    have alpha 1 (every other row alpha 0), or None when S is empty or
    larger than _FINISH_ROWS * (d + 1). alpha_S and b come from the
    (|S|+1)-square system y_i (w.x_i + b) = 1 on S, sum(alpha * y) = 0,
    solved by least squares, with w = sum(alpha_i y_i x_i) / (ridge n);
    alpha is then clipped into [0, 1]. A non-finite system is a DataError."""
    n, d = x.shape
    margin = np.flatnonzero(np.abs(u) < h)
    k = margin.size
    if k == 0 or k > _FINISH_ROWS * (d + 1):
        return None
    bound = u >= h
    scale = ridge * n
    xs, ys = x[margin], ypm[margin]
    pull = x.T @ np.where(bound, ypm, 0.0)
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = np.outer(ys, ys) * (xs @ xs.T) / scale
    system[:k, k] = ys
    system[k, :k] = ys
    rhs = np.append(1.0 - ys * (xs @ pull) / scale, -float(ypm[bound].sum()))
    if not (np.isfinite(system).all() and np.isfinite(rhs).all()):
        raise DataError(_OVERFLOW)
    solution = np.linalg.lstsq(system, rhs, rcond=None)[0]
    alpha = bound.astype(float)
    alpha[margin] = np.clip(solution[:k], 0.0, 1.0)
    return x.T @ (alpha * ypm) / scale, float(solution[k]), alpha


def _certified(x, ypm, l1, ridge, tol, loss, alpha):
    """Whether alpha in [0, 1] certifies a hinge objective of `loss` as
    optimal: loss - D <= tol * max(1, loss) for a dual objective D, a lower
    bound on the optimum. Under l2, |sum(alpha * y)| / n <= tol and
    D = mean(alpha) - ridge / 2 * |w|^2, w = sum(alpha_i y_i x_i) / (ridge n).
    Under l1, the alphas of the class with the larger sum are scaled down
    until sum(alpha * y) = 0, then all by c = min(1, l1 / top), top =
    max|sum(alpha_i y_i x_i)| / n, to be feasible for the linear program's
    dual, D = c * mean(alpha). Without a penalty nothing is certified."""
    n = len(ypm)
    if ridge > 0:
        if abs(float(alpha @ ypm)) > tol * n:
            return False
        w = x.T @ (alpha * ypm) / (ridge * n)
        dual = float(alpha.mean()) - 0.5 * ridge * float(w @ w)
    elif l1 > 0:
        excess = float(alpha @ ypm)
        if excess:
            heavy = ypm * excess > 0
            alpha = np.where(heavy, alpha * (1.0 - abs(excess) / float(alpha[heavy].sum())), alpha)
        top = float(np.max(np.abs(x.T @ (alpha * ypm)))) / n
        dual = float(alpha.mean()) * (min(1.0, l1 / top) if top > 0 else 1.0)
    else:
        return False
    return loss - dual <= tol * max(1.0, loss)


def _fit_hinge(x, y, l1, ridge, max_iter, tol):
    """The hinge SVM, min mean(max(0, 1 - y(w.x + b))) + l1 * |w|_1 +
    ridge / 2 * |w|^2 with the bias unpenalized, by Newton on a
    Huber-smoothed hinge with continuation (Chapelle, Neural Computation
    2007). Returns (w, b, iterations, converged).

    Stage s = 0, 1, ..., _HUBER_STAGES - 1 smooths the hinge to width
    h = _HUBER_START * _HUBER_SHRINK**s (2, 0.4, 0.08, ...) and runs
    `_newton` (orthant-wise under l1) from the previous stage's point for
    at most _HUBER_STAGE_STEPS steps, stopping on its gradient test. After
    each stage the candidates are checked: under l2 the exact finish
    (`_exact_finish`), and the stage's point with its own slopes as alpha.
    The first that `_certified` accepts ends the fit with converged true:
    its duality gap is at most tol * max(1, P). `max_iter` caps the Newton
    steps of all stages together, and `iterations` counts them; `tol`
    bounds both each stage's gradient and the certificate.

    When no candidate is certified (no penalty, a budget too small, or a
    stage that cannot reach the optimum), the fit is the lowest-objective
    point seen, theta = 0 included, and converged is false."""
    n, d = x.shape
    ypm = 2.0 * y - 1.0

    def primal(w, b):
        slack = np.maximum(0.0, 1.0 - ypm * (x @ w + b))
        return float(np.mean(slack)) + 0.5 * ridge * np.sum(w * w) + l1 * float(np.abs(w).sum())

    theta = np.zeros(d + 1)
    best = (primal(theta[:d], 0.0), theta)
    steps = 0
    for stage in range(_HUBER_STAGES):
        if steps >= max_iter:
            break
        h = _HUBER_START * _HUBER_SHRINK**stage
        smoothed = _huber_hinge_objective(x, ypm, ridge, h)
        budget = min(_HUBER_STAGE_STEPS, max_iter - steps)
        # every row in the quadratic zone adds 1 / 2hn to the bias's curvature;
        # with none there, it gets that of one row, or b could not move
        w, b, taken, _ = _newton(x, smoothed, l1, ridge, budget, tol, theta, 1.0 / (2.0 * h * n))
        steps += taken
        theta = np.append(w, b)
        u = 1.0 - ypm * (x @ w + b)
        finish = _exact_finish(x, ypm, ridge, u, h) if ridge > 0 else None
        slopes = np.clip((u + h) / (2.0 * h), 0.0, 1.0)
        for w, b, alpha in ([finish] if finish else []) + [(w, b, slopes)]:
            loss = primal(w, b)
            if loss < best[0]:
                best = (loss, np.append(w, b))
            if _certified(x, ypm, l1, ridge, tol, loss, alpha):
                return w, b, steps, True
    return best[1][:d], float(best[1][d]), steps, False


def _fit_linear(x, y, names, config: ClassifierConfig) -> LinearModel:
    """`lr` or `svm`: the hinge by smoothed Newton (`_fit_hinge`), every
    other objective by damped Newton (`_newton`)."""
    params = config.settings()
    l1, ridge = _penalty(params["regularizer"], float(params["penalty_strength"]))
    limits = int(params["max_iter"]), float(params["tol"])
    if params.get("loss") == "hinge":
        w, b, iterations, converged = _fit_hinge(x, y, l1, ridge, *limits)
    else:
        objective = _lr_objective(x, y, ridge) if config.kind == "lr" else _squared_hinge_objective(x, y, ridge)
        w, b, iterations, converged = _newton(x, objective, l1, ridge, *limits)
    return LinearModel(config.kind, names, w, b, config.parameters, iterations, converged)


# ---------------------------------------------------------------------------
# Trees and ensembles

def _trees(docs) -> list[DecisionTree]:
    return [DecisionTree.from_dict(doc) for doc in docs]


def _check_width(trees: list[DecisionTree], d: int) -> None:
    if any(tree.n_features != d for tree in trees):
        raise ModelError(f"every tree of the model must read its {d} features")


class TreeModel(TrainedModel):
    kind = "dt"

    def __init__(self, feature_names, tree: DecisionTree, parameters=None):
        super().__init__(feature_names)
        _check_width([tree], self.n_features)
        self.tree = tree
        self.parameters = dict(parameters or {})

    @staticmethod
    def _fields(kind, d):
        return {"tree": DecisionTree, "parameters": _parameters(kind)}

    def predict_proba(self, rows) -> np.ndarray:
        return self.tree.predict_value(rows)


def _fit_dt(x, y, names, config: ClassifierConfig) -> TreeModel:
    params = config.settings()
    max_depth = None if params["maxdepth"] is None else int(params["maxdepth"])
    tree = DecisionTree(criterion=params["criterion"], max_depth=max_depth).fit(x, y)
    return TreeModel(names, tree, config.parameters)


class ForestModel(TrainedModel):
    kind = "rf"

    def __init__(self, feature_names, trees: list[DecisionTree], parameters=None):
        super().__init__(feature_names)
        if not trees:
            raise ModelError("rf needs >= 1 tree")
        _check_width(trees, self.n_features)
        self.trees = trees
        self.parameters = dict(parameters or {})

    @staticmethod
    def _fields(kind, d):
        return {"trees": _trees, "parameters": _parameters(kind)}

    def predict_proba(self, rows) -> np.ndarray:
        x = as_matrix(rows, self.n_features)
        votes = np.zeros(x.shape[0])
        for tree in self.trees:
            votes += (tree.predict_value(x) >= 0.5).astype(float)
        return votes / len(self.trees)


def _fit_rf(x, y, names, config: ClassifierConfig) -> ForestModel:
    """`estimators` trees, tree t drawing from
    default_rng(SeedSequence(seed).spawn(estimators)[t]), so the first k trees
    of a forest are the k-tree forest. Each tree first draws its bootstrap
    sample, integers(0, n, size=n) (with `bootstrap` off, every row once);
    then, level by level, one permutation(d) per open node, breadth first,
    whose first max_features entries are the node's candidate columns
    (`tree.fit_forest`)."""
    params = config.settings()
    max_depth = None if params["maxdepth"] is None else int(params["maxdepth"])
    if params["max_features"] == "sqrt":
        max_features = max(1, round_half_up(math.sqrt(x.shape[1])))
    else:
        max_features = None
    template = DecisionTree(criterion=params["criterion"], max_depth=max_depth, max_features=max_features)

    def samples():
        for seq in np.random.SeedSequence(config.seed).spawn(int(params["estimators"])):
            rng = np.random.default_rng(seq)
            idx = rng.integers(0, x.shape[0], size=x.shape[0]) if params["bootstrap"] else np.arange(x.shape[0])
            yield np.bincount(idx, minlength=x.shape[0]), rng

    return ForestModel(names, fit_forest(template, x, y, samples()), config.parameters)


class BoostedModel(TrainedModel):
    kind = "gbt"

    def __init__(self, feature_names, initial_score, trees, learning_rate, loss, parameters=None):
        super().__init__(feature_names)
        _check_width(trees, self.n_features)
        self.initial_score = float(initial_score)
        self.trees = trees
        self.learning_rate = float(learning_rate)
        self.loss = loss
        self.parameters = dict(parameters or {})

    @staticmethod
    def _fields(kind, d):
        gbt = PARAMETERS["gbt"]
        fitted = {"initial_score": FINITE, "learning_rate": gbt["learning_rate"][1], "loss": gbt["loss"][1]}
        return {**fitted, "trees": _trees, "parameters": _parameters(kind)}

    def decision_score(self, rows) -> np.ndarray:
        x = as_matrix(rows, self.n_features)
        score = np.full(x.shape[0], self.initial_score)
        for tree in self.trees:
            score += self.learning_rate * tree.predict_value(x)
        return score

    def predict_proba(self, rows) -> np.ndarray:
        return sigmoid(self.decision_score(rows))


def _fit_gbt(x, y, names, config: ClassifierConfig) -> BoostedModel:
    params = config.settings()
    loss, learning_rate, max_depth = params["loss"], float(params["learning_rate"]), int(params["maxdepth"])

    p_base = float(np.mean(y))
    f0 = math.log(p_base / (1.0 - p_base))
    score = np.full(x.shape[0], f0)
    ypm = 2.0 * y.astype(float) - 1.0
    order = presort(x)  # every round fits the same rows
    trees: list[DecisionTree] = []
    for _ in range(int(params["estimators"])):
        if loss == "deviance":
            p = sigmoid(score)
            residual = y - p
            hessian = np.maximum(p * (1.0 - p), 1e-12)
        else:  # exponential loss on half the score, so the score stays the log-odds
            w = np.exp(np.clip(-ypm * score / 2.0, -30.0, 30.0))
            residual = ypm * w
            hessian = np.maximum(w, 1e-12) / 2.0
        tree = DecisionTree(criterion=SQUARED, max_depth=max_depth).fit(x, residual, order=order)
        nodes = tree.nodes_by_id()
        leaf = nodes.route(x)  # each training row's leaf, as the grower split it
        for leaf_id in np.flatnonzero(nodes.feature < 0).tolist():
            idx = np.flatnonzero(leaf == leaf_id)
            nodes.value[leaf_id] = np.sum(residual[idx]) / np.sum(hessian[idx])
        score = score + learning_rate * nodes.value[leaf]
        trees.append(tree)
    return BoostedModel(names, f0, trees, learning_rate, loss, config.parameters)


# ---------------------------------------------------------------------------
# MLP

class MlpModel(TrainedModel):
    kind = "mlp"

    def __init__(self, feature_names, network: Network, parameters=None):
        super().__init__(feature_names)
        if (network.spec.input_dim, network.spec.layers[-1].width) != (self.n_features, 1):
            raise ModelError(f"mlp network must map {self.n_features} features to one output")
        self.network = network
        self.parameters = dict(parameters or {})

    @staticmethod
    def _fields(kind, d):
        return {"network": Network, "parameters": _parameters(kind)}

    def predict_proba(self, rows) -> np.ndarray:
        x = as_matrix(rows, self.n_features)
        return self.network.forward(x).ravel()


def _fit_mlp(x, y, names, config: ClassifierConfig) -> MlpModel:
    params = config.settings()
    learning_rate = params["learning_rate"]
    if learning_rate is None:
        learning_rate = 0.01 if params["solver"] == "adam" else 0.3
    d = x.shape[1]
    spec = NetworkSpec(
        d,
        (LayerSpec(d, params["activation"]), LayerSpec(1, "logistic")),
        "binary_cross_entropy",
    )
    net = init_network(spec, config.seed)
    cfg = TrainConfig(
        optimizer=params["solver"],
        learning_rate=float(learning_rate),
        epochs=int(params["epochs"]),
        batch_size=max(32, min(256, x.shape[0])),
        seed=config.seed,
    )
    train(net, x, y.astype(float).reshape(-1, 1), cfg)
    return MlpModel(names, net, config.parameters)


# ---------------------------------------------------------------------------
# Fit dispatch and persistence; `_KINDS` maps kind -> (fitter, fitted class)

_KINDS = {
    "nb": (_fit_nb, NaiveBayesModel),
    "lr": (_fit_linear, LinearModel),
    "svm": (_fit_linear, LinearModel),
    "dt": (_fit_dt, TreeModel),
    "rf": (_fit_rf, ForestModel),
    "gbt": (_fit_gbt, BoostedModel),
    "mlp": (_fit_mlp, MlpModel),
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
    y = binary_labels(y)
    if x.ndim != 2 or y.shape != x.shape[:1]:
        raise DataError("bad training shapes")
    if len(np.unique(y)) < 2:
        raise DataError("training data must contain both classes")
    names = list(feature_names) if feature_names is not None else [f"f{i}" for i in range(x.shape[1])]
    if len(names) != x.shape[1] or names not in STRINGS:
        raise DataError("feature_names must be one string per column")
    return _KINDS[config.kind][0](x, y, names, config)


@document_parser
def model_from_dict(doc: dict) -> TrainedModel:
    check_fields(doc, {"format": ("fraudkit.model/1",), "kind": KINDS, "feature_names": STRINGS})
    kind, names = doc["kind"], doc["feature_names"]
    cls = _KINDS[kind][1]
    state = read_fields(doc["state"], cls._fields(kind, len(names)))
    return LinearModel(kind, names, **state) if cls is LinearModel else cls(names, **state)


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
