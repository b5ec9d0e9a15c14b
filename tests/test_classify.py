import itertools

import numpy as np
import pytest

from fraudkit.classify import (
    PARAMETERS,
    ClassifierConfig,
    Condition,
    ForestModel,
    LinearModel,
    Rule,
    TABLE_GRIDS,
    _lr_objective,
    _penalty,
    _squared_hinge_objective,
    extract_rules,
    fit,
    fit_arrays,
    format_rules,
    load_model,
    model_from_dict,
    sigmoid,
)
from fraudkit.data import check_value, dataset_from_matrix
from fraudkit.errors import ConfigError, DataError, FraudkitError, ModelError
from fraudkit.neural import NetworkSpec, init_network, layer_stack
from fraudkit.tree import DecisionTree, Nodes


def xor_dataset():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    return dataset_from_matrix(x, y)


def blob_arrays(seed=0, n=60, gap=4.0):
    rng = np.random.default_rng(seed)
    neg = rng.normal(0.0, 0.5, size=(n, 2))
    pos = rng.normal(gap, 0.5, size=(n, 2))
    x = np.vstack([neg, pos])
    y = np.array([0] * n + [1] * n)
    return x, y


# ---------------------------------------------------------------- config


def test_config_rejects_unknown_parameter():
    with pytest.raises(ConfigError):
        ClassifierConfig("dt", {"fanciness": 3})


def test_config_rejects_bad_enum_value():
    with pytest.raises(ConfigError):
        ClassifierConfig("dt", {"criterion": "chi2"})


@pytest.mark.parametrize(
    "value", [np.array(["gini", "entropy"]), np.array(["gini"]), np.array("gini")], ids=["two", "one", "zero-d"]
)
def test_config_rejects_an_array_as_an_enumerated_value(value):
    # a tuple domain's `in` test compared the array element-wise: two values
    # raised a bare ValueError, one or a 0-d array passed as "gini"
    with pytest.raises(ConfigError, match="criterion"):
        ClassifierConfig("dt", {"criterion": value})


def test_config_allows_off_grid_numerics():
    ClassifierConfig("gbt", {"learning_rate": 0.0})
    ClassifierConfig("dt", {"maxdepth": 12})


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        ClassifierConfig("xgboost", {})


@pytest.mark.parametrize(
    "kind,name,value",
    [
        ("svm", "max_iter", 2.5),
        ("lr", "max_iter", 300.0),
        ("dt", "maxdepth", 1.9),
        ("rf", "estimators", 2.7),
        ("rf", "maxdepth", 3.0),
        ("gbt", "estimators", 1.5),
        ("mlp", "epochs", 1.2),
        ("dt", "maxdepth", True),
    ],
)
def test_config_rejects_a_fractional_count(kind, name, value):
    # counts used to be bounded as reals and then truncated by the fitters
    with pytest.raises(ConfigError, match=name):
        ClassifierConfig(kind, {name: value})
    with pytest.raises(ConfigError, match=name):
        ClassifierConfig.from_dict({"kind": kind, "parameters": {name: value}})


def test_config_bounds_a_count_from_above():
    with pytest.raises(ConfigError, match="maxdepth"):
        ClassifierConfig("dt", {"maxdepth": 10**7})
    ClassifierConfig("dt", {"maxdepth": np.int64(4)})


def test_table_grids_match_published_spaces():
    assert TABLE_GRIDS["rf"]["estimators"] == [10, 20, 50, 100, 200]
    assert TABLE_GRIDS["gbt"]["learning_rate"] == [0.001, 0.01, 0.1]
    assert TABLE_GRIDS["dt"]["maxdepth"] == list(range(1, 11))
    assert TABLE_GRIDS["mlp"]["solver"] == ["adam", "sgd"]
    assert TABLE_GRIDS["lr"] == {"regularizer": ["l1", "l2", "elasticnet"]}
    assert TABLE_GRIDS["svm"]["loss"] == ["hinge", "squared-hinge"]


def test_every_default_lies_in_its_domain():
    worked_out = set()
    for kind, table in PARAMETERS.items():
        for name, (default, domain) in table.items():
            if default is None:
                worked_out.add((kind, name))
            else:
                check_value(f"{kind}: {name}", default, domain)
    assert worked_out == {("dt", "maxdepth"), ("rf", "maxdepth"), ("mlp", "learning_rate")}


@pytest.mark.parametrize("kind", sorted(TABLE_GRIDS))
def test_every_table_grid_point_is_accepted(kind):
    grid = TABLE_GRIDS[kind]
    for values in itertools.product(*grid.values()):
        ClassifierConfig(kind, dict(zip(grid, values)))


@pytest.mark.parametrize("kind", ["lr", "svm"])
def test_tol_has_a_positive_floor(kind):
    # no gradient test or duality-gap certificate can meet a tolerance of 0,
    # so such a fit would run all of max_iter
    for tol in (0.0, 1e-13):
        with pytest.raises(ConfigError, match="tol"):
            ClassifierConfig(kind, {"tol": tol})
    x, y = blob_arrays(seed=3)
    floor = fit_arrays(ClassifierConfig(kind, {"tol": 1e-12}), x, y)
    default = fit_arrays(ClassifierConfig(kind), x, y)
    assert floor.converged and default.converged


def test_lr_rejects_the_optimizer_parameter():
    # the objectives are convex, so a solver choice could not change the fit
    with pytest.raises(ConfigError, match="unknown hyperparameter"):
        ClassifierConfig("lr", {"optimizer": "lbfgs"})


# ---------------------------------------------------------------- decision tree


def test_dt_depth2_solves_xor():
    model = fit(ClassifierConfig("dt", {"criterion": "gini", "maxdepth": 2}), xor_dataset())
    preds = model.predict(xor_dataset().matrix())
    assert preds.tolist() == [0, 1, 1, 0]


def test_dt_pure_leaf_probability_one():
    x = np.vstack([np.zeros((10, 1)), np.ones((10, 1))])
    y = np.array([0] * 10 + [1] * 10)
    model = fit_arrays(ClassifierConfig("dt", {"maxdepth": 1}), x, y)
    assert model.predict_proba(np.array([[1.0]]))[0] == 1.0
    assert model.predict_proba(np.array([[0.0]]))[0] == 0.0


def _exhaustive_root_split(x, y, criterion):
    """Independent oracle: best impurity decrease over every feature/midpoint."""

    def impurity(labels):
        if len(labels) == 0:
            return 0.0
        p = np.mean(labels)
        if criterion == "gini":
            return 2 * p * (1 - p)
        out = 0.0
        for q in (p, 1 - p):
            if q > 0:
                out -= q * np.log2(q)
        return out

    n = len(y)
    parent = impurity(y)
    best = -1.0
    for j in range(x.shape[1]):
        vals = np.unique(x[:, j])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2
            mask = x[:, j] <= thr
            dec = parent - (mask.sum() * impurity(y[mask]) + (~mask).sum() * impurity(y[~mask])) / n
            best = max(best, dec)
    return best


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dt_root_split_matches_exhaustive_oracle(criterion, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(48, 4))
    y = (x[:, 0] + 0.5 * x[:, 2] + rng.normal(0, 0.2, 48) > 0.8).astype(int)
    tree = DecisionTree(criterion=criterion, max_depth=3).fit(x, y)
    nodes = tree.nodes_by_id()
    assert nodes.feature[0] >= 0  # the root (node 0) splits
    # recompute the decrease our root split achieves and compare to brute force
    mask = x[:, nodes.feature[0]] <= nodes.threshold[0]

    def imp(labels):
        return _exhaustive_root_split(np.zeros((len(labels), 1)), labels, criterion) * 0 + (
            2 * np.mean(labels) * (1 - np.mean(labels))
            if criterion == "gini"
            else -sum(q * np.log2(q) for q in (np.mean(labels), 1 - np.mean(labels)) if q > 0)
        )

    achieved = imp(y) - (mask.sum() * imp(y[mask]) + (~mask).sum() * imp(y[~mask])) / len(y)
    assert achieved == pytest.approx(_exhaustive_root_split(x, y, criterion), abs=1e-12)


# ---------------------------------------------------------------- naive bayes


def test_nb_separated_gaussians():
    rng = np.random.default_rng(4)
    train_x = np.concatenate([rng.normal(0, 1, 200), rng.normal(10, 1, 200)]).reshape(-1, 1)
    train_y = np.array([0] * 200 + [1] * 200)
    test_x = np.concatenate([rng.normal(0, 1, 100), rng.normal(10, 1, 100)]).reshape(-1, 1)
    test_y = np.array([0] * 100 + [1] * 100)
    model = fit_arrays(ClassifierConfig("nb"), train_x, train_y)
    assert np.mean(model.predict(test_x) == test_y) >= 0.99


def test_nb_probabilities_bounded():
    x, y = blob_arrays()
    model = fit_arrays(ClassifierConfig("nb"), x, y)
    proba = model.predict_proba(x)
    assert np.all((proba >= 0) & (proba <= 1))


# ---------------------------------------------------------------- linear models


def test_lr_zero_coefficients_give_half():
    model = LinearModel("lr", ["a", "b"], np.zeros(2), 0.0, {})
    assert np.all(model.predict_proba(np.random.default_rng(0).normal(size=(5, 2))) == 0.5)


def test_lr_learns_separable_blobs():
    x, y = blob_arrays(seed=1)
    model = fit_arrays(ClassifierConfig("lr", {"regularizer": "l2"}), x, y)
    assert np.mean(model.predict(x) == y) == 1.0


def test_lr_duplicate_feature_invariance():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(80, 3))
    logits = 1.5 * x[:, 0] - 1.0 * x[:, 1] + 0.3
    y = (sigmoid(logits) > rng.uniform(size=80)).astype(int)
    params = {"regularizer": "l2", "penalty_strength": 1e-8, "max_iter": 30000, "tol": 1e-12}
    base = fit_arrays(ClassifierConfig("lr", params), x, y)
    dup = fit_arrays(ClassifierConfig("lr", params), np.hstack([x, x[:, [0]]]), y)
    # coefficient mass splits across the duplicated columns
    assert dup.weights[0] == pytest.approx(dup.weights[3], rel=1e-3)
    p_base = base.predict_proba(x)
    p_dup = dup.predict_proba(np.hstack([x, x[:, [0]]]))
    assert np.max(np.abs(p_base - p_dup)) <= 1e-6


def skewed_arrays(seed=5, n=2000, d=30, positive=0.05):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    y = (rng.uniform(size=n) < positive).astype(int)
    x[y == 1, :12] += 0.3
    return x, y


def _descend(objective, d, max_iter, tol):
    """Monotone full-batch (sub)gradient descent with step halving from
    zero: an independent oracle that no Newton fit may end above. Returns
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


def _hinge_objective(x, y, ridge):
    """The mean hinge plus ridge / 2 * |w|^2 in `_descend`'s form, with a
    subgradient: (loss, gradient in w, gradient in b, None)."""
    ypm = 2.0 * y - 1.0
    n = len(y)

    def objective(w, b):
        slack = np.maximum(0.0, 1.0 - ypm * (x @ w + b))
        coeff = np.where(slack > 0, -ypm, 0.0) / n
        return float(np.mean(slack)) + 0.5 * ridge * np.sum(w * w), x.T @ coeff + ridge * w, float(coeff.sum()), None

    return objective


def _with_l1(objective, l1):
    """`objective` plus l1 * |w|_1, with l1 * sign(w) as its subgradient, for
    `_descend`."""

    def penalized(w, b):
        loss, gw, gb, curvature = objective(w, b)
        return loss + l1 * np.sum(np.abs(w)), gw + l1 * np.sign(w), gb, curvature

    return penalized


SMOOTH_OBJECTIVES = {
    "lr": (ClassifierConfig("lr"), lambda x, y: _lr_objective(x, y, 2e-6)),
    "svm-squared-hinge": (
        ClassifierConfig("svm", {"loss": "squared-hinge", "regularizer": "l2"}),
        lambda x, y: _squared_hinge_objective(x, y, 2e-4),
    ),
}


@pytest.mark.parametrize("name", sorted(SMOOTH_OBJECTIVES))
def test_newton_reaches_the_optimum_of_the_smooth_objectives(name):
    config, make_objective = SMOOTH_OBJECTIVES[name]
    x, y = skewed_arrays()
    objective = make_objective(x, y)
    model = fit_arrays(config, x, y)
    loss, gw, gb, _ = objective(model.weights, model.bias)
    assert max(np.max(np.abs(gw)), abs(gb)) <= 1e-8
    assert model.converged and 0 < model.iterations < 50
    w, b, _, descended = _descend(objective, x.shape[1], 2000, 1e-9)
    assert not descended  # gradient descent stops at max_iter short of the optimum
    assert loss <= objective(w, b)[0]


def duplicated_column_arrays():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(80, 3))
    y = (sigmoid(1.5 * x[:, 0] - x[:, 1] + 0.3) > rng.uniform(size=80)).astype(int)
    return np.hstack([x, x[:, [0]]]), y


@pytest.mark.parametrize(
    "config,arrays",
    [
        (ClassifierConfig("lr", {"penalty_strength": 1e-8}), duplicated_column_arrays),
        (ClassifierConfig("lr", {"penalty_strength": 0.0}), duplicated_column_arrays),
        (ClassifierConfig("svm", {"loss": "squared-hinge", "penalty_strength": 1e-8}), duplicated_column_arrays),
        (ClassifierConfig("svm", {"loss": "squared-hinge", "penalty_strength": 1e-8}), blob_arrays),
        (ClassifierConfig("svm", {"loss": "squared-hinge", "penalty_strength": 0.0}), blob_arrays),
    ],
    ids=["lr-duplicate", "lr-duplicate-unpenalized", "svm-duplicate", "svm-blobs", "svm-blobs-unpenalized"],
)
def test_newton_survives_a_singular_hessian(config, arrays):
    x, y = arrays()
    model = fit_arrays(config, x, y)
    assert model.converged
    assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
    if arrays is duplicated_column_arrays:
        assert model.weights[0] == pytest.approx(model.weights[3], rel=1e-6)
    else:  # separable blobs: the squared hinge's active set empties near the optimum
        assert np.mean(model.predict(x) == y) == 1.0


def test_newton_reports_when_it_stops_at_max_iter():
    x, y = skewed_arrays()
    model = fit_arrays(ClassifierConfig("lr", {"regularizer": "l1", "max_iter": 5}), x, y)
    assert (model.iterations, model.converged) == (5, False)


def one_hot_arrays(seed=6, n=600):
    """Four uniform columns and two one-hot groups (3 and 5 levels), each of
    whose columns sum to the bias column; 11.5 % positive."""
    rng = np.random.default_rng(seed)
    numeric = rng.uniform(size=(n, 4))
    groups = [np.eye(k)[rng.integers(0, k, size=n)] for k in (3, 5)]
    y = (rng.uniform(size=n) < 0.05 + 0.3 * numeric[:, 0] * groups[0][:, 1]).astype(int)
    return np.hstack([numeric, *groups]), y


def _split_variable_minimum(objective, l1, d, start):
    """Independent oracle: min objective(w, b) + l1 * |w|_1 over
    w = w+ - w- with w+, w- >= 0, a smooth problem with bounds, by scipy's
    L-BFGS-B from `start` = (w, b). Returns the objective it ends at."""
    from scipy.optimize import minimize

    def value(v):
        loss, gw, gb, _ = objective(v[:d] - v[d : 2 * d], v[2 * d])
        return loss + l1 * v[: 2 * d].sum(), np.concatenate([gw + l1, l1 - gw, [gb]])

    w, b = start
    options = {"ftol": 0.0, "gtol": 1e-13, "maxiter": 100000, "maxfun": 100000, "maxcor": 30}
    v = np.concatenate([np.maximum(w, 0.0), np.maximum(-w, 0.0), [b]])
    bounds = [(0.0, None)] * (2 * d) + [(None, None)]
    return minimize(value, v, jac=True, method="L-BFGS-B", bounds=bounds, options=options).fun


@pytest.mark.parametrize("strength", [None, 1e-2], ids=["default", "0.01"])
@pytest.mark.parametrize(
    "kind,params",
    [
        ("lr", {"regularizer": "l1"}),
        ("lr", {"regularizer": "elasticnet"}),
        ("svm", {"regularizer": "l1", "loss": "squared-hinge"}),
    ],
    ids=["lr-l1", "lr-elasticnet", "svm-l1-squared-hinge"],
)
@pytest.mark.parametrize("arrays", [skewed_arrays, one_hot_arrays], ids=["skewed", "one-hot"])
def test_l1_fits_reach_the_optimum_of_a_split_variable_oracle(arrays, kind, params, strength):
    x, y = arrays()
    d = x.shape[1]
    config = ClassifierConfig(kind, params if strength is None else {**params, "penalty_strength": strength})
    l1, ridge = _penalty(config.settings()["regularizer"], config.settings()["penalty_strength"])
    smooth = _lr_objective(x, y, ridge) if kind == "lr" else _squared_hinge_objective(x, y, ridge)
    model = fit_arrays(config, x, y)
    assert model.converged and 0 < model.iterations <= 60
    loss = smooth(model.weights, model.bias)[0] + l1 * np.sum(np.abs(model.weights))
    # no higher than L-BFGS-B from zero, which it cannot improve on either
    assert loss <= _split_variable_minimum(smooth, l1, d, (np.zeros(d), 0.0)) * (1.0 + 1e-9)
    assert loss <= _split_variable_minimum(smooth, l1, d, (model.weights, model.bias)) * (1.0 + 1e-9)


@pytest.mark.parametrize(
    "params",
    [{}, {"regularizer": "l1", "max_iter": 5}],
    ids=["l2", "l1"],
)
def test_solver_signals_survive_save_and_load(tmp_path, params):
    x, y = blob_arrays(seed=14)
    model = fit_arrays(ClassifierConfig("lr", params), x, y)
    model.save(tmp_path / "lr.json")
    back = load_model(tmp_path / "lr.json")
    assert (back.iterations, back.converged) == (model.iterations, model.converged)
    assert model.iterations > 0


def _hinge_by_slsqp(x, y, strength):
    """Independent oracle: the l2 hinge as a quadratic program in (w, b) and
    the slacks, solved by scipy's SLSQP. Returns its optimal objective."""
    from scipy.optimize import minimize

    n, d = x.shape
    ypm = 2.0 * y - 1.0
    rows = np.hstack([ypm[:, None] * x, ypm[:, None], np.eye(n)])  # y(w.x + b) + slack >= 1
    value = lambda v: v[d + 1 :].mean() + strength * v[:d] @ v[:d]
    grad = lambda v: np.concatenate([2.0 * strength * v[:d], [0.0], np.full(n, 1.0 / n)])
    result = minimize(
        value,
        np.concatenate([np.zeros(d + 1), np.ones(n)]),
        jac=grad,
        method="SLSQP",
        bounds=[(None, None)] * (d + 1) + [(0.0, None)] * n,
        constraints=[{"type": "ineq", "fun": lambda v: rows @ v - 1.0, "jac": lambda v: rows}],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    assert result.success
    return result.fun


@pytest.mark.parametrize("strength", [1e-3, 0.05, 1.0])
def test_hinge_svm_matches_a_quadratic_program_oracle(strength):
    x, y = blob_arrays(seed=4, n=15, gap=1.5)  # overlapping classes: some slacks are positive
    model = fit_arrays(ClassifierConfig("svm", {"penalty_strength": strength}), x, y)
    loss = _hinge_objective(x, y, 2.0 * strength)(model.weights, model.bias)[0]
    assert model.converged
    assert loss == pytest.approx(_hinge_by_slsqp(x, y, strength), rel=1e-9)


def _hinge_dual_gap(x, y, strength, w, b):
    """Smallest duality gap of (w, b) against dual points built here, one
    per margin width t: rows with u > t get alpha 1, rows with u < -t get 0,
    and rows with |u| <= t the alpha in [0, 1] that best satisfies
    stationarity and sum(alpha * y) = 0, by bounded least squares. Only
    points that meet sum(alpha * y) = 0 to 1e-9 count, so that each gap is
    an upper bound on how far (w, b) is from the optimum."""
    from scipy.optimize import lsq_linear

    n = len(y)
    ypm = 2.0 * y - 1.0
    u = 1.0 - ypm * (x @ w + b)
    primal = _hinge_objective(x, y, 2.0 * strength)(w, b)[0]
    gaps = [np.inf]
    for t in (1e-9, 1e-7, 1e-5):
        on = np.abs(u) <= t
        alpha = (u > t).astype(float)
        if on.any():
            a = np.vstack([(ypm[on, None] * x[on]).T, ypm[on]])
            target = np.append(2.0 * strength * n * w - x.T @ (alpha * ypm), -alpha @ ypm)
            alpha[on] = lsq_linear(a, target, bounds=(0.0, 1.0), tol=1e-14).x
        if abs(alpha @ ypm) <= 1e-9 * n:
            dual_w = x.T @ (alpha * ypm) / (2.0 * strength * n)
            gaps.append(primal - (alpha.mean() - strength * dual_w @ dual_w))
    return min(gaps)


def duplicated_row_arrays():
    x, y = skewed_arrays(seed=3, n=300, d=8)
    return np.vstack([x, x[:100]]), np.concatenate([y, y[:100]])


def _hinge_l1_by_linprog(x, y, strength):
    """Independent oracle: the l1 hinge as a linear program in w+ >= 0,
    w- >= 0, b and the slacks, solved by scipy's HiGHS. Returns its optimal
    objective."""
    from scipy import sparse
    from scipy.optimize import linprog

    n, d = x.shape
    ypm = 2.0 * y - 1.0
    yx = sparse.csr_matrix(ypm[:, None] * x)
    # y(w.x + b) + slack >= 1, written as -y x.w+ + y x.w- - y b - slack <= -1
    rows = sparse.hstack([-yx, yx, sparse.csr_matrix(-ypm[:, None]), -sparse.identity(n)])
    cost = np.concatenate([np.full(2 * d, strength), [0.0], np.full(n, 1.0 / n)])
    bounds = [(0.0, None)] * (2 * d) + [(None, None)] + [(0.0, None)] * n
    result = linprog(cost, A_ub=rows, b_ub=-np.ones(n), bounds=bounds, method="highs")
    assert result.status == 0
    return result.fun


@pytest.mark.parametrize("max_iter", [2000, 5])
@pytest.mark.parametrize("strength", [1e-8, 1e-4, 1e-2, 1.0, 0.0, 10.0])
@pytest.mark.parametrize("regularizer", ["l2", "l1"])
@pytest.mark.parametrize(
    "arrays",
    [blob_arrays, skewed_arrays, duplicated_column_arrays, duplicated_row_arrays],
    ids=["blobs", "skewed", "duplicated-columns", "duplicated-rows"],
)
def test_hinge_svm_never_ends_above_descent_and_converged_is_honest(arrays, regularizer, strength, max_iter):
    x, y = arrays()
    params = {"regularizer": regularizer, "penalty_strength": strength, "max_iter": max_iter}
    model = fit_arrays(ClassifierConfig("svm", params), x, y)
    l1, ridge = _penalty(regularizer, strength)
    objective = _with_l1(_hinge_objective(x, y, ridge), l1)
    loss = objective(model.weights, model.bias)[0]
    assert model.iterations <= max_iter
    if max_iter == 2000:
        w, b, _, _ = _descend(objective, x.shape[1], max_iter, 1e-9)
        assert loss <= objective(w, b)[0]
    else:  # 5 Newton steps may end above 5 descent steps, never above the start
        assert loss <= objective(np.zeros(x.shape[1]), 0.0)[0]
    if strength == 0.0:
        assert not model.converged  # no penalty, no certificate
    if model.converged and regularizer == "l2":
        assert _hinge_dual_gap(x, y, strength, model.weights, model.bias) <= 1e-7 * max(1.0, loss)
    if model.converged and regularizer == "l1":
        assert abs(loss - _hinge_l1_by_linprog(x, y, strength)) <= 1e-9 * max(1.0, loss)
    if max_iter == 2000 and strength > 0.0 and regularizer == "l2":
        assert model.converged and model.iterations <= 100


def extreme_arrays(scale):
    """120x4 uniform rows times `scale`, 30 % positive. Squares of the
    features overflow from about 1.3e154."""
    x = np.random.default_rng(0).uniform(size=(120, 4)) * scale
    return x, (np.arange(120) < 36).astype(int)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e150, 1e154, 1e155, 1e160, 1e200])
@pytest.mark.parametrize(
    "kind,params",
    [
        ("lr", {}),
        ("lr", {"regularizer": "l1"}),
        ("lr", {"regularizer": "elasticnet"}),
        ("svm", {}),
        ("svm", {"regularizer": "l1"}),
        ("svm", {"loss": "squared-hinge"}),
        ("svm", {"loss": "squared-hinge", "regularizer": "l1"}),
    ],
    ids=["lr-l2", "lr-l1", "lr-elasticnet", "svm", "svm-l1", "svm-sq", "svm-sq-l1"],
)
def test_linear_fits_at_extreme_magnitudes_are_finite_or_an_error(deadline, kind, params, scale):
    # the default svm hung in Newton's backtracking (a NaN step) from 1e155,
    # and several fits raised numpy's LinAlgError from a non-finite system
    deadline(30)
    x, y = extreme_arrays(scale)
    try:
        model = fit_arrays(ClassifierConfig(kind, params), x, y)
    except FraudkitError:
        assert scale > 1e150
        return
    assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
    assert np.all(np.isfinite(model.predict_proba(x)))


def test_default_svm_on_features_of_magnitude_1e7_fits():
    # a ridge of 2e-4 is lost against curvature of order 1e14, so the
    # Hessian was singular in floating point and np.linalg.solve raised
    # LinAlgError; the step now falls back to least squares
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (30, 3)) * 1e7
    y = np.zeros(30, dtype=int)
    y[rng.choice(30, 3, replace=False)] = 1
    model = fit_arrays(ClassifierConfig("svm"), x, y)
    assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
    assert np.all(np.isfinite(model.predict_proba(x)))


@pytest.mark.parametrize(
    "kind,params",
    [
        ("lr", {}),
        ("lr", {"regularizer": "l1"}),
        ("lr", {"regularizer": "elasticnet"}),
        ("svm", {"loss": "squared-hinge"}),
        ("svm", {"loss": "squared-hinge", "regularizer": "l1"}),
    ],
    ids=["lr-l2", "lr-l1", "lr-elasticnet", "svm-sq", "svm-sq-l1"],
)
def test_newton_fits_on_features_of_magnitude_1e150_converge(kind, params):
    # the gradient test was absolute, max|grad| < tol, which rounding keeps
    # out of reach at this scale: each fit ran all 2,000 steps unconverged
    model = fit_arrays(ClassifierConfig(kind, params), *extreme_arrays(1e150))
    assert model.converged and model.iterations <= 10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e154, 1e200])
def test_nb_whose_variances_overflow_fails_at_fit(scale):
    # the fit used to succeed and every probability was NaN
    with pytest.raises(ModelError, match="variances"):
        fit_arrays(ClassifierConfig("nb"), *extreme_arrays(scale))


def test_default_svm_certifies_its_optimum_on_skewed_data():
    model = fit_arrays(ClassifierConfig("svm"), *skewed_arrays())
    assert model.converged and 0 < model.iterations <= 100


@pytest.mark.parametrize("loss", ["hinge", "squared-hinge"])
@pytest.mark.parametrize("regularizer", ["l1", "l2"])
def test_svm_separable(loss, regularizer):
    x, y = blob_arrays(seed=2)
    model = fit_arrays(ClassifierConfig("svm", {"loss": loss, "regularizer": regularizer}), x, y)
    assert np.mean(model.predict(x) == y) == 1.0
    proba = model.predict_proba(x)
    assert np.all((proba >= 0) & (proba <= 1))
    assert np.array_equal(model.predict(x), (proba >= 0.5).astype(int))


# ---------------------------------------------------------------- random forest


def test_rf_ensemble_of_one_collapses_to_dt():
    x, y = blob_arrays(seed=3)
    dt = fit_arrays(ClassifierConfig("dt", {"criterion": "entropy", "maxdepth": 4}), x, y)
    rf = fit_arrays(
        ClassifierConfig(
            "rf",
            {
                "criterion": "entropy",
                "maxdepth": 4,
                "estimators": 1,
                "bootstrap": False,
                "max_features": "all",
            },
        ),
        x,
        y,
    )
    grid = np.random.default_rng(0).uniform(-2, 6, size=(200, 2))
    assert np.array_equal(rf.predict(grid), dt.predict(grid))


def _stump(value: float) -> DecisionTree:
    tree = DecisionTree()
    tree.n_features = 1
    tree.nodes = Nodes(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        value=np.array([value]),
        n_samples=np.array([1]),
        n_positive=np.array([int(value)]),
    )
    return tree


def test_rf_vote_fraction():
    model = ForestModel(["x"], [_stump(v) for v in (1.0, 1.0, 1.0, 0.0, 0.0)], {})
    proba = model.predict_proba(np.array([[0.5]]))
    assert proba[0] == pytest.approx(0.6)
    assert model.predict(np.array([[0.5]]))[0] == 1


def test_rf_deterministic_per_seed():
    x, y = blob_arrays(seed=5)
    cfg = ClassifierConfig("rf", {"estimators": 12, "maxdepth": 3}, seed=7)
    a = fit_arrays(cfg, x, y)
    b = fit_arrays(cfg, x, y)
    grid = np.random.default_rng(1).uniform(-2, 6, size=(100, 2))
    assert np.array_equal(a.predict_proba(grid), b.predict_proba(grid))


# ---------------------------------------------------------------- boosted trees


def test_gbt_zero_learning_rate_is_base_rate():
    x, y = blob_arrays(seed=6)
    model = fit_arrays(ClassifierConfig("gbt", {"learning_rate": 0.0, "estimators": 5}), x, y)
    expected = sigmoid(np.array([np.log(0.5 / 0.5)]))[0]
    proba = model.predict_proba(np.random.default_rng(2).uniform(-2, 6, size=(20, 2)))
    assert np.allclose(proba, expected)
    assert np.allclose(model.decision_score(x), np.log(np.mean(y) / (1 - np.mean(y))))


def _staged_scores(model, x):
    """Additive score after each boosting stage (stage 0 = initial)."""
    score = np.full(x.shape[0], model.initial_score)
    stages = [score.copy()]
    for tree in model.trees:
        score = score + model.learning_rate * tree.predict_value(x)
        stages.append(score.copy())
    return stages


@pytest.mark.parametrize("loss", ["deviance", "exponential"])
def test_gbt_training_logloss_non_increasing(loss):
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(150, 3))
    y = ((x[:, 0] + x[:, 1] > 1.0) ^ (rng.uniform(size=150) < 0.08)).astype(int)
    model = fit_arrays(
        ClassifierConfig("gbt", {"loss": loss, "learning_rate": 0.1, "estimators": 30, "maxdepth": 3}),
        x,
        y,
    )
    eps = 1e-12
    losses = []
    for score in _staged_scores(model, x):
        p = np.clip(sigmoid(score), eps, 1 - eps)
        losses.append(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-9)


@pytest.mark.parametrize("loss", ["deviance", "exponential"])
def test_gbt_probability_matches_region_rates(loss):
    # two regions whose empirical P(y=1) is 0.8 and 0.3
    x = np.repeat([0.0, 1.0], 1000).reshape(-1, 1)
    y = np.concatenate([np.arange(1000) < 800, np.arange(1000) < 300]).astype(int)
    model = fit_arrays(ClassifierConfig("gbt", {"loss": loss, "estimators": 50, "maxdepth": 1}), x, y)
    proba = model.predict_proba(np.array([[0.0], [1.0]]))
    assert proba == pytest.approx([0.8, 0.3], abs=0.02)


def test_gbt_learns_blobs():
    x, y = blob_arrays(seed=10)
    model = fit_arrays(ClassifierConfig("gbt", {"estimators": 20, "maxdepth": 2}), x, y)
    assert np.mean(model.predict(x) == y) == 1.0


# ---------------------------------------------------------------- mlp


@pytest.mark.parametrize("solver", ["adam", "sgd"])
def test_mlp_separable_blobs(solver):
    x, y = blob_arrays(seed=11)
    model = fit_arrays(
        ClassifierConfig("mlp", {"activation": "relu", "solver": solver}, seed=1), x, y
    )
    assert np.mean(model.predict(x) == y) == 1.0


def test_mlp_deterministic():
    x, y = blob_arrays(seed=12)
    cfg = ClassifierConfig("mlp", {"activation": "tanh", "epochs": 50}, seed=3)
    a = fit_arrays(cfg, x, y)
    b = fit_arrays(cfg, x, y)
    assert np.array_equal(a.predict_proba(x), b.predict_proba(x))


# ---------------------------------------------------------------- common contract


def test_fit_requires_both_classes():
    with pytest.raises(DataError):
        fit_arrays(ClassifierConfig("dt"), np.ones((4, 2)), np.array([1, 1, 1, 1]))


@pytest.mark.parametrize("labels", [[0.5, 1.5], [0, 2]], ids=["fractions", "two"])
def test_fit_arrays_rejects_labels_that_are_not_exactly_0_or_1(labels):
    # 0.5 and 1.5 used to be truncated to 0 and 1 and fitted; nb failed on 2 with a math domain error
    x, _ = blob_arrays(seed=13)
    y = np.resize(np.asarray(labels), len(x))
    for kind in ("nb", "dt"):
        with pytest.raises(DataError, match="0/1"):
            fit_arrays(ClassifierConfig(kind), x, y)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_arrays_rejects_non_finite(bad):
    x, y = blob_arrays(seed=13)
    x[5, 1] = bad
    for kind in ("lr", "dt"):
        with pytest.raises(DataError):
            fit_arrays(ClassifierConfig(kind), x, y)


@pytest.mark.parametrize("kind", ["nb", "lr", "dt", "gbt"])
def test_predict_proba_rejects_non_finite_rows(kind):
    x, y = blob_arrays(seed=13)
    model = fit_arrays(ClassifierConfig(kind), x, y)
    for bad in (np.nan, -np.inf):
        with pytest.raises(DataError):
            model.predict_proba(np.array([[0.0, 0.0], [bad, 1.0]]))


def test_predict_dimension_mismatch():
    x, y = blob_arrays(seed=13)
    model = fit_arrays(ClassifierConfig("dt", {"maxdepth": 2}), x, y)
    with pytest.raises(ModelError):
        model.predict(np.ones((2, 5)))


@pytest.mark.parametrize(
    "kind,params",
    [
        ("nb", {}),
        ("lr", {"regularizer": "l1"}),
        ("svm", {"loss": "hinge"}),
        ("dt", {"maxdepth": 3}),
        ("rf", {"estimators": 5, "maxdepth": 3}),
        ("gbt", {"estimators": 5, "maxdepth": 2}),
        ("mlp", {"epochs": 30}),
    ],
)
def test_model_round_trip(tmp_path, kind, params):
    x, y = blob_arrays(seed=14)
    model = fit_arrays(ClassifierConfig(kind, params, seed=2), x, y)
    path = tmp_path / f"{kind}.json"
    model.save(path)
    back = load_model(path)
    grid = np.random.default_rng(3).uniform(-2, 6, size=(50, 2))
    assert np.allclose(model.predict_proba(grid), back.predict_proba(grid))
    assert back.kind == kind
    assert back.feature_names == model.feature_names


def _three_input_network():
    spec = NetworkSpec(3, layer_stack([3, 1], ["relu", "logistic"]), "binary_cross_entropy")
    return init_network(spec, 0).to_dict()


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("nb", lambda s: s.update(means=[row[:-1] for row in s["means"]])),
        ("nb", lambda s: s.update(log_prior=s["log_prior"][:1])),
        ("nb", lambda s: s["variances"][1].__setitem__(0, float("nan"))),
        ("nb", lambda s: s["variances"][0].__setitem__(1, -1.0)),
        ("lr", lambda s: s.update(weights=s["weights"][:-1])),
        ("lr", lambda s: s["weights"].__setitem__(0, float("nan"))),
        ("svm", lambda s: s.update(bias=float("inf"))),
        ("gbt", lambda s: s.update(learning_rate=float("nan"))),
        ("gbt", lambda s: s.update(initial_score=float("nan"))),
        ("dt", lambda s: s["tree"]["value"].__setitem__(-1, float("nan"))),
        ("mlp", lambda s: s["network"]["weights"][0][0].__setitem__(0, float("nan"))),
        ("mlp", lambda s: s.update(network=_three_input_network())),
    ],
    ids=[
        "nb-short-means", "nb-short-log-prior", "nb-nan-variance", "nb-negative-variance", "lr-short-weights",
        "lr-nan-weight", "svm-inf-bias", "gbt-nan-learning-rate", "gbt-nan-initial-score", "dt-nan-leaf-value",
        "mlp-nan-weight", "mlp-three-inputs",
    ],
)
def test_model_document_whose_state_does_not_fit_is_a_model_error(kind, edit):
    # each of these used to load, then predicted all-NaN probabilities or
    # raised a bare numpy error
    x, y = blob_arrays(seed=14)
    doc = fit_arrays(ClassifierConfig(kind, {"epochs": 2} if kind == "mlp" else {}), x, y).to_dict()
    edit(doc["state"])
    with pytest.raises(ModelError):
        model_from_dict(doc)


def test_model_from_dict_rejects_unknown_format():
    with pytest.raises(ModelError):
        model_from_dict({"format": "nope"})


# ---------------------------------------------------------------- rules


def test_stump_rules():
    x = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    model = fit_arrays(ClassifierConfig("dt", {"maxdepth": 1}), x, y)
    rules = extract_rules(model)
    assert [r.render() for r in rules] == [
        "IF f0 <= 0.5 THEN Negative Class",
        "IF f0 > 0.5 THEN Positive Class",
    ]


def test_xor_rules_have_two_conditions_each():
    model = fit(ClassifierConfig("dt", {"maxdepth": 2}), xor_dataset())
    rules = extract_rules(model)
    assert len(rules) == 4
    assert all(len(r.conditions) == 2 for r in rules)


def test_rule_support_matches_training_replay():
    rng = np.random.default_rng(15)
    x = rng.uniform(size=(60, 3))
    y = (x[:, 0] > 0.45).astype(int)
    ds = dataset_from_matrix(x, y)
    model = fit(ClassifierConfig("dt", {"maxdepth": 3}), ds)
    rules = extract_rules(model)
    index = {name: i for i, name in enumerate(model.feature_names)}
    for rule in rules:
        replay = sum(1 for row in x if rule.matches(row, index))
        assert replay == rule.support


def test_rule_completeness_and_agreement():
    rng = np.random.default_rng(16)
    x = rng.uniform(size=(80, 4))
    y = ((x[:, 0] > 0.5) & (x[:, 2] < 0.6)).astype(int)
    model = fit_arrays(ClassifierConfig("dt", {"maxdepth": 4}), x, y)
    rules = extract_rules(model)
    index = {name: i for i, name in enumerate(model.feature_names)}
    probes = rng.uniform(size=(200, 4))
    preds = model.predict(probes)
    for row, pred in zip(probes, preds):
        hits = [r for r in rules if r.matches(row, index)]
        assert len(hits) == 1
        assert hits[0].predicted == pred


def test_repeated_splits_merge_to_interval():
    # force two splits on the same feature: y = 1 inside (0.3, 0.6]
    x = np.linspace(0, 1, 40).reshape(-1, 1)
    y = ((x.ravel() > 0.3) & (x.ravel() <= 0.6)).astype(int)
    model = fit_arrays(ClassifierConfig("dt", {"maxdepth": 3}), x, y)
    rules = extract_rules(model)
    comparators = {c.comparator for r in rules for c in r.conditions}
    assert "interval" in comparators
    # every rule carries at most one condition per feature
    for rule in rules:
        feats = [c.feature for c in rule.conditions]
        assert len(feats) == len(set(feats))


def test_extract_rules_rejects_non_tree():
    x, y = blob_arrays(seed=17)
    model = fit_arrays(ClassifierConfig("nb"), x, y)
    with pytest.raises(ModelError):
        extract_rules(model)


def test_format_rules_table_shape():
    x = np.array([[0.0], [1.0]])
    model = fit_arrays(ClassifierConfig("dt", {"maxdepth": 1}), x, np.array([0, 1]))
    text = format_rules(extract_rules(model))
    assert text.startswith("Rule No.\tRULE\n")
    assert "1\tIF f0 <= 0.5 THEN Negative Class" in text


def test_condition_interval_rendering():
    c = Condition("X1", 0.1, 0.5)
    assert c.render() == "0.1 < X1 <= 0.5"
    assert c.holds(0.3) and not c.holds(0.05) and not c.holds(0.7)
    assert Rule((c,), 1, 5, 0.9).render() == "IF 0.1 < X1 <= 0.5 THEN Positive Class"


@pytest.mark.parametrize("names", [[0, 1, 2], ["a", "b", None], ["a", "b"]], ids=["ints", "a-none", "too-few"])
def test_fit_arrays_rejects_feature_names_that_are_not_one_string_per_column(names):
    # [0, 1, 2] fitted and saved a model whose document load_model rejected
    x, y = blob_arrays(n=10)
    x = np.column_stack([x, x[:, 0]])
    with pytest.raises(DataError, match="feature_names must be one string per column"):
        fit_arrays(ClassifierConfig("nb"), x, y, names)
