import json
import tracemalloc

import numpy as np
import pytest

from fraudkit.classify import ClassifierConfig, fit_arrays, load_model
from fraudkit.data import read_document, write_document
from fraudkit.errors import ConfigError, DataError, ModelError
from fraudkit.neural import (
    ACTIVATIONS,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LayerSpec,
    Network,
    NetworkSpec,
    Optimizer,
    TrainConfig,
    _act,
    _act_grad,
    init_network,
    join_parameters,
    layer_stack,
    sigmoid,
    train,
)


def gradient_check(net: Network, inputs: np.ndarray, targets: np.ndarray, h: float = 1e-5) -> float:
    """Relative error between backprop and central-difference gradients.

    The numeric side perturbs parameters and re-runs forward + loss only, so
    it exercises none of the backward pass it audits. Error is the 2-norm of
    the difference over the sum of the 2-norms.
    """
    x = np.asarray(inputs, dtype=float)
    t = np.asarray(targets, dtype=float)
    if t.ndim == 1:
        t = t.reshape(-1, 1)

    out, cache = net.forward_cached(x)
    _, dout, is_dz = net.loss_and_output_grad(out, t)
    net.backward(cache, dout, dout_is_dz=is_dz)

    def loss_at() -> float:
        y = net.forward(x)
        loss, _, _ = net.loss_and_output_grad(y, t)
        return loss

    params = net.params
    numeric = np.empty_like(params)
    for k in range(params.size):
        keep = params[k]
        params[k] = keep + h
        up = loss_at()
        params[k] = keep - h
        down = loss_at()
        params[k] = keep
        numeric[k] = (up - down) / (2.0 * h)
    denom = np.linalg.norm(net.grads) + np.linalg.norm(numeric) + 1e-12
    return float(np.linalg.norm(net.grads - numeric) / denom)


def linear_spec(in_dim=1, out_dim=1, loss="mse"):
    return NetworkSpec(in_dim, (LayerSpec(out_dim, "linear"),), loss)


# ---------------------------------------------------------------- spec


def test_spec_requires_layers():
    with pytest.raises(ConfigError):
        NetworkSpec(2, (), "mse")


def test_bce_requires_logistic_head():
    with pytest.raises(ConfigError):
        NetworkSpec(2, (LayerSpec(1, "linear"),), "binary_cross_entropy")


@pytest.mark.parametrize("slope", [-1.0, -1e-300, 1.0 + 1e-15, 3.0, float("nan"), True, "0.2"])
def test_spec_rejects_a_leaky_slope_outside_the_unit_interval(slope):
    with pytest.raises(ConfigError, match="leaky_slope"):
        NetworkSpec(2, (LayerSpec(1, "leaky_relu"),), "mse", slope)


@pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
def test_leaky_relu_matches_its_where_form_bit_for_bit(slope):
    # maximum(z, slope z) and maximum(z > 0, slope) equal the where forms for
    # every finite z when 0 <= slope <= 1, signed zero and NaN included
    z = np.array([-3.5, -1e-300, -0.0, 0.0, 1e-300, 2.25, np.nan, -7e307, 7e307])
    out = _act(z, "leaky_relu", slope)
    expected = np.where(z > 0.0, z, slope * z)
    assert np.array_equal(out, expected, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(expected))
    grad = _act_grad(z, out, "leaky_relu", slope)
    assert grad.dtype == np.float64
    assert np.array_equal(grad, np.where(z > 0.0, 1.0, slope))


# ---------------------------------------------------------------- init


def test_init_shapes():
    net = init_network(linear_spec(2, 1), seed=0)
    assert net.weights[0].shape == (1, 2)
    assert net.biases[0].shape == (1,)
    assert np.all(net.biases[0] == 0.0)


def test_init_deterministic_per_seed():
    a = init_network(linear_spec(3, 2), seed=9)
    b = init_network(linear_spec(3, 2), seed=9)
    assert np.array_equal(a.weights[0], b.weights[0])


def test_init_differs_across_seeds():
    a = init_network(linear_spec(3, 2), seed=9)
    b = init_network(linear_spec(3, 2), seed=10)
    assert not np.array_equal(a.weights[0], b.weights[0])


def test_init_glorot_bounds():
    spec = NetworkSpec(4, (LayerSpec(6, "tanh"),), "mse")
    net = init_network(spec, seed=1)
    limit = np.sqrt(6.0 / (4 + 6))
    assert np.all(np.abs(net.weights[0]) <= limit)


# ---------------------------------------------------------------- forward


def test_forward_zero_weights_logistic_gives_half():
    spec = NetworkSpec(3, (LayerSpec(2, "logistic"),), "binary_cross_entropy")
    net = Network(spec, [np.zeros((2, 3))], [np.zeros(2)])
    out = net.forward(np.ones((4, 3)))
    assert np.all(out == 0.5)


def test_forward_affine_arithmetic():
    spec = linear_spec()
    net = Network(spec, [np.array([[2.0]])], [np.array([1.0])])
    assert net.forward(np.array([[3.0]]))[0, 0] == 7.0


def test_forward_relu():
    spec = NetworkSpec(2, (LayerSpec(2, "relu"),), "mse")
    net = Network(spec, [np.eye(2)], [np.zeros(2)])
    out = net.forward(np.array([[-1.0, 2.0]]))
    assert out.tolist() == [[0.0, 2.0]]


def test_forward_dimension_mismatch():
    net = init_network(linear_spec(3, 1), seed=0)
    with pytest.raises(ModelError):
        net.forward(np.ones((2, 4)))


def test_logistic_outputs_in_open_unit_interval():
    spec = NetworkSpec(2, (LayerSpec(1, "logistic"),), "binary_cross_entropy")
    net = Network(spec, [np.array([[50.0, -50.0]])], [np.array([0.0])])
    out = net.forward(np.array([[10.0, -10.0], [-10.0, 10.0]]))
    assert np.all((out > 0.0) & (out < 1.0))


def reference_forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Each layer as one expression, z = a @ W.T + b and the activation's
    own formula, each step in a new array."""
    a = x
    for layer, w, b in zip(net.spec.layers, net.weights, net.biases):
        z = a @ w.T + b
        if layer.activation == "relu":
            a = np.maximum(z, 0.0)
        elif layer.activation == "leaky_relu":
            a = np.maximum(z, net.spec.leaky_slope * z)
        elif layer.activation == "tanh":
            a = np.tanh(z)
        elif layer.activation == "logistic":
            a = np.clip(sigmoid(z), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
        else:
            a = z
    return a


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_forward_equals_the_cached_forward_and_the_layer_formulas_bit_for_bit(activation):
    rng = np.random.default_rng(3)
    net = init_network(NetworkSpec(4, layer_stack([9, 6, 3], [activation] * 3), "mse"), seed=8)
    x = rng.normal(0.0, 3.0, size=(50, 4))
    out = net.forward(x)
    cached, cache = net.forward_cached(x)
    assert np.array_equal(out, cached)
    assert np.array_equal(out, reference_forward(net, x))
    assert cache[-1][2] is cached and out is not cached


def test_saturated_logistic_forward_equals_the_cached_forward():
    spec = NetworkSpec(2, (LayerSpec(2, "logistic"),), "binary_cross_entropy")
    net = Network(spec, [np.eye(2)], [np.zeros(2)])
    x = np.array([[800.0, -800.0], [-800.0, 800.0], [0.0, 36.0]])
    out = net.forward(x)
    assert np.array_equal(out, net.forward_cached(x)[0])
    assert np.array_equal(out, reference_forward(net, x))
    assert out[0].tolist() == [np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0)]


def test_forward_returns_a_new_array_per_call():
    net = init_network(linear_spec(2, 2), seed=1)
    x = np.ones((3, 2))
    first = net.forward(x)
    keep = first.copy()
    second = net.forward(x)
    second += 1.0
    assert np.array_equal(first, keep)


# ---------------------------------------------------------------- gradients


def _random_net(hidden_act: str, loss: str, seed: int) -> tuple[Network, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    if loss == "binary_cross_entropy":
        head = "logistic"
    elif loss == "wasserstein_critic":
        head = "linear"
    else:
        head = hidden_act
    spec = NetworkSpec(
        4,
        layer_stack([6, 5, 1], [hidden_act, hidden_act, head]),
        loss,
    )
    net = init_network(spec, seed)
    x = rng.uniform(-1, 1, size=(7, 4))
    if loss == "binary_cross_entropy":
        t = rng.integers(0, 2, size=(7, 1)).astype(float)
    elif loss == "wasserstein_critic":
        t = rng.choice([-1.0, 1.0], size=(7, 1))
    else:
        t = rng.uniform(-1, 1, size=(7, 1))
    return net, x, t


def _kink_free(net, x, margin=1e-3) -> bool:
    """Reject draws whose relu/leaky pre-activations sit on the kink, where
    central differences are legitimately off."""
    _, cache = net.forward_cached(x)
    for layer, (_, z, _) in zip(net.spec.layers, cache):
        if layer.activation in ("relu", "leaky_relu") and np.abs(z).min() < margin:
            return False
    return True


def draw_checkable_net(activation, loss, seed):
    for offset in range(50):
        net, x, t = _random_net(activation, loss, seed + 100 * offset)
        if _kink_free(net, x):
            return net, x, t
    raise AssertionError("could not draw a kink-free network")


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("loss", ["mse", "binary_cross_entropy", "wasserstein_critic"])
def test_gradient_check_all_pairs(activation, loss):
    for seed in (11, 12):
        net, x, t = draw_checkable_net(activation, loss, seed)
        assert gradient_check(net, x, t) <= 1e-4


# ---------------------------------------------------------------- layout


def test_weights_and_biases_are_views_of_params():
    net = init_network(NetworkSpec(3, layer_stack([4, 2], ["tanh", "linear"]), "mse"), seed=5)
    assert net.params.size == 3 * 4 + 4 + 4 * 2 + 2
    net.params[:] = np.arange(net.params.size)
    assert net.weights[0].tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    assert net.biases[0].tolist() == [12, 13, 14, 15]
    assert net.weights[1].tolist() == [[16, 17, 18, 19], [20, 21, 22, 23]]
    assert net.biases[1].tolist() == [24, 25]
    net.weights[1][0, 0] = -1.0
    assert net.params[16] == -1.0


def test_backward_fills_grads_and_returns_input_gradient():
    net, x, t = draw_checkable_net("tanh", "mse", 11)
    out, cache = net.forward_cached(x)
    _, dout, _ = net.loss_and_output_grad(out, t)
    dx = net.backward(cache, dout)
    assert dx.shape == x.shape
    analytic = net.grads.copy()
    net.grads[:] = 0.0
    assert net.backward(cache, dout, input_grad=False) is None
    assert np.array_equal(net.grads, analytic)
    h = 1e-6
    numeric = np.empty_like(net.params)
    for k in range(net.params.size):
        keep = net.params[k]
        losses = []
        for value in (keep + h, keep - h):
            net.params[k] = value
            losses.append(net.loss_and_output_grad(net.forward(x), t)[0])
        net.params[k] = keep
        numeric[k] = (losses[0] - losses[1]) / (2 * h)
    assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-8)
    # gradient_check's analytic side is what backward leaves in grads
    assert gradient_check(net, x, t) <= 1e-4
    assert np.array_equal(net.grads, analytic)


def test_backward_without_param_grads_leaves_grads_and_gives_the_same_input_gradient():
    for activation in ACTIVATIONS:
        for dout_is_dz in (False, True):
            loss = "binary_cross_entropy" if dout_is_dz else "mse"
            net, x, t = _random_net(activation, loss, 11)
            out, cache = net.forward_cached(x)
            _, dout, _ = net.loss_and_output_grad(out, t)
            dx = net.backward(cache, dout, dout_is_dz=dout_is_dz)
            net.grads[:] = 7.0
            dx_frozen = net.backward(cache, dout, dout_is_dz=dout_is_dz, param_grads=False)
            assert np.array_equal(dx_frozen, dx)
            assert np.all(net.grads == 7.0)


def test_join_parameters_rebinds_every_network_onto_one_vector():
    nets = [init_network(linear_spec(2, 3), seed=1), init_network(linear_spec(3, 1), seed=2)]
    before = [net.params.copy() for net in nets]
    params, grads = join_parameters(nets)
    assert np.array_equal(params, np.concatenate(before))
    params[:] = 0.5
    grads[:] = 1.0
    for net in nets:
        assert all(np.all(w == 0.5) for w in net.weights + net.biases)
        assert np.all(net.grads == 1.0)
    Optimizer("sgd", 0.25, params, grads).step()
    assert all(np.all(w == 0.25) for net in nets for w in net.weights + net.biases)


def textbook_steps(kind: str, lr: float, params: np.ndarray, grad_seq) -> np.ndarray:
    """SGD and Adam (Kingma & Ba, ICLR 2015) as whole-vector expressions."""
    p = params.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grad_seq, start=1):
        if kind == "sgd":
            p -= lr * g
            continue
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        p -= lr * (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)
    return p


@pytest.mark.parametrize("kind", ["adam", "sgd"])
@pytest.mark.parametrize("size", [961, 51_201])
def test_optimizer_steps_equal_the_textbook_updates_bit_for_bit(kind, size):
    rng = np.random.default_rng(size)
    start = rng.normal(size=size)
    grad_seq = [rng.normal(0.0, 10.0 ** -k, size=size) for k in range(5)]
    params, grads = start.copy(), np.empty(size)
    opt = Optimizer(kind, 1e-3, params, grads)
    for g in grad_seq:
        grads[:] = g
        opt.step()
    assert np.array_equal(params, textbook_steps(kind, 1e-3, start, grad_seq))


def test_optimizer_steps_allocate_no_parameter_sized_arrays():
    # whole-vector temporaries peaked at 1.17 MiB (adam) and 0.39 MiB (sgd) here
    rng = np.random.default_rng(0)
    for kind in ("adam", "sgd"):
        params, grads = rng.normal(size=51_201), rng.normal(size=51_201)
        opt = Optimizer(kind, 1e-3, params, grads)
        tracemalloc.start()
        try:
            for _ in range(10):
                opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.nbytes / 4, kind


# ---------------------------------------------------------------- training


def test_train_recovers_line():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(20, 1))
    y = 2.0 * x + 1.0
    net = init_network(linear_spec(), seed=3)
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.2, epochs=500, batch_size=64, seed=0)
    history = train(net, x, y, cfg)
    # closed-form least squares on this noiseless fixture is exactly (2, 1)
    assert abs(net.weights[0][0, 0] - 2.0) < 0.05
    assert abs(net.biases[0][0] - 1.0) < 0.05
    assert len(history) == 500


def test_train_zero_learning_rate_is_noop():
    net = init_network(linear_spec(2, 1), seed=5)
    before = [w.copy() for w in net.weights]
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.0, epochs=10, batch_size=4, seed=0)
    history = train(net, np.ones((6, 2)), np.ones((6, 1)), cfg)
    assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))
    assert len(set(round(v, 12) for v in history)) == 1


def test_train_separable_blobs_reach_full_accuracy():
    rng = np.random.default_rng(1)
    a = rng.normal((-2, -2), 0.3, size=(30, 2))
    b = rng.normal((2, 2), 0.3, size=(30, 2))
    x = np.vstack([a, b])
    y = np.array([0.0] * 30 + [1.0] * 30)
    spec = NetworkSpec(2, (LayerSpec(1, "logistic"),), "binary_cross_entropy")
    net = init_network(spec, seed=2)
    cfg = TrainConfig(optimizer="adam", learning_rate=0.05, epochs=300, batch_size=64, seed=0)
    train(net, x, y, cfg)
    preds = (net.forward(x).ravel() >= 0.5).astype(float)
    assert np.mean(preds == y) == 1.0


def test_train_loss_decreases_on_convex_problem():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=(50, 3))
    y = x @ np.array([[1.0], [-2.0], [0.5]]) + 0.3
    net = init_network(linear_spec(3, 1), seed=0)
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.05, epochs=50, batch_size=64, seed=0)
    history = train(net, x, y, cfg)
    assert history[-1] <= history[0]


@pytest.mark.parametrize("batch_size", [10, 16])
def test_train_permutes_the_rows_every_epoch_even_when_one_batch_holds_them_all(batch_size):
    # the MLP and the VAE share one loop, which draws permutation(n) every
    # epoch; train used to keep the row order when batch_size >= n, so a fit
    # on at most batch_size rows now differs from before in its last bits
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-1, 1, size=(10, 3)), rng.uniform(size=(10, 1))
    spec = NetworkSpec(3, layer_stack([4, 1], ["tanh", "linear"]), "mse")
    net, ref = init_network(spec, 1), init_network(spec, 1)
    train(net, x, y, TrainConfig("adam", 0.05, epochs=4, batch_size=batch_size, seed=5))
    opt, orders = Optimizer("adam", 0.05, ref.params, ref.grads), np.random.default_rng(5)
    for _ in range(4):
        order = orders.permutation(10)
        out, cache = ref.forward_cached(x[order])
        _, dout, is_dz = ref.loss_and_output_grad(out, y[order])
        ref.backward(cache, dout, dout_is_dz=is_dz, input_grad=False)
        opt.step()
    assert net.params.tobytes() == ref.params.tobytes()


def test_weight_clip_enforced_exactly():
    net = init_network(NetworkSpec(2, (LayerSpec(3, "tanh"), LayerSpec(1, "linear")), "mse"), seed=7)
    cfg = TrainConfig(
        optimizer="adam", learning_rate=0.1, epochs=5, batch_size=64, seed=0, weight_clip=0.02
    )
    train(net, np.ones((8, 2)), np.zeros((8, 1)), cfg)
    assert max(np.abs(w).max() for w in net.weights) <= 0.02


def test_train_mismatched_rows_raises():
    net = init_network(linear_spec(2, 1), seed=0)
    with pytest.raises(ModelError):
        train(net, np.ones((3, 2)), np.ones((4, 1)), TrainConfig(epochs=1))


def test_train_without_rows_is_a_data_error():
    net = init_network(linear_spec(2, 1), seed=0)
    with pytest.raises(DataError, match="training row"):
        train(net, np.empty((0, 2)), np.empty((0, 1)), TrainConfig(epochs=2))


@pytest.mark.parametrize("targets", [np.ones((5, 2)), np.ones((5, 1, 1))])
def test_train_targets_that_do_not_fit_the_output_are_a_model_error_naming_both_shapes(targets):
    net = init_network(linear_spec(3, 1), seed=0)
    with pytest.raises(ModelError) as caught:
        train(net, np.ones((5, 3)), targets, TrainConfig(epochs=1))
    assert str(targets.shape) in str(caught.value) and "(5, 1)" in str(caught.value)


def test_train_divergence_aborts():
    net = init_network(linear_spec(1, 1), seed=0)
    cfg = TrainConfig(optimizer="sgd", learning_rate=1e12, epochs=50, batch_size=64, seed=0)
    with pytest.raises(ModelError, match="non-finite"):
        train(net, np.full((4, 1), 10.0), np.zeros((4, 1)), cfg)


# ---------------------------------------------------------------- persistence


def test_network_json_round_trip(tmp_path):
    spec = NetworkSpec(3, layer_stack([4, 1], ["leaky_relu", "logistic"]), "binary_cross_entropy")
    net = init_network(spec, seed=21)
    path = tmp_path / "net.json"
    write_document(net.to_dict(), path)
    back = read_document(path, Network.from_dict)
    x = np.random.default_rng(0).uniform(size=(5, 3))
    assert np.array_equal(net.forward(x), back.forward(x))
    doc = json.loads(path.read_text())
    assert doc["format"] == "fraudkit.network/1"


def test_network_document_with_a_leaky_slope_outside_the_unit_interval_fails_at_load(tmp_path):
    spec = NetworkSpec(3, layer_stack([4, 1], ["leaky_relu", "logistic"]), "binary_cross_entropy")
    doc = init_network(spec, seed=21).to_dict()
    # the nested spec's ConfigError fails the network document as a ModelError
    for slope in (-1.0, 3.0):
        doc["spec"]["leaky_slope"] = slope
        with pytest.raises(ModelError, match="leaky_slope"):
            Network.from_dict(doc)
    doc["spec"]["leaky_slope"] = 0.2
    doc["spec"]["layers"][0][1] = "swish"  # the same failure as an unknown activation
    with pytest.raises(ModelError, match="activation"):
        Network.from_dict(doc)


SPEC_DOC = {"input_dim": 3, "layers": [[4, "relu"]], "loss": "mse"}


@pytest.mark.parametrize(
    "parse, doc, name",
    [
        (NetworkSpec.from_dict, {**SPEC_DOC, "input_dim": 2.7}, "input_dim"),
        (NetworkSpec.from_dict, {**SPEC_DOC, "layers": [[1.9, "relu"]]}, "width"),
        (NetworkSpec.from_dict, {**SPEC_DOC, "leaky_slope": "0.2"}, "leaky_slope"),
        (TrainConfig.from_dict, {**TrainConfig().to_dict(), "epochs": 2.5}, "epochs"),
        (TrainConfig.from_dict, {**TrainConfig().to_dict(), "learning_rate": "0.1"}, "learning_rate"),
        (TrainConfig.from_dict, {**TrainConfig().to_dict(), "seed": -1}, "seed"),
    ],
    ids=["input-dim-fraction", "width-fraction", "slope-string", "epochs-fraction", "rate-string", "seed-negative"],
)
def test_spec_documents_reject_values_they_used_to_convert(parse, doc, name):
    # int() and float() used to truncate 2.7 to 2 and parse "0.2"
    with pytest.raises(ConfigError, match=name):
        parse(doc)


def _misfit_missing_layer(doc):
    doc["weights"], doc["biases"] = doc["weights"][:1], doc["biases"][:1]


def _misfit_weight_shape(doc):
    doc["weights"][1] = np.transpose(doc["weights"][1]).tolist()


def _misfit_bias_shape(doc):
    doc["biases"][1] = doc["biases"][1] + [0.0]


@pytest.mark.parametrize("entry", ["network", "mlp"])
@pytest.mark.parametrize(
    "misfit",
    [_misfit_missing_layer, _misfit_weight_shape, _misfit_bias_shape],
    ids=["missing-layer", "weight-shape", "bias-shape"],
)
def test_load_rejects_parameters_that_do_not_fit_the_spec(tmp_path, entry, misfit):
    rng = np.random.default_rng(3)
    x, y = rng.uniform(size=(20, 3)), np.arange(20) % 2
    model = fit_arrays(ClassifierConfig("mlp", {"epochs": 1}), x, y)
    path = tmp_path / "doc.json"
    if entry == "network":
        doc = model.network.to_dict()
        misfit(doc)
        with pytest.raises(ModelError, match="shapes"):
            Network.from_dict(doc)
    else:
        model.save(path)
        doc = json.loads(path.read_text())
        misfit(doc["state"]["network"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="shapes"):
            load_model(path)
