"""Minimal dense feed-forward engine: four activations plus linear, three
losses, SGD and Adam, manual backpropagation.

Shared by the MLP classifier, both GAN variants and the VAE detector. A
network's weights and biases are views into one float64 vector, `params`;
`backward` writes their gradients into a second vector, `grads`, and returns
only the input gradient, so adversarial and autoencoder training loops can
chain networks. An `Optimizer` steps one `params`/`grads` pair as a whole.

A step allocates only what it returns or caches: `forward` keeps no
per-layer arrays, each layer pass writes its bias, activation and gradient
products into arrays it has just made, and an `Optimizer` puts every
intermediate of its update into two scratch vectors it owns. Outputs are
always fresh arrays, so a caller may keep them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (
    COUNT, SEED, Array, Config, Items, Range, check_fields, check_value, config_parser, document_parser, read_document,
    read_fields, write_document, write_fields,
)
from .errors import ConfigError, DataError, ModelError

ACTIVATIONS = ("relu", "leaky_relu", "tanh", "logistic", "linear")
LOSSES = ("binary_cross_entropy", "mse", "wasserstein_critic")
OPTIMIZERS = ("sgd", "adam")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# the logistic codomain stays the open interval (0, 1) even where exp() saturates
_LOGISTIC_LOW = np.nextafter(0.0, 1.0)
_LOGISTIC_HIGH = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class LayerSpec(Config):
    """One dense layer; its document is the pair [width, activation]."""

    width: int
    activation: str

    _FIELDS = {"width": COUNT, "activation": ACTIVATIONS}

    def to_dict(self) -> list:
        return [self.width, self.activation]

    @classmethod
    @config_parser
    def from_dict(cls, doc: list) -> "LayerSpec":
        return cls(*doc)


@dataclass(frozen=True)
class NetworkSpec(Config):
    input_dim: int
    layers: tuple[LayerSpec, ...]
    loss: str
    leaky_slope: float = 0.2

    _FIELDS = {"input_dim": COUNT, "layers": Items(LayerSpec), "loss": LOSSES, "leaky_slope": Range(float, 0.0, 1.0)}

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.loss == "binary_cross_entropy" and self.layers[-1].activation != "logistic":
            raise ConfigError("binary_cross_entropy requires a logistic output layer")


def layer_stack(widths: Sequence[int], activations: Sequence[str]) -> tuple[LayerSpec, ...]:
    if len(widths) != len(activations):
        raise ConfigError("widths and activations must align")
    return tuple(LayerSpec(w, a) for w, a in zip(widths, activations))


@dataclass(frozen=True)
class TrainConfig(Config):
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    epochs: int = 1
    batch_size: int = 32
    seed: int = 0
    weight_clip: float | None = None

    _FIELDS = {
        "optimizer": OPTIMIZERS, "learning_rate": Range(float, 0.0), "epochs": COUNT, "batch_size": COUNT, "seed": SEED,
        "weight_clip": object,  # None or a positive number, which __post_init__ checks
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.weight_clip is not None:
            check_value("weight_clip", self.weight_clip, Range(float, 0.0, open_low=True))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated without overflow for either sign of z:
    1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) otherwise."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _act(z: np.ndarray, kind: str, slope: float) -> np.ndarray:
    """Activation of `z` in a new array (`z` itself for linear); `z` is kept
    unchanged for the backward pass."""
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "leaky_relu":
        a = slope * z
        return np.maximum(z, a, out=a)  # equals where(z > 0, z, slope * z) for 0 <= slope <= 1
    if kind == "tanh":
        return np.tanh(z)
    if kind == "logistic":
        a = sigmoid(z)
        np.maximum(a, _LOGISTIC_LOW, out=a)
        return np.minimum(a, _LOGISTIC_HIGH, out=a)
    return z


def _act_grad(z: np.ndarray, a: np.ndarray, kind: str, slope: float) -> np.ndarray:
    """d(activation)/dz in a new array the caller may overwrite."""
    if kind == "relu":
        return (z > 0.0).astype(z.dtype)
    if kind == "leaky_relu":
        return np.maximum(z > 0.0, slope)
    if kind == "tanh":
        g = a * a
        return np.subtract(1.0, g, out=g)
    if kind == "logistic":
        g = 1.0 - a
        g *= a
        return g
    return np.ones_like(z)


def _weight_shapes(spec: NetworkSpec) -> list[tuple[int, int]]:
    fan_ins = [spec.input_dim] + [layer.width for layer in spec.layers[:-1]]
    return [(layer.width, fan_in) for layer, fan_in in zip(spec.layers, fan_ins)]


def _views(vector: np.ndarray, spec: NetworkSpec) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weight and bias views into `vector`: layer by layer, weights first."""
    shapes = _weight_shapes(spec)
    sizes = [n for out, fan_in in shapes for n in (out * fan_in, out)]
    parts = np.split(vector, np.cumsum(sizes)[:-1])
    return [w.reshape(shape) for w, shape in zip(parts[::2], shapes)], parts[1::2]


class Network:
    """Fully-connected stack with per-layer weights (out, in) and biases,
    all views into one vector `params`; `grads` has the same layout."""

    def __init__(self, spec: NetworkSpec, weights: Sequence, biases: Sequence):
        shapes = _weight_shapes(spec)
        bias_shapes = [(out,) for out, _ in shapes]
        if [np.shape(w) for w in weights] != shapes or [np.shape(b) for b in biases] != bias_shapes:
            raise ModelError(f"weights and biases do not fit the spec's weight shapes {shapes}")
        self.spec = spec
        params = np.concatenate([np.ravel(a) for pair in zip(weights, biases) for a in pair], dtype=float)
        self._bind(params, np.zeros_like(params))

    def _bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Rebind the weight, bias and gradient views onto `params` and
        `grads` (this network's layout; nothing is copied)."""
        self.params, self.grads = params, grads
        self.weights, self.biases = _views(params, self.spec)
        self._dw, self._db = _views(grads, self.spec)

    # -- forward / backward ------------------------------------------------

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """The network's output for `batch`, as a new array. Keeps no cache:
        a layer's input and pre-activation are dropped once the next layer's
        exist, so inference holds about two layers' arrays at a time."""
        return self._run(batch, None)

    def forward_cached(self, batch: np.ndarray):
        """The output plus, per layer, (input, pre-activation, output) for
        `backward`."""
        cache: list = []
        return self._run(batch, cache), cache

    def _run(self, batch: np.ndarray, cache: list | None) -> np.ndarray:
        a = np.asarray(batch, dtype=float)
        if a.ndim != 2 or a.shape[1] != self.spec.input_dim:
            raise ModelError(
                f"expected batch of width {self.spec.input_dim}, got shape {a.shape}"
            )
        for layer, w, b in zip(self.spec.layers, self.weights, self.biases):
            z = a @ w.T
            z += b
            a_next = _act(z, layer.activation, self.spec.leaky_slope)
            if cache is not None:
                cache.append((a, z, a_next))
            a = a_next
        return a

    def backward(
        self, cache, dout: np.ndarray, dout_is_dz: bool = False, input_grad: bool = True,
        param_grads: bool = True,
    ) -> np.ndarray | None:
        """Backpropagate d(loss)/d(output): write every layer's dW and db
        into `grads` and return d(loss)/d(input), or None when input_grad is
        off, which saves the first layer's product for callers that drop it.
        With param_grads off, `grads` is left untouched and only the input
        gradient is computed, for a network that is frozen in this step
        (the GAN generator phase backpropagates through the discriminator).

        When dout_is_dz is set, dout is taken as the gradient w.r.t. the final
        pre-activation (the numerically stable logistic/BCE shortcut).
        """
        delta = np.asarray(dout, dtype=float)
        for i in range(len(self.weights) - 1, -1, -1):
            a_prev, z, a = cache[i]
            layer = self.spec.layers[i]
            if i == len(self.weights) - 1 and dout_is_dz:
                dz = delta
            else:
                dz = _act_grad(z, a, layer.activation, self.spec.leaky_slope)
                dz *= delta
            if param_grads:
                np.matmul(dz.T, a_prev, out=self._dw[i])
                np.add.reduce(dz, axis=0, out=self._db[i])
            delta = dz @ self.weights[i] if i or input_grad else None
        return delta

    def loss_and_output_grad(self, outputs: np.ndarray, targets: np.ndarray):
        """Loss value plus its gradient; flag marks a pre-activation gradient."""
        y = np.asarray(outputs, dtype=float)
        t = np.asarray(targets, dtype=float).reshape(y.shape)
        m = y.size
        # np.add.reduce(v, axis=None) / m is np.mean(v) without its wrapper
        if self.spec.loss == "mse":
            diff = y - t
            with np.errstate(over="ignore"):  # divergence surfaces as inf, caught by train()
                return float(np.add.reduce(diff * diff, axis=None) / m), 2.0 * diff / m, False
        if self.spec.loss == "binary_cross_entropy":
            eps = 1e-12
            yc = np.minimum(np.maximum(y, eps), 1.0 - eps)
            loss = float(-(np.add.reduce(t * np.log(yc) + (1.0 - t) * np.log(1.0 - yc), axis=None) / m))
            return loss, (y - t) / m, True  # logistic head shortcut
        # wasserstein_critic: targets +1 for real, -1 for generated
        return float(-(np.add.reduce(t * y, axis=None) / m)), -t / m, False

    def clip_weights(self, limit: float) -> None:
        np.clip(self.params, -limit, limit, out=self.params)

    # -- persistence --------------------------------------------------------

    # the constructor checks the arrays' shapes against the spec
    _FIELDS = {
        "spec": NetworkSpec,
        "weights": lambda weights: [check_value("weights", w, Array(float, (-1, -1))) for w in weights],
        "biases": lambda biases: [check_value("biases", b, Array(float, (-1,))) for b in biases],
    }

    def to_dict(self) -> dict:
        return {"format": "fraudkit.network/1", **write_fields(self, self._FIELDS)}

    @classmethod
    @document_parser
    def from_dict(cls, doc: dict) -> "Network":
        check_fields(doc, {"format": ("fraudkit.network/1",)})
        return cls(**read_fields(doc, cls._FIELDS))

    def save(self, path: str | Path) -> None:
        write_document(self.to_dict(), path)

    @classmethod
    def load(cls, path: str | Path) -> "Network":
        return read_document(path, cls.from_dict)


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    weights = []
    for out, fan_in in _weight_shapes(spec):
        limit = math.sqrt(6.0 / (fan_in + out))
        weights.append(rng.uniform(-limit, limit, size=(out, fan_in)))
    return Network(spec, weights, [np.zeros(layer.width) for layer in spec.layers])


def join_parameters(networks: Sequence[Network]) -> tuple[np.ndarray, np.ndarray]:
    """Copy the networks' parameters into one vector pair, rebind each
    network onto its slice and return (params, grads) for one Optimizer."""
    params = np.concatenate([net.params for net in networks])
    grads = np.zeros_like(params)
    cuts = np.cumsum([net.params.size for net in networks])[:-1]
    for net, p, g in zip(networks, np.split(params, cuts), np.split(grads, cuts)):
        net._bind(p, g)
    return params, grads


class Optimizer:
    """SGD or Adam (Kingma & Ba, ICLR 2015) over one parameter vector and
    its gradient vector. A step allocates nothing: it evaluates the textbook
    update expressions in their order into two scratch vectors, so results
    are bit-identical to them."""

    def __init__(self, kind: str, learning_rate: float, params: np.ndarray, grads: np.ndarray):
        if kind not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {kind!r}")
        self.kind = kind
        self.lr = learning_rate
        self.params, self.grads = params, grads
        self._s1, self._s2 = np.empty_like(params), np.empty_like(params)
        if kind == "adam":
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
            self._t = 0

    def step(self) -> None:
        g, s1, s2 = self.grads, self._s1, self._s2
        if self.kind == "sgd":
            self.params -= np.multiply(self.lr, g, out=s1)
            return
        self._t += 1
        correct1 = 1.0 - ADAM_BETA1 ** self._t
        correct2 = 1.0 - ADAM_BETA2 ** self._t
        self._m *= ADAM_BETA1
        self._m += np.multiply(1 - ADAM_BETA1, g, out=s1)
        self._v *= ADAM_BETA2
        np.multiply(1 - ADAM_BETA2, g, out=s1)
        self._v += np.multiply(s1, g, out=s1)
        np.divide(self._m, correct1, out=s1)
        s1 *= self.lr
        np.divide(self._v, correct2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += ADAM_EPS
        self.params -= np.divide(s1, s2, out=s1)


@dataclass
class TrainResult:
    network: Network
    loss_history: list[float] = field(default_factory=list)


def train(net: Network, inputs: np.ndarray, targets: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Mini-batch gradient descent on the network's configured loss.

    Trains in place (the network is exclusively owned during training) and
    returns it with a per-epoch mean-loss history. Falls back to full-batch
    when batch_size >= n. Aborts on a non-finite loss. Targets are one row
    per input row, of the network's output width (a vector for width 1).
    """
    x = np.asarray(inputs, dtype=float)
    t = np.asarray(targets, dtype=float)
    if t.ndim == 1:
        t = t.reshape(-1, 1)
    n = x.shape[0]
    if n == 0:
        raise DataError("need >= 1 training row")
    output_shape = (n, net.spec.layers[-1].width)
    if t.shape != output_shape:
        raise ModelError(f"targets of shape {t.shape} do not fit the network's output shape {output_shape}")
    optimizer = Optimizer(cfg.optimizer, cfg.learning_rate, net.params, net.grads)
    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []
    full_batch = cfg.batch_size >= n
    for epoch in range(cfg.epochs):
        order = np.arange(n) if full_batch else rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            out, cache = net.forward_cached(x[idx])
            loss, dout, is_dz = net.loss_and_output_grad(out, t[idx])
            if not math.isfinite(loss):
                raise ModelError(f"non-finite loss {loss} at epoch {epoch}")
            net.backward(cache, dout, dout_is_dz=is_dz, input_grad=False)
            optimizer.step()
            if cfg.weight_clip is not None:
                net.clip_weights(cfg.weight_clip)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return TrainResult(net, history)
