"""Minimal dense feed-forward engine: four activations plus linear, three
losses, SGD and Adam, manual backpropagation.

Shared by the MLP classifier, both GAN variants and the VAE detector. The
low-level forward_cached/backward API exposes input gradients so adversarial
and autoencoder training loops can chain networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import document_parser, read_document, write_document
from .errors import ConfigError, ModelError

ACTIVATIONS = ("relu", "leaky_relu", "tanh", "logistic", "linear")
LOSSES = ("binary_cross_entropy", "mse", "wasserstein_critic")
OPTIMIZERS = ("sgd", "adam")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LayerSpec:
    width: int
    activation: str

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ConfigError("layer width must be positive")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    layers: tuple[LayerSpec, ...]
    loss: str
    leaky_slope: float = 0.2

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ConfigError("input_dim must be positive")
        if not self.layers:
            raise ConfigError("network needs >= 1 layer")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.loss == "binary_cross_entropy" and self.layers[-1].activation != "logistic":
            raise ConfigError("binary_cross_entropy requires a logistic output layer")

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "layers": [[l.width, l.activation] for l in self.layers],
            "loss": self.loss,
            "leaky_slope": self.leaky_slope,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NetworkSpec":
        return cls(
            input_dim=int(doc["input_dim"]),
            layers=tuple(LayerSpec(int(w), a) for w, a in doc["layers"]),
            loss=doc["loss"],
            leaky_slope=float(doc.get("leaky_slope", 0.2)),
        )


def layer_stack(widths: Sequence[int], activations: Sequence[str]) -> tuple[LayerSpec, ...]:
    if len(widths) != len(activations):
        raise ConfigError("widths and activations must align")
    return tuple(LayerSpec(w, a) for w, a in zip(widths, activations))


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    epochs: int = 1
    batch_size: int = 32
    seed: int = 0
    weight_clip: float | None = None

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.weight_clip is not None and self.weight_clip <= 0:
            raise ConfigError("weight_clip must be positive")

    def to_dict(self) -> dict:
        return {
            "optimizer": self.optimizer,
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "weight_clip": self.weight_clip,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        return cls(
            optimizer=doc["optimizer"],
            learning_rate=float(doc["learning_rate"]),
            epochs=int(doc["epochs"]),
            batch_size=int(doc["batch_size"]),
            seed=int(doc["seed"]),
            weight_clip=None if doc.get("weight_clip") is None else float(doc["weight_clip"]),
        )


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated without overflow for either sign of z."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _act(z: np.ndarray, kind: str, slope: float) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "leaky_relu":
        return np.where(z > 0.0, z, slope * z)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "logistic":
        # keep the codomain an open interval even where exp() saturates
        return np.clip(sigmoid(z), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return z


def _act_grad(z: np.ndarray, a: np.ndarray, kind: str, slope: float) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(z.dtype)
    if kind == "leaky_relu":
        return np.where(z > 0.0, 1.0, slope)
    if kind == "tanh":
        return 1.0 - a * a
    if kind == "logistic":
        return a * (1.0 - a)
    return np.ones_like(z)


class Network:
    """Fully-connected stack with per-layer weights (out, in) and biases."""

    def __init__(self, spec: NetworkSpec, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.spec = spec
        self.weights = weights
        self.biases = biases

    # -- forward / backward ------------------------------------------------

    def forward(self, batch: np.ndarray) -> np.ndarray:
        return self.forward_cached(batch)[0]

    def forward_cached(self, batch: np.ndarray):
        x = np.asarray(batch, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ModelError(
                f"expected batch of width {self.spec.input_dim}, got shape {x.shape}"
            )
        cache = []
        a = x
        for layer, w, b in zip(self.spec.layers, self.weights, self.biases):
            z = a @ w.T + b
            a_next = _act(z, layer.activation, self.spec.leaky_slope)
            cache.append((a, z, a_next))
            a = a_next
        return a, cache

    def backward(self, cache, dout: np.ndarray, dout_is_dz: bool = False):
        """Backpropagate d(loss)/d(output); returns (grads, d(loss)/d(input)).

        grads is a list of (dW, db) aligned with the layers. When
        dout_is_dz is set, dout is taken as the gradient w.r.t. the final
        pre-activation (the numerically stable logistic/BCE shortcut).
        """
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.weights)  # type: ignore[list-item]
        delta = np.asarray(dout, dtype=float)
        for i in range(len(self.weights) - 1, -1, -1):
            a_prev, z, a = cache[i]
            layer = self.spec.layers[i]
            if i == len(self.weights) - 1 and dout_is_dz:
                dz = delta
            else:
                dz = delta * _act_grad(z, a, layer.activation, self.spec.leaky_slope)
            grads[i] = (dz.T @ a_prev, dz.sum(axis=0))
            delta = dz @ self.weights[i]
        return grads, delta

    def loss_and_output_grad(self, outputs: np.ndarray, targets: np.ndarray):
        """Loss value plus its gradient; flag marks a pre-activation gradient."""
        y = np.asarray(outputs, dtype=float)
        t = np.asarray(targets, dtype=float).reshape(y.shape)
        m = y.size
        if self.spec.loss == "mse":
            diff = y - t
            with np.errstate(over="ignore"):  # divergence surfaces as inf, caught by train()
                return float(np.mean(diff * diff)), 2.0 * diff / m, False
        if self.spec.loss == "binary_cross_entropy":
            eps = 1e-12
            yc = np.clip(y, eps, 1.0 - eps)
            loss = float(-np.mean(t * np.log(yc) + (1.0 - t) * np.log(1.0 - yc)))
            return loss, (y - t) / m, True  # logistic head shortcut
        # wasserstein_critic: targets +1 for real, -1 for generated
        return float(-np.mean(t * y)), -t / m, False

    def clip_weights(self, limit: float) -> None:
        for w, b in zip(self.weights, self.biases):
            np.clip(w, -limit, limit, out=w)
            np.clip(b, -limit, limit, out=b)

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "fraudkit.network/1",
            "spec": self.spec.to_dict(),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    @document_parser
    def from_dict(cls, doc: dict) -> "Network":
        if doc.get("format") != "fraudkit.network/1":
            raise ModelError(f"unsupported network document {doc.get('format')!r}")
        spec = NetworkSpec.from_dict(doc["spec"])
        weights = [np.array(w, dtype=float) for w in doc["weights"]]
        biases = [np.array(b, dtype=float) for b in doc["biases"]]
        return cls(spec, weights, biases)

    def save(self, path: str | Path) -> None:
        write_document(self.to_dict(), path)

    @classmethod
    def load(cls, path: str | Path) -> "Network":
        return read_document(path, cls.from_dict)


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    fan_in = spec.input_dim
    for layer in spec.layers:
        limit = math.sqrt(6.0 / (fan_in + layer.width))
        weights.append(rng.uniform(-limit, limit, size=(layer.width, fan_in)))
        biases.append(np.zeros(layer.width))
        fan_in = layer.width
    return Network(spec, weights, biases)


class Optimizer:
    """SGD or Adam over one network's parameter list."""

    def __init__(self, kind: str, learning_rate: float, net: Network):
        if kind not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {kind!r}")
        self.kind = kind
        self.lr = learning_rate
        if kind == "adam":
            self._m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(net.weights, net.biases)]
            self._v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(net.weights, net.biases)]
            self._t = 0

    def step(self, net: Network, grads) -> None:
        if self.kind == "sgd":
            for (dw, db), w, b in zip(grads, net.weights, net.biases):
                w -= self.lr * dw
                b -= self.lr * db
            return
        self._t += 1
        correct1 = 1.0 - ADAM_BETA1 ** self._t
        correct2 = 1.0 - ADAM_BETA2 ** self._t
        for i, ((dw, db), w, b) in enumerate(zip(grads, net.weights, net.biases)):
            mw, mb = self._m[i]
            vw, vb = self._v[i]
            mw *= ADAM_BETA1
            mw += (1 - ADAM_BETA1) * dw
            mb *= ADAM_BETA1
            mb += (1 - ADAM_BETA1) * db
            vw *= ADAM_BETA2
            vw += (1 - ADAM_BETA2) * dw * dw
            vb *= ADAM_BETA2
            vb += (1 - ADAM_BETA2) * db * db
            w -= self.lr * (mw / correct1) / (np.sqrt(vw / correct2) + ADAM_EPS)
            b -= self.lr * (mb / correct1) / (np.sqrt(vb / correct2) + ADAM_EPS)


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
    grads, _ = net.backward(cache, dout, dout_is_dz=is_dz)
    analytic = np.concatenate([np.concatenate([dw.ravel(), db.ravel()]) for dw, db in grads])

    def loss_at() -> float:
        y = net.forward(x)
        loss, _, _ = net.loss_and_output_grad(y, t)
        return loss

    numeric = []
    for arrays in zip(net.weights, net.biases):
        for arr in arrays:
            flat = arr.ravel()
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + h
                up = loss_at()
                flat[k] = keep - h
                down = loss_at()
                flat[k] = keep
                numeric.append((up - down) / (2.0 * h))
    numeric = np.asarray(numeric)
    denom = np.linalg.norm(analytic) + np.linalg.norm(numeric) + 1e-12
    return float(np.linalg.norm(analytic - numeric) / denom)


@dataclass
class TrainResult:
    network: Network
    loss_history: list[float] = field(default_factory=list)


def train(net: Network, inputs: np.ndarray, targets: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Mini-batch gradient descent on the network's configured loss.

    Trains in place (the network is exclusively owned during training) and
    returns it with a per-epoch mean-loss history. Falls back to full-batch
    when batch_size >= n. Aborts on a non-finite loss.
    """
    x = np.asarray(inputs, dtype=float)
    t = np.asarray(targets, dtype=float)
    if t.ndim == 1:
        t = t.reshape(-1, 1)
    if x.shape[0] != t.shape[0]:
        raise ModelError("inputs and targets must have equal row counts")
    n = x.shape[0]
    optimizer = Optimizer(cfg.optimizer, cfg.learning_rate, net)
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
            grads, _ = net.backward(cache, dout, dout_is_dz=is_dz)
            optimizer.step(net, grads)
            if cfg.weight_clip is not None:
                net.clip_weights(cfg.weight_clip)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return TrainResult(net, history)
