"""GAN-based minority oversampling: a vanilla adversarial pair and a
Wasserstein critic variant with weight clipping.

Both variants share the mirrored-generator design: the generator reverses
the discriminator's hidden widths and ends in a logistic head so samples
land in the unit feature box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (
    COUNT, Config, Dataset, check_fields, dataset_from_matrix, document_parser, read_document, read_fields,
    require_finite, write_document, write_fields,
)
from .errors import ConfigError, DataError, ModelError
from .neural import (
    LayerSpec,
    Network,
    NetworkSpec,
    Optimizer,
    TrainConfig,
    init_network,
)
from .resample import minority_rows, rows_wanted, with_synthetic

VGAN_DISC_HIDDEN = (128, 64, 32, 8)
WGAN_CRITIC_HIDDEN = (256, 128, 64, 32)
DEFAULT_EPOCHS = 10_000
DEFAULT_WEIGHT_CLIP = 0.01


@dataclass(frozen=True)
class GanSpec(Config):
    variant: str
    latent_dim: int
    discriminator: NetworkSpec
    generator: NetworkSpec
    train: TrainConfig
    critic_steps: int = 5

    _FIELDS = {
        "variant": ("vgan", "wgan"), "latent_dim": COUNT, "discriminator": NetworkSpec, "generator": NetworkSpec,
        "train": TrainConfig, "critic_steps": COUNT,
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        head, loss = self.discriminator.layers[-1].activation, self.discriminator.loss
        if self.variant == "vgan" and loss != "binary_cross_entropy":  # which needs a logistic head
            raise ConfigError("vgan discriminator must use binary_cross_entropy")
        if self.variant == "wgan" and (head, loss) != ("linear", "wasserstein_critic"):
            raise ConfigError("wgan critic must end in a linear layer with wasserstein_critic loss")
        if self.generator.input_dim != self.latent_dim:
            raise ConfigError("generator input width must equal latent_dim")

    @property
    def feature_count(self) -> int:
        return self.generator.layers[-1].width


def default_gan_spec(variant: str, feature_count: int, latent_dim: int = 8) -> GanSpec:
    """Published architectures: four leaky-ReLU hidden layers per critic,
    10,000 training epochs; generator mirrors the hidden widths reversed."""
    if variant == "vgan":
        hidden = VGAN_DISC_HIDDEN
        head = LayerSpec(1, "logistic")
        loss = "binary_cross_entropy"
        clip = None
    elif variant == "wgan":
        hidden = WGAN_CRITIC_HIDDEN
        head = LayerSpec(1, "linear")
        loss = "wasserstein_critic"
        clip = DEFAULT_WEIGHT_CLIP
    else:
        raise ConfigError(f"unknown GAN variant {variant!r}")
    disc = NetworkSpec(feature_count, tuple(LayerSpec(w, "leaky_relu") for w in hidden) + (head,), loss)
    gen_layers = tuple(LayerSpec(w, "leaky_relu") for w in reversed(hidden)) + (LayerSpec(feature_count, "logistic"),)
    gen = NetworkSpec(latent_dim, gen_layers, "mse")  # a placeholder loss; generator updates flow through the critic
    train = TrainConfig("adam", 1e-3, epochs=DEFAULT_EPOCHS, batch_size=64, seed=0, weight_clip=clip)
    return GanSpec(variant, latent_dim, disc, gen, train, critic_steps=5)


@dataclass
class Gan:
    """A trained GAN; its document holds the spec and both networks, not the
    loss curves."""

    spec: GanSpec
    generator: Network
    discriminator: Network
    disc_losses: list[float] = field(default_factory=list)
    gen_losses: list[float] = field(default_factory=list)

    _FIELDS = {"spec": GanSpec, "generator": Network, "discriminator": Network}

    def __post_init__(self) -> None:
        if (self.generator.spec, self.discriminator.spec) != (self.spec.generator, self.spec.discriminator):
            raise ModelError("gan generator or discriminator network differs from the gan spec")

    def to_dict(self) -> dict:
        return {"format": "fraudkit.gan/1", **write_fields(self, self._FIELDS)}

    @classmethod
    @document_parser
    def from_dict(cls, doc: dict) -> "Gan":
        check_fields(doc, {"format": ("fraudkit.gan/1",)})
        return cls(**read_fields(doc, cls._FIELDS))

    def save(self, path: str | Path) -> None:
        write_document(self.to_dict(), path)

    @classmethod
    def load(cls, path: str | Path) -> "Gan":
        return read_document(path, cls.from_dict)


def train_gan(minority: Dataset | np.ndarray, spec: GanSpec) -> Gan:
    """Alternating adversarial training on minority rows in the unit box.

    vgan: the discriminator minimizes BCE on real-vs-generated while the
    generator maximizes log D(G(z)) (non-saturating form). wgan: the critic
    maximizes mean D(real) - mean D(fake) under weight clipping, taking
    `critic_steps` updates per generator update.
    """
    x = minority.matrix() if isinstance(minority, Dataset) else np.asarray(minority, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DataError("need >= 2 minority rows")
    require_finite(x, "minority rows")
    if x.min() < -1e-9 or x.max() > 1.0 + 1e-9:
        raise DataError("minority rows must be normalized to [0, 1]")
    if x.shape[1] != spec.feature_count:
        raise ConfigError("spec feature count does not match the data")

    n = x.shape[0]
    cfg = spec.train
    disc = init_network(spec.discriminator, cfg.seed)
    gen = init_network(spec.generator, cfg.seed + 1)
    d_opt = Optimizer(cfg.optimizer, cfg.learning_rate, disc.params, disc.grads)
    g_opt = Optimizer(cfg.optimizer, cfg.learning_rate, gen.params, gen.grads)
    rng = np.random.default_rng(cfg.seed + 2)
    m = min(cfg.batch_size, n)

    def real_batch() -> np.ndarray:
        if m >= n:
            return x
        return x[rng.choice(n, size=m, replace=False)]

    def fake_batch() -> np.ndarray:
        return rng.standard_normal((m, spec.latent_dim))

    # every real and every fake batch has m rows, so the critic phase's
    # targets (vgan) and output gradient (wgan) are the same at every step
    ones = np.ones((m, 1))
    vgan_targets = np.vstack([ones, np.zeros((m, 1))])
    # maximize mean(real) - mean(fake)  ==  minimize the negation;
    # each half is averaged on its own, unlike the critic loss's -t/m
    wgan_dout = np.vstack([np.full((m, 1), -1.0 / m), np.full((m, 1), 1.0 / m)])

    # Each phase's forward cache lives only inside its function, so no
    # batch's cache is still held while the next batch runs.
    def critic_gradients() -> float:
        """Loss of one real and one fake batch; fills disc.grads (generator frozen)."""
        real = real_batch()
        fake = gen.forward(fake_batch())
        out, cache = disc.forward_cached(np.vstack([real, fake]))
        if spec.variant == "vgan":
            loss, dout, is_dz = disc.loss_and_output_grad(out, vgan_targets)
            disc.backward(cache, dout, dout_is_dz=is_dz, input_grad=False)
            return loss
        loss = float(-(np.mean(out[:m]) - np.mean(out[m:])))
        disc.backward(cache, wgan_dout, input_grad=False)
        return loss

    def generator_gradients() -> float:
        """Loss of one fake batch; fills gen.grads. The discriminator is
        frozen, so its grads are not computed: the next critic step would
        overwrite them before any read."""
        g_out, g_cache = gen.forward_cached(fake_batch())
        d_out, d_cache = disc.forward_cached(g_out)
        loss, dout, is_dz = disc.loss_and_output_grad(d_out, ones)
        d_in = disc.backward(d_cache, dout, dout_is_dz=is_dz, param_grads=False)
        gen.backward(g_cache, d_in, input_grad=False)
        return loss

    critic_steps = spec.critic_steps if spec.variant == "wgan" else 1
    disc_losses: list[float] = []
    gen_losses: list[float] = []
    for epoch in range(cfg.epochs):
        for _ in range(critic_steps):
            d_loss = critic_gradients()
            d_opt.step()
            if cfg.weight_clip is not None:
                disc.clip_weights(cfg.weight_clip)
        g_loss = generator_gradients()
        g_opt.step()

        if not (math.isfinite(d_loss) and math.isfinite(g_loss)):
            raise ModelError(f"non-finite GAN loss at epoch {epoch}")
        disc_losses.append(d_loss)
        gen_losses.append(g_loss)

    return Gan(spec, gen, disc, disc_losses, gen_losses)


def sample_synthetic(gan: Gan, n: int, seed: int) -> np.ndarray:
    """n generator samples on standard-normal noise, clamped to [0, 1]."""
    if n < 0:
        raise ConfigError("n must be non-negative")
    if n == 0:
        return np.empty((0, gan.spec.feature_count))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, gan.spec.latent_dim))
    return np.clip(gan.generator.forward(z), 0.0, 1.0)


def oversample_gan(
    data: Dataset,
    cfg,
    onehot_groups: Sequence[Sequence[int]] | None = None,
    spec: GanSpec | None = None,
    overrides: dict | None = None,
) -> Dataset:
    """Balance a labeled dataset by GAN-sampling new minority rows. Without a
    `spec`, the default one trains with cfg.seed and the TrainConfig fields
    that `overrides` names."""
    if spec is None:
        spec = default_gan_spec(cfg.method, data.d)
        # an override that names no TrainConfig field is a ConfigError
        train = TrainConfig.from_dict({**spec.train.to_dict(), "seed": cfg.seed, **(overrides or {})})
        spec = replace(spec, train=train)
    minority_idx, minority_label = minority_rows(data)
    wanted = rows_wanted(data, len(minority_idx), cfg.target_ratio)
    if wanted == 0:
        return data

    x = data.matrix()
    gan = train_gan(x[minority_idx], spec)
    synth = sample_synthetic(gan, wanted, seed=cfg.seed + 1)
    x, labels = with_synthetic(data, synth, minority_label, onehot_groups)
    return dataset_from_matrix(x, labels, schema=data.schema)
