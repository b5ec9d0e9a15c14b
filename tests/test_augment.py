import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fraudkit.augment import (
    Gan,
    GanSpec,
    default_gan_spec,
    oversample_gan,
    sample_synthetic,
    train_gan,
)
from fraudkit.data import read_document, write_document
from fraudkit.errors import ConfigError, DataError, ModelError
from fraudkit.neural import NetworkSpec, TrainConfig, init_network, layer_stack
from fraudkit.resample import BalancerConfig, balance


def small_spec(variant, d=2, epochs=200, seed=0, lr=2e-3, latent=4):
    """Desk-scale GAN: the published four-layer stacks at 10k epochs are far
    too slow for unit tests; the adversarial mechanics are identical."""
    if variant == "vgan":
        disc = NetworkSpec(
            d, layer_stack([16, 8, 1], ["leaky_relu", "leaky_relu", "logistic"]), "binary_cross_entropy"
        )
        clip = None
    else:
        disc = NetworkSpec(
            d, layer_stack([16, 8, 1], ["leaky_relu", "leaky_relu", "linear"]), "wasserstein_critic"
        )
        clip = 0.01
    gen = NetworkSpec(latent, layer_stack([8, 16, d], ["leaky_relu", "leaky_relu", "logistic"]), "mse")
    train = TrainConfig(
        optimizer="adam", learning_rate=lr, epochs=epochs, batch_size=64, seed=seed, weight_clip=clip
    )
    return GanSpec(variant, latent, disc, gen, train, critic_steps=5)


def point_mass_minority(p=(0.3, 0.7), n=4):
    return np.tile(np.asarray(p, dtype=float), (n, 1))


# ------------------------------------------------------------- default spec


def test_default_vgan_discriminator_widths():
    spec = default_gan_spec("vgan", 10)
    assert [l.width for l in spec.discriminator.layers] == [128, 64, 32, 8, 1]
    assert spec.discriminator.layers[-1].activation == "logistic"
    assert all(l.activation == "leaky_relu" for l in spec.discriminator.layers[:-1])


def test_default_wgan_critic_widths():
    spec = default_gan_spec("wgan", 10)
    assert [l.width for l in spec.discriminator.layers] == [256, 128, 64, 32, 1]
    assert spec.discriminator.layers[-1].activation == "linear"
    assert spec.train.weight_clip == 0.01


def test_default_epochs_ten_thousand():
    assert default_gan_spec("vgan", 3).train.epochs == 10_000
    assert default_gan_spec("wgan", 3).train.epochs == 10_000


def test_default_generator_mirrors_and_matches_feature_count():
    spec = default_gan_spec("vgan", 1)
    assert spec.feature_count == 1
    assert [l.width for l in spec.generator.layers] == [8, 32, 64, 128, 1]
    assert spec.generator.layers[-1].activation == "logistic"
    assert spec.generator.input_dim == spec.latent_dim == 8


def test_spec_validates_heads():
    good = default_gan_spec("vgan", 2)
    with pytest.raises(ConfigError):
        GanSpec("wgan", good.latent_dim, good.discriminator, good.generator, good.train)


@pytest.mark.parametrize("variant", ["vgan", "wgan"])
def test_spec_requires_the_variants_discriminator_loss(variant):
    good = small_spec(variant)
    disc = replace(good.discriminator, loss="mse")
    with pytest.raises(ConfigError):
        GanSpec(variant, good.latent_dim, disc, good.generator, good.train)


# ------------------------------------------------------------- training


def test_vgan_point_mass_convergence():
    gan = train_gan(point_mass_minority(), small_spec("vgan", epochs=2000, seed=1))
    samples = sample_synthetic(gan, 500, seed=99)
    assert np.abs(samples.mean(axis=0) - (0.3, 0.7)).max() < 0.1


def test_wgan_point_mass_convergence_and_clip():
    gan = train_gan(point_mass_minority(), small_spec("wgan", epochs=2000, seed=0))
    samples = sample_synthetic(gan, 500, seed=99)
    assert np.abs(samples.mean(axis=0) - (0.3, 0.7)).max() < 0.1
    assert max(np.abs(w).max() for w in gan.discriminator.weights) <= 0.01
    assert max(np.abs(b).max() for b in gan.discriminator.biases) <= 0.01


def test_vgan_equilibrium_discriminator_accuracy():
    rng = np.random.default_rng(5)
    real = np.clip(rng.normal([0.5, 0.5], 0.05, size=(200, 2)), 0, 1)
    gan = train_gan(real[:150], small_spec("vgan", epochs=1000, seed=1, lr=5e-4))
    held_real = gan.discriminator.forward(real[150:]).ravel()
    fakes = gan.discriminator.forward(sample_synthetic(gan, 50, seed=123)).ravel()
    accuracy = (np.sum(held_real >= 0.5) + np.sum(fakes < 0.5)) / 100
    assert 0.35 <= accuracy <= 0.65


def test_point_mass_variance_shrinks_with_training():
    # same seed stream: a 100-epoch run is a strict prefix of the 2000-epoch run
    early = train_gan(point_mass_minority(), small_spec("vgan", epochs=100, seed=1))
    late = train_gan(point_mass_minority(), small_spec("vgan", epochs=2000, seed=1))
    v_early = sample_synthetic(early, 500, seed=99).var(axis=0).mean()
    v_late = sample_synthetic(late, 500, seed=99).var(axis=0).mean()
    assert v_late < v_early


def test_train_gan_deterministic():
    spec = small_spec("vgan", epochs=50, seed=3)
    a = train_gan(point_mass_minority(), spec)
    b = train_gan(point_mass_minority(), spec)
    assert all(np.array_equal(x, y) for x, y in zip(a.generator.weights, b.generator.weights))
    assert a.disc_losses == b.disc_losses


def test_train_gan_loss_curves_length():
    gan = train_gan(point_mass_minority(), small_spec("wgan", epochs=40, seed=0))
    assert len(gan.disc_losses) == len(gan.gen_losses) == 40


def test_train_gan_requires_unit_box():
    with pytest.raises(DataError):
        train_gan(np.array([[0.5, 3.0], [0.1, 0.2]]), small_spec("vgan"))


def test_train_gan_rejects_nan_rows_as_data_error():
    with pytest.raises(DataError, match="finite"):
        train_gan(np.array([[0.5, np.nan], [0.1, 0.2]]), small_spec("vgan"))


def test_train_gan_requires_two_rows():
    with pytest.raises(DataError):
        train_gan(np.array([[0.5, 0.5]]), small_spec("vgan"))


# ------------------------------------------------------------- sampling


def test_sample_zero_rows():
    gan = train_gan(point_mass_minority(), small_spec("vgan", epochs=10, seed=0))
    assert sample_synthetic(gan, 0, seed=1).shape == (0, 2)


def test_sample_in_unit_box():
    gan = train_gan(point_mass_minority(), small_spec("vgan", epochs=10, seed=0))
    samples = sample_synthetic(gan, 76, seed=5)
    assert samples.shape == (76, 2)
    assert samples.min() >= 0.0 and samples.max() <= 1.0


def test_sample_deterministic_per_seed():
    gan = train_gan(point_mass_minority(), small_spec("vgan", epochs=10, seed=0))
    assert np.array_equal(sample_synthetic(gan, 8, seed=7), sample_synthetic(gan, 8, seed=7))
    assert not np.array_equal(sample_synthetic(gan, 8, seed=7), sample_synthetic(gan, 8, seed=8))


def test_sampling_keeps_no_per_layer_cache():
    # with every layer's input, pre-activation and output cached, 2,000 rows
    # from the 8-32-64-128-256-30 generator peaked at 18.7 MiB
    spec = default_gan_spec("wgan", 30)
    gan = Gan(spec, init_network(spec.generator, 1), init_network(spec.discriminator, 0), [], [])
    rows, widest = 2_000, max(layer.width for layer in spec.generator.layers)
    tracemalloc.start()
    try:
        samples = sample_synthetic(gan, rows, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.shape == (rows, 30)
    assert peak < 3 * rows * widest * 8


# ------------------------------------------------------------- persistence


def test_gan_round_trip(tmp_path):
    gan = train_gan(point_mass_minority(), small_spec("wgan", epochs=20, seed=2))
    path = tmp_path / "gan.json"
    write_document(gan.to_dict(), path)
    back = read_document(path, Gan.from_dict)
    assert np.array_equal(sample_synthetic(gan, 5, seed=3), sample_synthetic(back, 5, seed=3))


@pytest.mark.parametrize(
    "name, spec",
    [
        ("generator", NetworkSpec(8, layer_stack([5, 3], ["leaky_relu", "logistic"]), "mse")),
        ("discriminator", NetworkSpec(2, layer_stack([4, 1], ["leaky_relu", "logistic"]), "binary_cross_entropy")),
    ],
    ids=["generator", "discriminator"],
)
def test_gan_document_whose_network_differs_from_its_spec_is_a_model_error(name, spec):
    doc = train_gan(point_mass_minority(), small_spec("vgan", epochs=2, latent=8)).to_dict()
    doc[name] = init_network(spec, 0).to_dict()
    with pytest.raises(ModelError, match="spec"):
        Gan.from_dict(doc)


# ------------------------------------------------------------- oversampling


@pytest.mark.parametrize(
    "overrides", [{"epoch": 5}, {"epochs": 2.5}, {"batch_size": 0}], ids=["unknown-field", "fractional", "zero"]
)
def test_balance_rejects_gan_overrides_it_cannot_apply(imbalanced_blobs, overrides):
    # a misspelt field used to be dropped, so training ran all 10,000 default
    # epochs; 2.5 epochs failed in range() with a bare TypeError
    with pytest.raises(ConfigError):
        balance(imbalanced_blobs, BalancerConfig(method="vgan"), None, overrides)


@pytest.mark.parametrize("name, value", [("latent_dim", 4.0), ("critic_steps", 2.5)])
def test_gan_spec_document_rejects_a_fractional_count(name, value):
    # int() used to truncate these
    doc = small_spec("wgan").to_dict()
    doc[name] = value
    with pytest.raises(ConfigError, match=name):
        GanSpec.from_dict(doc)


def test_oversample_gan_balances_counts(imbalanced_blobs):
    cfg = BalancerConfig(method="vgan", seed=6)
    out = oversample_gan(imbalanced_blobs, cfg, spec=small_spec("vgan", epochs=60, seed=6))
    labels = out.labels
    assert int(np.sum(labels == 1)) == int(np.sum(labels == 0)) == 88
    synth = out.matrix()[imbalanced_blobs.n :]
    assert synth.min() >= 0.0 and synth.max() <= 1.0
    assert np.array_equal(out.values[: imbalanced_blobs.n], imbalanced_blobs.values)
