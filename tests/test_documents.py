"""Every `from_dict`: a malformed document fails only with the parser's own
`FraudkitError` subclass, and every configuration, one-hot map and set of
norm params survives a JSON round trip."""

import json
from types import MappingProxyType

import numpy as np
import pytest

from fraudkit.augment import Gan, GanSpec, default_gan_spec
from fraudkit.classify import ClassifierConfig, model_from_dict
from fraudkit.data import Dataset, FeatureSchema, NormParams, OneHotMap, encode_one_hot, fit_normalize, numeric_schema
from fraudkit.errors import ConfigError, DataError, FraudkitError, ModelError
from fraudkit.neural import Network, NetworkSpec, TrainConfig, init_network, layer_stack
from fraudkit.occ import DetectorConfig, detector_from_dict, fit_detector
from fraudkit.resample import BalancerConfig
from fraudkit.tree import DecisionTree, Nodes


def _tree_doc() -> dict:
    return DecisionTree().fit([[0.0], [1.0], [2.0]], [0, 1, 1]).to_dict()


def _gan_doc() -> dict:
    spec = default_gan_spec("vgan", 2)
    return Gan(spec, init_network(spec.generator, 0), init_network(spec.discriminator, 1), [], []).to_dict()


_SCHEMA = numeric_schema(["a"]).to_dict()

# name -> (parser, the error it raises, a document with one field of a wrong type)
PARSERS = {
    "ClassifierConfig": (ClassifierConfig.from_dict, ConfigError, lambda: {"kind": "nb", "seed": "0"}),
    "DetectorConfig": (DetectorConfig.from_dict, ConfigError, lambda: {"kind": "copod", "contamination": "0.1"}),
    "BalancerConfig": (BalancerConfig.from_dict, ConfigError, lambda: {"k_neighbors": "5"}),
    "TrainConfig": (TrainConfig.from_dict, ConfigError, lambda: {"epochs": "3"}),
    "NetworkSpec": (NetworkSpec.from_dict, ConfigError, lambda: {"input_dim": 3, "layers": [[2]], "loss": "mse"}),
    "GanSpec": (GanSpec.from_dict, ConfigError, lambda: {**default_gan_spec("wgan", 2).to_dict(), "latent_dim": "8"}),
    "FeatureSchema": (FeatureSchema.from_dict, DataError, lambda: {"features": [{"name": "a", "kind": 1}]}),
    "OneHotMap": (
        OneHotMap.from_dict, DataError, lambda: {"source": _SCHEMA, "encoded": _SCHEMA, "spans": [["start", 1]]}
    ),
    "NormParams": (NormParams.from_dict, DataError, lambda: {"bounds": [["a", "low", 1.0]]}),
    "Nodes": (lambda doc: Nodes.from_dict(doc, 1), ModelError, lambda: {**_tree_doc(), "threshold": ["x"]}),
    "DecisionTree": (DecisionTree.from_dict, ModelError, lambda: {**_tree_doc(), "n_features": "1"}),
    "Network": (Network.from_dict, ModelError, lambda: {**_gan_doc()["generator"], "weights": 3}),
    "Gan": (Gan.from_dict, ModelError, lambda: {**_gan_doc(), "generator": []}),
    "model": (model_from_dict, ModelError, lambda: {"format": "fraudkit.model/1", "kind": "nb", "state": 3}),
    "detector": (detector_from_dict, ModelError, lambda: {"format": "fraudkit.detector/1", "kind": ["iforest"]}),
}


@pytest.mark.parametrize("doc", [None, [], "wrong-typed field"])
@pytest.mark.parametrize("name", sorted(PARSERS))
def test_malformed_document_is_the_parsers_error(name, doc):
    parse, error, wrong = PARSERS[name]
    with pytest.raises(error):
        parse(wrong() if doc == "wrong-typed field" else doc)


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_empty_document_parses_or_is_the_parsers_error(name):
    # BalancerConfig and TrainConfig have a default for every field
    parse, error, _ = PARSERS[name]
    try:
        parse({})
    except FraudkitError as exc:
        assert isinstance(exc, error)


@pytest.mark.parametrize(
    "parse, doc",
    [
        (NetworkSpec.from_dict, {"input_dim": 3}),
        (FeatureSchema.from_dict, {"features": [{}]}),
        (OneHotMap.from_dict, {"source": _SCHEMA}),
        (NormParams.from_dict, {"format": "fraudkit.norm/1"}),
    ],
    ids=["network-spec-no-layers", "schema-empty-feature", "onehot-no-encoded", "norm-no-bounds"],
)
def test_document_missing_a_key_is_a_fraudkit_error(parse, doc):
    with pytest.raises(FraudkitError):
        parse(doc)


# LayerSpec, the seventh config type, travels inside NetworkSpec and GanSpec
# documents. Every field is off its default, so a dropped field shows.
CONFIGS = [
    ClassifierConfig("rf", {"estimators": 5, "maxdepth": 3}, seed=2),
    DetectorConfig("iforest", {"n_estimators": 5}, contamination=0.1, seed=4),
    BalancerConfig("smote_enn", k_neighbors=3, target_ratio=0.5, enn_k=2, seed=1),
    TrainConfig("sgd", 0.05, 3, 16, 7, weight_clip=0.01),
    NetworkSpec(4, layer_stack([3, 1], ["tanh", "logistic"]), "binary_cross_entropy", 0.1),
    default_gan_spec("wgan", 3, latent_dim=4),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
def test_config_round_trips_through_json(config):
    doc = json.loads(json.dumps(config.to_dict()))
    assert type(config).from_dict(doc) == config


@pytest.mark.parametrize(
    "make, kind, parameters", [(ClassifierConfig, "dt", {"maxdepth": 3}), (DetectorConfig, "iforest", {"max_samples": 8})]
)
def test_config_parameters_must_be_a_dict(make, kind, parameters):
    # `to_dict` copies them with `dataclasses.asdict`, which cannot copy a mapping proxy
    make(kind, parameters)
    with pytest.raises(ConfigError, match="dict"):
        make(kind, MappingProxyType(parameters))


def test_one_hot_map_and_norm_params_round_trip_through_json(mixed_schema):
    data = Dataset(mixed_schema, [("red", 1.0, 2.0), ("blue", 50.0, 23.5), ("red", 7.0, 0.0)], [0, 1, 0])
    encoded, mapping = encode_one_hot(data)
    params = fit_normalize(encoded)
    assert OneHotMap.from_dict(json.loads(json.dumps(mapping.to_dict()))) == mapping
    assert NormParams.from_dict(json.loads(json.dumps(params.to_dict()))) == params
    assert np.array_equal(encoded.values[:, :2], [[1, 0], [0, 1], [1, 0]])


def test_schema_documents_with_retired_fields_still_load():
    doc = {"features": [{"name": "a", "kind": "numeric", "mutable": False, "range": [0.0, 1.0]}]}
    assert FeatureSchema.from_dict(doc) == numeric_schema(["a"])


@pytest.mark.parametrize(
    "feature",
    [{"name": 3, "kind": "numeric"}, {"name": "x", "kind": "categorical", "categories": "abc"}],
    ids=["integer-name", "string-categories"],
)
def test_schema_field_of_a_wrong_type_is_a_data_error(feature):
    # the integer name used to load as 3, and "abc" as the categories ('a', 'b', 'c')
    with pytest.raises(DataError):
        FeatureSchema.from_dict({"features": [feature]})


def _gan_with_bad_latent_dim() -> dict:
    doc = _gan_doc()
    doc["spec"]["latent_dim"] = "x"
    return doc


def _vae_with_unknown_encoder_loss() -> dict:
    x = np.random.default_rng(0).uniform(size=(20, 3))
    doc = fit_detector(DetectorConfig("vae", {"epochs": 1}), x).to_dict()
    doc["state"]["encoder"]["spec"]["loss"] = "nope"
    return doc


@pytest.mark.parametrize(
    "parse, doc",
    [(Gan.from_dict, _gan_with_bad_latent_dim), (detector_from_dict, _vae_with_unknown_encoder_loss)],
    ids=["gan-latent-dim", "vae-encoder-loss"],
)
def test_malformed_nested_spec_is_the_outer_documents_error(parse, doc):
    # the nested spec's parser raises ConfigError, which used to escape as is
    with pytest.raises(ModelError):
        parse(doc())
