"""Every `from_dict`: a malformed document fails only with the parser's own
`FraudkitError` subclass, and every configuration, one-hot map and set of
norm params survives a JSON round trip. `PARSERS` names every public parser
of the package and every classifier and detector kind, and a test fails when
a new one is missing from it."""

import importlib
import inspect
import json
import pkgutil
from dataclasses import fields, replace
from types import MappingProxyType

import numpy as np
import pytest

import fraudkit
from fraudkit import classify, occ
from fraudkit.augment import Gan, GanSpec, default_gan_spec
from fraudkit.classify import ClassifierConfig, model_from_dict
from fraudkit.data import (
    Config, Dataset, Feature, FeatureSchema, Items, NormParams, OneHotMap, encode_one_hot, fit_normalize,
    numeric_schema,
)
from fraudkit.errors import ConfigError, DataError, FraudkitError, ModelError
from fraudkit.neural import LayerSpec, Network, NetworkSpec, TrainConfig, init_network, layer_stack
from fraudkit.occ import DetectorConfig, detector_from_dict, fit_detector
from fraudkit.resample import BalancerConfig
from fraudkit.tree import DecisionTree, Nodes


def _tree_doc() -> dict:
    return DecisionTree().fit([[0.0], [1.0], [2.0]], [0, 1, 1]).to_dict()


def _gan_doc() -> dict:
    spec = default_gan_spec("vgan", 2)
    return Gan(spec, init_network(spec.generator, 0), init_network(spec.discriminator, 1), [], []).to_dict()


_SCHEMA = numeric_schema(["a"]).to_dict()


def _model_doc(kind: str, parameters: dict | None = None) -> dict:
    """The document of a `kind` classifier fitted on 40 rows of 2 features."""
    x = np.random.default_rng(5).normal(size=(40, 2))
    y = (x[:, 0] + 0.3 * x[:, 1] > 0).astype(int)
    small = {"rf": {"estimators": 2}, "gbt": {"estimators": 2}, "mlp": {"epochs": 1}}
    return classify.fit_arrays(ClassifierConfig(kind, parameters or small.get(kind, {})), x, y).to_dict()


def _detector_doc(kind: str) -> dict:
    """The document of a `kind` detector fitted on 20 rows of 2 features."""
    x = np.random.default_rng(6).normal(size=(20, 2))
    small = {"iforest": {"n_estimators": 2, "max_samples": 8}, "abod": {"n_neighbours": 3}, "vae": {"epochs": 1}}
    return fit_detector(DetectorConfig(kind, small.get(kind, {})), x).to_dict()


def _with_state(doc: dict, **fields) -> dict:
    doc["state"].update(fields)
    return doc


# per kind, a document whose state holds one field of a wrong type
_WRONG_STATE = {
    "model.nb": lambda: _with_state(_model_doc("nb"), variances="1.0"),
    "model.lr": lambda: _with_state(_model_doc("lr"), weights={"a": 1}),
    "model.svm": lambda: _with_state(_model_doc("svm"), iterations="3"),
    "model.dt": lambda: _with_state(_model_doc("dt"), tree=[]),
    "model.rf": lambda: _with_state(_model_doc("rf"), trees=3),
    "model.gbt": lambda: _with_state(_model_doc("gbt"), learning_rate="0.1"),
    "model.mlp": lambda: _with_state(_model_doc("mlp"), network="net"),
    "detector.ocsvm": lambda: _with_state(_detector_doc("ocsvm"), kernel=3),
    "detector.iforest": lambda: _with_state(_detector_doc("iforest"), subsample_size="8"),
    "detector.copod": lambda: _with_state(_detector_doc("copod"), skews=[["x"]]),
    "detector.abod": lambda: _with_state(_detector_doc("abod"), n_neighbours=3.0),
    "detector.mcd": lambda: _with_state(_detector_doc("mcd"), mean="0"),
    "detector.vae": lambda: _with_state(_detector_doc("vae"), decoder=3),
}

# name -> (parser, the error it raises, a document with one field of a wrong type)
PARSERS = {
    "Config": (Config.from_dict, ConfigError, lambda: {"seed": 0}),  # the base of the config types: no field table
    "ClassifierConfig": (ClassifierConfig.from_dict, ConfigError, lambda: {"kind": "nb", "seed": "0"}),
    "DetectorConfig": (DetectorConfig.from_dict, ConfigError, lambda: {"kind": "copod", "contamination": "0.1"}),
    "BalancerConfig": (BalancerConfig.from_dict, ConfigError, lambda: {"k_neighbors": "5"}),
    "TrainConfig": (TrainConfig.from_dict, ConfigError, lambda: {"epochs": "3"}),
    "LayerSpec": (LayerSpec.from_dict, ConfigError, lambda: [1.5, "relu"]),
    "Items": (Items(LayerSpec).from_dict, ConfigError, lambda: [[2, "relu"], [1.5, "relu"]]),
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
    **{
        name: (model_from_dict if name.startswith("model") else detector_from_dict, ModelError, wrong)
        for name, wrong in _WRONG_STATE.items()
    },
}


def test_parsers_cover_every_public_parser_and_every_kind():
    # a class with a `from_dict` is named by its class name, a function
    # `<name>_from_dict` by <name>, a classifier or detector kind by
    # model.<kind> or detector.<kind>
    found = set()
    for info in pkgutil.iter_modules(fraudkit.__path__):
        module = importlib.import_module(f"fraudkit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj) and hasattr(obj, "from_dict"):
                found.add(name)
            elif inspect.isfunction(obj) and name.endswith("_from_dict"):
                found.add(name[: -len("_from_dict")])
    found |= {f"model.{kind}" for kind in classify.KINDS} | {f"detector.{kind}" for kind in occ.KINDS}
    assert found - set(PARSERS) == set()


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
    replace(default_gan_spec("wgan", 3, latent_dim=4), critic_steps=3),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
def test_config_round_trips_through_json(config):
    doc = json.loads(json.dumps(config.to_dict()))
    assert type(config).from_dict(doc) == config


@pytest.mark.parametrize(
    "make, kind, parameters", [(ClassifierConfig, "dt", {"maxdepth": 3}), (DetectorConfig, "iforest", {"max_samples": 8})]
)
def test_config_parameters_must_be_a_dict(make, kind, parameters):
    # `to_dict` copies a dict into the document, and would leave a mapping
    # proxy as is, which JSON cannot write
    make(kind, parameters)
    with pytest.raises(ConfigError, match="dict"):
        make(kind, MappingProxyType(parameters))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
def test_config_field_table_lists_the_dataclass_fields_in_order(config):
    # the table is what the constructor checks and what to_dict writes, in its order
    assert list(type(config)._FIELDS) == [f.name for f in fields(config)]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
def test_config_document_key_that_names_no_field_is_a_config_error(config):
    # NetworkSpec and GanSpec documents used to drop such a key
    with pytest.raises(ConfigError, match="no field"):
        type(config).from_dict({**config.to_dict(), "epoch": 3})


def test_config_and_model_documents_hold_a_copy_of_the_parameters():
    config = ClassifierConfig("lr", {"max_iter": 5})
    config.to_dict()["parameters"]["max_iter"] = 7
    model = classify.fit_arrays(config, np.eye(4), [0, 1, 0, 1])
    model.to_dict()["state"]["parameters"]["max_iter"] = 7  # this used to edit the model's own parameters
    assert config.parameters == model.parameters == {"max_iter": 5}


def test_gan_spec_document_without_critic_steps_takes_the_default():
    # a missing critic_steps used to fail, unlike a missing key of any other config document
    spec = default_gan_spec("wgan", 3)
    doc = spec.to_dict()
    del doc["critic_steps"]
    assert GanSpec.from_dict(doc) == spec


def _gan_spec_with(**changes):
    return lambda: replace(default_gan_spec("vgan", 2), **changes)


# each config given as constructor arguments holds a malformed nested config
NESTED_HOLES = {
    "layers-string": lambda: NetworkSpec(2, "ab", "binary_cross_entropy"),
    "layers-pairs": lambda: NetworkSpec(2, ((3, "relu"),), "mse"),
    "layers-list": lambda: NetworkSpec(2, [LayerSpec(1, "linear")], "mse"),
    "discriminator-dict": _gan_spec_with(discriminator={"a": 1}),
    "generator-layers": _gan_spec_with(generator=layer_stack([2], ["logistic"])),
    "train-dict": _gan_spec_with(train={"epochs": 1}),
}


@pytest.mark.parametrize("name", sorted(NESTED_HOLES))
def test_malformed_nested_config_argument_is_a_config_error(name):
    # "ab" and a dict discriminator raised AttributeError; the tuple of pairs,
    # the list and the dict train config were accepted, and the pairs then
    # failed in init_network
    with pytest.raises(ConfigError, match="must be a"):
        NESTED_HOLES[name]()


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


def _encoded() -> tuple[Dataset, OneHotMap]:
    schema = FeatureSchema([Feature("c", "categorical", ("x", "y")), Feature("a", "numeric")])
    return encode_one_hot(Dataset(schema, [("x", 1.0), ("y", 3.0)]))


# name -> (parser, the error it raises, a document it writes with a `format` tag)
TAGGED = {
    "FeatureSchema": (FeatureSchema.from_dict, DataError, lambda: _SCHEMA),
    "OneHotMap": (OneHotMap.from_dict, DataError, lambda: _encoded()[1].to_dict()),
    "NormParams": (NormParams.from_dict, DataError, lambda: fit_normalize(_encoded()[0]).to_dict()),
    "Nodes": (lambda doc: Nodes.from_dict(doc, 1), ModelError, _tree_doc),
    "DecisionTree": (DecisionTree.from_dict, ModelError, _tree_doc),
    "Network": (Network.from_dict, ModelError, lambda: _gan_doc()["generator"]),
    "Gan": (Gan.from_dict, ModelError, _gan_doc),
    "model": (model_from_dict, ModelError, lambda: _model_doc("nb")),
    "detector": (detector_from_dict, ModelError, lambda: _detector_doc("copod")),
}


@pytest.mark.parametrize("name", sorted(TAGGED))
def test_document_tagged_with_another_format_is_the_parsers_error(name):
    # the schema, one-hot map and norm params parsers used to ignore the tag
    parse, error, make = TAGGED[name]
    doc = make()
    parse(doc)
    with pytest.raises(error, match="format"):
        parse({**doc, "format": "fraudkit.detector/1" if name == "model" else "fraudkit.model/1"})


@pytest.mark.parametrize("name", ["FeatureSchema", "OneHotMap", "NormParams"])
def test_data_document_without_a_format_tag_loads(name):
    # documents of the data layer were read without their tag, so one that lacks it still loads
    parse, _, make = TAGGED[name]
    doc = {key: value for key, value in make().items() if key != "format"}
    assert parse(doc) == parse(make())


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


def _edit(make, edit):
    def document():
        doc = make()
        edit(doc)
        return doc

    return document


def _tree_of(doc: dict) -> dict:
    return doc["state"]["tree"]


# (parser, document, error): each of these documents used to load
HOLES = {
    "feature-names-string": (
        model_from_dict, _edit(lambda: _model_doc("nb"), lambda d: d.update(feature_names="ab")), ModelError
    ),
    "feature-names-integers": (
        model_from_dict, _edit(lambda: _model_doc("nb"), lambda d: d.update(feature_names=[1, 2])), ModelError
    ),
    "nb-string-means": (
        model_from_dict,
        _edit(lambda: _model_doc("nb"), lambda d: d["state"].update(means=[["0.1", "0.2"], ["0.3", "0.4"]])),
        ModelError,
    ),
    "lr-converged-string": (
        model_from_dict, _edit(lambda: _model_doc("lr"), lambda d: d["state"].update(converged="no")), ModelError
    ),
    "lr-iterations-fraction": (
        model_from_dict, _edit(lambda: _model_doc("lr"), lambda d: d["state"].update(iterations=2.7)), ModelError
    ),
    "lr-bias-bool": (
        model_from_dict, _edit(lambda: _model_doc("lr"), lambda d: d["state"].update(bias=True)), ModelError
    ),
    "lr-parameter-string": (
        model_from_dict,
        _edit(lambda: _model_doc("lr"), lambda d: d["state"].update(parameters={"max_iter": "x"})),
        ModelError,
    ),
    "lr-parameter-unknown": (
        model_from_dict,
        _edit(lambda: _model_doc("lr"), lambda d: d["state"].update(parameters={"maxdepth": 3})),
        ModelError,
    ),
    "dt-criterion": (
        model_from_dict, _edit(lambda: _model_doc("dt"), lambda d: _tree_of(d).update(criterion="bogus")), ModelError
    ),
    "dt-max-depth-string": (
        model_from_dict,
        _edit(lambda: _model_doc("dt", {"maxdepth": 3}), lambda d: _tree_of(d).update(max_depth="deep")),
        ModelError,
    ),
    "dt-tree-wider-than-the-model": (
        model_from_dict, _edit(lambda: _model_doc("dt"), lambda d: _tree_of(d).update(n_features=5)), ModelError
    ),
    "tree-n-features-bool": (
        DecisionTree.from_dict, _edit(_tree_doc, lambda d: d.update(n_features=True)), ModelError
    ),
    "gbt-loss": (
        model_from_dict, _edit(lambda: _model_doc("gbt"), lambda d: d["state"].update(loss="bogus")), ModelError
    ),
    "tree-child-fraction": (
        DecisionTree.from_dict, _edit(_tree_doc, lambda d: d["left"].__setitem__(0, d["left"][0] + 0.7)), ModelError
    ),
    "mcd-raw-log-det-string": (
        detector_from_dict,
        _edit(lambda: _detector_doc("mcd"), lambda d: d["state"].update(raw_log_det="1.5")),
        ModelError,
    ),
    "mcd-support-indices-mixed": (
        detector_from_dict,
        _edit(lambda: _detector_doc("mcd"), lambda d: d["state"].update(support_indices=["1", 2.9])),
        ModelError,
    ),
    "detector-threshold-string": (
        detector_from_dict, _edit(lambda: _detector_doc("copod"), lambda d: d.update(threshold="0.5")), ModelError
    ),
    "rf-no-trees": (
        model_from_dict, _edit(lambda: _model_doc("rf"), lambda d: d["state"].update(trees=[])), ModelError
    ),
    "iforest-no-trees": (
        detector_from_dict, _edit(lambda: _detector_doc("iforest"), lambda d: d["state"].update(trees=[])), ModelError
    ),
    "copod-unsorted-column": (
        detector_from_dict,
        _edit(lambda: _detector_doc("copod"), lambda d: d["state"]["sorted_columns"][0].reverse()),
        ModelError,
    ),
    "norm-bound-types": (NormParams.from_dict, lambda: {"bounds": [[3, "0.5", "1"]]}, DataError),
    "onehot-span-fractions": (
        OneHotMap.from_dict, lambda: {"source": _SCHEMA, "encoded": _SCHEMA, "spans": [[0.2, 1.7]]}, DataError
    ),
    "onehot-spans-misfit": (
        OneHotMap.from_dict, lambda: {"source": _SCHEMA, "encoded": _SCHEMA, "spans": [[0, 2]]}, DataError
    ),
}


@pytest.mark.parametrize("name", sorted(HOLES))
def test_document_that_used_to_load_is_the_parsers_error(name):
    # int(), float(), bool(), list() and str() used to convert these, a tree
    # wider than its model failed only when it scored, a forest of no trees
    # scored NaN, and copod's tail counts assume sorted columns
    parse, doc, error = HOLES[name]
    with pytest.raises(error):
        parse(doc())


def test_documents_without_optional_state_fields_load_with_the_defaults():
    lr = _model_doc("lr")
    for name in ("iterations", "converged", "parameters"):
        del lr["state"][name]
    model = model_from_dict(lr)
    assert (model.iterations, model.converged, model.parameters) == (0, False, {})
    mcd = _detector_doc("mcd")
    del mcd["state"]["support_indices"], mcd["state"]["raw_log_det"]
    detector = detector_from_dict(mcd)
    assert (detector.support_indices, detector.raw_log_det) == ((), 0.0)
