"""YAML config parsing: round trips, defaults, and strict key checking."""

import json
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import fields, is_dataclass, replace
from typing import Union, get_args, get_origin, get_type_hints

import pytest
import yaml

import pctlab
from oracles import loads_config
from pctlab import reports
from pctlab.config import (ConfigError, SweepLists, apply_overrides,
                           experiment_from_document, load_document,
                           sweep_lists_from_document)
from pctlab.datasets import DegenerateSpecError, SyntheticSpec
from pctlab.harness import ExperimentConfig, run_experiment
from pctlab.losses import DistanceSpec, FilterSpec, PCLossConfig
from pctlab.nn import TrainConfig
from pctlab.scenarios import (DataFilter, ModelSpec, ScenarioKind,
                              UpdateScenario, reference_scenario)
from pctlab.tables import as_record


def test_empty_document_yields_defaults():
    assert experiment_from_document({}) == ExperimentConfig()
    assert experiment_from_document(None) == ExperimentConfig()


def _sample_configs():
    return [
        ExperimentConfig(),
        ExperimentConfig(
            dataset=SyntheticSpec(num_classes=6, input_dim=4,
                                  samples_per_class=50, seed=2),
            scenario=reference_scenario(ScenarioKind.CLASS_GROWTH, 6),
            train=TrainConfig(epochs=5, batch_size=16, learning_rate=0.01),
            method="fd_kl",
            pc=PCLossConfig(lam=0.5, filter=FilterSpec(2.0, 3.0),
                            distance=DistanceSpec("kl", tau=10.0)),
            repetitions=3,
        ),
        ExperimentConfig(
            scenario=UpdateScenario(ScenarioKind.TWO_CHANGES,
                                    ModelSpec((16,)), ModelSpec((32, 32)),
                                    old_data=DataFilter(sample_fraction=0.25,
                                                        subset_seed=9)),
            method="ensemble",
            ensemble_size=4,
            output_dir="somewhere",
        ),
    ]


@pytest.mark.parametrize("config", _sample_configs())
def test_document_round_trip_is_identity(config):
    doc = as_record(config)
    assert experiment_from_document(doc) == config
    # and through YAML text as well
    assert loads_config(yaml.safe_dump(as_record(config))) == config


def test_yaml_aliases_k_and_lambda():
    cfg = loads_config(textwrap.dedent("""
        dataset: {k: 5, input_dim: 7}
        method: fd_lm
        pc: {lambda: 0.5, alpha: 2, beta: 8, tau: 50}
        train: {epochs: 3}
    """))
    assert cfg.dataset.num_classes == 5
    assert cfg.dataset.input_dim == 7
    assert cfg.pc.lam == 0.5
    assert cfg.pc.filter == FilterSpec(2.0, 8.0)
    assert cfg.pc.distance.tau == 50.0
    assert cfg.train.epochs == 3


def test_bare_scenario_kind_selects_reference_pairing():
    cfg = loads_config("dataset: {k: 6}\nscenario: {kind: two_changes}\n")
    assert cfg.scenario == reference_scenario(ScenarioKind.TWO_CHANGES, 6)


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_kind_only_scenario_reads_alike_in_config_and_artifacts(kind):
    """A scenario block of only a ``kind`` is the reference pairing for the
    dataset's class count in a config file and in ``artifacts.json``."""
    stored = os.path.join(os.path.dirname(__file__), "data", "artifacts.json")
    with open(stored, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["config"]["scenario"] = {"kind": kind.value}
    want = reference_scenario(kind, doc["config"]["dataset"]["k"])
    assert experiment_from_document(doc["config"]).scenario == want
    assert reports.result_from_document(doc).config.scenario == want


def test_explicit_scenario_block_overrides_reference():
    cfg = loads_config(textwrap.dedent("""
        scenario:
          kind: arch_change
          old_model: {hidden_dims: [8]}
          new_model: {hidden_dims: [16, 16]}
    """))
    assert cfg.scenario.old_model == ModelSpec((8,))
    assert cfg.scenario.new_model == ModelSpec((16, 16))
    assert cfg.scenario.old_data == DataFilter()


def test_unknown_keys_fail_loudly():
    with pytest.raises(ConfigError, match="learning_rte"):
        loads_config("train: {learning_rte: 0.1}")
    with pytest.raises(ConfigError, match="mehtod"):
        loads_config("mehtod: naive")
    with pytest.raises(ConfigError, match="scenario"):
        loads_config("scenario: {kind: fine_tune, colour: blue}")
    with pytest.raises(ConfigError, match="kind"):
        loads_config("scenario: {init_from_old: true}")


_ALLOWED = {
    "config": "['dataset', 'ensemble_size', 'ensemble_sizes', 'focal_grid', "
              "'method', 'methods', 'output_dir', 'pc', 'repetitions', "
              "'scenario', 'train']",
    "dataset": "['class_center_scale', 'cluster_spread', 'input_dim', 'k', "
               "'label_noise', 'samples_per_class', 'seed']",
    "scenario": "['init_from_old', 'kind', 'new_data', 'new_model', "
                "'old_data', 'old_model']",
    "scenario.old_model": "['activation', 'hidden_dims']",
    "scenario.new_data": "['class_subset', 'sample_fraction', 'subset_seed']",
    "train": "['batch_size', 'epochs', 'learning_rate', 'lr_decay_every', "
             "'lr_decay_factor', 'momentum', 'seed', 'weight_init']",
    "pc": "['alpha', 'beta', 'distance', 'lambda', 'tau']",
}


@pytest.mark.parametrize("where,text", [
    ("config", "colour: blue"),
    ("dataset", "dataset: {colour: blue}"),
    ("scenario", "scenario: {kind: arch_change, colour: blue}"),
    ("scenario.old_model",
     "scenario: {kind: arch_change, old_model: {colour: blue}}"),
    ("scenario.new_data",
     "scenario: {kind: arch_change, new_data: {colour: blue}}"),
    ("train", "train: {colour: blue}"),
    ("pc", "pc: {colour: blue}"),
])
def test_unknown_key_message_names_its_block(where, text):
    with pytest.raises(ConfigError) as exc:
        loads_config(text)
    assert str(exc.value) == (f"unknown key(s) ['colour'] in {where}; "
                              f"allowed: {_ALLOWED[where]}")


def test_pc_mode_is_not_a_key():
    # the method sets the mode; a document cannot
    with pytest.raises(ConfigError, match=re.escape("['mode'] in pc")):
        loads_config("pc: {mode: focal}")
    assert "mode" not in as_record(ExperimentConfig())["pc"]


def _field_paths(cls, prefix=""):
    for f in fields(cls):
        tp = get_type_hints(cls)[f.name]
        if is_dataclass(tp):
            yield from _field_paths(tp, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def _key_paths(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _key_paths(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_document_has_a_key_for_every_field():
    """Every field reachable from ExperimentConfig is written, in field
    order, under its own name except for the three documented spellings;
    only pc.mode has no key."""
    spelled = {"dataset.num_classes": "dataset.k", "pc.lam": "pc.lambda",
               "pc.filter.alpha": "pc.alpha", "pc.filter.beta": "pc.beta",
               "pc.distance.kind": "pc.distance", "pc.distance.tau": "pc.tau"}
    expected = [spelled.get(p, p) for p in _field_paths(ExperimentConfig)
                if p != "pc.mode"]
    doc = as_record(ExperimentConfig())
    assert list(_key_paths(doc)) == expected


def test_values_are_coerced_by_field_type():
    cfg = loads_config(textwrap.dedent("""
        dataset: {cluster_spread: 2}
        train: {learning_rate: 1, epochs: 2.0}
        pc: {lambda: 1, tau: 3}
        scenario: {kind: class_growth, old_data: {class_subset: [0, 1.0]}}
        output_dir: out
    """))
    assert cfg.dataset.cluster_spread == 2.0
    assert isinstance(cfg.dataset.cluster_spread, float)
    assert isinstance(cfg.train.epochs, int)
    assert cfg.scenario.old_data.class_subset == (0, 1)
    assert cfg.scenario.kind is ScenarioKind.CLASS_GROWTH
    assert cfg.output_dir == "out"
    for bad in ("5", "[a]", "{a: 1}", "true"):
        with pytest.raises(ConfigError, match="output_dir must be a string"):
            loads_config(f"output_dir: {bad}")
    text = yaml.safe_dump(as_record(cfg))
    for line in ("cluster_spread: 2.0", "learning_rate: 1.0", "lambda: 1.0",
                 "tau: 3.0", "epochs: 2\n"):
        assert line in text


@pytest.mark.parametrize("text, key", [
    ("train: {epochs: 3.7}", "train.epochs"),
    ("train: {batch_size: true}", "train.batch_size"),
    ("repetitions: 2.5", "repetitions"),
    ("dataset: {k: 6.9}", "dataset.k"),
    ("scenario: {kind: same_arch_retrain, init_from_old: 'no'}",
     "scenario.init_from_old"),
    ("scenario: {kind: same_arch_retrain, init_from_old: 1}",
     "scenario.init_from_old"),
    ("dataset: {cluster_spread: true}", "dataset.cluster_spread"),
    ("scenario: {kind: class_growth, old_data: {class_subset: [0, 1.5]}}",
     "scenario.old_data.class_subset"),
])
def test_values_that_would_be_truncated_or_misread_are_rejected(text, key):
    # int(3.7) is 3, int(True) is 1 and bool("no") is True
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be "):
        loads_config(text)


@pytest.mark.parametrize("text, key", [
    ("train: {learning_rate: .inf}", "train.learning_rate"),
    ("train: {learning_rate: nan}", "train.learning_rate"),
    ("pc: {alpha: .nan}", "pc.alpha"),
    ("dataset: {cluster_spread: -.inf}", "dataset.cluster_spread"),
    ("dataset: {k: abc}", "dataset.k"),
    ("train: {epochs: 1e3}", "train.epochs"),
    ("pc: {beta: twenty}", "pc.beta"),
])
def test_non_finite_and_unparsable_numbers_are_rejected(text, key):
    # each of these used to load and train toward a diverged model, or
    # raise a bare ValueError that did not name the key
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be "):
        loads_config(text)


@pytest.mark.parametrize("make, name", [
    (lambda v: TrainConfig(learning_rate=v), "learning_rate"),
    (lambda v: TrainConfig(momentum=v), "momentum"),
    (lambda v: PCLossConfig(lam=v), "lam"),
    (lambda v: FilterSpec(alpha=v), "alpha"),
    (lambda v: FilterSpec(beta=v), "beta"),
    (lambda v: DistanceSpec(tau=v), "tau"),
    (lambda v: SyntheticSpec(cluster_spread=v), "cluster_spread"),
    (lambda v: SyntheticSpec(class_center_scale=v), "class_center_scale"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_the_python_api_rejects_non_finite_numbers(make, name, value):
    # a nan learning rate trained nan weights, and the new side was scored
    # as a model that predicts class 0
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        make(value)


@pytest.mark.parametrize("make, name, value", [
    (lambda v: TrainConfig(seed=v), "seed", 0.5),
    (lambda v: TrainConfig(epochs=v), "epochs", True),
    (lambda v: TrainConfig(batch_size=v), "batch_size", 2.5),
    (lambda v: TrainConfig(lr_decay_every=v), "lr_decay_every", 2.0),
    (lambda v: SyntheticSpec(seed=v), "seed", 7.5),
    (lambda v: SyntheticSpec(num_classes=v), "num_classes", 4.0),
    (lambda v: ExperimentConfig(repetitions=v), "repetitions", 1.5),
    (lambda v: ExperimentConfig(ensemble_size=v), "ensemble_size", True),
    (lambda v: DataFilter(subset_seed=v), "subset_seed", 0.5),
])
def test_the_python_api_rejects_non_integers_in_integer_fields(make, name,
                                                               value):
    # seed=0.5 trained as seed 0 but recorded seed 1000.5, and
    # batch_size=2.5 or repetitions=1.5 failed later, inside training
    with pytest.raises(ValueError, match=f"^{name} must be int, got "):
        make(value)


@pytest.mark.parametrize("base, name, value, message", [
    (TrainConfig(), "learning_rate", True,
     "learning_rate must be float, got True"),
    (TrainConfig(), "epochs", 2.0, "epochs must be int, got 2.0"),
    (TrainConfig(), "learning_rate", float("nan"),
     "learning_rate must be finite, got nan"),
    (TrainConfig(), "learning_rate", float("inf"),
     "learning_rate must be finite, got inf"),
    (reference_scenario(ScenarioKind.ARCH_CHANGE), "kind", "retrain",
     f"kind must be one of {[k.value for k in ScenarioKind]}, got 'retrain'"),
], ids=["bool-in-float", "float-in-int", "nan", "inf", "unknown-kind"])
def test_values_a_field_type_rejects_stay_rejected(base, name, value, message):
    # every other field of the rebuilt instance has its field's exact type,
    # which check_value passes at once; the rule must still reach this one
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(base, **{name: value})


def _leaves(obj, path=(), keys=()):
    """``(holder, name, key path)`` of each field that is not a dataclass,
    reached from dataclass instance ``obj``: the instance that holds it, its
    name, and its document keys (None when it has no key). It reads each
    key from the field's metadata itself, not from ``tables.layout``, so it
    checks the codec instead of sharing its walk."""
    for f in fields(obj):
        value, key = getattr(obj, f.name), f.metadata.get("key", f.name)
        if is_dataclass(value):
            inner = keys if f.metadata.get("flat") else keys + (key,)
            yield from _leaves(value, path + (f.name,), inner)
        else:
            yield obj, f.name, None if key is None else keys + (key,)


def _wrong_value(tp):
    """A value of the wrong kind for type hint ``tp``: a bool for a number,
    0 for a bool, 2.5 for an int, a bare string for a list and 5 for a
    string or an enum."""
    if get_origin(tp) is Union:  # Optional[T]
        tp = get_args(tp)[0]
    if get_origin(tp) is tuple:
        return "abc"
    return {float: True, bool: 0, int: 2.5}.get(tp, 5)


_ROOTS = {ExperimentConfig: experiment_from_document,
          SweepLists: sweep_lists_from_document}
_LEAVES = [(root, holder, name, keys,
            _wrong_value(get_type_hints(type(holder))[name]))
           for root in _ROOTS for holder, name, keys in _leaves(root())]


def test_every_kind_of_field_is_walked():
    assert {repr(leaf[-1]) for leaf in _LEAVES} == {"True", "0", "2.5",
                                                     "'abc'", "5"}
    assert sum(keys is None for _, _, _, keys, _ in _LEAVES) == 1  # pc.mode


@pytest.mark.parametrize(
    "root, holder, name, keys, value", _LEAVES,
    ids=[".".join(k or ("pc", "mode")) for _, _, _, k, _ in _LEAVES])
def test_constructor_and_document_reject_a_value_of_the_wrong_kind_alike(
        root, holder, name, keys, value):
    """Every field of every config dataclass follows one value rule:
    built in Python or read from a document, a value of the wrong kind is
    rejected with the same words after the field's name (the constructor)
    or dotted key (the codec)."""
    with pytest.raises(ValueError, match=f"^{name} must be ") as built:
        replace(holder, **{name: value})
    if keys is None:  # pc.mode: set by the method, never read
        return
    doc = as_record(root())
    block = doc
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    dotted = ".".join(keys)
    with pytest.raises(ConfigError, match=f"^{re.escape(dotted)} must be ") as read:
        _ROOTS[root](doc)
    assert str(read.value)[len(dotted):] == str(built.value)[len(name):]


def test_an_int_in_a_float_field_writes_what_it_reads_back(tmp_path):
    """A run with ``learning_rate=1`` stores 1.0, so the ``artifacts.json``
    that ``report`` re-emits from it has the same bytes; a bool is no
    learning rate and fails when the config is built."""
    config = ExperimentConfig(
        dataset=SyntheticSpec(num_classes=3, input_dim=4, samples_per_class=20,
                              seed=1),
        train=TrainConfig(epochs=1, batch_size=16, learning_rate=1),
        method="fd_lm")
    assert type(config.train.learning_rate) is float
    reports.write_experiment(run_experiment(config), str(tmp_path / "a"))
    written = (tmp_path / "a" / "artifacts.json").read_bytes()
    reloaded = reports.load_result(str(tmp_path / "a" / "artifacts.json"))
    reports.write_experiment(reloaded, str(tmp_path / "b"))
    assert (tmp_path / "b" / "artifacts.json").read_bytes() == written
    with pytest.raises(ValueError, match="^learning_rate must be float, got True$"):
        TrainConfig(learning_rate=True)


def test_numbers_that_yaml_reads_as_strings_still_load():
    # YAML 1.1 floats need a dot in the mantissa, so 1e-3 is a string
    assert loads_config("train: {learning_rate: 1e-3}").train.learning_rate == 1e-3
    assert loads_config("train: {epochs: '3'}").train.epochs == 3


@pytest.mark.parametrize("text, key", [
    ("scenario: {kind: arch_change, new_model: {hidden_dims: '64'}}",
     "scenario.new_model.hidden_dims"),
    ("scenario: {kind: class_growth, old_data: {class_subset: '01'}}",
     "scenario.old_data.class_subset"),
    ("scenario: {kind: arch_change, new_model: {hidden_dims: 64}}",
     "scenario.new_model.hidden_dims"),
    ("scenario: {kind: class_growth, old_data: {class_subset: 3}}",
     "scenario.old_data.class_subset"),
])
def test_list_fields_take_only_lists(text, key):
    # '64' used to load as (6, 4), '01' as (0, 1), and 64 or 3 raised a
    # bare TypeError that named no key
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be a list, got "):
        loads_config(text)


@pytest.mark.parametrize("method, other", [("fd_lm", "kl"),
                                           ("fd_kl", "logit_match")])
def test_focal_methods_reject_another_distance(method, other):
    # the method picks the distance; naming the other one used to be
    # overridden silently
    with pytest.raises(ConfigError, match="^pc.distance must be "):
        loads_config(f"method: {method}\npc: {{distance: {other}}}")
    own = "kl" if other == "logit_match" else "logit_match"
    cfg = loads_config(f"method: {method}\npc: {{distance: {own}, tau: 5}}")
    assert (cfg.pc.distance.kind, cfg.pc.distance.tau) == (own, 5.0)


@pytest.mark.parametrize("method", ["no_treatment", "naive", "ensemble"])
def test_non_focal_methods_keep_any_distance(method):
    # their artifacts.json carries the key, so every written file loads
    for kind in ("kl", "logit_match"):
        cfg = loads_config(f"method: {method}\npc: {{distance: {kind}}}")
        assert cfg.pc.distance.kind == kind


def test_dataset_errors_are_not_wrapped():
    # a bad dataset block raises its own error, not ConfigError; a value
    # that is not a number is the codec's error and names its key
    with pytest.raises(DegenerateSpecError):
        loads_config("dataset: {k: 1}")
    with pytest.raises(ConfigError, match="^dataset.k must be int, got 'abc'"):
        loads_config("dataset: {k: abc}")
    with pytest.raises(ConfigError, match="scenario.old_data must be a mapping"):
        loads_config("scenario: {kind: arch_change, old_data: 3}")


def test_readme_yaml_blocks_parse():
    """Every yaml block of the README is a valid config document."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        blocks = re.findall(r"```yaml\n(.*?)```", fh.read(), re.S)
    assert blocks
    for block in blocks:
        loads_config(block)


def test_invalid_values_surface_as_config_errors():
    with pytest.raises(ConfigError, match="unknown method"):
        loads_config("method: bct")
    with pytest.raises(ConfigError):
        loads_config("train: {momentum: 1.5}")
    with pytest.raises(ConfigError):
        loads_config("repetitions: 0")
    with pytest.raises(ConfigError, match="repetitions"):
        loads_config("repetitions: 99001")
    # a zero init trains a constant classifier that scores NFR 0
    with pytest.raises(ConfigError, match="^train: weight_init must be "
                                          "'glorot_uniform', got 'zeros'$"):
        loads_config("train: {weight_init: zeros}")


def test_activation_other_than_relu_is_rejected():
    # every hidden layer trains as relu, so another name would be ignored
    assert ModelSpec(activation="relu").activation == "relu"
    for act in ("identity", "tanh"):
        with pytest.raises(ValueError, match="activation"):
            ModelSpec(activation=act)
        with pytest.raises(ConfigError, match="activation"):
            loads_config("scenario: {kind: arch_change, "
                         f"new_model: {{activation: {act}}}}}")


def test_sweep_lists_defaults():
    lists = sweep_lists_from_document({})
    assert lists == sweep_lists_from_document(None) == SweepLists()
    assert lists.focal_grid == ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (1.0, 2.0),
                                (1.0, 5.0), (1.0, 10.0), (1.0, 20.0))
    assert lists.ensemble_sizes == (1, 2, 4, 8, 16)
    assert lists.methods == pctlab.METHODS
    assert pctlab.METHODS == ("no_treatment", "naive", "fd_kl", "fd_lm",
                              "ensemble")


def test_sweep_lists_parse_and_validate():
    doc = {"focal_grid": [[1, 5], [0, 0]], "ensemble_sizes": [1, 3],
           "methods": ["naive"]}
    lists = sweep_lists_from_document(doc)
    assert lists.focal_grid == ((1.0, 5.0), (0.0, 0.0))
    assert all(type(v) is float for pair in lists.focal_grid for v in pair)
    assert lists.ensemble_sizes == (1, 3)
    assert lists.methods == ("naive",)
    # an entry follows the rules of a block key of its type: 2.0 and "3"
    # are integers, as epochs: 2.0 and epochs: '3' are
    sizes = sweep_lists_from_document({"ensemble_sizes": [2.0, "3"]})
    assert [(type(s), s) for s in sizes.ensemble_sizes] == [(int, 2), (int, 3)]
    for grid in ([[1, 2, 3]], [[True, "2"]], [["abc", 1]], [[1, None]], [1, 2],
                 "abc", 5):
        with pytest.raises(ConfigError, match="^focal_grid must be "):
            sweep_lists_from_document({"focal_grid": grid})
    for methods in ("naive", [1, None], ["naive", 2], {"naive": 1}):
        with pytest.raises(ConfigError, match="^methods must be "):
            sweep_lists_from_document({"methods": methods})
    for sizes in ([1, 2.9, True], [1, 2.9], [True], ["2.5"], 5):
        with pytest.raises(ConfigError, match="^ensemble_sizes must be "):
            sweep_lists_from_document({"ensemble_sizes": sizes})


_NUMBERS = ["2.0", "'3'", "1e-3", "2.9", "true", "null", "[1]", ".inf"]


@pytest.mark.parametrize("value", _NUMBERS)
@pytest.mark.parametrize("block, read_block, entry, read_entry, loads", [
    ("train: {{epochs: {}}}", lambda c: c.train.epochs,
     "ensemble_sizes: [{}]", lambda s: s.ensemble_sizes[0],
     {"2.0": 2, "'3'": 3}),
    ("pc: {{alpha: {}}}", lambda c: c.pc.filter.alpha,
     "focal_grid: [[{}, 5]]", lambda s: s.focal_grid[0][0],
     {"2.0": 2.0, "'3'": 3.0, "1e-3": 1e-3, "2.9": 2.9}),
], ids=["int", "float"])
def test_one_number_rule_for_block_keys_and_sweep_entries(
        block, read_block, entry, read_entry, loads, value):
    """A number is read by one rule, whether it is a block key or an entry
    of a sweep list: the same values load, as the same type and value, and
    the rest are ConfigErrors."""
    def outcome(load):
        try:
            v = load()
        except ConfigError:
            return "rejected"
        return type(v), v

    in_block = outcome(lambda: read_block(loads_config(block.format(value))))
    in_list = outcome(lambda: read_entry(sweep_lists_from_document(
        yaml.safe_load(entry.format(value)))))
    expected = (type(loads[value]), loads[value]) if value in loads \
        else "rejected"
    assert in_block == in_list == expected


@pytest.mark.parametrize("text, message", [
    ("train: {learning_rate: null}",
     "train.learning_rate must be float, got None"),
    ("dataset: {k: [3]}", "dataset.k must be int, got [3]"),
    ("train: {epochs: {a: 1}}", "train.epochs must be int, got {'a': 1}"),
    ("pc: {distance: [kl]}", "pc.distance must be a string, got ['kl']"),
    ("method: 5", "method must be a string, got 5"),
    ("scenario: {kind: bogus}",
     "scenario.kind must be one of ['same_arch_retrain', 'arch_change', "
     "'sample_growth', 'class_growth', 'two_changes', 'fine_tune'], "
     "got 'bogus'"),
    ("scenario: {kind: bogus, init_from_old: false}",
     "scenario.kind must be one of ['same_arch_retrain', 'arch_change', "
     "'sample_growth', 'class_growth', 'two_changes', 'fine_tune'], "
     "got 'bogus'"),
], ids=["null-float", "list-int", "mapping-int", "list-string", "int-string",
        "bare-kind", "kind-in-block"])
def test_a_value_of_the_wrong_kind_is_a_config_error_naming_its_key(text,
                                                                    message):
    # these raised a TypeError, loaded a list or a number as its str, or
    # named no key
    with pytest.raises(ConfigError) as exc:
        loads_config(text)
    assert str(exc.value) == message


def test_apply_overrides():
    cfg = ExperimentConfig()
    out = apply_overrides(cfg, seed=99, output_dir="there")
    assert out.train.seed == 99 and out.output_dir == "there"
    assert apply_overrides(cfg) == cfg


def test_load_document_and_config_from_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("method: naive\nrepetitions: 2\n", encoding="utf-8")
    doc = load_document(str(path))
    assert doc == {"method": "naive", "repetitions": 2}
    cfg = experiment_from_document(load_document(str(path)))
    assert cfg.method == "naive" and cfg.repetitions == 2

    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    assert load_document(str(empty)) == {}

    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("- just\n- a list\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mapping"):
        load_document(str(scalar))


def test_yaml_loads_only_to_parse_or_dump_yaml(tmp_path):
    """Importing the package, its report writers and its CLI leaves PyYAML
    unloaded; reading a config document loads it. PyYAML dumps nothing:
    ``artifacts.json`` is the only config ``pctlab`` writes."""
    path = tmp_path / "exp.yaml"
    path.write_text("method: naive\n", encoding="utf-8")
    script = textwrap.dedent(f"""
        import sys
        import pctlab, pctlab.reports, pctlab.cli
        assert "yaml" not in sys.modules, "yaml imported"
        from pctlab.config import experiment_from_document, load_document
        config = experiment_from_document(load_document({str(path)!r}))
        assert config.method == "naive"
        assert "yaml" in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pctlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
