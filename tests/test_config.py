"""YAML config parsing: round trips, defaults, and strict key checking."""

import os
import re
import subprocess
import sys
import textwrap
from dataclasses import fields, is_dataclass, replace
from typing import get_type_hints

import pytest

import pctlab
from pctlab.config import (ConfigError, apply_overrides, dump_config,
                           ensemble_sizes_from_document,
                           experiment_from_document, focal_grid_from_document,
                           load_config, load_document, loads_config,
                           methods_from_document, to_document)
from pctlab.datasets import DegenerateSpecError, SyntheticSpec
from pctlab.harness import ExperimentConfig
from pctlab.losses import DistanceSpec, FilterSpec, PCLossConfig
from pctlab.nn import TrainConfig
from pctlab.scenarios import (DataFilter, ModelSpec, ScenarioKind,
                              UpdateScenario, reference_scenario)


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
    doc = to_document(config)
    assert experiment_from_document(doc) == config
    # and through YAML text as well
    assert loads_config(dump_config(config)) == config


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
    assert "mode" not in to_document(ExperimentConfig())["pc"]


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
    doc = to_document(ExperimentConfig())
    assert list(_key_paths(doc)) == expected


def test_values_are_coerced_by_field_type():
    cfg = loads_config(textwrap.dedent("""
        dataset: {cluster_spread: 2}
        train: {learning_rate: 1, epochs: 2.0}
        pc: {lambda: 1, tau: 3}
        scenario: {kind: class_growth, old_data: {class_subset: [0, 1.0]}}
        output_dir: 5
    """))
    assert cfg.dataset.cluster_spread == 2.0
    assert isinstance(cfg.dataset.cluster_spread, float)
    assert isinstance(cfg.train.epochs, int)
    assert cfg.scenario.old_data.class_subset == (0, 1)
    assert cfg.scenario.kind is ScenarioKind.CLASS_GROWTH
    assert cfg.output_dir == 5  # passed through as it is
    text = dump_config(cfg)
    for line in ("cluster_spread: 2.0", "learning_rate: 1.0", "lambda: 1.0",
                 "tau: 3.0", "epochs: 2\n"):
        assert line in text


def test_dataset_errors_are_not_wrapped():
    # a bad dataset block raises its own error, not ConfigError
    with pytest.raises(DegenerateSpecError):
        loads_config("dataset: {k: 1}")
    with pytest.raises(ValueError) as exc:
        loads_config("dataset: {k: abc}")
    assert type(exc.value) is ValueError
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
    assert focal_grid_from_document({}) == [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
                                            (1.0, 2.0), (1.0, 5.0),
                                            (1.0, 10.0), (1.0, 20.0)]
    assert ensemble_sizes_from_document({}) == [1, 2, 4, 8, 16]
    assert methods_from_document({}) == list(pctlab.METHODS)
    assert pctlab.METHODS == ("no_treatment", "naive", "fd_kl", "fd_lm",
                              "ensemble")


def test_sweep_lists_parse_and_validate():
    doc = {"focal_grid": [[1, 5], [0, 0]], "ensemble_sizes": [1, 3],
           "methods": ["naive"]}
    assert focal_grid_from_document(doc) == [(1.0, 5.0), (0.0, 0.0)]
    assert ensemble_sizes_from_document(doc) == [1, 3]
    assert methods_from_document(doc) == ["naive"]
    with pytest.raises(ConfigError, match="pairs"):
        focal_grid_from_document({"focal_grid": [[1, 2, 3]]})


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
    cfg = load_config(str(path))
    assert cfg.method == "naive" and cfg.repetitions == 2

    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    assert load_document(str(empty)) == {}

    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("- just\n- a list\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mapping"):
        load_document(str(scalar))


def test_dump_config_is_stable():
    cfg = _sample_configs()[1]
    assert dump_config(cfg) == dump_config(replace(cfg))


def test_yaml_loads_only_to_parse_or_dump_yaml():
    """Importing the package, its report writers and its CLI leaves PyYAML
    unloaded; dumping and parsing the reference config loads it and still
    round-trips."""
    script = textwrap.dedent("""
        import sys
        import pctlab, pctlab.reports, pctlab.cli
        assert "yaml" not in sys.modules, "yaml imported"
        from pctlab.config import dump_config, loads_config
        from pctlab.harness import ExperimentConfig
        config = ExperimentConfig()
        assert loads_config(dump_config(config)) == config
        assert "yaml" in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pctlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
