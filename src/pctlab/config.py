"""YAML experiment configuration, read and written by one codec.

One document describes one experiment: the synthetic task, the update
scenario, the training schedule, the update method, and its PC-loss
hyperparameters. Its keys are the dataclass field names, except the
spellings in ``_KEYS``: ``k``, ``lambda`` and the flat ``pc`` block.
Unknown keys are rejected so typos fail loudly instead of silently using
defaults. ``from_document`` and ``to_document`` walk ``dataclasses.fields``
and coerce each value by its field's type; ``reports`` reads
``artifacts.json`` back through them.

Three optional top-level lists parameterize the sweep subcommands:
``methods`` (compare), ``focal_grid`` (sweep-focal, pairs of alpha/beta),
and ``ensemble_sizes`` (sweep-ensemble).

PyYAML is imported only inside the three functions that parse or dump
YAML (``loads_config``, ``load_document`` and ``dump_config``), so
importing this module, as every report writer does, does not load it.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass, replace
from enum import Enum
from typing import (List, Optional, Sequence, Tuple, Union, get_args,
                    get_origin, get_type_hints)

from .datasets import SyntheticSpec
from .harness import METHODS, ExperimentConfig
from .losses import DistanceSpec, PCLossConfig
from .scenarios import ScenarioKind, UpdateScenario, reference_scenario


class ConfigError(ValueError):
    """Malformed or contradictory configuration document."""


_FLAT = "*"
# Every document key that is not its field's name. None: the field has no
# key (the method sets ``pc.mode``). _FLAT: the keys of the nested spec sit
# in its parent's block, as alpha, beta, distance and tau do in ``pc``.
_KEYS = {(SyntheticSpec, "num_classes"): "k",
         (PCLossConfig, "mode"): None,
         (PCLossConfig, "lam"): "lambda",
         (PCLossConfig, "filter"): _FLAT,
         (PCLossConfig, "distance"): _FLAT,
         (DistanceSpec, "kind"): "distance"}

_SWEEP_KEYS = ("methods", "focal_grid", "ensemble_sizes")


def _check_keys(mapping: dict, allowed: Sequence[str], where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _keys(cls) -> List[str]:
    """The keys of dataclass ``cls``'s document block, in field order."""
    keys = []
    for f in fields(cls):
        key = _KEYS.get((cls, f.name), f.name)
        if key == _FLAT:
            keys += _keys(get_type_hints(cls)[f.name])
        elif key is not None:
            keys.append(key)
    return keys


def _coerce(tp, value, where: str):
    """``value`` as type ``tp``; a dataclass is a block named ``where``."""
    if is_dataclass(tp):
        return from_document(tp, value, where)
    if get_origin(tp) is Union:  # Optional[T]
        return None if value is None else _coerce(get_args(tp)[0], value, where)
    if get_origin(tp) in (tuple, list):
        return get_origin(tp)(_coerce(get_args(tp)[0], v, where) for v in value)
    return tp(str(value)) if issubclass(tp, str) else tp(value)


def _decode(cls, doc: dict, where: str, given: dict):
    """``cls`` from block ``doc``, whose keys the caller has checked;
    ``where`` names the block ("" at the top level)."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        key = _KEYS.get((cls, f.name), f.name)
        if f.name in given or key is None:
            continue
        if key == _FLAT:
            given[f.name] = _decode(hints[f.name], doc, where, {})
        elif key in doc:
            given[f.name] = _coerce(hints[f.name], doc[key],
                                    f"{where}.{key}".lstrip("."))
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} needs a {key!r}")
    return cls(**given)


def from_document(cls, doc: dict, where: str, **given):
    """An instance of dataclass ``cls`` from its document block: unknown keys
    are rejected, each value is coerced by its field's type, and a missing
    key takes the field's default. ``given`` fields are taken as they are.
    ``where`` names the block in error messages."""
    _check_keys(doc, _keys(cls), where)
    return _decode(cls, doc, where, given)


def to_document(obj) -> dict:
    """The document block of dataclass instance ``obj``, in field order.
    Values are written as they are, except tuples as lists and enums by
    value."""
    doc = {}
    for f in fields(obj):
        key = _KEYS.get((type(obj), f.name), f.name)
        value = getattr(obj, f.name)
        if key == _FLAT:
            doc.update(to_document(value))
        elif key is not None:
            doc[key] = (to_document(value) if is_dataclass(value)
                        else value.value if isinstance(value, Enum)
                        else list(value) if isinstance(value, tuple) else value)
    return doc


def experiment_from_document(doc: Optional[dict]) -> ExperimentConfig:
    """The experiment of a config document. A ``scenario`` with only a
    ``kind`` selects the reference pairing for the dataset's class count."""
    doc = {} if doc is None else doc
    _check_keys(doc, [*_keys(ExperimentConfig), *_SWEEP_KEYS], "config")
    dataset = _coerce(SyntheticSpec, doc.get("dataset", {}), "dataset")
    scenario = doc.get("scenario", {"kind": "same_arch_retrain"})
    try:
        if isinstance(scenario, dict) and set(scenario) == {"kind"}:
            kind = _coerce(ScenarioKind, scenario["kind"], "scenario.kind")
            scenario = reference_scenario(kind, dataset.num_classes)
        else:
            scenario = _coerce(UpdateScenario, scenario, "scenario")
        return _decode(ExperimentConfig, doc, "",
                       dict(dataset=dataset, scenario=scenario,
                            output_dir=doc.get("output_dir")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def loads_config(text: str) -> ExperimentConfig:
    import yaml
    return experiment_from_document(yaml.safe_load(text))


def load_document(path: str) -> dict:
    import yaml
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must contain a mapping at the top level")
    return doc


def load_config(path: str) -> ExperimentConfig:
    return experiment_from_document(load_document(path))


def dump_config(config: ExperimentConfig) -> str:
    import yaml
    return yaml.safe_dump(to_document(config), sort_keys=False)


def focal_grid_from_document(doc: dict) -> List[Tuple[float, float]]:
    grid = doc.get("focal_grid")
    if grid is None:
        return [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (1.0, 2.0), (1.0, 5.0),
                (1.0, 10.0), (1.0, 20.0)]
    out = []
    for pair in grid:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError("focal_grid entries must be [alpha, beta] pairs")
        out.append((float(pair[0]), float(pair[1])))
    return out


def ensemble_sizes_from_document(doc: dict) -> List[int]:
    sizes = doc.get("ensemble_sizes")
    if sizes is None:
        return [1, 2, 4, 8, 16]
    return [int(s) for s in sizes]


def methods_from_document(doc: dict) -> List[str]:
    methods = doc.get("methods")
    if methods is None:
        return list(METHODS)
    return [str(m) for m in methods]


def apply_overrides(config: ExperimentConfig, seed: Optional[int] = None,
                    output_dir: Optional[str] = None) -> ExperimentConfig:
    """CLI-level overrides: base training seed and output directory."""
    if seed is not None:
        config = replace(config, train=replace(config.train, seed=seed))
    if output_dir is not None:
        config = replace(config, output_dir=output_dir)
    return config
