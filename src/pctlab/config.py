"""YAML experiment configuration, read by one codec.

One document describes one experiment: the synthetic task, the update
scenario, the training schedule, the update method, and its PC-loss
hyperparameters, plus the ``SweepLists``. It walks ``tables.layout``, the
one field layout that ``tables.as_record`` writes with, so every file is
read back by the walk that wrote it. Unknown keys are rejected so typos
fail loudly instead of silently using defaults. ``from_document`` reads
each value through ``tables.check_value``, the walker that also checks
every field a dataclass is built with, so a value means the same in a
document and in Python. A block's own check, run when its dataclass is
built, raises its own error type with the block's name in front, as in
``scenario.new_data: class_subset must name at least 2 classes``.
``reports`` reads ``artifacts.json`` back through ``from_document``.

PyYAML is imported only inside ``load_document``, the one function that
parses YAML, so importing this module, as every report writer does, does
not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .datasets import SyntheticSpec
from .harness import METHODS, ExperimentConfig
from .scenarios import ScenarioKind, UpdateScenario, reference_scenario
from .tables import check_fields, check_value, layout


class ConfigError(ValueError):
    """Malformed or contradictory configuration document."""


@dataclass(frozen=True)
class SweepLists:
    """The optional top-level lists of the sweep subcommands: ``methods``
    (compare), ``focal_grid`` (sweep-focal, alpha/beta pairs) and
    ``ensemble_sizes`` (sweep-ensemble)."""
    methods: Tuple[str, ...] = METHODS
    focal_grid: Tuple[Tuple[float, float], ...] = (
        (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (1.0, 2.0), (1.0, 5.0),
        (1.0, 10.0), (1.0, 20.0))
    ensemble_sizes: Tuple[int, ...] = (1, 2, 4, 8, 16)

    def __post_init__(self):
        check_fields(self)


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
    for _, key, flat, _, tp in layout(cls):
        keys += _keys(tp) if flat else [key]
    return keys


def _coerce(tp, value, where: str):
    """``value`` of a document as type ``tp`` by ``tables.check_value``,
    which reads a block through ``from_document``; a ConfigError names
    ``where``."""
    return check_value(tp, value, where, ConfigError, from_document)


def _decode(cls, doc: dict, where: str, given: dict):
    """``cls`` from block ``doc``, whose keys the caller has checked;
    ``where`` names the block ("" at the top level)."""
    for name, key, flat, required, tp in layout(cls):
        if name in given:
            continue
        if tp is UpdateScenario:  # read after the dataset, for its class count
            dataset = given.get("dataset", SyntheticSpec())
            given[name] = _scenario(doc, dataset, where)
        elif flat:
            given[name] = _decode(tp, doc, where, {})
        elif key in doc:
            given[name] = _coerce(tp, doc[key], f"{where}.{key}".lstrip("."))
        elif required:
            raise ConfigError(f"{where} needs a {key!r}")
    try:
        return cls(**given)
    except ValueError as exc:  # re-raised as its own type, naming the block
        if where:
            exc.args = (f"{where}: {exc}",)
        raise


def _scenario(doc: dict, dataset: SyntheticSpec, where: str) -> UpdateScenario:
    """The ``scenario`` of experiment block ``doc``. One that is absent or
    has only a ``kind`` is the reference pairing for the dataset's class
    count, in a config file and in ``artifacts.json`` alike."""
    where = f"{where}.scenario".lstrip(".")
    block = doc.get("scenario", {"kind": "same_arch_retrain"})
    if isinstance(block, dict) and set(block) == {"kind"}:
        kind = _coerce(ScenarioKind, block["kind"], f"{where}.kind")
        return reference_scenario(kind, dataset.num_classes)
    return _coerce(UpdateScenario, block, where)


def from_document(cls, doc: dict, where: str):
    """An instance of dataclass ``cls`` from its document block: unknown keys
    are rejected, each value is coerced by its field's type, and a missing
    key takes the field's default. ``where`` names the block in error
    messages."""
    _check_keys(doc, _keys(cls), where)
    return _decode(cls, doc, where, {})


def experiment_from_document(doc: Optional[dict]) -> ExperimentConfig:
    """The experiment of a config document. A bad ``dataset`` block raises
    its own error; every other error is a ConfigError."""
    doc = {} if doc is None else doc
    _check_keys(doc, [*_keys(ExperimentConfig), *_keys(SweepLists)], "config")
    dataset = _coerce(SyntheticSpec, doc.get("dataset", {}), "dataset")
    try:
        config = _decode(ExperimentConfig, doc, "", dict(dataset=dataset))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    check_distance(doc, config, "")
    return config


def check_distance(doc: dict, config: ExperimentConfig, where: str) -> None:
    """A focal method picks its distance, so ``doc`` may not name another."""
    distance, own = doc.get("pc", {}).get("distance"), config.pc.distance.kind
    if config.pc.mode == "focal" and distance not in (None, own):
        raise ConfigError(f"{where}pc.distance must be {own!r} for method "
                          f"{config.method}, got {distance!r}")


def sweep_lists_from_document(doc: Optional[dict]) -> SweepLists:
    """The sweep lists of a config document whose keys
    ``experiment_from_document`` has checked; an absent list takes its
    default."""
    return _decode(SweepLists, {} if doc is None else doc, "", {})


def load_document(path: str) -> dict:
    import yaml
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must contain a mapping at the top level")
    return doc


def apply_overrides(config: ExperimentConfig, seed: Optional[int] = None,
                    output_dir: Optional[str] = None) -> ExperimentConfig:
    """CLI-level overrides: base training seed and output directory."""
    if seed is not None:
        config = replace(config, train=replace(config.train, seed=seed))
    if output_dir is not None:
        config = replace(config, output_dir=output_dir)
    return config
