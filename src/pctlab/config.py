"""YAML experiment configuration.

One document describes one experiment: the synthetic task, the update
scenario, the training schedule, the update method, and its PC-loss
hyperparameters. Keys mirror the dataclass fields, except ``k`` for the
class count and ``lambda`` for the PC-loss weight. Unknown keys are
rejected so typos fail loudly instead of silently using defaults.

Three optional top-level lists parameterize the sweep subcommands:
``methods`` (compare), ``focal_grid`` (sweep-focal, pairs of alpha/beta),
and ``ensemble_sizes`` (sweep-ensemble).

PyYAML is imported only inside the three functions that parse or dump
YAML (``loads_config``, ``load_document`` and ``dump_config``), so
importing this module, as every report writer does, does not load it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from .datasets import SyntheticSpec
from .harness import ExperimentConfig
from .losses import DistanceSpec, FilterSpec, PCLossConfig
from .nn import TrainConfig
from .scenarios import DataFilter, ModelSpec, ScenarioKind, UpdateScenario, reference_scenario


class ConfigError(ValueError):
    """Malformed or contradictory configuration document."""


def _check_keys(mapping: dict, allowed: Sequence[str], where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; "
                          f"allowed: {sorted(allowed)}")


def dataset_from_dict(d: dict) -> SyntheticSpec:
    _check_keys(d, ["k", "input_dim", "samples_per_class", "cluster_spread",
                    "class_center_scale", "label_noise", "seed"], "dataset")
    base = SyntheticSpec()
    return SyntheticSpec(
        num_classes=int(d.get("k", base.num_classes)),
        input_dim=int(d.get("input_dim", base.input_dim)),
        samples_per_class=int(d.get("samples_per_class", base.samples_per_class)),
        cluster_spread=float(d.get("cluster_spread", base.cluster_spread)),
        class_center_scale=float(d.get("class_center_scale", base.class_center_scale)),
        label_noise=float(d.get("label_noise", base.label_noise)),
        seed=int(d.get("seed", base.seed)),
    )


def dataset_to_dict(spec: SyntheticSpec) -> dict:
    return {"k": spec.num_classes, "input_dim": spec.input_dim,
            "samples_per_class": spec.samples_per_class,
            "cluster_spread": spec.cluster_spread,
            "class_center_scale": spec.class_center_scale,
            "label_noise": spec.label_noise, "seed": spec.seed}


def _model_from_dict(d: dict, where: str) -> ModelSpec:
    _check_keys(d, ["hidden_dims", "activation"], where)
    base = ModelSpec()
    dims = d.get("hidden_dims", base.hidden_dims)
    return ModelSpec(hidden_dims=tuple(int(h) for h in dims),
                     activation=str(d.get("activation", base.activation)))


def _model_to_dict(spec: ModelSpec) -> dict:
    return {"hidden_dims": list(spec.hidden_dims), "activation": spec.activation}


def _filter_from_dict(d: dict, where: str) -> DataFilter:
    _check_keys(d, ["sample_fraction", "class_subset", "subset_seed"], where)
    subset = d.get("class_subset")
    return DataFilter(
        sample_fraction=float(d.get("sample_fraction", 1.0)),
        class_subset=None if subset is None else tuple(int(c) for c in subset),
        subset_seed=int(d.get("subset_seed", 0)),
    )


def _filter_to_dict(f: DataFilter) -> dict:
    return {"sample_fraction": f.sample_fraction,
            "class_subset": None if f.class_subset is None else list(f.class_subset),
            "subset_seed": f.subset_seed}


def scenario_from_dict(d: dict, num_classes: int) -> UpdateScenario:
    """Parse a scenario; a bare ``kind`` selects the reference pairing."""
    _check_keys(d, ["kind", "old_model", "new_model", "old_data", "new_data",
                    "init_from_old"], "scenario")
    if "kind" not in d:
        raise ConfigError("scenario needs a 'kind'")
    kind = ScenarioKind(str(d["kind"]))
    if set(d) == {"kind"}:
        return reference_scenario(kind, num_classes)
    return UpdateScenario(
        kind=kind,
        old_model=_model_from_dict(d.get("old_model", {}), "scenario.old_model"),
        new_model=_model_from_dict(d.get("new_model", {}), "scenario.new_model"),
        old_data=_filter_from_dict(d.get("old_data", {}), "scenario.old_data"),
        new_data=_filter_from_dict(d.get("new_data", {}), "scenario.new_data"),
        init_from_old=bool(d.get("init_from_old", False)),
    )


def scenario_to_dict(s: UpdateScenario) -> dict:
    return {"kind": s.kind.value,
            "old_model": _model_to_dict(s.old_model),
            "new_model": _model_to_dict(s.new_model),
            "old_data": _filter_to_dict(s.old_data),
            "new_data": _filter_to_dict(s.new_data),
            "init_from_old": s.init_from_old}


def train_from_dict(d: dict) -> TrainConfig:
    _check_keys(d, ["learning_rate", "momentum", "batch_size", "epochs",
                    "lr_decay_factor", "lr_decay_every", "seed", "weight_init"],
                "train")
    base = TrainConfig()
    return TrainConfig(
        learning_rate=float(d.get("learning_rate", base.learning_rate)),
        momentum=float(d.get("momentum", base.momentum)),
        batch_size=int(d.get("batch_size", base.batch_size)),
        epochs=int(d.get("epochs", base.epochs)),
        lr_decay_factor=float(d.get("lr_decay_factor", base.lr_decay_factor)),
        lr_decay_every=int(d.get("lr_decay_every", base.lr_decay_every)),
        seed=int(d.get("seed", base.seed)),
        weight_init=str(d.get("weight_init", base.weight_init)),
    )


def train_to_dict(cfg: TrainConfig) -> dict:
    return {"learning_rate": cfg.learning_rate, "momentum": cfg.momentum,
            "batch_size": cfg.batch_size, "epochs": cfg.epochs,
            "lr_decay_factor": cfg.lr_decay_factor,
            "lr_decay_every": cfg.lr_decay_every, "seed": cfg.seed,
            "weight_init": cfg.weight_init}


def pc_from_dict(d: dict) -> PCLossConfig:
    """PC-loss hyperparameters; the mode itself follows from the method."""
    _check_keys(d, ["lambda", "alpha", "beta", "distance", "tau"], "pc")
    base = PCLossConfig()
    return PCLossConfig(
        mode=base.mode,
        lam=float(d.get("lambda", base.lam)),
        filter=FilterSpec(alpha=float(d.get("alpha", base.filter.alpha)),
                          beta=float(d.get("beta", base.filter.beta))),
        distance=DistanceSpec(kind=str(d.get("distance", base.distance.kind)),
                              tau=float(d.get("tau", base.distance.tau))),
    )


def pc_to_dict(pc: PCLossConfig) -> dict:
    return {"lambda": pc.lam, "alpha": pc.filter.alpha, "beta": pc.filter.beta,
            "distance": pc.distance.kind, "tau": pc.distance.tau}


TOP_KEYS = ("dataset", "scenario", "train", "method", "pc", "ensemble_size",
            "repetitions", "output_dir", "methods", "focal_grid",
            "ensemble_sizes")


def experiment_from_document(doc: Optional[dict]) -> ExperimentConfig:
    doc = {} if doc is None else doc
    _check_keys(doc, TOP_KEYS, "config")
    dataset = dataset_from_dict(doc.get("dataset", {}))
    scenario_doc = doc.get("scenario", {"kind": "same_arch_retrain"})
    try:
        return ExperimentConfig(
            dataset=dataset,
            scenario=scenario_from_dict(scenario_doc, dataset.num_classes),
            train=train_from_dict(doc.get("train", {})),
            method=str(doc.get("method", "no_treatment")),
            pc=pc_from_dict(doc.get("pc", {})),
            ensemble_size=int(doc.get("ensemble_size", 16)),
            repetitions=int(doc.get("repetitions", 1)),
            output_dir=doc.get("output_dir"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def document_from_experiment(config: ExperimentConfig) -> dict:
    return {"dataset": dataset_to_dict(config.dataset),
            "scenario": scenario_to_dict(config.scenario),
            "train": train_to_dict(config.train),
            "method": config.method,
            "pc": pc_to_dict(config.pc),
            "ensemble_size": config.ensemble_size,
            "repetitions": config.repetitions,
            "output_dir": config.output_dir}


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
    return yaml.safe_dump(document_from_experiment(config), sort_keys=False)


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
        return ["no_treatment", "naive", "fd_kl", "fd_lm", "ensemble"]
    return [str(m) for m in methods]


def apply_overrides(config: ExperimentConfig, seed: Optional[int] = None,
                    output_dir: Optional[str] = None) -> ExperimentConfig:
    """CLI-level overrides: base training seed and output directory."""
    if seed is not None:
        config = replace(config, train=replace(config.train, seed=seed))
    if output_dir is not None:
        config = replace(config, output_dir=output_dir)
    return config
