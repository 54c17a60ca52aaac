"""The four benchmark workloads: inputs from a seed variant, one timed pass each.

A workload is built from public pctlab calls only. ``prepare`` is the
set-up a user pays before the first result can start (``None`` where the
workload has none beyond the import); ``run`` is one operation of the
closed loop, report writing included; ``check`` returns the problems it
finds in the operation's results (non-finite metrics, and for the
reference inputs of ``methods`` any difference from the README table).

Each call through ``harness`` or ``reports`` goes through the module
attribute, so the tracer's wrappers see it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from pctlab import harness, reports
from pctlab.datasets import SyntheticSpec
from pctlab.harness import ExperimentConfig
from pctlab.nn import TrainConfig
from pctlab.scenarios import ModelSpec, ScenarioKind, UpdateScenario, reference_scenario

# ``--seed n`` selects input variant n % VARIANTS; every variant has committed
# reference digests. Variant 0 is the README's reference seeds.
VARIANTS = 8
REFERENCE_DATASET_SEED = 7

SINGLE_METHODS = ("no_treatment", "naive", "fd_kl", "fd_lm")

# README `compare` rows (er_new, nfr) for the reference seeds.
README_ROWS = {
    "no_treatment": (0.21, 0.039),
    "naive": (0.207, 0.029),
    "fd_kl": (0.21, 0.038),
    "fd_lm": (0.217, 0.008),
}
README_ER_OLD = 0.22

ENSEMBLE_SIZE = {"full": 16, "tiny": 3}
REPETITIONS = {"full": 5, "tiny": 2}


def seeds(variant: int) -> tuple:
    """(dataset seed, base train seed) of an input variant."""
    return REFERENCE_DATASET_SEED + variant, variant


def reference_config(variant: int, size: str, **overrides) -> ExperimentConfig:
    """The README task (10 classes x 500, 20-d, [20,32,10], batch 64, 30 epochs)."""
    data_seed, train_seed = seeds(variant)
    if size == "full":
        spec = SyntheticSpec(seed=data_seed)
        train = TrainConfig(seed=train_seed)
    else:
        spec = SyntheticSpec(num_classes=4, input_dim=6, samples_per_class=40,
                             seed=data_seed)
        train = TrainConfig(epochs=3, batch_size=16, lr_decay_every=1,
                            seed=train_seed)
    scenario = reference_scenario(ScenarioKind.SAME_ARCH_RETRAIN, spec.num_classes)
    return ExperimentConfig(dataset=spec, scenario=scenario, train=train, **overrides)


def wide_config(variant: int, size: str) -> ExperimentConfig:
    """arch_change from [20,32,10] to [20,256,256,10]; few large batches."""
    data_seed, train_seed = seeds(variant)
    if size == "full":
        spec = SyntheticSpec(samples_per_class=2000, seed=data_seed)
        hidden, batch, epochs, every = (256, 256), 512, 12, 4
    else:
        spec = SyntheticSpec(num_classes=4, input_dim=6, samples_per_class=60,
                             seed=data_seed)
        hidden, batch, epochs, every = (16, 16), 32, 3, 1
    scenario = UpdateScenario(ScenarioKind.ARCH_CHANGE, ModelSpec((32,)),
                              ModelSpec(hidden))
    train = TrainConfig(batch_size=batch, epochs=epochs, lr_decay_every=every,
                        seed=train_seed)
    return ExperimentConfig(dataset=spec, scenario=scenario, train=train,
                            method="fd_lm", repetitions=1)


@dataclass
class PassOutput:
    files: List[str]
    values: List[Optional[float]]      # every metric the operation reports
    summaries: dict                    # method -> ExperimentResult.summary()


def _experiment_values(result) -> List[Optional[float]]:
    values = [result.er_old]
    for run in result.runs:
        f = run.final
        values += [f.er_old, f.er_new, f.nfr, f.pfr, f.rel_nfr]
        for row in run.epochs:
            values += [row.er_train, row.er_val, row.nfr_val, row.rel_nfr_val,
                       row.nfr_train]
    return values


def _run_methods(cfg, state, out_dir) -> PassOutput:
    out = PassOutput([], [], {})
    for method in SINGLE_METHODS:
        result = harness.run_experiment(replace(cfg, method=method), state)
        out.files += reports.write_experiment(
            result, os.path.join(out_dir, method), fmt="csv")
        out.values += _experiment_values(result)
        out.summaries[method] = result.summary()
    return out


def _run_single(cfg, state, out_dir) -> PassOutput:
    result = harness.run_experiment(cfg, state)
    files = reports.write_experiment(result, os.path.join(out_dir, cfg.method),
                                     fmt="csv")
    return PassOutput(files, _experiment_values(result),
                      {cfg.method: result.summary()})


def _run_sweep(cfg, state, out_dir) -> PassOutput:
    sizes = list(range(1, cfg.ensemble_size + 1))
    result = harness.sweep_ensemble(cfg, sizes, max_workers=1)
    files = reports.write_ensemble_sweep(result, os.path.join(out_dir, "sweep"),
                                         fmt="csv")
    values = [v for r in result.rows for v in (r.er_old, r.er_new, r.nfr, r.rel_nfr)]
    return PassOutput(files, values, {})


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int, str], ExperimentConfig]
    prepares: bool          # calls prepare_scenario during set-up
    run: Callable[..., PassOutput]

    def prepare(self, cfg):
        return harness.prepare_scenario(cfg) if self.prepares else None

    def check(self, out: PassOutput, variant: int, size: str) -> List[str]:
        problems = [f"non-finite metric {v!r}" for v in out.values
                    if v is not None and not math.isfinite(v)]
        if self.name == "methods" and variant == 0 and size == "full":
            problems += readme_problems(out.summaries)
        return problems


def readme_problems(summaries: dict) -> List[str]:
    """Differences between the reference medians and the README table."""
    problems = []
    for method, (er_new, nfr) in README_ROWS.items():
        s = summaries[method]
        got = (s["er_old"], s["er_new"]["median"], s["nfr"]["median"])
        if got != (README_ER_OLD, er_new, nfr):
            problems.append(f"{method}: (er_old, er_new, nfr) = {got}, README has "
                            f"{(README_ER_OLD, er_new, nfr)}")
    return problems


WORKLOADS = {w.name: w for w in (
    # BENCHMARK.json says why each workload exists.
    Workload("methods",
             lambda v, size: reference_config(v, size,
                                               repetitions=REPETITIONS[size]),
             True, _run_methods),
    Workload("ensemble",
             lambda v, size: reference_config(v, size, method="ensemble",
                                               ensemble_size=ENSEMBLE_SIZE[size]),
             True, _run_single),
    Workload("sweep",
             lambda v, size: reference_config(v, size,
                                               ensemble_size=ENSEMBLE_SIZE[size]),
             False, _run_sweep),
    Workload("wide", wide_config, True, _run_single),
)}
