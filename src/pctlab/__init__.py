"""pctlab: a desk-scale lab for studying regression in model updates.

Train small dense classifiers on synthetic Gaussian tasks, measure
prediction flips between an old and a new model (negative flip rate and
friends), and compare update methods: plain retraining, naive reweighting,
focal distillation, and logit-averaged ensembles.
"""

from .datasets import Dataset, SyntheticSpec, generate
from .ensembles import Ensemble, train_ensemble
from .flips import FlipReport, compute_relative_nfr, report_from_arrays
from .harness import (METHODS, ExperimentConfig, ExperimentResult, RunArtifacts,
                      compare_methods, pc_config_for_method, prepare_scenario,
                      run_experiment, sweep_ensemble, sweep_focal)
from .losses import (DistanceSpec, FilterSpec, OldModelOracle, PCLossConfig,
                     distance_kl, make_ce_objective, make_objective)
from .nn import (MLPModel, TrainConfig, TrainResult, batch_logits, init_model,
                 predict_batch, train)
from .scenarios import (DataFilter, ModelSpec, ScenarioKind, UpdateScenario,
                        build_scenario, reference_scenario)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "SyntheticSpec", "generate",
    "Ensemble", "train_ensemble",
    "FlipReport", "compute_relative_nfr", "report_from_arrays",
    "METHODS", "ExperimentConfig", "ExperimentResult", "RunArtifacts",
    "compare_methods", "pc_config_for_method", "prepare_scenario",
    "run_experiment", "sweep_ensemble", "sweep_focal",
    "DistanceSpec", "FilterSpec", "OldModelOracle", "PCLossConfig",
    "distance_kl", "make_ce_objective", "make_objective",
    "MLPModel", "TrainConfig", "TrainResult", "batch_logits", "init_model",
    "predict_batch", "train",
    "DataFilter", "ModelSpec", "ScenarioKind", "UpdateScenario",
    "build_scenario", "reference_scenario",
    "__version__",
]
