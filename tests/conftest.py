"""Shared fixtures: a small, fast task for the unit tests.

The reference-scale task (10 classes, 5000 samples, 30 epochs) only runs
in the acceptance suite; everything else uses this miniature so the whole
unit layer stays in the seconds range.
"""

import pytest

from pctlab.datasets import SyntheticSpec
from pctlab.harness import ExperimentConfig, prepare_scenario
from pctlab.nn import TrainConfig
from pctlab.scenarios import ScenarioKind, reference_scenario

SMALL_SPEC = SyntheticSpec(num_classes=5, input_dim=8, samples_per_class=80,
                           cluster_spread=1.2, seed=11)
SMALL_TRAIN = TrainConfig(epochs=6, batch_size=32, seed=3)


@pytest.fixture(scope="session")
def small_config():
    return ExperimentConfig(
        dataset=SMALL_SPEC,
        scenario=reference_scenario(ScenarioKind.SAME_ARCH_RETRAIN,
                                    SMALL_SPEC.num_classes),
        train=SMALL_TRAIN,
        method="fd_lm",
        repetitions=2,
    )


@pytest.fixture(scope="session")
def small_state(small_config):
    # one plan + old model shared by every harness-level test
    return prepare_scenario(small_config)
