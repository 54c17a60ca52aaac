"""Declarative old-model to new-model update scenarios.

A scenario names the kind of update (retrain, capacity change, data growth,
class growth, combined changes, or fine-tuning), the model shapes, and the
data filters for each side. ``build_scenario`` resolves it against a
concrete dataset into two training jobs plus a pinned evaluation plan, so
every method run of the same scenario sees identical data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .datasets import (SPLIT_TEST, SPLIT_TRAIN, Dataset, DatasetView,
                       full_view, half_classes_view, half_samples_view)


class ScenarioKind(str, Enum):
    SAME_ARCH_RETRAIN = "same_arch_retrain"
    ARCH_CHANGE = "arch_change"
    SAMPLE_GROWTH = "sample_growth"
    CLASS_GROWTH = "class_growth"
    TWO_CHANGES = "two_changes"
    FINE_TUNE = "fine_tune"


@dataclass(frozen=True)
class ModelSpec:
    """Hidden-layer widths; input and output sizes come from the data.

    Every hidden layer is relu, the only activation ``nn`` trains; the
    ``activation`` field is kept so that config documents and
    ``artifacts.json`` keep their ``activation`` key.
    """

    hidden_dims: Tuple[int, ...] = (32,)
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError("hidden dims must be >= 1")
        if self.activation != "relu":
            raise ValueError(f"activation must be 'relu', got {self.activation!r}")

    def dims(self, input_dim: int, num_classes: int) -> List[int]:
        return [input_dim, *self.hidden_dims, num_classes]


@dataclass(frozen=True)
class DataFilter:
    """What part of the dataset a training job sees."""

    sample_fraction: float = 1.0
    class_subset: Optional[Tuple[int, ...]] = None
    subset_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        if self.class_subset is not None:
            object.__setattr__(self, "class_subset",
                               tuple(int(c) for c in self.class_subset))

    def apply(self, dataset: Dataset) -> DatasetView:
        view = full_view(dataset)
        if self.class_subset is not None:
            view = half_classes_view(view, self.class_subset)
        if self.sample_fraction < 1.0:
            view = half_samples_view(view, self.sample_fraction, self.subset_seed)
        return view


@dataclass(frozen=True)
class UpdateScenario:
    kind: ScenarioKind
    old_model: ModelSpec = field(default_factory=ModelSpec)
    new_model: ModelSpec = field(default_factory=ModelSpec)
    old_data: DataFilter = field(default_factory=DataFilter)
    new_data: DataFilter = field(default_factory=DataFilter)
    init_from_old: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kind", ScenarioKind(self.kind))
        if self.kind is ScenarioKind.FINE_TUNE:
            if self.old_model != self.new_model or not self.init_from_old:
                raise ValueError(
                    "fine_tune needs identical model specs and init_from_old")
        if self.init_from_old and self.old_model != self.new_model:
            raise ValueError("init_from_old requires identical model specs")
        if self.init_from_old and self.old_data.class_subset != self.new_data.class_subset:
            raise ValueError("init_from_old requires matching class subsets")
        if self.kind is ScenarioKind.CLASS_GROWTH and self.old_data.class_subset is None:
            raise ValueError("class_growth needs an old-side class subset")


@dataclass
class TrainingJob:
    view: DatasetView
    model: ModelSpec
    init_from_old: bool = False

    def dims(self) -> List[int]:
        return self.model.dims(self.view.base.input_dim, self.view.num_classes)


@dataclass
class EvalPlan:
    """The pinned held-out evaluation set, in the original label space.

    When the old model was trained on a class subset, evaluation is
    restricted to test samples of those classes, and ``old_label_map`` /
    ``new_label_map`` translate each model's predictions back to original
    labels.
    """

    features: np.ndarray
    labels: np.ndarray
    sample_ids: np.ndarray
    old_label_map: np.ndarray
    new_label_map: np.ndarray


@dataclass
class ScenarioPlan:
    scenario: UpdateScenario
    old_job: TrainingJob
    new_job: TrainingJob
    eval_plan: EvalPlan


def build_scenario(scenario: UpdateScenario, dataset: Dataset) -> ScenarioPlan:
    """Resolve a scenario against a dataset into jobs and an eval plan."""
    old_view = scenario.old_data.apply(dataset)
    new_view = scenario.new_data.apply(dataset)

    test_rows = dataset.rows_of_split(SPLIT_TEST)
    if scenario.old_data.class_subset is not None:
        subset = old_view.label_map()
        test_rows = test_rows[np.isin(dataset.labels[test_rows], subset)]
    plan = EvalPlan(
        features=dataset.features[test_rows],
        labels=dataset.labels[test_rows],
        sample_ids=test_rows,
        old_label_map=old_view.label_map(),
        new_label_map=new_view.label_map(),
    )
    return ScenarioPlan(
        scenario,
        TrainingJob(old_view, scenario.old_model),
        TrainingJob(new_view, scenario.new_model, scenario.init_from_old),
        plan,
    )


# ---------------------------------------------------------------------------
# reference desk-scale setup
#
# The cluster spread below was fixed by a one-time calibration run so that
# plain cross-entropy training of the small model lands in the 15-30% test
# error band (errors must exist for flips to exist).

REFERENCE_SMALL = ModelSpec(hidden_dims=(32,))
REFERENCE_LARGE = ModelSpec(hidden_dims=(64, 64))


def reference_scenario(kind: ScenarioKind, num_classes: int = 10) -> UpdateScenario:
    """Desk-scale analog of each update kind on the reference task."""
    kind = ScenarioKind(kind)
    small, large = REFERENCE_SMALL, REFERENCE_LARGE
    half = DataFilter(sample_fraction=0.5)
    if kind is ScenarioKind.SAME_ARCH_RETRAIN:
        return UpdateScenario(kind, small, small)
    if kind is ScenarioKind.ARCH_CHANGE:
        return UpdateScenario(kind, small, large)
    if kind is ScenarioKind.SAMPLE_GROWTH:
        return UpdateScenario(kind, small, small, old_data=half)
    if kind is ScenarioKind.CLASS_GROWTH:
        subset = tuple(range(num_classes // 2))
        return UpdateScenario(kind, small, small,
                              old_data=DataFilter(class_subset=subset))
    if kind is ScenarioKind.TWO_CHANGES:
        return UpdateScenario(kind, small, large, old_data=half)
    return UpdateScenario(ScenarioKind.FINE_TUNE, small, small,
                          old_data=half, init_from_old=True)
