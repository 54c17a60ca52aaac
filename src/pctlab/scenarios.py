"""Declarative old-model to new-model update scenarios.

A scenario names the kind of update (retrain, capacity change, data growth,
class growth, combined changes, or fine-tuning), the model shapes, and the
data filters for each side. ``build_scenario`` resolves it once against a
concrete dataset into a ``ScenarioPlan``, so every method run of the same
scenario sees identical data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .datasets import SPLIT_TEST, SPLIT_TRAIN, Dataset
from .rng import SEED_LIMIT, STREAM_SUBSET, stream_rng
from .tables import check_fields


class ScenarioKind(str, Enum):
    """The kind of an update; ``reference_scenario`` gives each one its
    desk-scale pairing."""

    SAME_ARCH_RETRAIN = "same_arch_retrain"
    ARCH_CHANGE = "arch_change"
    SAMPLE_GROWTH = "sample_growth"
    CLASS_GROWTH = "class_growth"
    TWO_CHANGES = "two_changes"
    FINE_TUNE = "fine_tune"


@dataclass(frozen=True)
class ModelSpec:
    """Hidden-layer widths; input and output sizes come from the data.
    ``activation`` can only be relu (``nn.MLPModel``); the field keeps the
    ``activation`` key of config documents and ``artifacts.json``."""

    hidden_dims: Tuple[int, ...] = (32,)
    activation: str = "relu"

    def __post_init__(self):
        check_fields(self)
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError("hidden dims must be >= 1")
        if self.activation != "relu":
            raise ValueError(f"activation must be 'relu', got {self.activation!r}")

    def dims(self, input_dim: int, num_classes: int) -> List[int]:
        return [input_dim, *self.hidden_dims, num_classes]


@dataclass(frozen=True)
class DataFilter:
    """What part of the dataset a training job sees. A class subset names
    at least 2 distinct classes, the fewest a classifier can have."""

    sample_fraction: float = 1.0
    class_subset: Optional[Tuple[int, ...]] = None
    subset_seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        if not 0 <= self.subset_seed < SEED_LIMIT:
            raise ValueError(
                f"subset_seed must be in [0, 2**64), got {self.subset_seed}")
        if self.class_subset is not None and len(set(self.class_subset)) < 2:
            raise ValueError("class_subset must name at least 2 classes, "
                             f"got {list(self.class_subset)}")

    def select(self, dataset: Dataset) -> Tuple[np.ndarray, np.ndarray]:
        """The training rows this side sees, ascending, and its classes: the
        sorted original labels, ``classes[j]`` being class j of the side's
        label space. Classes are filtered first; then each class keeps
        ``int(sample_fraction * n)`` of its n rows, drawn from the
        ``subset_seed`` stream."""
        rows = dataset.rows_of_split(SPLIT_TRAIN)
        classes = np.arange(dataset.num_classes)
        if self.class_subset is not None:
            classes = np.unique(np.asarray(self.class_subset, dtype=np.int64))
            if classes.min() < 0 or classes.max() >= dataset.num_classes:
                raise ValueError(f"class_subset {list(self.class_subset)} names "
                                 f"a class outside [0, {dataset.num_classes})")
            rows = rows[np.isin(dataset.labels[rows], classes)]
        if self.sample_fraction < 1.0:
            rng = stream_rng(self.subset_seed, STREAM_SUBSET)
            labels, kept = dataset.labels[rows], []
            for c in np.unique(labels):
                rows_c = rows[labels == c]
                n_keep = int(self.sample_fraction * rows_c.size)
                if n_keep < 1:
                    raise ValueError(f"fraction {self.sample_fraction} "
                                     f"leaves class {int(c)} empty")
                kept.append(rng.permutation(rows_c)[:n_keep])
            rows = np.sort(np.concatenate(kept))
        return rows, classes


@dataclass(frozen=True)
class UpdateScenario:
    """One update: its kind, each side's model and data filter, and whether
    the new side starts from the old side's weights."""

    kind: ScenarioKind
    old_model: ModelSpec = field(default_factory=ModelSpec)
    new_model: ModelSpec = field(default_factory=ModelSpec)
    old_data: DataFilter = field(default_factory=DataFilter)
    new_data: DataFilter = field(default_factory=DataFilter)
    init_from_old: bool = False

    def __post_init__(self):
        check_fields(self)
        if self.kind is ScenarioKind.FINE_TUNE and not self.init_from_old:
            raise ValueError("fine_tune needs init_from_old")
        if self.init_from_old and self.old_model != self.new_model:
            raise ValueError("init_from_old requires identical model specs")
        old_classes, new_classes = (
            None if f.class_subset is None else set(f.class_subset)
            for f in (self.old_data, self.new_data))
        if self.init_from_old and old_classes != new_classes:
            raise ValueError("init_from_old requires matching class subsets")
        if self.kind is ScenarioKind.CLASS_GROWTH and self.old_data.class_subset is None:
            raise ValueError("class_growth needs an old-side class subset")


@dataclass
class TrainingJob:
    """One side's training data: the dataset's ``features`` on the rows its
    ``DataFilter.select`` picks, gathered once and shared by both sides when
    their filters are equal, their ``labels`` in the side's label space (its
    sorted classes relabelled 0..k-1), and the side's layer ``dims``."""

    features: np.ndarray
    labels: np.ndarray
    dims: List[int]


@dataclass
class EvalPlan:
    """The pinned held-out evaluation set: the test rows of the old side's
    classes, with labels in the new model's label space."""

    features: np.ndarray
    labels: np.ndarray


@dataclass
class ScenarioPlan:
    """A scenario resolved against a dataset: each side's job, the eval
    plan, and ``old_to_new[j]``, the new model's class for old class j."""

    old_job: TrainingJob
    new_job: TrainingJob
    eval_plan: EvalPlan
    old_to_new: np.ndarray
    init_from_old: bool


def _job(data: DataFilter, model: ModelSpec, dataset: Dataset,
         features: Optional[np.ndarray] = None) -> Tuple[TrainingJob, np.ndarray]:
    rows, classes = data.select(dataset)
    if features is None:
        features = dataset.features[rows]
    labels = np.searchsorted(classes, dataset.labels[rows])
    dims = model.dims(dataset.input_dim, classes.size)
    return TrainingJob(features, labels, dims), classes


def build_scenario(scenario: UpdateScenario, dataset: Dataset) -> ScenarioPlan:
    """Resolve a scenario against a dataset into jobs and an eval plan.
    Raises ValueError, before anything trains, when the new side lacks a
    class the old side has."""
    old_job, old_classes = _job(scenario.old_data, scenario.old_model, dataset)
    same_rows = scenario.new_data == scenario.old_data
    new_job, new_classes = _job(scenario.new_data, scenario.new_model, dataset,
                                old_job.features if same_rows else None)
    if not np.isin(old_classes, new_classes).all():
        raise ValueError("every old class must be present in the new data view")
    test_rows = dataset.rows_of_split(SPLIT_TEST)
    test_rows = test_rows[np.isin(dataset.labels[test_rows], old_classes)]
    eval_plan = EvalPlan(dataset.features[test_rows],
                         np.searchsorted(new_classes, dataset.labels[test_rows]))
    return ScenarioPlan(old_job, new_job, eval_plan,
                        np.searchsorted(new_classes, old_classes),
                        scenario.init_from_old)


# ---------------------------------------------------------------------------
# reference desk-scale setup

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
        if num_classes < 4:
            raise ValueError("the class_growth reference pairing trains its old "
                             "side on the first k // 2 classes, so it needs "
                             f"k >= 4, got k = {num_classes}")
        subset = tuple(range(num_classes // 2))
        return UpdateScenario(kind, small, small,
                              old_data=DataFilter(class_subset=subset))
    if kind is ScenarioKind.TWO_CHANGES:
        return UpdateScenario(kind, small, large, old_data=half)
    return UpdateScenario(ScenarioKind.FINE_TUNE, small, small,
                          old_data=half, init_from_old=True)
