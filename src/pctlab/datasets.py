"""Synthetic Gaussian-cluster classification data, drawn by ``generate``.

Which rows each side of an update trains on, and in which label space, is
resolved by ``scenarios.build_scenario`` as row indices into a
``Dataset``'s arrays, which are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import SEED_LIMIT, STREAM_DATA, STREAM_NOISE, stream_rng
from .tables import check_fields, csv_text

SPLIT_TRAIN = 0
SPLIT_VALIDATION = 1
SPLIT_TEST = 2
SPLIT_NAMES = {SPLIT_TRAIN: "train", SPLIT_VALIDATION: "validation",
               SPLIT_TEST: "test"}


class DegenerateSpecError(ValueError):
    """The spec cannot yield a usable dataset (e.g. a class with no train rows)."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-cluster task. Defaults are the reference task; the spread
    was calibrated once so plain CE training of the small reference model
    lands at 15-30% test error (flips need errors to exist)."""

    num_classes: int = field(default=10, metadata={"key": "k"})
    input_dim: int = 20
    samples_per_class: int = 500
    cluster_spread: float = 1.6
    class_center_scale: float = 1.0
    label_noise: float = 0.05
    seed: int = 7

    def __post_init__(self):
        check_fields(self, DegenerateSpecError)
        if self.num_classes < 2:
            raise DegenerateSpecError("need at least 2 classes")
        if self.samples_per_class < 2:
            raise DegenerateSpecError("need at least 2 samples per class")
        if self.input_dim < 1:
            raise DegenerateSpecError("input_dim must be >= 1")
        if self.cluster_spread <= 0 or self.class_center_scale <= 0:
            raise DegenerateSpecError("spread and center scale must be positive")
        if not 0.0 <= self.label_noise < 1.0:
            raise DegenerateSpecError("label_noise must be in [0, 1)")
        if not 0 <= self.seed < SEED_LIMIT:
            raise DegenerateSpecError(
                f"seed must be in [0, 2**64), got {self.seed}")


@dataclass
class Dataset:
    """``(n, input_dim)`` float64 features, their int64 labels in
    [0, num_classes), and uint8 split codes (``SPLIT_NAMES``)."""

    features: np.ndarray
    labels: np.ndarray
    split: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        self.split = np.ascontiguousarray(self.split, dtype=np.uint8)
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.split.shape != (n,):
            raise ValueError("features, labels and split tags must align")
        if not np.isin(self.split, list(SPLIT_NAMES)).all():
            raise ValueError("unknown split codes present")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.num_classes:
            raise ValueError("labels out of range")

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def rows_of_split(self, code: int) -> np.ndarray:
        return np.flatnonzero(self.split == code)

    def to_csv(self) -> str:
        header = [f"f{j}" for j in range(self.input_dim)] + ["label", "split"]
        return csv_text(header, (x + [y, SPLIT_NAMES[code]] for x, y, code in
                                 zip(self.features.tolist(), self.labels.tolist(),
                                     self.split.tolist())))


def generate(spec: SyntheticSpec) -> Dataset:
    """Draw the dataset for a spec; identical specs yield identical datasets.

    One isotropic Gaussian cluster per class, its rows grouped together:
    the first 70% are tagged train, the next 10% validation, the rest test
    (the draws are i.i.d., so the positional split is already random).
    Label noise then resamples a fraction of the train labels uniformly
    over all classes."""
    k, d, spc = spec.num_classes, spec.input_dim, spec.samples_per_class
    rng = stream_rng(spec.seed, STREAM_DATA)
    centers = spec.class_center_scale * rng.standard_normal((k, d))
    features = np.empty((k * spc, d))
    labels = np.empty(k * spc, dtype=np.int64)
    split = np.empty(k * spc, dtype=np.uint8)
    n_train = int(spc * 0.7)
    n_val = int(spc * 0.1)
    for c in range(k):
        block = slice(c * spc, (c + 1) * spc)
        features[block] = centers[c] + spec.cluster_spread * rng.standard_normal((spc, d))
        labels[block] = c
        split[block] = SPLIT_TEST
        split[c * spc:c * spc + n_train] = SPLIT_TRAIN
        split[c * spc + n_train:c * spc + n_train + n_val] = SPLIT_VALIDATION

    if spec.label_noise > 0.0:
        noise_rng = stream_rng(spec.seed, STREAM_NOISE)
        train_rows = np.flatnonzero(split == SPLIT_TRAIN)
        n_noisy = int(round(spec.label_noise * train_rows.size))
        picked = noise_rng.choice(train_rows, size=n_noisy, replace=False)
        labels[picked] = noise_rng.integers(0, k, size=n_noisy)

    dataset = Dataset(features, labels, split, k)
    train_labels = dataset.labels[dataset.rows_of_split(SPLIT_TRAIN)]
    if np.bincount(train_labels, minlength=k).min() == 0:
        raise DegenerateSpecError("a class has no training samples after noise")
    return dataset
