"""Independently trained model ensembles.

An ensemble predicts the argmax of its member logits summed in member
order. The sum skips the 1/L of the mean, so one exact rule scores every
ensemble: the old side, the new side of every run (a single model is an
ensemble of one) and every size of the sweep; ``Ensemble.logit_sums``
keeps that sum for L = 1, 2, ... in the reusable buffers of an
``nn.Workspace``.
``train_ensemble`` trains CE members: member j from seed base_seed + j
(its init and its shuffle), all members in lockstep as one
``(M, fan_in, fan_out)`` weight stack through a single ``nn.train`` call.
Ensembles are therefore reproducible, member j equals a solo run under its
seed bit for bit, and two ensembles built from disjoint seed ranges are
independent. The old side of every update and the size sweep train
through it; the ``ensemble`` method's new side trains in
``harness.run_experiment``, by the same seeds and the same stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from .datasets import SPLIT_TEST, SPLIT_TRAIN, Dataset
from .flips import report_from_arrays
from .losses import make_ce_objective
from .nn import (MLPModel, TrainConfig, Workspace, batch_logits, forward_into,
                 init_model, stack_models, train, with_seed)
from .tables import as_record, csv_text


@dataclass
class Ensemble:
    members: List[MLPModel]

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        dim = self.members[0].input_dim
        k = self.members[0].num_classes
        for m in self.members[1:]:
            if m.input_dim != dim or m.num_classes != k:
                raise ValueError("members must share input_dim and class count")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def num_classes(self) -> int:
        return self.members[0].num_classes

    def logits_batch(self, x: np.ndarray) -> np.ndarray:
        """Mean member logits; ``predict_batch`` does not divide by L."""
        stacked = np.stack([batch_logits(m, x) for m in self.members])
        return stacked.mean(axis=0)

    def logit_sums(self, x: np.ndarray, workspace: Workspace, key="sum"):
        """Yield the member-order logit sum of the first L members, for
        L = 1, 2, ..., size, updated in place in ``workspace``'s buffer
        ``key``: its own buffer, because each member's ``forward_into``
        overwrites the last one's logits."""
        total = workspace.get(key, (len(x), self.num_classes))
        total[...] = forward_into(self.members[0], x, workspace)
        yield total
        for m in self.members[1:]:
            total += forward_into(m, x, workspace)
            yield total

    def predict_batch(self, x: np.ndarray,
                      workspace: Optional[Workspace] = None) -> np.ndarray:
        """Argmax of the member logits summed in member order; ties resolve
        to the lowest index. The sum runs in ``workspace``'s buffers, a
        fresh workspace when none is given."""
        *_, total = self.logit_sums(x, Workspace() if workspace is None
                                    else workspace)
        return np.argmax(total, axis=1)

    def parameter_count(self) -> int:
        return sum(m.parameter_count() for m in self.members)


def train_ensemble(dims: Sequence[int], features: np.ndarray, labels: np.ndarray,
                   config: TrainConfig, size: int, base_seed: int,
                   init: Optional[Sequence[MLPModel]] = None) -> Ensemble:
    """Train ``size`` members under plain CE; member j uses seed base_seed + j.

    Member j starts from ``init[j]`` when given (fine-tuning), else from a
    fresh init under its seed; the seed also drives its shuffle stream. All
    members train in lockstep as one stack in a single ``train`` call. The
    members returned are views of the trained stack.
    """
    if size < 1:
        raise ValueError("ensemble size must be >= 1")
    if init is not None and len(init) != size:
        raise ValueError("init needs one model per member")
    if init is None:
        init = [init_model(dims, base_seed + j, weight_init=config.weight_init)
                for j in range(size)]
    stack = train(stack_models(init), features, labels, make_ce_objective(labels),
                  with_seed(config, base_seed)).model
    return Ensemble([stack.member(j) for j in range(size)])


@dataclass(frozen=True)
class SweepRow:
    COLUMNS: ClassVar[Tuple[str, ...]] = ("L", "er_old", "er_new", "nfr", "rel_nfr")

    size: int
    er_old: float
    er_new: float
    nfr: float
    rel_nfr: Optional[float]


@dataclass
class SweepResult:
    rows: List[SweepRow]

    def to_csv(self) -> str:
        return csv_text(SweepRow.COLUMNS,
                        (as_record(r).values() for r in self.rows))


def sweep_ensemble_size(old_dims: Sequence[int], new_dims: Sequence[int],
                        dataset: Dataset, config: TrainConfig,
                        sizes: Sequence[int], old_base_seed: int,
                        new_base_seed: int) -> SweepResult:
    """Flip metrics between old and new ensembles for each requested size.

    Trains max(sizes) members per side once and evaluates every size L on
    the first L members, which is exactly the ensemble train_ensemble would
    produce for that L: the running member-order sum of their logits is the
    sum ``Ensemble.predict_batch`` takes. Seed ranges for the two sides must
    not overlap.
    """
    sizes = [int(s) for s in sizes]
    if not sizes or sizes != sorted(sizes) or sizes[0] < 1:
        raise ValueError("sizes must be ascending and >= 1")
    top = sizes[-1]
    if abs(old_base_seed - new_base_seed) < top:
        raise ValueError("old and new seed ranges overlap")

    train_x = dataset.features[dataset.rows_of_split(SPLIT_TRAIN)]
    train_y = dataset.labels[dataset.rows_of_split(SPLIT_TRAIN)]
    test_x = dataset.features[dataset.rows_of_split(SPLIT_TEST)]
    test_y = dataset.labels[dataset.rows_of_split(SPLIT_TEST)]

    old_ens = train_ensemble(old_dims, train_x, train_y, config, top,
                             old_base_seed)
    new_ens = train_ensemble(new_dims, train_x, train_y, config, top,
                             new_base_seed)
    workspace = Workspace()
    old_sums = old_ens.logit_sums(test_x, workspace, "old")
    new_sums = new_ens.logit_sums(test_x, workspace, "new")
    rows, summed = [], 0
    for size in sizes:
        for _ in range(size - summed):
            old_total, new_total = next(old_sums), next(new_sums)
        summed = size
        report = report_from_arrays(test_y, np.argmax(old_total, axis=1),
                                    np.argmax(new_total, axis=1))
        rows.append(SweepRow(size, report.er_old, report.er_new, report.nfr,
                             report.rel_nfr))
    return SweepResult(rows)
