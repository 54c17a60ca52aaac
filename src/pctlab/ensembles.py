"""Independently trained model ensembles.

An ensemble predicts the argmax of its member logits summed in member
order. The sum skips the 1/L of the mean, so one exact rule scores every
ensemble: the old side, the new side of every run (a single model is an
ensemble of one) and every size of the sweep. ``Ensemble.predictions``
scores the first L members for each requested L in one pass over the rows,
in the row blocks of ``nn.block_cuts``: each block runs through the members
in order, their running sum is one block long, and only the integer
predictions span all the rows.
``train_ensemble`` builds and trains every weight stack in the package:
member j from seed base_seed + j (its init and its shuffle), all members in
lockstep as one ``(M, fan_in, fan_out)`` weight stack through a single
``nn.train`` call, under plain CE or the objective it is given. Stacks are
therefore reproducible, member j equals a solo run under its seed bit for
bit, and two stacks built from disjoint seed ranges are independent. The
old side of every update, the size sweep and every repetition stack of
``harness.run_experiment`` train through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .datasets import SPLIT_TEST, SPLIT_TRAIN, Dataset
from .flips import report_from_arrays
from .losses import make_ce_objective
# batch_logits is not called here; it stays importable from this module
# because pctbench/tracing.py wraps it by name
from .nn import (MLPModel, Objective, TrainConfig, Workspace, batch_logits,
                 block_cuts, forward_into, init_model, stack_models, train)
from .tables import Table


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

    def predictions(self, x: np.ndarray, sizes: Sequence[int],
                    workspace: Workspace) -> np.ndarray:
        """``(len(sizes), n)`` row argmaxes of the member-order logit sum of
        the first L members, for each L of the ascending ``sizes``; ties
        resolve to the lowest index.

        The rows run in the blocks of ``nn.block_cuts`` for the widest layer
        of any member. Each member's ``forward_into`` on a block is then one
        block of its own, and the running sum lives in ``workspace``'s
        buffer ``"sum"``, one block long, because each forward overwrites the
        last one's logits.
        """
        if not sizes or sizes[0] < 1 or sizes[-1] > self.size \
                or any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"sizes must ascend strictly within [1, {self.size}]")
        widest = max(l.fan_out for m in self.members for l in m.layers)
        cuts = block_cuts(len(x), widest)
        preds = np.empty((len(sizes), len(x)), dtype=np.intp)
        for start, stop in zip(cuts, cuts[1:]):
            total = workspace.get("sum", (stop - start, self.num_classes))
            slot = 0
            for j, member in enumerate(self.members[:sizes[-1]]):
                logits = forward_into(member, x[start:stop], workspace)
                if j == 0:
                    total[...] = logits
                else:
                    total += logits
                if j + 1 == sizes[slot]:
                    np.argmax(total, axis=1, out=preds[slot, start:stop])
                    slot += 1
        return preds

    def predict_batch(self, x: np.ndarray, workspace: Workspace) -> np.ndarray:
        """Argmax of the member logits summed in member order; ties resolve
        to the lowest index. The sum runs in ``workspace``'s buffers."""
        return self.predictions(x, [self.size], workspace)[0]

    def parameter_count(self) -> int:
        return sum(m.parameter_count() for m in self.members)


def train_ensemble(dims: Sequence[int], features: np.ndarray, labels: np.ndarray,
                   config: TrainConfig, size: int, base_seed: int,
                   init: Optional[Sequence[MLPModel]] = None,
                   objective: Optional[Objective] = None,
                   on_epoch_end: Optional[Callable[[int, MLPModel], None]] = None,
                   ) -> Ensemble:
    """Train ``size`` members as one stack; member j uses seed base_seed + j.

    Member j starts from ``init[j]`` when given (fine-tuning), else from a
    fresh init under its seed; the seed also drives its shuffle stream. All
    members train in lockstep under ``objective`` (plain CE on ``labels``
    when None) in a single ``train`` call, which calls
    ``on_epoch_end(epoch, stack)`` once per epoch with the live stack. The
    members returned are views of the trained stack.
    """
    if size < 1:
        raise ValueError("ensemble size must be >= 1")
    if init is not None and len(init) != size:
        raise ValueError("init needs one model per member")
    if init is None:
        init = [init_model(dims, base_seed + j) for j in range(size)]
    stack = train(stack_models(init), features, labels,
                  make_ce_objective(labels) if objective is None else objective,
                  replace(config, seed=base_seed), on_epoch_end=on_epoch_end).model
    return Ensemble([stack.member(j) for j in range(size)])


def check_old_side(old: Ensemble) -> None:
    """Raise ValueError, naming the member, if a trained old side diverged:
    every flip is scored against it, and a model whose weights are not
    finite predicts class 0 on every row."""
    for j, member in enumerate(old.members):
        if not all(np.isfinite(a).all() for layer in member.layers
                   for a in (layer.weights, layer.bias)):
            raise ValueError(f"the old side diverged: member {j}'s weights "
                             "are not finite")


@dataclass(frozen=True)
class SweepRow:
    size: int = field(metadata={"key": "L"})
    er_old: float
    er_new: float
    nfr: float
    rel_nfr: Optional[float]


def sweep_ensemble_size(old_dims: Sequence[int], new_dims: Sequence[int],
                        dataset: Dataset, config: TrainConfig,
                        sizes: Sequence[int], old_base_seed: int,
                        new_base_seed: int) -> Table:
    """One ``SweepRow`` of old/new ensemble flip metrics per requested size.

    Trains max(sizes) members per side once and scores every size L on the
    first L members, one side at a time, which is exactly the ensemble
    train_ensemble would produce for that L: ``Ensemble.predictions`` takes
    the argmax of the same member-order sum as ``Ensemble.predict_batch``.
    Seed ranges for the two sides must not overlap.
    """
    sizes = [int(s) for s in sizes]
    if not sizes or sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending and >= 1")
    top = sizes[-1]
    if abs(old_base_seed - new_base_seed) < top:
        raise ValueError("old and new seed ranges overlap")

    train_x = dataset.features[dataset.rows_of_split(SPLIT_TRAIN)]
    train_y = dataset.labels[dataset.rows_of_split(SPLIT_TRAIN)]
    test_x = dataset.features[dataset.rows_of_split(SPLIT_TEST)]
    test_y = dataset.labels[dataset.rows_of_split(SPLIT_TEST)]

    with np.errstate(all="ignore"):     # check_old_side reports a divergence
        old_ens = train_ensemble(old_dims, train_x, train_y, config, top,
                                 old_base_seed)
    check_old_side(old_ens)
    new_ens = train_ensemble(new_dims, train_x, train_y, config, top,
                             new_base_seed)
    workspace = Workspace()
    old_preds = old_ens.predictions(test_x, sizes, workspace)
    new_preds = new_ens.predictions(test_x, sizes, workspace)
    rows = []
    for size, old_row, new_row in zip(sizes, old_preds, new_preds):
        report = report_from_arrays(test_y, old_row, new_row)
        rows.append(SweepRow(size, report.er_old, report.er_new, report.nfr,
                             report.rel_nfr))
    return Table(rows)
