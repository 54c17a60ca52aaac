"""Independently trained model ensembles.

``Ensemble`` scores a group of models and ``scoring_workspace`` sizes its
buffers. ``train_ensemble`` builds and trains every weight stack in the
package: every old side, the size sweep and each repetition stack of
``harness.run_experiment``. ``check_old_side`` rejects a diverged old
side, and ``sweep_ensemble_size`` measures flips against ensemble size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .datasets import SPLIT_TEST, SPLIT_TRAIN, Dataset
from .flips import report_from_arrays
from .losses import make_ce_objective
# tracer-only import: see tests/test_package.py::TRACER_ONLY_IMPORTS
from .nn import (MLPModel, Objective, TrainConfig, Workspace, batch_logits,
                 block_cuts, forward_into, init_model, stack_models, train)
from .tables import Table, check_value


@dataclass
class Ensemble:
    """Models that predict the argmax of their logits summed in member
    order; ties resolve to the lowest index. The sum skips the 1/L of the
    mean, so one exact rule scores every ensemble: the old side, the new
    side of every run (a single model is an ensemble of one) and every size
    of the sweep."""

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
        """``(len(sizes), n)`` predictions of the first L members, for each L
        of the ascending ``sizes``, in one pass over the rows.

        The rows run in the blocks of ``nn.block_cuts`` for the widest layer
        of any member, so each member's ``forward_into`` on a block is one
        block of its own. The running sum lives in ``workspace``'s buffer
        ``"sum"``, one block long, and only the integer predictions span all
        the rows."""
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
        """The prediction of all the members, scored in ``workspace``."""
        return self.predictions(x, [self.size], workspace)[0]

    def parameter_count(self) -> int:
        return sum(m.parameter_count() for m in self.members)


def scoring_workspace(model: MLPModel, *row_counts: int) -> Workspace:
    """A fresh ``Workspace`` holding every buffer that ``predictions`` of
    members shaped like ``model`` (one model or a stack) needs on each of
    ``row_counts`` rows, each sized once for the longest row block among
    them, so that no buffer grows while they are scored.

    A workspace serves one epoch's scoring: ``harness.run_experiment`` takes
    a fresh one each epoch, and an old side scores in one of its own, so the
    scoring buffers die before the next epoch trains and take turns with the
    training steps' arrays in the same heap memory."""
    widest = max(layer.fan_out for layer in model.layers)
    rows = max(cuts[-1] - cuts[-2]
               for cuts in (block_cuts(n, widest) for n in row_counts))
    workspace = Workspace()
    for i, layer in enumerate(model.layers):
        workspace.get(i, (rows, layer.fan_out))
    workspace.get("sum", (rows, model.num_classes))
    return workspace


def train_ensemble(dims: Sequence[int], features: np.ndarray, labels: np.ndarray,
                   config: TrainConfig, size: int, base_seed: int,
                   init: Optional[Sequence[MLPModel]] = None,
                   objective: Optional[Objective] = None,
                   on_epoch_end: Optional[Callable[[int, MLPModel], None]] = None,
                   ) -> Ensemble:
    """Train ``size`` members as one stack; member j uses seed base_seed + j.

    Member j starts from ``init[j]`` when given (fine-tuning), else from a
    fresh init under its seed. The stack trains in one ``nn.train`` call
    from seed base_seed, which fixes each member's shuffle, under
    ``objective`` (plain CE on ``labels`` when None) and ``on_epoch_end``.
    The members returned are views of the trained stack."""
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
    first L members: exactly the ensemble ``train_ensemble`` would produce
    for that L. Seed ranges for the two sides must not overlap."""
    sizes = check_value(Tuple[int, ...], list(sizes), "ensemble sizes")
    if not sizes or sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending and >= 1")
    top = sizes[-1]
    if abs(old_base_seed - new_base_seed) < top:
        raise ValueError("old and new seed ranges overlap")

    train_rows = dataset.rows_of_split(SPLIT_TRAIN)
    test_rows = dataset.rows_of_split(SPLIT_TEST)
    train_x, train_y = dataset.features[train_rows], dataset.labels[train_rows]
    test_x, test_y = dataset.features[test_rows], dataset.labels[test_rows]
    del dataset, train_rows, test_rows  # both sides need only the splits

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
