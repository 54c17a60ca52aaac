"""Independently trained model ensembles.

``Ensemble`` scores a group of models. ``train_ensemble`` builds and
trains every weight stack in the package: every old side, the size
sweep's new side and each repetition stack of ``harness.run_experiment``.
``check_old_side`` rejects a diverged old side. The size sweep,
``harness.sweep_ensemble``, runs on a ``harness.ScenarioState``: its L
row is the ``ensemble`` method's repetition 0 for a full-data scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

# tracer-only imports: see tests/test_package.py::TRACER_ONLY_IMPORTS
from .flips import report_from_arrays
from .losses import make_ce_objective
from .nn import (DimensionError, MLPModel, Objective, TrainConfig, Workspace,
                 batch_logits, block_cuts, forward_into, init_model,
                 stack_models, train)


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
        first = self.members[0]
        for j, m in enumerate(self.members):
            if m.stack_size is not None:
                raise ValueError(f"member {j} is a stack of {m.stack_size} models")
            if m.input_dim != first.input_dim or m.num_classes != first.num_classes:
                raise ValueError("members must share input_dim and class count")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def num_classes(self) -> int:
        return self.members[0].num_classes

    def predictions(self, row_sets: Sequence[np.ndarray], sizes: Sequence[int],
                    workspace: Workspace) -> List[np.ndarray]:
        """One ``(len(sizes), n)`` array per set of n rows in ``row_sets``:
        the predictions of the first L members, for each L of the ascending
        ``sizes``, in one pass over the set.

        The rows run in the blocks of ``nn.block_cuts`` for the widest layer
        of any member, so each member's ``forward_into`` on a block is one
        block of its own. Before the first forward, ``workspace`` gets the
        first member's layer buffers and the running sum's ``"sum"``, each
        as long as the longest block of any set, so no buffer grows between
        sets. Only the integer predictions span all the rows."""
        if not sizes or sizes[0] < 1 or sizes[-1] > self.size \
                or any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"sizes must ascend strictly within [1, {self.size}]")
        widest = max(l.fan_out for m in self.members for l in m.layers)
        cuts = [block_cuts(len(x), widest) for x in row_sets]
        rows = max(c[-1] - c[-2] for c in cuts)  # a last block is a longest
        for i, layer in enumerate(self.members[0].layers):
            workspace.get(i, (rows, layer.fan_out))
        workspace.get("sum", (rows, self.num_classes))
        out = []
        for x, cut in zip(row_sets, cuts):
            preds = np.empty((len(sizes), len(x)), dtype=np.intp)
            for start, stop in zip(cut, cut[1:]):
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
            out.append(preds)
        return out

    def predict_batch(self, x: np.ndarray, workspace: Workspace) -> np.ndarray:
        """The prediction of all the members, scored in ``workspace``."""
        return self.predictions([x], [self.size], workspace)[0][0]

    def parameter_count(self) -> int:
        return sum(m.parameter_count() for m in self.members)


def train_ensemble(dims: Sequence[int], features: np.ndarray, labels: np.ndarray,
                   config: TrainConfig, size: int, base_seed: int,
                   init: Optional[Sequence[MLPModel]] = None,
                   objective: Optional[Objective] = None,
                   on_epoch_end: Optional[Callable[[int, MLPModel], None]] = None,
                   ) -> Ensemble:
    """Train ``size`` members as one stack; member j uses seed base_seed + j.

    Member j starts from ``init[j]``, of layer sizes ``dims``, when given
    (fine-tuning), else from a fresh init under its seed. The stack trains
    in one ``nn.train`` call from seed base_seed, which fixes each member's
    shuffle, under ``objective`` (plain CE on ``labels`` when None) and
    ``on_epoch_end``. The members returned are views of the trained stack."""
    if size < 1:
        raise ValueError("ensemble size must be >= 1")
    if init is not None and len(init) != size:
        raise ValueError("init needs one model per member")
    if init is None:
        init = [init_model(dims, base_seed + j) for j in range(size)]
    else:
        given = [l.fan_in for l in init[0].layers] + [init[0].num_classes]
        if given != list(dims):
            raise DimensionError(f"init has dims {given}, not {list(dims)}")
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
