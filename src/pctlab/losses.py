"""Training objectives for congruence-aware model updates.

The total objective is ``CE + lambda * PC`` where the PC (positive
congruence) term penalizes drifting away from a frozen reference model:

* ``naive``  - cross-entropy re-weighted on samples the reference got right,
  i.e. those samples count ``1 + lambda`` times.
* ``focal``  - a distillation distance (temperature-scaled KL or half squared
  logit distance) weighted per sample by ``alpha + beta * [reference correct]``.

Objectives are computed on whole batches: the factories
``make_ce_objective`` and ``make_objective`` fold in the batch mean and are
what ``nn.train`` consumes. The one per-sample form kept here,
``distance_kl``, returns the value and the gradient w.r.t. the new logits
for one sample; the other per-sample oracles the batch code is tested
against (CE, the filter weight, the naive and focal PC terms, the logit
distance and their sum) live in ``tests/oracles.py``.

Every batch objective takes ``(B, K)`` logits with ``(B,)`` indices, or a
stack's ``(M, B, K)`` logits with ``(M, B)`` indices, which it flattens to
``M * B`` rows through the same per-row ops, so member m's gradient equals
that of its own 2-D call bit for bit.

The old side is frozen, so ``make_objective`` computes its per-row
quantities once per factory call, over every training row: the naive weight
``1 + lambda * old_correct``, the focal weight ``alpha + beta * old_correct``
and, for the KL distance, the old side's tau-softened log-softmax and its
exp. A step only gathers them by index. Each is computed row by row, so
the gathered rows equal what the step used to compute from the gathered
inputs, bit for bit. The focal objective selects the new logits' reference
columns once per step, through a full slice when the reference classes are
exactly the new model's classes in order (a view, no copy) and through
``logit_index`` otherwise, and adds its gradient back through the same
selector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# batch_logits is not called here; it stays importable from this module
# because pctbench/tracing.py wraps it by name
from .nn import (DimensionError, MLPModel, Workspace, batch_logits, ce_rows,
                 forward_into, label_positions, row_max)

DISTANCE_KINDS = ("kl", "logit_match")
PC_MODES = ("none", "naive", "focal")


@dataclass(frozen=True)
class FilterSpec:
    """Per-sample weight: ``alpha`` always, plus ``beta`` when the reference
    model classified the sample correctly."""

    alpha: float = 1.0
    beta: float = 5.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("filter weights must be non-negative")


@dataclass(frozen=True)
class DistanceSpec:
    kind: str = "logit_match"
    tau: float = 100.0

    def __post_init__(self):
        if self.kind not in DISTANCE_KINDS:
            raise ValueError(f"unknown distance kind {self.kind!r}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")


@dataclass(frozen=True)
class PCLossConfig:
    mode: str = "none"
    lam: float = 1.0
    filter: FilterSpec = field(default_factory=FilterSpec)
    distance: DistanceSpec = field(default_factory=DistanceSpec)

    def __post_init__(self):
        if self.mode not in PC_MODES:
            raise ValueError(f"unknown PC mode {self.mode!r}")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")


class OldModelOracle:
    """Frozen reference-model outputs over a training set.

    Caches the reference logits and per-sample correctness flags once, so
    training never re-evaluates the old model. When the new model has more
    classes, ``logit_index`` records where each reference class sits in the
    new logit vector (identity when the label spaces coincide).
    """

    def __init__(self, logits: np.ndarray, old_correct: np.ndarray,
                 old_pred: np.ndarray, logit_index: Optional[np.ndarray] = None):
        self.logits = np.ascontiguousarray(logits, dtype=np.float64)
        self.old_correct = np.asarray(old_correct, dtype=bool)
        self.old_pred = np.asarray(old_pred, dtype=np.int64)
        if logit_index is None:
            logit_index = np.arange(self.logits.shape[1], dtype=np.int64)
        self.logit_index = np.asarray(logit_index, dtype=np.int64)
        n = self.logits.shape[0]
        if self.old_correct.shape != (n,) or self.old_pred.shape != (n,):
            raise DimensionError("oracle arrays must align with the logit rows")
        if self.logit_index.shape != (self.logits.shape[1],):
            raise DimensionError("logit_index must have one entry per reference class")
        for arr in (self.logits, self.old_correct, self.old_pred, self.logit_index):
            arr.setflags(write=False)

    @classmethod
    def from_model(cls, model: MLPModel, features: np.ndarray, labels: np.ndarray,
                   class_map: Optional[np.ndarray] = None) -> "OldModelOracle":
        """Evaluate a reference model once over ``features``.

        ``class_map[j]`` is the label (in the evaluation label space) that the
        reference model's class j denotes; identity when omitted.
        """
        labels = np.asarray(labels, dtype=np.int64)
        logits = forward_into(model, features, Workspace())
        preds = np.argmax(logits, axis=1)
        if class_map is not None:
            class_map = np.asarray(class_map, dtype=np.int64)
            pred_labels = class_map[preds]
        else:
            pred_labels = preds
        return cls(logits, pred_labels == labels, pred_labels, class_map)

    def __len__(self) -> int:
        return self.logits.shape[0]


def _log_softmax_rows(x: np.ndarray, m: Optional[np.ndarray] = None) -> np.ndarray:
    """Row-wise log-softmax of 2-D ``x``; ``m`` is its row max as a column,
    computed when not given."""
    z = x - (row_max(x)[:, None] if m is None else m)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    return z


def distance_kl(new_logits: np.ndarray, old_logits: np.ndarray,
                tau: float) -> tuple:
    """KL between the tau-softened reference and new distributions.

    Value is KL(softmax(old/tau) || softmax(new/tau)); the reference side is
    the target distribution. Returns (value, gradient w.r.t. new logits).
    """
    new_logits = np.asarray(new_logits, dtype=np.float64)
    old_logits = np.asarray(old_logits, dtype=np.float64)
    if new_logits.shape != old_logits.shape:
        raise DimensionError("logit vectors must have equal length")
    if tau <= 0:
        raise ValueError("tau must be positive")
    ls_new = _log_softmax_rows(new_logits[None, :] / tau)[0]
    ls_old = _log_softmax_rows(old_logits[None, :] / tau)[0]
    p_old = np.exp(ls_old)
    value = float(np.dot(p_old, ls_old - ls_new))
    grad = (np.exp(ls_new) - p_old) / tau
    return max(value, 0.0), grad


# ---------------------------------------------------------------------------
# batch objective factories (vectorized; consumed by nn.train)


def make_ce_objective(labels: np.ndarray):
    """Plain mean cross-entropy over the batch.

    Also takes a stack's ``(M, B, K)`` logits with ``(M, B)`` indices: each
    member's gradient is its own batch mean, and the loss is the mean over
    all M * B rows.
    """
    labels = np.ascontiguousarray(labels, dtype=np.int64)

    def objective(logits, idx):
        y = labels[idx].ravel()
        n, k = y.shape[0], logits.shape[-1]
        at = label_positions(y, k)
        losses, dlogits = ce_rows(logits.reshape(n, k), y, at=at)
        dlogits.reshape(-1)[at] -= 1.0
        dlogits /= logits.shape[-2]
        # sum() / n is how np.mean divides
        return float(losses.sum() / n), dlogits.reshape(logits.shape)

    return objective


def make_objective(labels: np.ndarray, oracle: Optional[OldModelOracle],
                   config: PCLossConfig):
    """Batch-mean of the per-sample total objective.

    Equals ``mean_i [CE_i + lambda * PC_i]``; with ``mode="none"`` this is
    exactly the plain CE objective. Like ``make_ce_objective`` it also takes
    a stack's ``(M, B, K)`` logits with ``(M, B)`` indices: each member's
    gradient is its own batch mean, and the loss is the mean over all
    M * B rows.
    """
    if config.mode == "none":
        return make_ce_objective(labels)
    if oracle is None:
        raise ValueError(f"PC mode {config.mode!r} needs a reference-model oracle")
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    lam = config.lam

    if config.mode == "naive":
        weight = 1.0 + lam * oracle.old_correct

        def objective(logits, idx):
            idx = idx.ravel()
            y = labels[idx]
            n, k = y.shape[0], logits.shape[-1]
            at = label_positions(y, k)
            losses, dlogits = ce_rows(logits.reshape(n, k), y, at=at)
            w = weight[idx]
            losses *= w
            loss = float(losses.sum() / n)
            dlogits.reshape(-1)[at] -= 1.0
            dlogits *= (w / logits.shape[-2])[:, None]
            return loss, dlogits.reshape(logits.shape)

        return objective

    filt, dist = config.filter, config.distance
    weight = filt.alpha + filt.beta * oracle.old_correct
    logit_index = oracle.logit_index
    identity = np.array_equal(logit_index, np.arange(logit_index.size))
    if dist.kind == "kl":
        ls_old_all = _log_softmax_rows(oracle.logits / dist.tau)
        p_old_all = np.exp(ls_old_all)

    def objective(logits, idx):
        idx = idx.ravel()
        y = labels[idx]
        n = y.shape[0]
        rows = logits.reshape(n, logits.shape[-1])
        at = label_positions(y, rows.shape[1])
        m = row_max(rows)[:, None]
        losses, dlogits = ce_rows(rows, y, m, at)
        b = logits.shape[-2]
        full = identity and rows.shape[1] == logit_index.size
        cols = slice(None) if full else logit_index
        sub = np.ascontiguousarray(rows[:, cols])
        if dist.kind == "kl":
            # x -> x / tau is monotone for tau > 0, so over all columns the
            # row max of sub / tau is the CE row max over tau, bit for bit
            ls_new = _log_softmax_rows(sub / dist.tau,
                                       m / dist.tau if full else None)
            ls_old, p_old = ls_old_all[idx], p_old_all[idx]
            d = np.maximum((p_old * (ls_old - ls_new)).sum(axis=1), 0.0)
            sub_grad = np.exp(ls_new, out=ls_new)
            sub_grad -= p_old
            sub_grad /= dist.tau
        else:
            sub_grad = sub - oracle.logits[idx]
            d = 0.5 * (sub_grad * sub_grad).sum(axis=1)
        f = weight[idx]
        # sum() / n is how np.mean divides
        loss = float(losses.sum() / n + lam * ((f * d).sum() / n))
        dlogits.reshape(-1)[at] -= 1.0
        dlogits /= b
        sub_grad *= (lam / b) * f[:, None]
        dlogits[:, cols] += sub_grad
        return loss, dlogits.reshape(logits.shape)

    return objective
