"""Training objectives for congruence-aware model updates.

The total objective is ``CE + lambda * PC``, where the PC (positive
congruence) term penalizes drifting away from a frozen reference model;
``PCLossConfig`` names its modes. ``make_objective`` builds the one batch
objective that ``nn.train`` consumes, reading the reference model's
outputs from an ``OldModelOracle``. ``distance_kl`` is the one
per-sample form kept here; the per-sample oracles the batch objective is
tested against live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# tracer-only import: see tests/test_package.py::TRACER_ONLY_IMPORTS
from .nn import (DimensionError, MLPModel, Workspace, batch_logits, ce_rows,
                 forward_into, row_max)
from .tables import check_fields

DISTANCE_KINDS = ("kl", "logit_match")
PC_MODES = ("none", "naive", "focal")


@dataclass(frozen=True)
class FilterSpec:
    """Per-sample weight: ``alpha`` always, plus ``beta`` when the reference
    model classified the sample correctly."""

    alpha: float = 1.0
    beta: float = 5.0

    def __post_init__(self):
        check_fields(self)
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("filter weights must be non-negative")


@dataclass(frozen=True)
class DistanceSpec:
    """The focal distance: ``kind`` "kl" is ``distance_kl`` at temperature
    ``tau``, "logit_match" half the squared logit distance."""

    kind: str = field(default="logit_match", metadata={"key": "distance"})
    tau: float = 100.0

    def __post_init__(self):
        check_fields(self)
        if self.kind not in DISTANCE_KINDS:
            raise ValueError(f"unknown distance kind {self.kind!r}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")


@dataclass(frozen=True)
class PCLossConfig:
    """The PC term: ``mode`` "none" has none, "naive" re-weights the
    cross-entropy so that samples the reference got right count
    ``1 + lam`` times, and "focal" adds ``lam`` times the ``distance`` to
    the reference logits, weighted per sample by ``filter``."""

    mode: str = field(default="none", metadata={"key": None})
    lam: float = field(default=1.0, metadata={"key": "lambda"})
    filter: FilterSpec = field(default_factory=FilterSpec,
                               metadata={"flat": True})
    distance: DistanceSpec = field(default_factory=DistanceSpec,
                                   metadata={"flat": True})

    def __post_init__(self):
        check_fields(self)
        if self.mode not in PC_MODES:
            raise ValueError(f"unknown PC mode {self.mode!r}")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")


class OldModelOracle:
    """Frozen reference-model outputs over a training set: its logits,
    per-sample correctness flags and predictions, cached once so training
    never re-evaluates the old model. ``logit_index`` records where each
    reference class sits in the new logit vector (identity when the label
    spaces coincide)."""

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
        """Evaluate a reference model once over ``features``. ``class_map[j]``
        is the label (in the evaluation label space) that the reference model's
        class j denotes; identity when omitted."""
        labels = np.asarray(labels, dtype=np.int64)
        logits = forward_into(model, features, Workspace())
        preds = np.argmax(logits, axis=1)
        if labels.shape != preds.shape:
            raise DimensionError("labels must be 1-D and match the feature rows")
        if class_map is not None:
            class_map = np.asarray(class_map, dtype=np.int64)
            pred_labels = class_map[preds]
        else:
            pred_labels = preds
        return cls(logits, pred_labels == labels, pred_labels, class_map)


def _log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of 2-D ``x``, shifted by its row max."""
    z = x - row_max(x)[:, None]
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    return z


def distance_kl(new_logits: np.ndarray, old_logits: np.ndarray,
                tau: float) -> tuple:
    """KL(softmax(old/tau) || softmax(new/tau)), the reference side being
    the target distribution, and its gradient w.r.t. the new logits."""
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
# the batch objective (vectorized; consumed by nn.train)


def make_ce_objective(labels: np.ndarray):
    """Plain mean cross-entropy over the batch: ``make_objective`` with no PC
    term."""
    return make_objective(labels, None, PCLossConfig())


def make_objective(labels: np.ndarray, oracle: Optional[OldModelOracle],
                   config: PCLossConfig):
    """Batch-mean of the per-sample total objective ``CE_i + lambda * PC_i``
    (``PCLossConfig``), as an ``nn.Objective``.

    One closure serves every mode: the CE rows and their gradient, then the
    batch mean (``naive`` folds its weight into it), then, for ``focal``
    only, the weighted distance term; with ``mode="none"`` it needs no
    oracle. A stack's ``(M, B, K)`` logits with ``(M, B)`` indices run as
    M * B rows through the same per-row ops, so member m's gradient, its own
    batch mean, equals that of its own 2-D call bit for bit; the loss is the
    mean over all M * B rows.

    The oracle is frozen, so the naive weight, the focal weight and, for
    KL, the reference's tau-softened log-softmax and its exp are computed
    here once per training row. A step gathers them by index: row by row,
    bit for bit what it would compute from the gathered rows. The focal
    term's reference columns are fixed here too: a slice of the leading
    columns when ``logit_index`` is ``arange(size)``, the index array
    otherwise. A step gathers the new logits' columns and adds their
    gradient back through them."""
    mode, lam = config.mode, config.lam
    if mode != "none" and oracle is None:
        raise ValueError(f"PC mode {mode!r} needs a reference-model oracle")
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if mode != "none" and oracle.logits.shape[0] != len(labels):
        raise DimensionError(
            f"oracle has {oracle.logits.shape[0]} rows for {len(labels)} labels")
    if mode == "naive":
        weight = 1.0 + lam * oracle.old_correct
    elif mode == "focal":
        filt, dist = config.filter, config.distance
        weight = filt.alpha + filt.beta * oracle.old_correct
        size = oracle.logit_index.size
        cols = (slice(0, size)
                if np.array_equal(oracle.logit_index, np.arange(size))
                else oracle.logit_index)
        kl = dist.kind == "kl"
        if kl:
            ls_old_all = _log_softmax_rows(oracle.logits / dist.tau)
            p_old_all = np.exp(ls_old_all)

    def objective(logits, idx):
        idx = idx.ravel()
        y = labels[idx]
        n, k, b = y.shape[0], logits.shape[-1], logits.shape[-2]
        rows = logits.reshape(n, k)
        losses, dlogits = ce_rows(rows, y)
        if mode == "naive":
            w = weight[idx]
            losses *= w
            dlogits *= (w / b)[:, None]
        else:
            dlogits /= b
        # sum() / n is how np.mean divides
        loss = losses.sum() / n
        if mode == "focal":
            sub = np.ascontiguousarray(rows[:, cols])
            if kl:
                ls_new = _log_softmax_rows(sub / dist.tau)
                ls_old = ls_old_all.take(idx, axis=0)
                p_old = p_old_all.take(idx, axis=0)
                d = np.maximum((p_old * (ls_old - ls_new)).sum(axis=1), 0.0)
                sub_grad = np.exp(ls_new, out=ls_new)
                sub_grad -= p_old
                sub_grad /= dist.tau
            else:
                sub_grad = sub - oracle.logits.take(idx, axis=0)
                d = 0.5 * (sub_grad * sub_grad).sum(axis=1)
            f = weight[idx]
            loss = loss + lam * ((f * d).sum() / n)
            sub_grad *= (lam / b) * f[:, None]
            dlogits[:, cols] += sub_grad
        return float(loss), dlogits.reshape(logits.shape)

    return objective
