"""One-sample and one-record reference forms of the library's batch code.

``pctlab`` computes on whole batches: objectives through
``losses.make_objective``, flip counts through ``flips.report_from_arrays``.
The functions here are the slow, obvious per-sample and per-record forms
that the tests check those batch paths against, the training step in its
per-array form (fresh gradient arrays, row sums, one update per array)
that ``nn.train`` must match bit for bit, plus the CSV reader that checks
``Dataset.to_csv`` round-trips. Nothing under ``src/`` calls them.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

import numpy as np

from pctlab.config import from_document
from pctlab.datasets import SPLIT_NAMES, Dataset
from pctlab.flips import FlipReport, report_from_counts
from pctlab.losses import (DistanceSpec, FilterSpec, OldModelOracle,
                           PCLossConfig, distance_kl)
from pctlab.nn import (DimensionError, MLPModel, TrainConfig, ce_rows,
                       forward_batch, predict_batch)
from pctlab.rng import STREAM_SHUFFLE, stream_rng

# ---------------------------------------------------------------------------
# nn


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax of a logit vector (max-subtracted)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise DimensionError("softmax expects a 1-D logit vector")
    e = np.exp(logits - logits.max())
    return e / e.sum()


def cross_entropy(logits: np.ndarray, label: int) -> float:
    """-log softmax(logits)[label], computed via log-sum-exp."""
    return ce_value_grad(logits, label)[0]


def error_rate(model: MLPModel, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(predict_batch(model, x) != np.asarray(y)))


def ce_rows_2d(logits: np.ndarray, labels: np.ndarray) -> tuple:
    """``nn.ce_rows`` with every op a fresh array and a 2-D label gather."""
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    s = e.sum(axis=1, keepdims=True)
    rows = np.arange(logits.shape[0])
    return m[:, 0] + np.log(s[:, 0]) - logits[rows, labels], e / s


def backward_per_array(model: MLPModel, cache, dlogits: np.ndarray) -> list:
    """``nn.backward_batch`` into fresh arrays, bias gradients as row sums."""
    grads = [None] * len(model.layers)
    dz = dlogits
    for i in range(len(model.layers) - 1, -1, -1):
        a_prev = cache.x if i == 0 else cache.activations[i - 1]
        grads[i] = (a_prev.swapaxes(-1, -2) @ dz, dz.sum(axis=-2))
        if i > 0:
            dz = dz @ model.layers[i].weights.swapaxes(-1, -2)
            if model.layers[i - 1].activation == "relu":
                dz *= cache.pre_activations[i - 1] > 0.0
    return grads


def zero_velocity(model: MLPModel) -> list:
    return [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.layers]


def sgd_step_per_array(model: MLPModel, grads: list, velocity: list,
                       config: TrainConfig, epoch: int) -> None:
    """``nn.sgd_step`` as one momentum update per weight and bias array."""
    lr, mu = config.lr_at(epoch), config.momentum
    for layer, (dw, db), (vw, vb) in zip(model.layers, grads, velocity):
        for param, vel, grad in ((layer.weights, vw, dw), (layer.bias, vb, db)):
            vel *= mu
            vel -= lr * grad
            param += vel


def train_per_array(model: MLPModel, features: np.ndarray, objective,
                    config: TrainConfig) -> MLPModel:
    """``nn.train``'s shuffle and steps, with the per-array backward and
    update above; returns the trained copy of ``model``."""
    model = model.copy()
    velocity = zero_velocity(model)
    n, size, bs = features.shape[0], model.stack_size, config.batch_size
    for epoch in range(config.epochs):
        if size is None:
            order = stream_rng(config.seed, STREAM_SHUFFLE, epoch).permutation(n)
        else:
            order = np.stack([stream_rng(config.seed + j, STREAM_SHUFFLE, epoch)
                              .permutation(n) for j in range(size)])
        for start in range(0, n, bs):
            idx = order[..., start:start + bs]
            cache = forward_batch(model, features.take(idx, axis=0))
            _, dlogits = objective(cache.logits, idx)
            sgd_step_per_array(model, backward_per_array(model, cache, dlogits),
                               velocity, config, epoch)
    return model


# ---------------------------------------------------------------------------
# losses: per-sample objectives, each returning (value, gradient w.r.t. the
# new logits)


@dataclass(frozen=True)
class OracleEntry:
    """Reference-model cache for one training sample."""

    old_logits: np.ndarray
    old_correct: bool
    logit_index: np.ndarray  # positions of the reference classes in the new logit vector


def oracle_entry(oracle: OldModelOracle, i: int) -> OracleEntry:
    if not 0 <= i < len(oracle):
        raise IndexError(f"no oracle entry for sample {i}")
    return OracleEntry(oracle.logits[i], bool(oracle.old_correct[i]),
                       oracle.logit_index)


def distance_lm(new_logits: np.ndarray, old_logits: np.ndarray) -> tuple:
    """Half squared Euclidean distance between logit vectors; gradient is
    simply (new - old)."""
    new_logits = np.asarray(new_logits, dtype=np.float64)
    old_logits = np.asarray(old_logits, dtype=np.float64)
    if new_logits.shape != old_logits.shape:
        raise DimensionError("logit vectors must have equal length")
    diff = new_logits - old_logits
    return 0.5 * float(np.dot(diff, diff)), diff


def filter_weight(spec: FilterSpec, old_correct: bool) -> float:
    """The focal filter's weight for one sample."""
    return spec.alpha + spec.beta if old_correct else spec.alpha


def ce_value_grad(logits: np.ndarray, label: int) -> tuple:
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise DimensionError("expected a 1-D logit vector")
    if not 0 <= label < logits.shape[0]:
        raise IndexError(f"label {label} out of range")
    losses, probs = ce_rows(logits[None, :], np.array([label], dtype=np.int64))
    grad = probs[0]
    grad[label] -= 1.0
    return float(losses[0]), grad


def pc_loss_naive(new_logits: np.ndarray, label: int, old_correct: bool) -> tuple:
    """Cross-entropy gated on the reference model being correct."""
    if not old_correct:
        return 0.0, np.zeros(np.asarray(new_logits).shape[0])
    return ce_value_grad(new_logits, label)


def pc_loss_focal(new_logits: np.ndarray, entry: OracleEntry,
                  filt: FilterSpec, dist: DistanceSpec) -> tuple:
    """Filter-weighted distillation distance to the reference logits.

    With more new classes than reference classes, the distance only sees the
    logits at ``entry.logit_index``; the gradient is zero elsewhere.
    """
    new_logits = np.asarray(new_logits, dtype=np.float64)
    sub = new_logits[entry.logit_index]
    if dist.kind == "kl":
        value, sub_grad = distance_kl(sub, entry.old_logits, dist.tau)
    else:
        value, sub_grad = distance_lm(sub, entry.old_logits)
    weight = filter_weight(filt, entry.old_correct)
    grad = np.zeros_like(new_logits)
    grad[entry.logit_index] = weight * sub_grad
    return weight * value, grad


def total_objective(new_logits: np.ndarray, label: int, entry: OracleEntry,
                    config: PCLossConfig) -> tuple:
    """Per-sample CE + lambda * PC term, with gradient w.r.t. new logits."""
    ce, grad = ce_value_grad(new_logits, label)
    if config.mode == "none":
        return ce, grad
    if config.mode == "naive":
        pc, pc_grad = pc_loss_naive(new_logits, label, entry.old_correct)
    else:
        pc, pc_grad = pc_loss_focal(new_logits, entry, config.filter, config.distance)
    return ce + config.lam * pc, grad + config.lam * pc_grad


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax in its textbook form, x - m - log(sum(exp(x - m)))
    with m the row max, each operation a fresh array."""
    m = x.max(axis=1, keepdims=True)
    return x - m - np.log(np.exp(x - m).sum(axis=1, keepdims=True))


def ce_objective(labels: np.ndarray):
    """``make_ce_objective`` through ``ce_rows_2d``, a 2-D scatter and
    ``np.mean``."""
    def objective(logits, idx):
        y = labels[idx].ravel()
        losses, probs = ce_rows_2d(logits.reshape(-1, logits.shape[-1]), y)
        dlogits = probs
        dlogits[np.arange(y.shape[0]), y] -= 1.0
        dlogits /= logits.shape[-2]
        return float(losses.mean()), dlogits.reshape(logits.shape)

    return objective


def per_step_objective(labels: np.ndarray, oracle: OldModelOracle,
                       config: PCLossConfig):
    """``make_objective``'s naive and focal batch objectives in their
    per-step form: every old-side quantity is computed from the gathered
    rows on each call, the focal term always gathers the new logits by
    ``logit_index`` and scatter-adds its gradient back, the KL term takes
    its own row maxima, every operation makes a fresh array, the CE part
    runs ``ce_rows_2d`` and the loss uses ``np.mean``."""
    lam, filt, dist = config.lam, config.filter, config.distance

    def objective(logits, idx):
        idx = idx.ravel()
        y = labels[idx]
        rows = logits.reshape(-1, logits.shape[-1])
        losses, probs = ce_rows_2d(rows, y)
        b = logits.shape[-2]
        dlogits = probs
        dlogits[np.arange(y.shape[0]), y] -= 1.0
        if config.mode == "naive":
            w = 1.0 + lam * oracle.old_correct[idx]
            dlogits *= (w / b)[:, None]
            return float(np.mean(w * losses)), dlogits.reshape(logits.shape)
        sub = np.ascontiguousarray(rows[:, oracle.logit_index])
        old = oracle.logits[idx]
        if dist.kind == "kl":
            ls_new = log_softmax_rows(sub / dist.tau)
            ls_old = log_softmax_rows(old / dist.tau)
            p_old = np.exp(ls_old)
            d = np.maximum((p_old * (ls_old - ls_new)).sum(axis=1), 0.0)
            sub_grad = (np.exp(ls_new) - p_old) / dist.tau
        else:
            diff = sub - old
            d = 0.5 * (diff * diff).sum(axis=1)
            sub_grad = diff
        f = filt.alpha + filt.beta * oracle.old_correct[idx]
        dlogits /= b
        dlogits[:, oracle.logit_index] += (lam / b) * f[:, None] * sub_grad
        loss = float(losses.mean() + lam * np.mean(f * d))
        return loss, dlogits.reshape(logits.shape)

    return objective


# ---------------------------------------------------------------------------
# flips: record-at-a-time bookkeeping


class FlipQuadrant(Enum):
    BOTH_CORRECT = "both_correct"
    NEGATIVE_FLIP = "negative_flip"
    POSITIVE_FLIP = "positive_flip"
    BOTH_WRONG = "both_wrong"


@dataclass(frozen=True)
class PredictionRecord:
    sample_id: int
    true_label: int
    old_pred: int
    new_pred: int


def classify_flip(record: PredictionRecord) -> FlipQuadrant:
    old_ok = record.old_pred == record.true_label
    new_ok = record.new_pred == record.true_label
    if old_ok and new_ok:
        return FlipQuadrant.BOTH_CORRECT
    if old_ok:
        return FlipQuadrant.NEGATIVE_FLIP
    if new_ok:
        return FlipQuadrant.POSITIVE_FLIP
    return FlipQuadrant.BOTH_WRONG


def records_from_arrays(true_labels: Sequence[int], old_preds: Sequence[int],
                        new_preds: Sequence[int],
                        sample_ids: Optional[Sequence[int]] = None,
                        ) -> List[PredictionRecord]:
    n = len(true_labels)
    if len(old_preds) != n or len(new_preds) != n:
        raise ValueError("prediction arrays must have equal length")
    if sample_ids is None:
        sample_ids = range(n)
    return [PredictionRecord(int(s), int(y), int(o), int(p))
            for s, y, o, p in zip(sample_ids, true_labels, old_preds, new_preds)]


def compute_nfr(records: Sequence[PredictionRecord]) -> float:
    """Fraction of records where the reference was right and the update wrong."""
    if not records:
        raise ValueError("cannot compute a flip rate over an empty record set")
    nf = sum(classify_flip(r) is FlipQuadrant.NEGATIVE_FLIP for r in records)
    return nf / len(records)


def flip_report(records: Sequence[PredictionRecord]) -> FlipReport:
    """The report of a record set, counted one record at a time."""
    counts = Counter(classify_flip(r) for r in records)
    return report_from_counts(counts[FlipQuadrant.BOTH_CORRECT],
                              counts[FlipQuadrant.NEGATIVE_FLIP],
                              counts[FlipQuadrant.POSITIVE_FLIP],
                              counts[FlipQuadrant.BOTH_WRONG])


def flip_report_from_json(text: str) -> FlipReport:
    return from_document(FlipReport, json.loads(text), "report")


# ---------------------------------------------------------------------------
# datasets


def dataset_from_csv(text: str, num_classes: Optional[int] = None) -> Dataset:
    """Parse the CSV that ``Dataset.to_csv`` writes."""
    codes = {name: code for code, name in SPLIT_NAMES.items()}
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    dim = len(header) - 2
    feats, labels, split = [], [], []
    for row in reader:
        feats.append([float(v) for v in row[:dim]])
        labels.append(int(row[dim]))
        split.append(codes[row[dim + 1]])
    labels = np.array(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return Dataset(np.array(feats), labels, np.array(split, dtype=np.uint8),
                   num_classes)
