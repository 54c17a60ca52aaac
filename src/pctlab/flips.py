"""Prediction-change bookkeeping between a reference and an updated model.

Every evaluation sample lands in exactly one quadrant: both models correct,
negative flip (reference right, update wrong), positive flip (reference
wrong, update right), or both wrong. All rates are kept as integer counts
and only turned into fractions when a report is assembled, so the set
identities (quadrants partition N, er_new - er_old = nfr - pfr) hold
exactly over the counts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np


class UndefinedMetricError(ValueError):
    """A rate normalization is undefined (e.g. the new model has zero error)."""


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


@dataclass(frozen=True)
class FlipReport:
    """Aggregate flip statistics over one record set.

    ``rel_nfr`` is the negative flip rate normalized by the rate two
    independent models with these error rates would produce,
    ``(1 - er_old) * er_new``; it is None when that denominator is zero.
    """

    n: int
    both_correct: int
    negative_flips: int
    positive_flips: int
    both_wrong: int
    er_old: float
    er_new: float
    nfr: float
    pfr: float
    rel_nfr: Optional[float]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "both_correct": self.both_correct,
            "negative_flips": self.negative_flips,
            "positive_flips": self.positive_flips,
            "both_wrong": self.both_wrong,
            "er_old": self.er_old,
            "er_new": self.er_new,
            "nfr": self.nfr,
            "pfr": self.pfr,
            "rel_nfr": self.rel_nfr,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "FlipReport":
        return cls(**{k: d[k] for k in (
            "n", "both_correct", "negative_flips", "positive_flips",
            "both_wrong", "er_old", "er_new", "nfr", "pfr", "rel_nfr")})



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


def _quadrant_counts(true_labels: np.ndarray, old_preds: np.ndarray,
                     new_preds: np.ndarray) -> Tuple[int, int, int, int]:
    old_ok = old_preds == true_labels
    new_ok = new_preds == true_labels
    bc = int(np.sum(old_ok & new_ok))
    nf = int(np.sum(old_ok & ~new_ok))
    pf = int(np.sum(~old_ok & new_ok))
    bw = int(np.sum(~old_ok & ~new_ok))
    return bc, nf, pf, bw


def compute_relative_nfr(nfr: float, er_old: float, er_new: float) -> float:
    """NFR divided by the independent-models expectation (1 - er_old) * er_new."""
    denom = (1.0 - er_old) * er_new
    if denom <= 0.0:
        raise UndefinedMetricError(
            f"relative NFR undefined for er_old={er_old}, er_new={er_new}")
    return nfr / denom


def report_from_counts(bc: int, nf: int, pf: int, bw: int) -> FlipReport:
    n = bc + nf + pf + bw
    if n == 0:
        raise ValueError("cannot build a report over an empty record set")
    er_old = (pf + bw) / n
    er_new = (nf + bw) / n
    nfr = nf / n
    pfr = pf / n
    denom = (1.0 - er_old) * er_new
    rel_nfr = nfr / denom if denom > 0.0 else None
    return FlipReport(n, bc, nf, pf, bw, er_old, er_new, nfr, pfr, rel_nfr)


def report_from_arrays(true_labels: np.ndarray, old_preds: np.ndarray,
                       new_preds: np.ndarray) -> FlipReport:
    """Array fast path; identical result to building records first."""
    true_labels = np.asarray(true_labels)
    old_preds = np.asarray(old_preds)
    new_preds = np.asarray(new_preds)
    if not (true_labels.shape == old_preds.shape == new_preds.shape):
        raise ValueError("prediction arrays must have equal shape")
    if true_labels.size == 0:
        raise ValueError("cannot build a report over an empty record set")
    return report_from_counts(*_quadrant_counts(true_labels, old_preds, new_preds))


def records_to_csv(records: Sequence[PredictionRecord]) -> str:
    """CSV with one row per record plus its quadrant."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sample_id", "true_label", "old_pred", "new_pred", "quadrant"])
    for r in records:
        writer.writerow([r.sample_id, r.true_label, r.old_pred, r.new_pred,
                         classify_flip(r).value])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# ensemble-uncertainty view of flips


@dataclass(frozen=True)
class UncertaintyRecord:
    sample_id: int
    predictive_entropy: float


def predictive_entropy(member_probs: Union[np.ndarray, Iterable[np.ndarray]],
                       tol: float = 1e-9) -> float:
    """Shannon entropy (nats) of the member-averaged class distribution.

    Each row must be a probability vector; the entropy of the average is the
    usual predictive-uncertainty summary for an ensemble.
    """
    probs = np.atleast_2d(np.asarray(list(member_probs)
                                     if not isinstance(member_probs, np.ndarray)
                                     else member_probs, dtype=np.float64))
    if probs.ndim != 2 or probs.shape[1] < 2:
        raise ValueError("expected one probability vector per ensemble member")
    if np.any(probs < -tol) or np.any(np.abs(probs.sum(axis=1) - 1.0) > tol):
        raise ValueError("member outputs must be probability vectors")
    mean = probs.mean(axis=0)
    mean = np.clip(mean, 0.0, 1.0)
    nz = mean[mean > 0.0]
    return float(-(nz * np.log(nz)).sum())


def default_entropy_bins(num_classes: int, n_bins: int = 20) -> np.ndarray:
    """Equal-width bins spanning the feasible entropy range [0, ln K]."""
    return np.linspace(0.0, math.log(num_classes), n_bins + 1)


def nfr_by_uncertainty_bin(records: Sequence[PredictionRecord],
                           uncertainties: Union[Dict[int, float],
                                                Sequence[UncertaintyRecord]],
                           bin_edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram negative flips vs. all other records over uncertainty bins.

    Values are clipped into the outer edges so the two histograms always
    partition the record set. Returns (flip_counts, other_counts).
    """
    if not isinstance(uncertainties, dict):
        by_id = {u.sample_id: u.predictive_entropy for u in uncertainties}
    else:
        by_id = uncertainties
    ids = [r.sample_id for r in records]
    if set(ids) != set(by_id):
        raise ValueError("uncertainty sample ids do not match the records")
    edges = np.asarray(bin_edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be strictly increasing")
    values = np.clip([by_id[i] for i in ids], edges[0], edges[-1])
    is_flip = np.array([classify_flip(r) is FlipQuadrant.NEGATIVE_FLIP
                        for r in records])
    flip_counts, _ = np.histogram(values[is_flip], bins=edges)
    other_counts, _ = np.histogram(values[~is_flip], bins=edges)
    return flip_counts, other_counts
