"""Prediction-change bookkeeping between a reference and an updated model.

Every evaluation sample lands in exactly one quadrant: both models correct,
negative flip (reference right, update wrong), positive flip (reference
wrong, update right), or both wrong. All rates are kept as integer counts
and only turned into fractions when a report is assembled, so the set
identities (quadrants partition N, er_new - er_old = nfr - pfr) hold
exactly over the counts.

The library counts quadrants over whole prediction arrays
(``report_from_arrays``); the one-record-at-a-time form it is checked
against lives in the tests. ``FlipReport.to_json`` writes the JSON format
of ``tables``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .tables import as_record, json_text


class UndefinedMetricError(ValueError):
    """A rate normalization is undefined (e.g. the new model has zero error)."""


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

    def to_json(self) -> str:
        return json_text(as_record(self))


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
    """The report over equal-shape label and prediction arrays, counted
    with array ops: the same report as classifying one record at a time."""
    true_labels = np.asarray(true_labels)
    old_preds = np.asarray(old_preds)
    new_preds = np.asarray(new_preds)
    if not (true_labels.shape == old_preds.shape == new_preds.shape):
        raise ValueError("prediction arrays must have equal shape")
    if true_labels.size == 0:
        raise ValueError("cannot build a report over an empty record set")
    return report_from_counts(*_quadrant_counts(true_labels, old_preds, new_preds))
