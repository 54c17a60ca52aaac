"""Prediction-change bookkeeping between a reference and an updated model.

Every evaluation sample lands in exactly one quadrant: both models correct,
negative flip (reference right, update wrong), positive flip (reference
wrong, update right), or both wrong. ``report_from_arrays`` counts the
quadrants as integers and only then divides, so the set identities
(quadrants partition N, er_new - er_old = nfr - pfr) hold exactly over the
counts. This module is the only place a rate is computed: every rate in
every result file is a ``FlipReport`` field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class FlipReport:
    """Aggregate flip statistics over one record set. ``rel_nfr`` is the
    negative flip rate normalized by the rate two independent models with
    these error rates would produce, ``(1 - er_old) * er_new``; it is None
    when that denominator is zero."""

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


def compute_relative_nfr(nfr: float, er_old: float,
                         er_new: float) -> Optional[float]:
    """NFR divided by the independent-models expectation (1 - er_old) * er_new,
    or None where that expectation is not positive: a perfect new model or
    an always-wrong old one."""
    denom = (1.0 - er_old) * er_new
    return nfr / denom if denom > 0.0 else None


def report_from_arrays(true_labels: np.ndarray, old_preds: np.ndarray,
                       new_preds: np.ndarray) -> FlipReport:
    """The report over equal-shape label and prediction arrays, counted
    with array ops: the same report as classifying one record at a time."""
    true_labels = np.asarray(true_labels)
    old_preds = np.asarray(old_preds)
    new_preds = np.asarray(new_preds)
    if not (true_labels.shape == old_preds.shape == new_preds.shape):
        raise ValueError("prediction arrays must have equal shape")
    n = true_labels.size
    if n == 0:
        raise ValueError("cannot build a report over an empty record set")
    old_ok = old_preds == true_labels
    new_ok = new_preds == true_labels
    old_right = int(np.count_nonzero(old_ok))
    new_right = int(np.count_nonzero(new_ok))
    bc = int(np.count_nonzero(old_ok & new_ok))
    nf = old_right - bc
    pf = new_right - bc
    bw = n - old_right - pf
    er_old = (pf + bw) / n
    er_new = (nf + bw) / n
    nfr = nf / n
    pfr = pf / n
    return FlipReport(n, bc, nf, pf, bw, er_old, er_new, nfr, pfr,
                      compute_relative_nfr(nfr, er_old, er_new))
