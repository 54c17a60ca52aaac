"""Flip bookkeeping: quadrants, rates and the exact count identities."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (FlipQuadrant, PredictionRecord, classify_flip,
                     compute_nfr, flip_report, flip_report_from_json,
                     records_from_arrays)
from pctlab.flips import compute_relative_nfr, report_from_arrays
from pctlab.tables import as_record, json_text


def _rec(y, old, new, sid=0):
    return PredictionRecord(sid, y, old, new)


def test_classify_flip_covers_all_quadrants():
    assert classify_flip(_rec(1, 1, 1)) is FlipQuadrant.BOTH_CORRECT
    assert classify_flip(_rec(1, 1, 2)) is FlipQuadrant.NEGATIVE_FLIP
    assert classify_flip(_rec(1, 0, 1)) is FlipQuadrant.POSITIVE_FLIP
    assert classify_flip(_rec(1, 0, 2)) is FlipQuadrant.BOTH_WRONG


def test_report_on_hand_enumerated_records():
    records = [
        _rec(0, 0, 0, 0),  # both correct
        _rec(1, 1, 0, 1),  # negative flip
        _rec(2, 0, 2, 2),  # positive flip
        _rec(3, 0, 0, 3),  # both wrong
    ]
    report = flip_report(records)
    assert (report.both_correct, report.negative_flips,
            report.positive_flips, report.both_wrong) == (1, 1, 1, 1)
    assert report.er_old == 0.5 and report.er_new == 0.5
    assert report.nfr == 0.25 and report.pfr == 0.25
    # 0.25 / ((1 - 0.5) * 0.5)
    assert report.rel_nfr == 1.0
    assert compute_nfr(records) == 0.25


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.integers(0, 4)), min_size=1, max_size=60))
def test_flip_identities_hold_exactly(triples):
    y, old, new = (np.array(t) for t in zip(*triples))
    report = report_from_arrays(y, old, new)
    n = len(triples)
    assert (report.both_correct + report.negative_flips
            + report.positive_flips + report.both_wrong) == n

    er_old = Fraction(int(np.sum(old != y)), n)
    er_new = Fraction(int(np.sum(new != y)), n)
    nfr = Fraction(report.negative_flips, n)
    pfr = Fraction(report.positive_flips, n)
    assert er_new - er_old == nfr - pfr
    # float fields are the correctly rounded quotients of the same counts
    assert report.er_old == er_old.numerator / er_old.denominator
    assert report.er_new == er_new.numerator / er_new.denominator
    assert report.nfr == nfr.numerator / nfr.denominator
    assert report.pfr == pfr.numerator / pfr.denominator


def _arrays_with_counts(bc, nf, pf, bw):
    """Label and prediction arrays with the given quadrant counts, in
    quadrant order; every label is 0."""
    y = np.zeros(bc + nf + pf + bw, dtype=np.int64)
    old = np.array([0] * bc + [0] * nf + [1] * pf + [1] * bw)
    new = np.array([0] * bc + [1] * nf + [0] * pf + [1] * bw)
    return y, old, new


@pytest.mark.parametrize("n", [1, 50, 14_000])
def test_report_from_arrays_matches_record_path(n):
    rng = np.random.default_rng(0)
    y, old, new = (rng.integers(0, 3, n) for _ in range(3))
    report = report_from_arrays(y, old, new)
    # every count and every rate, field by field
    assert report == flip_report(records_from_arrays(y, old, new))
    # numpy counts are np.int64, which json cannot write
    for name in ("n", "both_correct", "negative_flips", "positive_flips",
                 "both_wrong"):
        assert type(getattr(report, name)) is int, name
    assert flip_report_from_json(json_text(as_record(report))) == report


def test_relative_nfr_matches_hand_computation():
    value = compute_relative_nfr(0.0644, 0.3024, 0.3029)
    assert value == pytest.approx(0.0644 / (0.6976 * 0.3029), rel=1e-12)
    assert compute_relative_nfr(0.0, 0.3, 0.0) is None  # perfect new model
    assert compute_relative_nfr(0.0, 1.0, 0.3) is None  # old model always wrong


def test_report_rel_nfr_none_when_undefined():
    report = report_from_arrays(*_arrays_with_counts(bc=5, nf=0, pf=0, bw=0))
    assert (report.both_correct, report.er_new) == (5, 0.0)
    assert report.rel_nfr is None
    assert report.nfr == 0.0


def test_empty_record_sets_are_rejected():
    with pytest.raises(ValueError):
        flip_report([])
    with pytest.raises(ValueError):
        compute_nfr([])
    with pytest.raises(ValueError, match="empty record set"):
        report_from_arrays(np.array([]), np.array([]), np.array([]))
    with pytest.raises(ValueError, match="equal shape"):
        report_from_arrays(np.array([0, 1]), np.array([0]), np.array([0, 1]))
    with pytest.raises(ValueError):
        records_from_arrays([0, 1], [0], [0, 1])


def test_report_json_round_trip():
    report = report_from_arrays(*_arrays_with_counts(bc=7, nf=2, pf=1, bw=3))
    assert (report.both_correct, report.negative_flips,
            report.positive_flips, report.both_wrong) == (7, 2, 1, 3)
    text = json_text(as_record(report))
    assert flip_report_from_json(text) == report
    assert text.endswith("\n")
