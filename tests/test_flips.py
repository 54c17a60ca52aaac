"""Flip bookkeeping: quadrants, rates, the exact count identities, and the
uncertainty-binned view."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (compute_nfr, flip_report, flip_report_from_json,
                     records_from_arrays)
from pctlab.flips import (FlipQuadrant, PredictionRecord, UncertaintyRecord,
                          UndefinedMetricError, classify_flip,
                          compute_relative_nfr, default_entropy_bins,
                          nfr_by_uncertainty_bin, predictive_entropy,
                          records_to_csv, report_from_arrays,
                          report_from_counts)


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


def test_report_from_arrays_matches_record_path():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 3, 50)
    old = rng.integers(0, 3, 50)
    new = rng.integers(0, 3, 50)
    assert report_from_arrays(y, old, new) == flip_report(
        records_from_arrays(y, old, new))


def test_relative_nfr_matches_hand_computation():
    value = compute_relative_nfr(0.0644, 0.3024, 0.3029)
    assert value == pytest.approx(0.0644 / (0.6976 * 0.3029), rel=1e-12)
    with pytest.raises(UndefinedMetricError):
        compute_relative_nfr(0.0, 0.3, 0.0)  # perfect new model
    with pytest.raises(UndefinedMetricError):
        compute_relative_nfr(0.0, 1.0, 0.3)  # old model always wrong


def test_report_rel_nfr_none_when_undefined():
    report = report_from_counts(bc=5, nf=0, pf=0, bw=0)  # er_new == 0
    assert report.rel_nfr is None
    assert report.nfr == 0.0


def test_empty_record_sets_are_rejected():
    with pytest.raises(ValueError):
        flip_report([])
    with pytest.raises(ValueError):
        compute_nfr([])
    with pytest.raises(ValueError):
        report_from_arrays(np.array([]), np.array([]), np.array([]))
    with pytest.raises(ValueError):
        records_from_arrays([0, 1], [0], [0, 1])


def test_report_json_round_trip():
    report = report_from_counts(bc=7, nf=2, pf=1, bw=3)
    assert flip_report_from_json(report.to_json()) == report
    assert report.to_json().endswith("\n")


def test_records_csv_layout():
    text = records_to_csv([_rec(2, 2, 1, sid=9)])
    lines = text.splitlines()
    assert lines[0] == "sample_id,true_label,old_pred,new_pred,quadrant"
    assert lines[1] == "9,2,2,1,negative_flip"


# ---------------------------------------------------------------------------
# uncertainty view


def test_predictive_entropy_bounds():
    k = 5
    assert predictive_entropy(np.full((3, k), 1 / k)) == pytest.approx(math.log(k))
    one_hot = np.zeros((1, k))
    one_hot[0, 2] = 1.0
    assert predictive_entropy(one_hot) == 0.0
    # disagreeing one-hot members: the mean is uncertain even though each
    # member is confident
    two = np.zeros((2, k))
    two[0, 0] = two[1, 1] = 1.0
    assert predictive_entropy(two) == pytest.approx(math.log(2))


def test_predictive_entropy_rejects_non_simplex_rows():
    with pytest.raises(ValueError):
        predictive_entropy(np.array([[0.5, 0.2]]))
    with pytest.raises(ValueError):
        predictive_entropy(np.array([[1.5, -0.5]]))


def test_default_entropy_bins_span_feasible_range():
    edges = default_entropy_bins(10, n_bins=4)
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(math.log(10))
    assert np.all(np.diff(edges) > 0) and edges.size == 5


def test_nfr_by_uncertainty_bin_partitions_records():
    records = [_rec(0, 0, 0, sid=0), _rec(0, 0, 1, sid=1),
               _rec(1, 0, 0, sid=2), _rec(1, 1, 0, sid=3)]
    ent = {0: 0.1, 1: 0.1, 2: 1.2, 3: 99.0}  # 99 clips into the last bin
    edges = np.array([0.0, 1.0, 2.0])
    flips, others = nfr_by_uncertainty_bin(records, ent, edges)
    np.testing.assert_array_equal(flips, [1, 1])   # ids 1 and 3
    np.testing.assert_array_equal(others, [1, 1])  # ids 0 and 2
    assert flips.sum() + others.sum() == len(records)


def test_nfr_by_uncertainty_bin_accepts_record_sequence():
    records = [_rec(0, 0, 0, sid=4)]
    out = nfr_by_uncertainty_bin(records, [UncertaintyRecord(4, 0.5)],
                                 np.array([0.0, 1.0]))
    np.testing.assert_array_equal(out[0], [0])
    np.testing.assert_array_equal(out[1], [1])


def test_nfr_by_uncertainty_bin_validates_inputs():
    records = [_rec(0, 0, 0, sid=0)]
    with pytest.raises(ValueError, match="ids"):
        nfr_by_uncertainty_bin(records, {7: 0.5}, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="increasing"):
        nfr_by_uncertainty_bin(records, {0: 0.5}, np.array([1.0, 0.0]))
