"""Objectives: filter weights, distillation distances, and gradients.

Every per-sample gradient is checked against central finite differences,
the batch factories against the mean of their per-sample counterparts, and
the collapse cases (lambda 0, unit filter, temperature limit) against
their closed forms.
"""

import zlib

import numpy as np
import pytest

from oracles import (OracleEntry, ce_objective, ce_value_grad, cross_entropy,
                     distance_lm, filter_weight, oracle_entry, pc_loss_focal,
                     pc_loss_naive, per_step_objective, total_objective)
from pctlab import nn
from pctlab.losses import (DISTANCE_KINDS, DistanceSpec, FilterSpec,
                           OldModelOracle, PCLossConfig, distance_kl,
                           make_ce_objective, make_objective)


def _entry(k: int, seed: int, correct: bool = True,
           index=None) -> OracleEntry:
    rng = np.random.default_rng(seed)
    sub_k = k if index is None else len(index)
    idx = np.arange(k) if index is None else np.asarray(index, dtype=np.int64)
    return OracleEntry(rng.standard_normal(sub_k) * 2, correct, idx)


def _configs():
    return [
        ("none", PCLossConfig(mode="none")),
        ("naive", PCLossConfig(mode="naive", lam=0.7)),
        ("kl_tau1", PCLossConfig(mode="focal", lam=1.0,
                                 distance=DistanceSpec("kl", 1.0))),
        ("kl_tau100", PCLossConfig(mode="focal", lam=1.0,
                                   distance=DistanceSpec("kl", 100.0))),
        ("logit_match", PCLossConfig(mode="focal", lam=1.0,
                                     distance=DistanceSpec("logit_match"))),
    ]


# ---------------------------------------------------------------------------
# specs


def test_filter_weight_values():
    spec = FilterSpec(alpha=1.0, beta=5.0)
    assert filter_weight(spec, True) == 6.0
    assert filter_weight(spec, False) == 1.0
    assert filter_weight(FilterSpec(0.0, 0.0), True) == 0.0


def test_filter_weight_monotone_in_beta():
    w = [filter_weight(FilterSpec(1.0, b), True) for b in (0, 1, 5, 20)]
    assert w == sorted(w) and len(set(w)) == 4


def test_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(alpha=-1.0)
    with pytest.raises(ValueError):
        DistanceSpec(kind="l1")
    with pytest.raises(ValueError):
        DistanceSpec(tau=0.0)
    with pytest.raises(ValueError):
        PCLossConfig(mode="strict")
    with pytest.raises(ValueError):
        PCLossConfig(lam=-0.1)


# ---------------------------------------------------------------------------
# distances


def test_distance_kl_zero_at_equal_logits():
    logits = np.array([0.3, -1.0, 2.0])
    value, grad = distance_kl(logits, logits.copy(), tau=2.0)
    assert value == 0.0
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)


def test_distance_kl_matches_direct_formula():
    rng = np.random.default_rng(8)
    new, old = rng.standard_normal(5) * 2, rng.standard_normal(5) * 2
    tau = 3.0
    value, _ = distance_kl(new, old, tau)
    p = np.exp(old / tau) / np.exp(old / tau).sum()
    q = np.exp(new / tau) / np.exp(new / tau).sum()
    assert value == pytest.approx(float(np.sum(p * np.log(p / q))), rel=1e-12)
    assert value > 0


def test_distance_kl_invariant_to_per_vector_shifts():
    rng = np.random.default_rng(9)
    new, old = rng.standard_normal(4), rng.standard_normal(4)
    v1, g1 = distance_kl(new, old, tau=1.5)
    v2, g2 = distance_kl(new + 7.0, old - 3.0, tau=1.5)
    assert v1 == pytest.approx(v2, rel=1e-10, abs=1e-12)
    np.testing.assert_allclose(g1, g2, atol=1e-12)


def test_distance_kl_rejects_mismatched_shapes():
    with pytest.raises(nn.DimensionError):
        distance_kl(np.zeros(3), np.zeros(4), tau=1.0)


def test_distance_lm_value_and_grad():
    new = np.array([1.0, 2.0, 3.0])
    old = np.array([1.0, 0.0, 1.0])
    value, grad = distance_lm(new, old)
    assert value == 0.5 * (0 + 4 + 4)
    np.testing.assert_array_equal(grad, new - old)


def test_high_tau_kl_approaches_centered_quadratic():
    """tau^2 * KL converges to the centered squared distance over 2K."""
    rng = np.random.default_rng(10)
    k, tau = 6, 1000.0
    for _ in range(20):
        new, old = rng.standard_normal(k) * 3, rng.standard_normal(k) * 3
        value, _ = distance_kl(new, old, tau)
        diff = (new - old) - (new - old).mean()
        quad = float(diff @ diff) / (2 * k)
        assert tau * tau * value == pytest.approx(quad, rel=0.01)


# ---------------------------------------------------------------------------
# per-sample losses


def test_pc_loss_naive_gates_on_reference_correctness():
    logits = np.array([0.2, 1.5, -0.3])
    value, grad = pc_loss_naive(logits, 1, old_correct=False)
    assert value == 0.0
    np.testing.assert_array_equal(grad, 0.0)
    value, grad = pc_loss_naive(logits, 1, old_correct=True)
    assert value == pytest.approx(cross_entropy(logits, 1), rel=1e-12)
    assert grad[1] < 0


def test_pc_loss_focal_weights_by_filter():
    entry = _entry(4, seed=1, correct=True)
    logits = np.arange(4.0)
    v_hit, g_hit = pc_loss_focal(logits, entry, FilterSpec(1, 5),
                                 DistanceSpec("logit_match"))
    d, g = distance_lm(logits, entry.old_logits)
    assert v_hit == pytest.approx(6 * d, rel=1e-12)
    np.testing.assert_allclose(g_hit, 6 * g, rtol=1e-12)

    miss = OracleEntry(entry.old_logits, False, entry.logit_index)
    v_miss, _ = pc_loss_focal(logits, miss, FilterSpec(1, 5),
                              DistanceSpec("logit_match"))
    assert v_miss == pytest.approx(d, rel=1e-12)


def test_pc_loss_focal_subset_gradient_zero_off_index():
    # the update has 5 classes, the reference only 3 of them
    entry = _entry(5, seed=2, index=[0, 2, 3])
    logits = np.random.default_rng(3).standard_normal(5)
    value, grad = pc_loss_focal(logits, entry, FilterSpec(1, 0),
                                DistanceSpec("logit_match"))
    d, _ = distance_lm(logits[[0, 2, 3]], entry.old_logits)
    assert value == pytest.approx(d, rel=1e-12)
    assert grad[1] == 0.0 and grad[4] == 0.0


def test_total_objective_composes_ce_and_pc():
    entry = _entry(4, seed=4, correct=True)
    logits = np.random.default_rng(5).standard_normal(4)
    cfg = PCLossConfig(mode="focal", lam=0.5,
                       distance=DistanceSpec("logit_match"))
    value, grad = total_objective(logits, 2, entry, cfg)
    ce, ce_grad = ce_value_grad(logits, 2)
    pc, pc_grad = pc_loss_focal(logits, entry, cfg.filter, cfg.distance)
    assert value == pytest.approx(ce + 0.5 * pc, rel=1e-12)
    np.testing.assert_allclose(grad, ce_grad + 0.5 * pc_grad, rtol=1e-12)


@pytest.mark.parametrize("name,cfg", _configs())
def test_per_sample_gradient_matches_central_differences(name, cfg):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    k = 6
    entry = _entry(k, seed=11, correct=True)
    logits = rng.standard_normal(k)
    _, grad = total_objective(logits, 3, entry, cfg)
    h = 1e-6
    for i in range(k):
        bumped = logits.copy()
        bumped[i] += h
        up, _ = total_objective(bumped, 3, entry, cfg)
        bumped[i] -= 2 * h
        down, _ = total_objective(bumped, 3, entry, cfg)
        fd = (up - down) / (2 * h)
        assert abs(fd - grad[i]) <= 1e-7 + 1e-6 * abs(fd), name


# ---------------------------------------------------------------------------
# oracle


def _toy_oracle(k: int = 4, n: int = 12, seed: int = 6):
    rng = np.random.default_rng(seed)
    model = nn.init_model([3, k], seed=seed)
    x = rng.standard_normal((n, 3))
    y = rng.integers(0, k, size=n).astype(np.int64)
    return model, x, y, OldModelOracle.from_model(model, x, y)


def test_oracle_from_model_names_labels_of_another_length():
    # numpy once failed comparing predictions with them: "operands could
    # not be broadcast"
    model, x, y, _ = _toy_oracle()
    with pytest.raises(nn.DimensionError, match=
                       "labels must be 1-D and match the feature rows"):
        OldModelOracle.from_model(model, x, y[:-1])


def test_oracle_from_model_matches_predictions():
    model, x, y, oracle = _toy_oracle()
    preds = nn.predict_batch(model, x)
    np.testing.assert_array_equal(oracle.old_pred, preds)
    np.testing.assert_array_equal(oracle.old_correct, preds == y)
    np.testing.assert_allclose(oracle.logits, nn.batch_logits(model, x),
                               rtol=1e-13, atol=1e-15)
    np.testing.assert_array_equal(oracle.logit_index, np.arange(4))
    assert oracle.logits.shape == (12, 4)


def test_oracle_entry_bounds_and_readonly():
    _, _, _, oracle = _toy_oracle()
    with pytest.raises(IndexError):
        oracle_entry(oracle, 12)
    with pytest.raises(ValueError):
        oracle.logits[0, 0] = 1.0
    entry = oracle_entry(oracle, 0)
    np.testing.assert_array_equal(entry.old_logits, oracle.logits[0])


def test_oracle_class_map_translates_predictions():
    # reference classes 0..2 denote labels 5..7 in the evaluation space
    model = nn.init_model([3, 3], seed=1)
    x = np.random.default_rng(2).standard_normal((6, 3))
    class_map = np.array([5, 6, 7])
    y = class_map[nn.predict_batch(model, x)]
    oracle = OldModelOracle.from_model(model, x, y, class_map=class_map)
    assert oracle.old_correct.all()
    np.testing.assert_array_equal(oracle.logit_index, class_map)


def test_oracle_rejects_misaligned_arrays():
    with pytest.raises(nn.DimensionError):
        OldModelOracle(np.zeros((3, 2)), np.zeros(2, dtype=bool),
                       np.zeros(3, dtype=np.int64))
    with pytest.raises(nn.DimensionError):
        OldModelOracle(np.zeros((3, 2)), np.zeros(3, dtype=bool),
                       np.zeros(3, dtype=np.int64),
                       logit_index=np.arange(5))


# ---------------------------------------------------------------------------
# batch factories


def _batch_setup(k: int = 5, n: int = 16, seed: int = 20, index=None):
    rng = np.random.default_rng(seed)
    sub_k = k if index is None else len(index)
    logits = rng.standard_normal((n, k)) * 2
    y = rng.integers(0, k, size=n).astype(np.int64)
    old_logits = rng.standard_normal((n, sub_k)) * 2
    correct = rng.random(n) < 0.5
    pred = np.where(correct, y, (y + 1) % k)
    oracle = OldModelOracle(old_logits, correct, pred,
                            None if index is None else np.asarray(index))
    return logits, y, oracle


def _objective_cases():
    """Every config without a logit index, and each focal config with each
    subset index: the index only affects the focal term. The ids are those
    of two stacked parametrize marks, ``index-name-cfg``."""
    indices = [None, [0, 2, 3], [0, 1, 2]]
    return [pytest.param(name, cfg, index, id="-".join(
                ("None" if index is None else f"index{i}", name, f"cfg{j}")))
            for i, index in enumerate(indices)
            for j, (name, cfg) in enumerate(_configs())
            if index is None or cfg.mode == "focal"]


@pytest.mark.parametrize("name,cfg,index", _objective_cases())
def test_batch_objective_equals_mean_of_per_sample(name, cfg, index):
    """Also covers a prefix map into more new classes (K = 5), which must
    take the gather path although its entries are 0, 1, 2."""
    logits, y, oracle = _batch_setup(index=index)
    n = logits.shape[0]
    objective = make_objective(y, oracle, cfg)
    loss, dlogits = objective(logits.copy(), np.arange(n))

    per_values, per_grads = [], []
    for i in range(n):
        v, g = total_objective(logits[i], int(y[i]), oracle_entry(oracle, i), cfg)
        per_values.append(v)
        per_grads.append(g)
    assert loss == pytest.approx(np.mean(per_values), rel=1e-12)
    np.testing.assert_allclose(dlogits, np.stack(per_grads) / n,
                               rtol=1e-12, atol=1e-15)
    # a stack's (M, B, K) logits with (M, B) indices: member m's gradient
    # is bit for bit that of its own 2-D call
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((3, 6, logits.shape[1])) * 2
    rows = np.stack([rng.permutation(n)[:6] for _ in range(3)])
    _, stacked = objective(stack.copy(), rows)
    assert stacked.shape == stack.shape
    for m in range(3):
        np.testing.assert_array_equal(
            stacked[m], objective(stack[m].copy(), rows[m])[1])


@pytest.mark.parametrize("name,cfg", _configs()[1:])
@pytest.mark.parametrize("index", [None, [0, 2, 3], [0, 1, 2], [3, 0, 4, 1, 2]])
def test_hoisted_objective_equals_per_step_form_bit_for_bit(name, cfg, index):
    """Old-side quantities computed once per factory call and gathered by
    index, and the focal columns fixed by the factory, leave every bit of a
    stack's gradient and of the loss unchanged: a slice for the full width
    (None) and for an identity prefix of K = 5 ([0, 1, 2], the class_growth
    layout), the index array for a subset ([0, 2, 3]) and for a permutation
    of all K columns ([3, 0, 4, 1, 2])."""
    logits, y, oracle = _batch_setup(n=40, index=index)
    hoisted = make_objective(y, oracle, cfg)
    reference = per_step_objective(y, oracle, cfg)
    rng = np.random.default_rng(8)
    for m, b in ((5, 16), (1, 7), (3, 1)):
        stack = rng.standard_normal((m, b, logits.shape[1])) * 3
        rows = np.stack([rng.permutation(40)[:b] for _ in range(m)])
        loss, dlogits = hoisted(stack.copy(), rows)
        want_loss, want = reference(stack.copy(), rows)
        assert loss == want_loss
        np.testing.assert_array_equal(dlogits.view(np.uint64),
                                      want.view(np.uint64))


def test_ce_objective_equals_per_array_form_bit_for_bit():
    """The in-place ``ce_rows``, the flat label index and the loss as
    ``sum() / n`` leave every bit of the CE loss and gradient unchanged,
    whichever of the three ways plain CE is asked for."""
    rng = np.random.default_rng(9)
    y = rng.integers(0, 7, size=40).astype(np.int64)
    _, _, oracle = _batch_setup(k=7, n=40)
    reference = ce_objective(y)
    trimmed = (make_ce_objective(y), make_objective(y, None, PCLossConfig()),
               make_objective(y, oracle, PCLossConfig(mode="none")))
    for m, b in ((5, 16), (1, 7), (3, 1)):
        stack = rng.standard_normal((m, b, 7)) * 3
        rows = np.stack([rng.permutation(40)[:b] for _ in range(m)])
        for logits, idx in ((stack, rows), (stack[0], rows[0])):
            want_loss, want = reference(logits.copy(), idx)
            for objective in trimmed:
                loss, dlogits = objective(logits.copy(), idx)
                assert np.float64(loss).view(np.uint64) == \
                    np.float64(want_loss).view(np.uint64)
                np.testing.assert_array_equal(dlogits.view(np.uint64),
                                              want.view(np.uint64))


# special-row cases: a KL focal config per tau, keyed by the tau as the
# test ids print it, and the CE, naive and focal logit-match objectives
_SPECIAL_ROW_CASES = {
    **{str(tau): PCLossConfig(mode="focal", lam=0.7,
                              filter=FilterSpec(0.5, 2.0),
                              distance=DistanceSpec("kl", tau))
       for tau in (0.5, 1.0, 100.0)},
    "ce": PCLossConfig(),
    "naive": PCLossConfig(mode="naive", lam=0.7),
    "logit_match": PCLossConfig(mode="focal", lam=0.7,
                                filter=FilterSpec(0.5, 2.0)),
}


@pytest.mark.parametrize("case", list(_SPECIAL_ROW_CASES))
def test_kl_focal_objective_equals_per_step_form_bit_for_bit(case):
    """The KL focal term's trims (one ``x - m``, ``exp``, divide and
    gradient scale in place, old-side tables gathered by ``take``, means as
    ``sum() / n``) leave every bit of the loss and of a stack's gradient
    unchanged, for K = 2..128, on finite rows and on rows holding +inf,
    -inf and NaN, through the slice of all K columns and through the slice
    of the first K of K + 1 new classes. CE (against ``ce_objective``),
    naive and focal logit-match objectives go through the same rows."""
    rng = np.random.default_rng(12)
    specials = np.array([np.inf, -np.inf, np.nan])
    cfg = _SPECIAL_ROW_CASES[case]
    n, m, b = 24, 2, 8
    for k in range(2, 129):
        for extra in (0, 1):
            y = rng.integers(0, k, size=n).astype(np.int64)
            correct = rng.random(n) < 0.5
            oracle = OldModelOracle(rng.standard_normal((n, k)) * 3, correct,
                                    np.where(correct, y, (y + 1) % k))
            stack = rng.standard_normal((m, b, k + extra)) * 10
            hit = rng.random(stack.shape) < 0.05
            stack[hit] = rng.choice(specials, size=hit.sum())
            stack[0, 0] = -np.inf
            stack[0, 1] = np.nan
            stack[1, 2, -1] = np.inf
            stack[1, 3, 0] = np.nan
            rows = np.stack([rng.permutation(n)[:b] for _ in range(m)])
            finite = np.where(np.isfinite(stack), stack, 0.0)
            if cfg.mode == "none":
                objective, reference = make_ce_objective(y), ce_objective(y)
            else:
                objective = make_objective(y, oracle, cfg)
                reference = per_step_objective(y, oracle, cfg)
            for logits in (stack, finite):
                with np.errstate(all="ignore"):
                    loss, dlogits = objective(logits.copy(), rows)
                    want_loss, want = reference(logits.copy(), rows)
                assert np.float64(loss).view(np.uint64) == \
                    np.float64(want_loss).view(np.uint64), (k, extra)
                np.testing.assert_array_equal(dlogits.view(np.uint64),
                                              want.view(np.uint64))


def test_focal_loss_divides_each_mean_before_scaling_by_lambda():
    """The focal loss is ``CE mean + lambda * (weighted distance mean)``, in
    that order of operations: with 15 rows and lambda 0.7 the other order,
    ``lambda * sum / n``, differs in the last bits."""
    _, y, oracle = _batch_setup(k=5, n=40, index=[0, 2, 3])
    rng = np.random.default_rng(13)
    for kind in DISTANCE_KINDS:
        cfg = PCLossConfig(mode="focal", lam=0.7,
                           distance=DistanceSpec(kind, 2.0))
        objective = make_objective(y, oracle, cfg)
        reference = per_step_objective(y, oracle, cfg)
        for _ in range(20):
            stack = rng.standard_normal((3, 5, 5)) * 3
            rows = np.stack([rng.permutation(40)[:5] for _ in range(3)])
            loss, _ = objective(stack.copy(), rows)
            want_loss, _ = reference(stack.copy(), rows)
            assert np.float64(loss).view(np.uint64) == \
                np.float64(want_loss).view(np.uint64)


def test_lambda_zero_naive_collapses_to_plain_ce():
    logits, y, oracle = _batch_setup(n=8)
    idx = np.arange(8)
    cfg = PCLossConfig(mode="naive", lam=0.0)
    loss, dlogits = make_objective(y, oracle, cfg)(logits.copy(), idx)
    ce_loss, ce_dlogits = make_ce_objective(y)(logits.copy(), idx)
    assert loss == ce_loss
    np.testing.assert_array_equal(dlogits, ce_dlogits)


def test_lambda_zero_focal_collapses_to_plain_ce():
    logits, y, oracle = _batch_setup(n=8)
    idx = np.arange(8)
    cfg = PCLossConfig(mode="focal", lam=0.0,
                       distance=DistanceSpec("logit_match"))
    loss, dlogits = make_objective(y, oracle, cfg)(logits.copy(), idx)
    ce_loss, ce_dlogits = make_ce_objective(y)(logits.copy(), idx)
    assert loss == ce_loss
    np.testing.assert_array_equal(dlogits, ce_dlogits)


def test_unit_filter_is_unweighted_distillation():
    """alpha=1, beta=0 weighs every sample equally: CE plus the mean distance."""
    logits, y, oracle = _batch_setup(n=10, seed=21)
    idx = np.arange(10)
    cfg = PCLossConfig(mode="focal", lam=1.0, filter=FilterSpec(1.0, 0.0),
                       distance=DistanceSpec("logit_match"))
    loss, _ = make_objective(y, oracle, cfg)(logits.copy(), idx)
    ce_loss, _ = make_ce_objective(y)(logits.copy(), idx)
    distances = [distance_lm(logits[i], oracle.logits[i])[0] for i in range(10)]
    assert loss == pytest.approx(ce_loss + np.mean(distances), rel=1e-12)


def test_make_objective_requires_oracle_for_pc_modes():
    y = np.zeros(3, dtype=np.int64)
    with pytest.raises(ValueError, match="oracle"):
        make_objective(y, None, PCLossConfig(mode="naive"))
    assert make_objective(y, None, PCLossConfig(mode="none")) is not None


@pytest.mark.parametrize("n_labels", [20, 80])
@pytest.mark.parametrize("mode", ["naive", "focal"])
def test_make_objective_rejects_oracle_of_another_length(mode, n_labels):
    # labels pair with oracle rows by position: with fewer labels it once
    # trained against the oracle's first rows, with more it failed mid-run
    _, _, oracle = _batch_setup(n=40)
    y = np.zeros(n_labels, dtype=np.int64)
    with pytest.raises(nn.DimensionError, match="40 rows for"):
        make_objective(y, oracle, PCLossConfig(mode=mode))
    # with no PC term the oracle is not read
    assert make_objective(y, oracle, PCLossConfig(mode="none")) is not None
