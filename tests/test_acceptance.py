"""Acceptance suite: one test per release criterion, in order.

Each test prints a single ``acceptance NN (...): PASS|FAIL`` line to the
terminal so the verdicts are readable straight from the pytest output.
A last test, outside the criteria, checks the README's ``compare`` table
against the same trained methods.
The thresholds and reference numbers below are frozen; relaxing any of
them is a behaviour change, not a test fix.

The experiment-level criteria share one reference setup (the default
synthetic task, 10 classes, 30-epoch schedule, 5 repetitions) through
module-scoped fixtures, so the old model and the expensive sweeps are
each trained once per session.
"""

import filecmp
import math
import re
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pctlab import nn
from pctlab.cli import main as cli_main
from pctlab.ensembles import train_ensemble
from pctlab.flips import compute_relative_nfr, report_from_arrays
from pctlab.harness import (ExperimentConfig, MethodRow, prepare_scenario,
                            run_experiment, sweep_ensemble, sweep_focal)
from pctlab.losses import (DistanceSpec, FilterSpec, OldModelOracle,
                           PCLossConfig, distance_kl, make_ce_objective,
                           make_objective)
from pctlab.nn import TrainConfig, backward_batch, forward_batch, init_model
from pctlab.tables import Table

from oracles import (forward_per_array, loads_config, mean_logits,
                     zeros_like_params)


@contextmanager
def criterion(capsys, number: int, title: str):
    """Print one PASS/FAIL line per criterion, even when the body raises."""
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"acceptance {number:02d} ({title}): {verdict}")


# ---------------------------------------------------------------------------
# shared reference experiment (trained lazily, cached for the whole module)

FOCAL_GRID = [(0.0, 0.0), (1.0, 0.0), (1.0, 5.0), (1.0, 100.0)]
ENSEMBLE_SIZES = [1, 2, 4, 8, 16]


@pytest.fixture(scope="module")
def reference_config():
    # Default task and schedule: K=10, 5000 samples, [20, 32, 10] MLPs,
    # 30 epochs with two lr decays. Five repetitions per method.
    return ExperimentConfig(repetitions=5)


@pytest.fixture(scope="module")
def reference_state(reference_config):
    return prepare_scenario(reference_config)


@pytest.fixture(scope="module")
def nt_result(reference_config, reference_state):
    return run_experiment(reference_config, reference_state)


@pytest.fixture(scope="module")
def naive_result(reference_config, reference_state):
    cfg = replace(reference_config, method="naive")
    return run_experiment(cfg, reference_state)


@pytest.fixture(scope="module")
def fdkl_result(reference_config, reference_state):
    return run_experiment(replace(reference_config, method="fd_kl"),
                          reference_state)


@pytest.fixture(scope="module")
def focal_table(reference_config, reference_state):
    cfg = replace(reference_config, method="fd_lm")
    # the oversized-beta grid point is expected to blow its loss values up
    # (overflow, then NaN); the run still completes and is scored on
    # predictions, not on the loss
    with np.errstate(over="ignore", invalid="ignore"):
        return sweep_focal(cfg, FOCAL_GRID, reference_state)


@pytest.fixture(scope="module")
def fdlm_result(focal_table):
    return focal_table.results[(1.0, 5.0)]


@pytest.fixture(scope="module")
def ensemble_sweeps(reference_config):
    sweeps = []
    for rep in range(5):
        cfg = replace(reference_config,
                      train=replace(reference_config.train, seed=100 * rep))
        sweeps.append(sweep_ensemble(cfg, ENSEMBLE_SIZES))
    return sweeps


# ---------------------------------------------------------------------------
# 1. relative NFR arithmetic against frozen reference rows

# (er_old, er_new, nfr, expected rel_nfr), all in percent. The expected
# values were recomputed by hand from the first three columns; the metric
# must land within 0.01 percentage points of each.
METHOD_REFERENCE_ROWS = [
    (30.24, 30.29, 6.44, 30.48),
    (30.24, 29.34, 5.72, 27.95),
    (30.24, 29.66, 6.39, 30.88),
    (30.24, 30.63, 2.50, 11.70),
    (30.24, 30.47, 2.35, 11.06),
    (26.07, 25.98, 1.70, 8.85),
]

# Filter-weight grid at a fixed er_old of 30.24%:
# (alpha, beta, er_new, nfr, expected rel_nfr).
FILTER_REFERENCE_ROWS = [
    (0.0, 0.0, 30.29, 6.44, 30.48),
    (0.0, 1.0, 31.52, 5.25, 23.88),
    (1.0, 0.0, 31.12, 3.90, 17.96),
    (1.0, 1.0, 30.59, 2.75, 12.89),
    (1.0, 2.0, 30.79, 2.73, 12.71),
    (1.0, 5.0, 30.47, 2.35, 11.06),
    (1.0, 10.0, 30.44, 2.39, 11.26),
    (1.0, 20.0, 33.55, 6.94, 29.65),
]


def test_c01_relative_nfr_matches_reference_rows(capsys):
    with criterion(capsys, 1, "relative NFR reproduces frozen reference rows"):
        rows = [(eo, en, nfr, expect)
                for eo, en, nfr, expect in METHOD_REFERENCE_ROWS]
        rows += [(30.24, en, nfr, expect)
                 for _, _, en, nfr, expect in FILTER_REFERENCE_ROWS]
        for er_old, er_new, nfr, expected_pct in rows:
            rel = compute_relative_nfr(nfr / 100.0, er_old / 100.0,
                                       er_new / 100.0)
            assert abs(100.0 * rel - expected_pct) <= 0.01, \
                f"row ({er_old}, {er_new}, {nfr}) gave {100.0 * rel:.4f}%"


# ---------------------------------------------------------------------------
# 2. flip identity on random record sets


def test_c02_flip_identity_exact_on_random_records(capsys):
    with criterion(capsys, 2, "flip identity exact on 1000 random record sets"):
        rng = np.random.default_rng(4242)
        start = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(1, 200))
            k = int(rng.integers(2, 11))
            y = rng.integers(0, k, size=n)
            old = rng.integers(0, k, size=n)
            new = rng.integers(0, k, size=n)
            rep = report_from_arrays(y, old, new)

            # quadrant counts partition n and match a direct recount
            nf = int(np.sum((old == y) & (new != y)))
            pf = int(np.sum((old != y) & (new == y)))
            assert rep.negative_flips == nf
            assert rep.positive_flips == pf
            assert (rep.both_correct + rep.negative_flips
                    + rep.positive_flips + rep.both_wrong) == n

            # er_new - er_old == nfr - pfr, exactly, in rational arithmetic
            old_wrong = int(np.sum(old != y))
            new_wrong = int(np.sum(new != y))
            assert (Fraction(new_wrong, n) - Fraction(old_wrong, n)
                    == Fraction(nf, n) - Fraction(pf, n))
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 3. finite-difference gradient oracle for every objective

GRADIENT_CONFIGS = [
    PCLossConfig(mode="none"),
    PCLossConfig(mode="naive", lam=0.7),
    PCLossConfig(mode="focal", lam=1.0, distance=DistanceSpec("kl", tau=1.0)),
    PCLossConfig(mode="focal", lam=1.0, distance=DistanceSpec("kl", tau=100.0)),
    PCLossConfig(mode="focal", lam=1.0, distance=DistanceSpec("logit_match")),
]


def _numeric_gradient(model, x, idx, objective, h=1e-5):
    def value():
        return objective(forward_batch(model, x).logits, idx)[0]

    parts = []
    for layer in model.layers:
        for arr in (layer.weights, layer.bias):
            grad = np.empty_like(arr)
            for pos in np.ndindex(arr.shape):
                orig = arr[pos]
                arr[pos] = orig + h
                up = value()
                arr[pos] = orig - h
                down = value()
                arr[pos] = orig
                grad[pos] = (up - down) / (2.0 * h)
            parts.append(grad.ravel())
    return np.concatenate(parts)


def _analytic_gradient(model, x, idx, objective):
    cache = forward_batch(model, x)
    _, dlogits = objective(cache.logits, idx)
    grads = backward_batch(model, cache, dlogits, zeros_like_params(model))
    return np.concatenate([np.concatenate([dw.ravel(), db.ravel()])
                           for dw, db in grads])


def test_c03_gradients_match_finite_differences(capsys):
    with criterion(capsys, 3, "all objectives pass central FD at 1e-4"):
        start = time.perf_counter()
        for i in range(50):
            rng = np.random.default_rng(7000 + i)
            d_in = int(rng.integers(3, 7))
            k = int(rng.integers(3, 6))
            if i % 2:
                dims = [d_in, int(rng.integers(4, 9)), k]
            else:
                dims = [d_in, int(rng.integers(4, 9)), int(rng.integers(3, 7)), k]
            n = 6
            x = rng.standard_normal((n, d_in))
            y = rng.integers(0, k, size=n)
            idx = np.arange(n)
            # central differences are invalid on a ReLU kink; redraw models
            # that park a hidden pre-activation within reach of the step h
            model = None
            for _ in range(50):
                cand = init_model(dims, seed=int(rng.integers(1 << 20)))
                pre = forward_per_array(cand, x).pre_activations[:-1]
                if min(float(np.min(np.abs(z))) for z in pre) > 1e-3:
                    model = cand
                    break
            assert model is not None, "no kink-free draw found"
            old = init_model(dims, seed=int(rng.integers(1 << 20)))
            oracle = OldModelOracle.from_model(old, x, y)
            for cfg in GRADIENT_CONFIGS:
                objective = make_objective(y, oracle, cfg)
                fd = _numeric_gradient(model, x, idx, objective)
                an = _analytic_gradient(model, x, idx, objective)
                err = np.linalg.norm(fd - an)
                bound = 1e-4 * max(np.linalg.norm(fd), np.linalg.norm(an), 1e-8)
                assert err <= bound, \
                    f"model {i}, mode {cfg.mode}/{cfg.distance.kind}: {err:.3e}"
        assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 4. reduction identities, bit for bit


def test_c04_reduction_identities_exact(capsys):
    with criterion(capsys, 4, "reduction identities hold exactly"):
        rng = np.random.default_rng(99)
        n, k = 8, 5  # power-of-two batch keeps the 1/b scaling exact
        y = rng.integers(0, k, size=n)
        old_logits = rng.standard_normal((n, k)) * 2
        correct = rng.random(n) < 0.5
        pred = np.where(correct, y, (y + 1) % k)
        oracle = OldModelOracle(old_logits, correct, pred)
        flipped = OldModelOracle(old_logits, ~correct,
                                 np.where(~correct, y, (y + 1) % k))
        idx = np.arange(n)
        ce = make_ce_objective(y)

        zero_lam = [
            PCLossConfig(mode="naive", lam=0.0),
            PCLossConfig(mode="focal", lam=0.0, distance=DistanceSpec("kl", tau=2.0)),
            PCLossConfig(mode="focal", lam=0.0, distance=DistanceSpec("logit_match")),
        ]
        for trial in range(5):
            logits = np.random.default_rng(200 + trial).standard_normal((n, k))
            ce_loss, ce_grad = ce(logits.copy(), idx)
            for cfg in zero_lam:
                loss, grad = make_objective(y, oracle, cfg)(logits.copy(), idx)
                assert loss == ce_loss
                np.testing.assert_array_equal(grad, ce_grad)

            # alpha=1, beta=0: the correctness gate is inert, so the term is
            # plain distillation. Same outputs under inverted gates, and the
            # loss decomposes into CE plus lambda times the mean distance.
            lam = 0.8
            unit = PCLossConfig(mode="focal", lam=lam,
                                filter=FilterSpec(1.0, 0.0),
                                distance=DistanceSpec("logit_match"))
            loss_a, grad_a = make_objective(y, oracle, unit)(logits.copy(), idx)
            loss_b, grad_b = make_objective(y, flipped, unit)(logits.copy(), idx)
            assert loss_a == loss_b
            np.testing.assert_array_equal(grad_a, grad_b)

            diff = logits - old_logits
            d = 0.5 * (diff * diff).sum(axis=1)
            assert loss_a == float(ce_loss + lam * np.mean(d))
            ref_grad = ce_grad.copy()
            ref_grad += (lam / n) * diff
            np.testing.assert_array_equal(grad_a, ref_grad)

        # a one-member ensemble is its member
        dims = [6, 8, 4]
        xs = rng.standard_normal((32, 6))
        ys = rng.integers(0, 4, size=32)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=8, seed=5)
        ens = train_ensemble(dims, xs, ys, cfg, size=1, base_seed=17)
        solo = nn.train(init_model(dims, seed=17), xs, ys,
                        make_ce_objective(ys), replace(cfg, seed=17)).model
        queries = rng.standard_normal((10, 6))
        np.testing.assert_array_equal(mean_logits(ens, queries),
                                      nn.batch_logits(solo, queries))
        np.testing.assert_array_equal(ens.predict_batch(queries, nn.Workspace()),
                                      nn.predict_batch(solo, queries))


# ---------------------------------------------------------------------------
# 5. high-temperature KL approaches its quadratic form


def test_c05_high_temperature_kl_is_quadratic(capsys):
    with criterion(capsys, 5, "tau^2 * KL matches the quadratic limit within 1%"):
        rng = np.random.default_rng(555)
        tau = 1000.0
        for _ in range(100):
            k = int(rng.integers(3, 13))
            scale = rng.uniform(0.5, 2.0)
            new = rng.normal(0.0, scale, size=k)
            old = rng.normal(0.0, scale, size=k)
            value, _ = distance_kl(new, old, tau)
            delta = new - old
            centered = delta - delta.mean()
            quad = float(centered @ centered) / (2.0 * k)
            assert abs(tau * tau * value - quad) <= 0.01 * quad


# ---------------------------------------------------------------------------
# 6. retraining alone regresses predictions at matched accuracy


def test_c06_retraining_regresses_at_matched_error(capsys, request):
    with criterion(capsys, 6, "plain retrain: median NFR > 1% at matched ER"):
        result = request.getfixturevalue("nt_result")
        s = result.summary()
        assert s["repetitions"] == 5
        assert s["nfr"]["median"] > 0.01
        assert abs(s["er_new"]["median"] - result.er_old) < 0.03


# ---------------------------------------------------------------------------
# 7. focal distillation cuts NFR well below plain retraining


def test_c07_focal_distillation_cuts_nfr(capsys, request):
    with criterion(capsys, 7, "focal distillation: NFR <= 60% of plain retrain"):
        nt = request.getfixturevalue("nt_result").summary()
        naive = request.getfixturevalue("naive_result").summary()
        fdlm = request.getfixturevalue("fdlm_result").summary()

        nt_nfr = nt["nfr"]["median"]
        assert fdlm["nfr"]["median"] <= 0.6 * nt_nfr
        assert fdlm["er_new"]["median"] - nt["er_new"]["median"] < 0.03
        naive_cut = nt_nfr - naive["nfr"]["median"]
        fdlm_cut = nt_nfr - fdlm["nfr"]["median"]
        assert naive_cut < fdlm_cut


# ---------------------------------------------------------------------------
# 8. bigger ensembles reduce NFR faster than ER


def test_c08_ensembles_shrink_flips_with_size(capsys, request):
    with criterion(capsys, 8, "ensembles: NFR and rel NFR fall from L=1 to L=16"):
        sweeps = request.getfixturevalue("ensemble_sweeps")
        assert len(sweeps) == 5
        by_size = {size: [] for size in ENSEMBLE_SIZES}
        for sweep in sweeps:
            assert [row.size for row in sweep.rows] == ENSEMBLE_SIZES
            for row in sweep.rows:
                assert row.rel_nfr is not None
                by_size[row.size].append((row.nfr, row.rel_nfr))

        def med(size, field):
            return statistics.median(v[field] for v in by_size[size])

        assert med(16, 0) < med(1, 0)  # NFR
        assert med(16, 1) < med(1, 1)  # relative NFR


# ---------------------------------------------------------------------------
# 9. filter-weight ordering and oversized beta


def test_c09_filter_weight_ordering(capsys, request):
    with criterion(capsys, 9, "filter sweep: beta ordering and oversized beta"):
        table = request.getfixturevalue("focal_table")
        rows = {(r.alpha, r.beta): r for r in table.rows}
        assert rows[(1.0, 5.0)].nfr < rows[(1.0, 0.0)].nfr
        assert rows[(1.0, 0.0)].nfr < rows[(0.0, 0.0)].nfr
        # beta at 20x the default must cost real accuracy
        assert rows[(1.0, 100.0)].er_new - rows[(1.0, 5.0)].er_new > 0.02


# ---------------------------------------------------------------------------
# 10. per-epoch curves: early and sustained separation


def _median_series(result, field):
    per_rep = [[getattr(row, field) for row in run.epochs]
               for run in result.runs]
    return [statistics.median(column) for column in zip(*per_rep)]


def test_c10_epoch_series_separate_early(capsys, request):
    with criterion(capsys, 10, "epoch series: focal below plain from 1/3 in"):
        nt = request.getfixturevalue("nt_result")
        fdlm = request.getfixturevalue("fdlm_result")
        epochs = nt.config.train.epochs

        for result in (nt, fdlm):
            for run in result.runs:
                assert [row.epoch for row in run.epochs] == list(range(1, epochs + 1))
                assert all(row.rel_nfr_val is not None for row in run.epochs)
            header = Table(result.runs[0].epochs).to_csv().splitlines()[0]
            assert header == "epoch,er_train,er_val,nfr_val,rel_nfr_val,nfr_train"

        nt_rel = _median_series(nt, "rel_nfr_val")
        fd_rel = _median_series(fdlm, "rel_nfr_val")
        cutoff = math.ceil(epochs / 3)
        for epoch in range(cutoff, epochs + 1):
            assert fd_rel[epoch - 1] < nt_rel[epoch - 1], f"epoch {epoch}"

        # plain retraining flips training-set predictions too
        assert statistics.median(run.epochs[-1].nfr_train
                                 for run in nt.runs) > 0.0


# ---------------------------------------------------------------------------
# 11. byte-identical reruns

RERUN_CONFIG = """\
dataset: {k: 5, input_dim: 8, samples_per_class: 80, cluster_spread: 1.2, seed: 11}
scenario: {kind: same_arch_retrain}
train: {epochs: 4, batch_size: 32, seed: 3}
method: fd_lm
repetitions: 2
"""


def test_c11_reruns_are_byte_identical(capsys, tmp_path):
    with criterion(capsys, 11, "identical config reruns are byte-identical"):
        config_path = tmp_path / "exp.yaml"
        config_path.write_text(RERUN_CONFIG, encoding="utf-8")
        first = tmp_path / "first"
        second = tmp_path / "second"
        for out in (first, second):
            code = cli_main(["run", "--config", str(config_path),
                             "--out", str(out)])
            assert code == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert any(name.endswith(".csv") for name in names)
        assert any(name.endswith(".json") for name in names)
        match, mismatch, errors = filecmp.cmpfiles(first, second, names,
                                                   shallow=False)
        assert sorted(match) == names
        assert not mismatch and not errors


# ---------------------------------------------------------------------------
# the README's compare table

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_compare_table_reproduces(request, reference_config):
    """The README's ``compare`` output, header and every column of its
    no_treatment, naive, fd_kl and fd_lm rows, is what those methods give
    on the README's config, which is the reference config. The ensemble
    row is left out: its 5 stacks of 16 members would add about 7 s."""
    text = README.read_text(encoding="utf-8")
    config = re.search(r"```yaml\n# update\.yaml\n(.*?)```", text, re.S)
    assert replace(loads_config(config.group(1)),
                   method=reference_config.method) == reference_config
    table = re.search(r"`compare` on the config above prints:\n\n```\n(.*?)```",
                      text, re.S).group(1).splitlines()
    assert table[-1].startswith("ensemble,")
    results = [request.getfixturevalue(name) for name in
               ("nt_result", "naive_result", "fdkl_result", "fdlm_result")]
    assert Table([MethodRow.of(r) for r in results]).to_csv().splitlines() \
        == table[:-1]
