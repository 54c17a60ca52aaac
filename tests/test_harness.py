"""Experiment runner: seed layout, shared old models, sweeps, and the
per-epoch series."""

import resource
import statistics
import tracemalloc
import weakref
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pctlab import datasets, ensembles, harness, nn, reports
from pctlab.datasets import SPLIT_TEST, SPLIT_TRAIN, SyntheticSpec, generate
from pctlab.flips import report_from_arrays
from pctlab.harness import (ENSEMBLE_REP_STRIDE, ENSEMBLE_SEED_OFFSET,
                            MAX_REPETITIONS, METHODS, NEW_MODEL_SEED_OFFSET,
                            EpochMetrics, ExperimentConfig, MethodRow,
                            OldReference, ScenarioState, compare_methods,
                            model_seed, pc_config_for_method,
                            prepare_scenario, run_experiment, sweep_ensemble,
                            sweep_focal)
from pctlab.losses import (DistanceSpec, OldModelOracle, PCLossConfig,
                           make_ce_objective, make_objective)
from pctlab.nn import TrainConfig, init_model
from pctlab.rng import STREAM_SHUFFLE, stream_rng
from pctlab.scenarios import (DataFilter, ModelSpec, ScenarioKind,
                              UpdateScenario, build_scenario,
                              reference_scenario)


def test_pc_config_for_method_mapping():
    assert pc_config_for_method("no_treatment").mode == "none"
    assert pc_config_for_method("ensemble").mode == "none"
    assert pc_config_for_method("naive").mode == "naive"
    kl = pc_config_for_method("fd_kl")
    assert (kl.mode, kl.distance.kind) == ("focal", "kl")
    lm = pc_config_for_method("fd_lm")
    assert (lm.mode, lm.distance.kind) == ("focal", "logit_match")
    with pytest.raises(ValueError, match="unknown method"):
        pc_config_for_method("bct")


def test_pc_config_keeps_hyperparameters():
    base = PCLossConfig(mode="none", lam=0.25,
                        distance=DistanceSpec("logit_match", tau=7.0))
    derived = pc_config_for_method("fd_kl", base)
    assert derived.lam == 0.25
    assert derived.distance.tau == 7.0
    assert derived.distance.kind == "kl"


def test_experiment_config_normalizes_pc_mode(small_config):
    # the method wins over whatever mode the pc block carried
    cfg = replace(small_config, method="naive",
                  pc=PCLossConfig(mode="focal", lam=2.0))
    assert cfg.pc.mode == "naive" and cfg.pc.lam == 2.0
    with pytest.raises(ValueError):
        replace(small_config, repetitions=0)
    with pytest.raises(ValueError):
        replace(small_config, ensemble_size=0)
    with pytest.raises(ValueError):
        replace(small_config, ensemble_size=ENSEMBLE_REP_STRIDE)
    # the last repetition's new-model seed stays below the ensemble range
    assert replace(small_config, repetitions=MAX_REPETITIONS).repetitions == (
        ENSEMBLE_SEED_OFFSET - NEW_MODEL_SEED_OFFSET)
    with pytest.raises(ValueError, match="repetitions"):
        replace(small_config, repetitions=MAX_REPETITIONS + 1)


def _seed_key(role, rep, member):
    # the coordinates a role's seed depends on
    return (role, 0 if role == "old" else rep, 0 if role == "new" else member)


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, ENSEMBLE_REP_STRIDE - 1),
       reps=st.integers(1, MAX_REPETITIONS),
       base=st.integers(0, 2**31), data=st.data())
def test_seed_ranges_are_pairwise_disjoint(size, reps, base, data):
    ExperimentConfig(ensemble_size=size, repetitions=reps)   # an allowed pair
    first = {role: model_seed(base, role) for role in ("old", "new", "new_member")}
    last = {"old": model_seed(base, "old", member=size - 1),
            "new": model_seed(base, "new", rep=reps - 1),
            "new_member": model_seed(base, "new_member", reps - 1, size - 1)}
    assert last["old"] < first["new"] and last["new"] < first["new_member"]
    # any two models of the layout share a seed only if they are the same model
    keys = st.tuples(st.sampled_from(["old", "new", "new_member"]),
                     st.integers(0, reps - 1), st.integers(0, size - 1))
    a, b = data.draw(keys), data.draw(keys)
    assert (model_seed(base, *a) == model_seed(base, *b)) == (
        _seed_key(*a) == _seed_key(*b))
    with pytest.raises(ValueError, match="seed role"):
        model_seed(base, "newest")


def test_train_seed_bound_keeps_every_derived_seed_below_2_64():
    # the largest base seed gives the layout's last seed 2**64 - 1, which
    # still keys a stream; one more is rejected
    last = (MAX_REPETITIONS - 1, ENSEMBLE_REP_STRIDE - 1)
    base = 2**64 - 1 - model_seed(0, "new_member", *last)
    config = ExperimentConfig(train=TrainConfig(seed=base))
    assert model_seed(config.train.seed, "new_member", *last) == 2**64 - 1
    stream_rng(2**64 - 1, STREAM_SHUFFLE).permutation(3)
    with pytest.raises(ValueError, match=r"^train\.seed must be below"):
        ExperimentConfig(train=TrainConfig(seed=base + 1))


def test_run_experiment_is_deterministic(small_config, small_state):
    r1 = run_experiment(small_config, small_state)
    r2 = run_experiment(small_config, small_state)
    assert r1.summary() == r2.summary()
    for a, b in zip(r1.runs, r2.runs):
        assert a.final == b.final
        assert a.epochs == b.epochs


def test_run_seed_layout_and_series_shape(small_config, small_state):
    result = run_experiment(small_config, small_state)
    epochs = small_config.train.epochs
    assert len(result.runs) == small_config.repetitions
    for rep, run in enumerate(result.runs):
        assert run.seed == small_config.train.seed + NEW_MODEL_SEED_OFFSET + rep
        assert [row.epoch for row in run.epochs] == list(range(1, epochs + 1))
        last = run.epochs[-1]
        assert last.er_val == run.final.er_new
        assert last.nfr_val == run.final.nfr
        assert last.rel_nfr_val == run.final.rel_nfr
    # repetitions use different seeds, so they are distinct runs
    assert result.runs[0].final != result.runs[1].final or (
        result.runs[0].epochs != result.runs[1].epochs)


def _solo_runs(config, state):
    """Each repetition trained alone as a 2-D model and scored by
    ``OldReference.score`` in its own workspace: the oracle for the
    repetition stack."""
    plan, old = state.plan, state.old_side(1)
    x, y = plan.new_job.features, plan.new_job.labels
    oracle = OldModelOracle.from_model(old.members[0], x, y,
                                       class_map=plan.old_to_new)
    reference = OldReference.of(old, plan, oracle)
    objective = make_objective(y, oracle, config.pc)
    runs = []
    for rep in range(config.repetitions):
        seed = model_seed(config.train.seed, "new", rep)
        if config.scenario.init_from_old:
            start = old.members[0]
        else:
            start = init_model(plan.new_job.dims, seed)
        ws, scored = nn.Workspace(), []
        nn.train(start, x, y, objective, replace(config.train, seed=seed),
                 on_epoch_end=lambda e, model: scored.append(
                     reference.score([model], plan, ws, e)))
        runs.append((rep, seed, [row for row, _ in scored], scored[-1][1]))
    return runs


def _run_keys(result):
    return [(r.repetition, r.seed, r.epochs, r.final) for r in result.runs]


@pytest.mark.parametrize("method", ["fd_kl", "naive"])
def test_repetition_stack_equals_solo_runs(small_config, small_state, method):
    cfg = replace(small_config, method=method, repetitions=3)
    assert _run_keys(run_experiment(cfg, small_state)) == _solo_runs(
        cfg, small_state)


def test_repetition_stack_fine_tune_equals_solo_runs():
    spec = SyntheticSpec(num_classes=4, input_dim=6, samples_per_class=40,
                         cluster_spread=1.0, seed=2)
    cfg = ExperimentConfig(
        dataset=spec,
        scenario=reference_scenario(ScenarioKind.FINE_TUNE, 4),
        train=TrainConfig(epochs=2, batch_size=32, seed=1),
        method="fd_lm",
        repetitions=2,
    )
    state = prepare_scenario(cfg)
    old = state.old_side(1).members[0]
    before = [(l.weights.copy(), l.bias.copy()) for l in old.layers]
    result = run_experiment(cfg, state)
    # every repetition starts from the one old model, which stays untouched
    for (w, b), layer in zip(before, old.layers):
        np.testing.assert_array_equal(layer.weights, w)
        np.testing.assert_array_equal(layer.bias, b)
    assert _run_keys(result) == _solo_runs(cfg, state)
    assert result.runs[0].epochs != result.runs[1].epochs


def _ensemble_runs(config, state):
    """Each repetition trained as ``train_ensemble`` trains it, one CE stack
    through ``nn.train``, and scored every epoch as ``Ensemble(members)``:
    the oracle for the ensemble method's stack."""
    plan, size = state.plan, config.ensemble_size
    old = state.old_side(size)
    reference = OldReference.of(old, plan, None)
    x, y = plan.new_job.features, plan.new_job.labels
    runs = []
    for rep in range(config.repetitions):
        base = model_seed(config.train.seed, "new_member", rep)
        if config.scenario.init_from_old:
            init = old.members
        else:
            init = [init_model(plan.new_job.dims, base + j)
                    for j in range(size)]
        ws, scored = nn.Workspace(), []

        def hook(e, stack):
            scored.append(reference.score(
                [stack.member(j) for j in range(size)], plan, ws, e))

        new = nn.train(nn.stack_models(init), x, y, make_ce_objective(y),
                       replace(config.train, seed=base), on_epoch_end=hook).model
        runs.append((rep, base, new.parameter_count(),
                     [row for row, _ in scored], scored[-1][1]))
    return runs


@pytest.mark.parametrize("kind", [ScenarioKind.SAME_ARCH_RETRAIN,
                                  ScenarioKind.FINE_TUNE])
def test_ensemble_method_equals_train_ensemble_runs(small_config, small_state,
                                                   kind):
    cfg = replace(small_config, method="ensemble", ensemble_size=3,
                  repetitions=2)
    state = small_state
    if kind is ScenarioKind.FINE_TUNE:
        cfg = replace(cfg, scenario=reference_scenario(
            kind, small_config.dataset.num_classes))
        state = prepare_scenario(cfg)
    result = run_experiment(cfg, state)
    assert [(r.repetition, r.seed, r.param_count, r.epochs, r.final)
            for r in result.runs] == _ensemble_runs(cfg, state)
    assert result.runs[0].epochs != result.runs[1].epochs


def test_repetition_stacks_carry_seeds_across_a_boundary(
        small_config, small_state, monkeypatch):
    cfg = replace(small_config, method="fd_kl", repetitions=3)
    default = run_experiment(cfg, small_state)
    calls = []
    train_ensemble = harness.ensembles.train_ensemble

    def counting(*args, **kwargs):
        calls.append(args[4])
        return train_ensemble(*args, **kwargs)

    monkeypatch.setattr(harness, "REPETITION_STACK", 2)
    monkeypatch.setattr(harness.ensembles, "train_ensemble", counting)
    chunked = run_experiment(cfg, small_state)
    assert calls == [2, 1]
    assert _run_keys(chunked) == _run_keys(default)


def _reference_task_score_inputs():
    """The reference task's 3,500 training and 1,000 held-out rows, with an
    old side of fixed predictions; no model is trained."""
    config = ExperimentConfig()
    plan = build_scenario(config.scenario, generate(config.dataset))
    x, y = plan.new_job.features, plan.new_job.labels
    assert (len(x), len(plan.eval_plan.labels)) == (3500, 1000)
    old_eval = np.roll(plan.eval_plan.labels, 1)
    old = OldReference(old_eval, np.roll(y, 1))
    return x, y, old.train_preds, plan, old_eval, old


def _unbuffered_metrics(epoch, x, y, old_train, plan, old_eval, members):
    """One epoch's metrics from each member's own ``batch_logits``."""
    def preds(rows):
        return np.argmax(sum(nn.batch_logits(m, rows) for m in members), axis=1)

    train_preds = preds(x)
    eval_preds = preds(plan.eval_plan.features)
    report = report_from_arrays(plan.eval_plan.labels, old_eval, eval_preds)
    return EpochMetrics(epoch + 1, float(np.mean(train_preds != y)),
                        report.er_new, report.nfr, report.rel_nfr,
                        report_from_arrays(y, old_train, train_preds).nfr)


@pytest.mark.parametrize("size", [1, 3])
def test_scores_sharing_a_workspace_equal_unbuffered_scoring(size):
    """Two groups of L members scored by ``OldReference.score`` in one
    workspace, epoch after epoch, give the metrics of unbuffered scoring,
    so neither the member sum nor one group's forward clobbers another;
    after the first epoch no buffer is reallocated."""
    x, y, old_train, plan, old_eval, old = _reference_task_score_inputs()
    dims = plan.new_job.dims
    ws = nn.Workspace()
    rows = [[], []]
    expected = [[], []]
    for epoch in range(3):
        for c in range(2):
            members = [init_model(dims, 100 * epoch + 10 * c + j)
                       for j in range(size)]
            rows[c].append(old.score(members, plan, ws, epoch)[0])
            expected[c].append(_unbuffered_metrics(epoch, x, y, old_train, plan,
                                                   old_eval, members))
        buffers = {k: b.ctypes.data for k, b in ws.buffers.items()}
        if epoch == 0:
            first = buffers
        assert buffers == first
    assert rows == expected
    assert len({row.er_train for row in expected[0] + expected[1]}) > 1


def test_old_side_score_takes_no_page_faults_after_warm_up():
    """A warmed-up ``OldReference.score`` call on the reference task reuses
    its workspace: the row-sized forward temporaries once took about 490
    minor page faults per call, about 2,450 per 5-repetition hook."""
    x, y, old_train, plan, old_eval, old = _reference_task_score_inputs()
    ws = nn.Workspace()
    model = init_model(plan.new_job.dims, 3)
    old.score([model], plan, ws, 0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    old.score([model], plan, ws, 1)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


def _wide_config(samples_per_class, epochs):
    """The ``wide`` update, arch_change from [20, 32, 10] to
    [20, 256, 256, 10] at batch 512, on a dataset of this size."""
    return ExperimentConfig(
        dataset=SyntheticSpec(samples_per_class=samples_per_class),
        scenario=UpdateScenario(ScenarioKind.ARCH_CHANGE, ModelSpec((32,)),
                                ModelSpec((256, 256))),
        train=TrainConfig(batch_size=512, epochs=epochs, lr_decay_every=2),
        method="fd_lm")


def test_no_scoring_buffer_outlives_its_epoch(monkeypatch):
    """The memory traced as each training epoch starts stays within 64 KiB
    of the first epoch's: the scoring buffers of an epoch, about 2.9 MB per
    hidden layer on these 2,800 training rows, die before the next epoch
    trains. A workspace kept across epochs would hold them throughout."""
    config = _wide_config(400, 4)
    state = prepare_scenario(config)
    traced = []
    train_epoch = nn._train_epoch

    def recording(*args):
        traced.append(tracemalloc.get_traced_memory()[0])
        return train_epoch(*args)

    monkeypatch.setattr(nn, "_train_epoch", recording)
    tracemalloc.start()
    try:
        run_experiment(config, state)
    finally:
        tracemalloc.stop()
    assert len(traced) == 4
    assert all(abs(t - traced[0]) <= 64 * 1024 for t in traced[1:]), traced


def test_one_epochs_scoring_allocates_each_buffer_once(monkeypatch):
    """Scoring an epoch of ``wide`` allocates each workspace buffer once,
    though the 4,000 held-out rows run in longer blocks (1,334 rows) than
    the 14,000 training rows (1,077): the workspace is sized for both before
    its first forward, so no buffer grows. The run's old-side predictions
    and oracle run in workspaces of their own, which also allocate each
    buffer once."""
    config = _wide_config(2000, 1)
    state = prepare_scenario(config)
    assert (len(state.plan.new_job.labels),
            len(state.plan.eval_plan.labels)) == (14000, 4000)
    allocated, workspaces = [], []
    get = nn.Workspace.get

    def recording(workspace, key, shape):
        before = workspace.buffers.get(key)
        view = get(workspace, key, shape)
        if workspace.buffers[key] is not before:
            # held, so that no later workspace reuses a freed one's id
            workspaces.append(workspace)
            allocated.append((id(workspace), key))
        return view

    monkeypatch.setattr(nn.Workspace, "get", recording)
    run_experiment(config, state)
    counts = Counter(allocated)
    assert set(counts.values()) == {1}, counts
    assert {key for _, key in counts} == {0, 1, 2, "sum"}


def test_summary_medians_match_statistics(small_config, small_state):
    result = run_experiment(small_config, small_state)
    s = result.summary()
    nfrs = [run.final.nfr for run in result.runs]
    assert s["nfr"]["median"] == statistics.median(nfrs)
    assert s["nfr"]["min"] == min(nfrs) and s["nfr"]["max"] == max(nfrs)
    assert s["method"] == "fd_lm"
    assert s["repetitions"] == small_config.repetitions
    assert s["er_old"] == result.er_old


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=9))
def test_summary_median_is_statistics_median_bit_for_bit(values):
    assert repr(harness._stats(values)["median"]) == repr(
        statistics.median(values))


@pytest.mark.parametrize("method", ["fd_lm", "ensemble"])
@pytest.mark.parametrize("epochs", [None, 0], ids=["trained", "zero-epoch"])
def test_result_er_old_is_every_runs_held_out_er_old(small_config, small_state,
                                                     method, epochs):
    """``ExperimentResult.er_old`` is the held-out report's ``er_old``,
    the same in every run because every run scores against one old side,
    and it is that old side's error rate on the held-out rows."""
    cfg = replace(small_config, method=method, ensemble_size=3, repetitions=3)
    state = small_state
    if epochs is not None:
        cfg = replace(cfg, train=replace(cfg.train, epochs=epochs))
        state = prepare_scenario(cfg)
    result = run_experiment(cfg, state)
    assert [run.final.er_old for run in result.runs] == [result.er_old] * 3
    old = state.old_side(3 if method == "ensemble" else 1)
    eval_preds = OldReference.of(old, state.plan, None).eval_preds
    assert result.er_old == float(
        np.mean(eval_preds != state.plan.eval_plan.labels))


def test_epoch_series_csv_layout(small_config, small_state, tmp_path):
    result = run_experiment(small_config, small_state)
    reports.write_experiment(result, str(tmp_path))
    lines = (tmp_path / "epochs_rep00.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,er_train,er_val,nfr_val,rel_nfr_val,nfr_train"
    assert len(lines) == 1 + small_config.train.epochs
    assert lines[1].startswith("1,")


def test_compare_methods_shares_one_old_model(small_config, small_state):
    table = compare_methods(small_config,
                            ["no_treatment", "naive", "fd_lm", "ensemble"],
                            small_state)
    by_method = {r.method: r for r in table.rows}
    er_old = table.results["no_treatment"].runs[0].final.er_old
    for m in ("no_treatment", "naive", "fd_lm"):
        assert by_method[m].er_old == er_old
    single_params = table.results["no_treatment"].runs[0].param_count
    assert by_method["ensemble"].param_count == (
        small_config.ensemble_size * single_params)
    assert [r.method for r in table.rows] == ["no_treatment", "naive",
                                              "fd_lm", "ensemble"]
    assert set(table.results) == {"no_treatment", "naive", "fd_lm", "ensemble"}
    header = table.to_csv().splitlines()[0]
    assert header == "method,er_old,er_new,nfr,rel_nfr,n_params"


def test_compare_methods_validates_method_list(small_config, small_state):
    with pytest.raises(ValueError):
        compare_methods(small_config, [], small_state)
    with pytest.raises(ValueError):
        compare_methods(small_config, ["naive", "naive"], small_state)
    with pytest.raises(ValueError, match="unknown method"):
        compare_methods(small_config, ["bct"], small_state)


@pytest.mark.parametrize("methods", [[], ["naive", "naive"]],
                         ids=["empty", "repeated"])
def test_compare_methods_checks_its_list_before_preparing(small_config,
                                                          methods,
                                                          monkeypatch):
    prepared = []
    monkeypatch.setattr(harness, "prepare_scenario", prepared.append)
    calls = _count_old_trainings(monkeypatch)
    with pytest.raises(ValueError,
                       match="^methods must be non-empty and unique$"):
        compare_methods(small_config, methods)
    assert prepared == [] and calls == []


def test_ensemble_method_caches_old_side(small_config, small_state):
    cfg = replace(small_config, method="ensemble", ensemble_size=3,
                  repetitions=1)
    r1 = run_experiment(cfg, small_state)
    assert 3 in small_state.old_sides
    cached = small_state.old_side(3)
    r2 = run_experiment(cfg, small_state)
    assert small_state.old_side(3) is cached
    assert r1.summary() == r2.summary()
    single = run_experiment(replace(small_config, method="no_treatment"),
                            small_state).runs[0].param_count
    assert r1.runs[0].param_count == 3 * single
    assert r1.old_param_count == (
        3 * small_state.old_side(1).parameter_count())
    base = cfg.train.seed + ENSEMBLE_SEED_OFFSET
    assert r1.runs[0].seed == base
    assert len(r1.runs[0].epochs) == cfg.train.epochs


def _count_old_trainings(monkeypatch):
    """Count the ``ensembles.train_ensemble`` calls made without an
    objective: the old sides, which train under plain CE. Every new side
    passes its method's objective."""
    calls = []
    train_ensemble = harness.ensembles.train_ensemble

    def counting(*args, **kwargs):
        if kwargs.get("objective") is None:
            calls.append(args[4])
        return train_ensemble(*args, **kwargs)

    monkeypatch.setattr(harness.ensembles, "train_ensemble", counting)
    return calls


def test_old_sides_train_on_first_use(small_config, monkeypatch):
    calls = _count_old_trainings(monkeypatch)
    state = prepare_scenario(replace(small_config, method="ensemble"))
    assert calls == [] and state.old_sides == {}
    run_experiment(replace(small_config, method="no_treatment"), state)
    assert calls == [1]
    single = state.old_side(1)
    run_experiment(replace(small_config, method="naive"), state)
    assert calls == [1] and state.old_side(1) is single
    # the ensemble method at size 1 scores against the same entry
    run_experiment(replace(small_config, method="ensemble", ensemble_size=1),
                   state)
    assert calls == [1] and state.old_sides == {1: single}


def test_prepare_trains_the_single_old_model_for_single_model_methods(
        small_config, monkeypatch):
    calls = _count_old_trainings(monkeypatch)
    for method in ("no_treatment", "naive", "fd_kl", "fd_lm"):
        state = prepare_scenario(replace(small_config, method=method))
        assert list(state.old_sides) == [1]
    assert calls == [1, 1, 1, 1]


def _count_oracles(monkeypatch):
    """Count the ``OldModelOracle.from_model`` calls."""
    calls = []
    from_model = OldModelOracle.from_model.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args[0])
        return from_model(cls, *args, **kwargs)

    monkeypatch.setattr(OldModelOracle, "from_model", classmethod(counting))
    return calls


def test_only_a_pc_run_builds_an_oracle(small_config, monkeypatch):
    """Preparing a state builds no oracle for any method; a run builds one
    from the single old model when its objective reads it, and only then."""
    calls = _count_oracles(monkeypatch)
    cfg = replace(small_config, repetitions=1,
                  train=replace(small_config.train, epochs=1))
    for method in METHODS:
        prepare_scenario(replace(cfg, method=method))
        assert calls == [], method
    state = prepare_scenario(cfg)
    for method, size, want in [("naive", 1, 1), ("fd_kl", 1, 1),
                               ("fd_lm", 1, 1), ("no_treatment", 1, 0),
                               ("ensemble", 1, 0), ("ensemble", 3, 0)]:
        calls.clear()
        run_experiment(replace(cfg, method=method, ensemble_size=size), state)
        assert len(calls) == want, (method, size)
        assert all(model is state.old_side(1).members[0] for model in calls)


def _must_not_train(*args, **kwargs):
    raise AssertionError("an old side trained for a rejected scenario")


@pytest.mark.parametrize("method", METHODS)
def test_a_new_side_without_an_old_class_is_rejected_before_training(
        small_config, method, monkeypatch):
    """The class check runs when the scenario resolves, so no method, not
    even ``ensemble`` with its whole old ensemble, trains an old side that
    could not be scored."""
    monkeypatch.setattr(harness.ensembles, "train_ensemble", _must_not_train)
    scenario = UpdateScenario(ScenarioKind.SAME_ARCH_RETRAIN,
                              new_data=DataFilter(class_subset=(0, 1, 2)))
    cfg = replace(small_config, scenario=scenario, method=method,
                  ensemble_size=3)
    for call in (prepare_scenario, run_experiment, compare_methods):
        with pytest.raises(ValueError, match="^every old class must be "
                                             "present in the new data view$"):
            call(cfg)


def _old_reference_with_oracle(state):
    """The L = 1 old side's ``OldReference`` as a PC run builds it, with
    its training-row predictions taken from the oracle."""
    plan, old = state.plan, state.old_side(1)
    job = plan.new_job
    oracle = OldModelOracle.from_model(old.members[0], job.features,
                                       job.labels, class_map=plan.old_to_new)
    return OldReference.of(old, plan, oracle)


def test_single_old_model_equals_an_ensemble_of_one(small_config, small_state):
    """The cached L = 1 entry, and the predictions a PC run builds from it
    and its oracle, are what a separately trained ensemble of one predicts,
    bit for bit. The oracle's predictions on the new job's rows equal the
    ensemble's, so the fork in ``OldReference.of`` changes no bit, also
    when old class j is not new class j and when the new side has another
    architecture."""
    plan, cfg = small_state.plan, small_config
    single = small_state.old_side(1)
    reference = _old_reference_with_oracle(small_state)
    solo = harness.ensembles.train_ensemble(
        plan.old_job.dims, plan.old_job.features, plan.old_job.labels,
        cfg.train, 1, model_seed(cfg.train.seed, "old"))
    for got, want in zip(single.members[0].layers, solo.members[0].layers):
        np.testing.assert_array_equal(got.weights, want.weights)
        np.testing.assert_array_equal(got.bias, want.bias)
    np.testing.assert_array_equal(
        reference.train_preds,
        plan.old_to_new[solo.predict_batch(plan.new_job.features,
                                           nn.Workspace())])
    eval_preds = plan.old_to_new[solo.predict_batch(plan.eval_plan.features,
                                                    nn.Workspace())]
    np.testing.assert_array_equal(reference.eval_preds, eval_preds)
    assert run_experiment(cfg, small_state).runs[0].final.er_old == float(
        np.mean(eval_preds != plan.eval_plan.labels))
    assert single.parameter_count() == solo.parameter_count()

    # old classes 1 and 3 are new classes 1 and 3, so a prediction left
    # unmapped would differ
    growth = prepare_scenario(replace(cfg, scenario=UpdateScenario(
        ScenarioKind.CLASS_GROWTH, old_data=DataFilter(class_subset=(1, 3)))))
    arch = prepare_scenario(replace(cfg, scenario=reference_scenario(
        ScenarioKind.ARCH_CHANGE, cfg.dataset.num_classes)))
    assert small_state.scenario.kind is ScenarioKind.SAME_ARCH_RETRAIN
    assert growth.plan.old_to_new.tolist() == [1, 3]
    assert arch.plan.old_job.dims != arch.plan.new_job.dims
    for state in (small_state, growth, arch):
        plan = state.plan
        with_oracle = _old_reference_with_oracle(state)
        without = OldReference.of(state.old_side(1), plan, None)
        assert with_oracle.train_preds.dtype == without.train_preds.dtype
        np.testing.assert_array_equal(with_oracle.train_preds,
                                      without.train_preds)
        np.testing.assert_array_equal(with_oracle.eval_preds,
                                      without.eval_preds)


def test_compare_is_independent_of_the_preparing_method(small_config):
    methods = ["no_treatment", "naive", "ensemble"]
    cfg = replace(small_config, ensemble_size=3, repetitions=1)
    tables = [compare_methods(cfg, methods,
                              prepare_scenario(replace(cfg, method=m))).to_csv()
              for m in ("ensemble", "no_treatment")]
    assert tables[0] == tables[1]


@pytest.mark.parametrize("field", ["dataset", "scenario", "train"])
def test_a_state_rejects_a_config_it_was_not_prepared_for(
        small_config, small_state, field):
    value = {
        "dataset": replace(small_config.dataset,
                           seed=small_config.dataset.seed + 1),
        "scenario": reference_scenario(ScenarioKind.FINE_TUNE,
                                       small_config.dataset.num_classes),
        "train": replace(small_config.train,
                         epochs=small_config.train.epochs + 1),
    }[field]
    cfg = replace(small_config, **{field: value})
    with pytest.raises(ValueError, match=f"config.{field} differs"):
        run_experiment(cfg, small_state)
    with pytest.raises(ValueError, match=f"config.{field} differs"):
        compare_methods(cfg, ["no_treatment"], small_state)
    with pytest.raises(ValueError, match=f"config.{field} differs"):
        sweep_focal(cfg, [(1.0, 5.0)], small_state)


def test_focal_sweep_rows_are_the_method_rows_of_its_results(small_config,
                                                              small_state):
    table = sweep_focal(small_config, [(1.0, 5.0), (0.0, 0.0)], small_state)
    for row, result in zip(table.rows, table.results.values()):
        medians = MethodRow.of(result)
        assert (row.er_new, row.nfr, row.rel_nfr) == (
            medians.er_new, medians.nfr, medians.rel_nfr)


def test_rows_and_results_follow_the_input_order(small_config, small_state):
    cfg = replace(small_config, repetitions=1, ensemble_size=2)
    methods = ["fd_lm", "ensemble", "no_treatment", "naive"]
    table = compare_methods(cfg, methods, small_state)
    assert [r.method for r in table.rows] == methods
    assert list(table.results) == methods
    grid = [(2.0, 0.0), (0.0, 0.0), (1.0, 5.0)]
    table = sweep_focal(cfg, grid, small_state)
    assert [(r.alpha, r.beta) for r in table.rows] == grid
    assert list(table.results) == grid


def test_focal_zero_filter_equals_no_treatment(small_config, small_state):
    table = sweep_focal(small_config, [(0.0, 0.0)], small_state)
    nt = run_experiment(replace(small_config, method="no_treatment"),
                        small_state)
    res = table.results[(0.0, 0.0)]
    for a, b in zip(res.runs, nt.runs):
        assert a.final == b.final
        assert a.epochs == b.epochs
    assert table.rows[0].alpha == 0.0 and table.rows[0].beta == 0.0


def test_sweep_focal_requires_focal_method(small_config, small_state,
                                           monkeypatch):
    with pytest.raises(ValueError, match="focal"):
        sweep_focal(replace(small_config, method="naive"), [(1, 5)],
                    small_state)
    with pytest.raises(ValueError, match="non-empty"):
        sweep_focal(small_config, [], small_state)
    calls = _count_old_trainings(monkeypatch)
    with pytest.raises(ValueError, match="unique"):
        sweep_focal(small_config, [(1, 5), (0, 0), (1.0, 5.0)])
    # every pair is checked before the old side or the (1, 5) run trains
    with pytest.raises(ValueError, match="^filter weights must be non-negative$"):
        sweep_focal(small_config, [(1, 5), (-1, 0)])
    assert calls == []


@pytest.mark.parametrize("grid, message", [
    ([(1, 5), ("1", True)], "^alpha must be float, got '1'$"),
    ([(1, 5), (1, True)], "^beta must be float, got True$"),
], ids=["string", "bool"])
def test_sweep_focal_rejects_weights_of_the_wrong_kind(small_config, grid,
                                                       message, monkeypatch):
    # float("1") and float(True) ran this pair as (1.0, 1.0)
    calls = _count_old_trainings(monkeypatch)
    with pytest.raises(ValueError, match=message):
        sweep_focal(small_config, grid)
    assert calls == []


def test_compare_prepares_the_state_for_its_first_method(small_config,
                                                          monkeypatch):
    """A ``no_treatment`` config compared on ``ensemble`` alone trains the
    old ensemble it scores against, and no single old model."""
    calls = _count_old_trainings(monkeypatch)
    cfg = replace(small_config, method="no_treatment", ensemble_size=3,
                  repetitions=1)
    compare_methods(cfg, ["ensemble"])
    assert calls == [3]


DIVERGING = ExperimentConfig(
    dataset=SyntheticSpec(num_classes=4, input_dim=6, samples_per_class=40,
                          seed=2),
    train=TrainConfig(epochs=5, batch_size=16, learning_rate=1e6),
    method="fd_lm")


def test_a_diverged_old_side_is_an_error(monkeypatch):
    """At a learning rate of 1e6 the old weights overflow to inf and nan,
    and the old side would predict class 0 on every row. Every path that
    trains an old side raises instead, naming the member, and the size
    sweep trains no new side."""
    message = "^the old side diverged: member 0's weights are not finite$"
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=message):
            prepare_scenario(DIVERGING)
        with pytest.raises(ValueError, match=message):
            run_experiment(replace(DIVERGING, method="ensemble",
                                   ensemble_size=3))
        sides = []
        train_ensemble = harness.ensembles.train_ensemble

        def counting(*args, **kwargs):
            sides.append(args[5])
            return train_ensemble(*args, **kwargs)

        monkeypatch.setattr(harness.ensembles, "train_ensemble", counting)
        with pytest.raises(ValueError, match=message):
            sweep_ensemble(DIVERGING, [1, 2])
    assert sides == [model_seed(DIVERGING.train.seed, "old")]


@pytest.mark.parametrize("old_subset, new_subset",
                         [((0, 1, 2), (2, 1, 0)), ((0, 1, 1), (0, 1))],
                         ids=["reordered", "repeated"])
def test_init_from_old_matches_class_subsets_as_sets(old_subset, new_subset):
    """``DataFilter.select`` resolves both subsets to the same sorted
    classes, so the fine-tune builds and runs; the scenario keeps each
    subset as written."""
    spec = SyntheticSpec(num_classes=4, input_dim=6, samples_per_class=40,
                         cluster_spread=1.0, seed=2)
    small = reference_scenario(ScenarioKind.FINE_TUNE, 4).old_model
    scenario = UpdateScenario(ScenarioKind.FINE_TUNE, small, small,
                              old_data=DataFilter(class_subset=old_subset),
                              new_data=DataFilter(class_subset=new_subset),
                              init_from_old=True)
    assert (scenario.old_data.class_subset,
            scenario.new_data.class_subset) == (old_subset, new_subset)
    cfg = ExperimentConfig(dataset=spec, scenario=scenario,
                           train=TrainConfig(epochs=2, batch_size=32, seed=1),
                           method="fd_lm")
    state = prepare_scenario(cfg)
    classes = len(set(old_subset))
    np.testing.assert_array_equal(state.plan.old_to_new, np.arange(classes))
    assert state.plan.new_job.dims[-1] == classes
    result = run_experiment(cfg, state)
    assert [row.epoch for row in result.runs[0].epochs] == [1, 2]


def test_sweep_ensemble_row_shape(small_config):
    result = sweep_ensemble(replace(small_config, repetitions=1), [1, 2])
    assert [r.size for r in result.rows] == [1, 2]
    for row in result.rows:
        assert 0.0 <= row.nfr <= row.er_new <= 1.0
    lines = result.to_csv().splitlines()
    assert lines[0] == "L,er_old,er_new,nfr,rel_nfr"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


@pytest.mark.parametrize("data_seed, train_seed", [(11, 3), (14, 0)])
def test_sweep_ensemble_row_is_the_ensemble_methods_repetition_0(
        small_config, data_seed, train_seed):
    """On a full-data scenario the sweep's L row is the final report of the
    ``ensemble`` method's repetition 0 at ``ensemble_size`` L."""
    cfg = replace(small_config, method="ensemble", repetitions=1,
                  dataset=replace(small_config.dataset, seed=data_seed),
                  train=replace(small_config.train, epochs=3, seed=train_seed))
    state = prepare_scenario(cfg)
    table = sweep_ensemble(cfg, [1, 2, 3])
    assert [row.size for row in table.rows] == [1, 2, 3]
    for row in table.rows:
        final = run_experiment(replace(cfg, ensemble_size=row.size),
                               state).runs[0].final
        assert (row.er_old, row.er_new, row.nfr, row.rel_nfr) == (
            final.er_old, final.er_new, final.nfr, final.rel_nfr)


def test_sweep_ensemble_scores_each_side_once_on_the_eval_rows(
        small_config, monkeypatch):
    """The sweep makes two prediction passes, the old side's and then the
    new side's, both over the eval rows at every size; it predicts nothing
    on the training rows, which it does not report."""
    states, passes = [], []
    prepare, predictions = harness.prepare_scenario, ensembles.Ensemble.predictions

    def preparing(config):
        states.append(prepare(config))
        return states[-1]

    def recording(ensemble, row_sets, sizes, workspace):
        passes.append((ensemble, *row_sets, list(sizes)))
        return predictions(ensemble, row_sets, sizes, workspace)

    monkeypatch.setattr(harness, "prepare_scenario", preparing)
    monkeypatch.setattr(ensembles.Ensemble, "predictions", recording)
    cfg = replace(small_config, train=replace(small_config.train, epochs=1))
    sweep_ensemble(cfg, [1, 2, 3])
    (state,) = states
    assert len(passes) == 2
    (old, x_old, sizes_old), (new, x_new, sizes_new) = passes
    assert old is state.old_side(3) and new is not old
    assert x_old is state.plan.eval_plan.features
    assert x_new is state.plan.eval_plan.features
    assert sizes_old == sizes_new == [1, 2, 3]


@pytest.mark.parametrize("kind", [ScenarioKind.SAMPLE_GROWTH,
                                  ScenarioKind.CLASS_GROWTH,
                                  ScenarioKind.FINE_TUNE])
def test_sweep_ensemble_rows_match_direct_full_data_ensembles(small_config,
                                                              kind):
    """A scenario's data filters and fine-tune do not reach the sweep: its L
    row scores old and new ``train_ensemble`` stacks of L members, trained
    on the whole training split, on the whole test split."""
    spec = small_config.dataset
    cfg = replace(small_config, scenario=reference_scenario(kind, spec.num_classes),
                  train=replace(small_config.train, epochs=2))
    table = sweep_ensemble(cfg, [1, 2])
    assert [row.size for row in table.rows] == [1, 2]

    data = generate(spec)
    train_rows, test_rows = (data.rows_of_split(SPLIT_TRAIN),
                             data.rows_of_split(SPLIT_TEST))
    x, y = data.features[train_rows], data.labels[train_rows]
    xt, yt = data.features[test_rows], data.labels[test_rows]
    seed = cfg.train.seed
    for size, row in zip((1, 2), table.rows):
        old, new = (ensembles.train_ensemble(
            model.dims(spec.input_dim, spec.num_classes), x, y, cfg.train,
            size, model_seed(seed, role))
            for model, role in ((cfg.scenario.old_model, "old"),
                                (cfg.scenario.new_model, "new_member")))
        workspace = nn.Workspace()
        report = report_from_arrays(yt, old.predict_batch(xt, workspace),
                                    new.predict_batch(xt, workspace))
        assert (row.er_old, row.er_new, row.nfr, row.rel_nfr) == (
            report.er_old, report.er_new, report.nfr, report.rel_nfr)


def _spy_on_generate(monkeypatch):
    """A weak reference to each dataset ``harness.generate`` draws."""
    refs = []

    def spy(spec):
        dataset = datasets.generate(spec)
        refs.append(weakref.ref(dataset))
        return dataset
    monkeypatch.setattr(harness, "generate", spy)
    return refs


def _spy_on_training(monkeypatch, note):
    """Call ``note(features)`` at each ``ensembles.train_ensemble`` call."""
    real = ensembles.train_ensemble

    def spy(dims, features, *args, **kwargs):
        note(features)
        return real(dims, features, *args, **kwargs)
    monkeypatch.setattr(ensembles, "train_ensemble", spy)


def test_no_state_keeps_the_dataset(small_config, monkeypatch):
    refs = _spy_on_generate(monkeypatch)
    state = prepare_scenario(small_config)
    assert "dataset" not in {f.name for f in fields(ScenarioState)}
    # the plan's jobs hold the rows that train, so the dataset is freed
    assert len(refs) == 1 and refs[0]() is None
    assert state.old_sides


def test_runs_train_on_their_jobs_own_rows(small_config, monkeypatch):
    """No run gathers rows again: the old side trains on the old job's
    array and each new stack on the new job's, not on copies."""
    cfg = replace(small_config, repetitions=1, scenario=reference_scenario(
        ScenarioKind.SAMPLE_GROWTH, small_config.dataset.num_classes))
    seen = []
    _spy_on_training(monkeypatch, seen.append)
    state = prepare_scenario(cfg)  # trains state.old_side(1)
    run_experiment(cfg, state)
    plan = state.plan
    assert plan.old_job.features is not plan.new_job.features
    assert len(seen) == 2
    assert seen[0] is plan.old_job.features
    assert seen[1] is plan.new_job.features


def test_sweep_ensemble_trains_without_the_dataset(small_config, monkeypatch):
    refs, alive = _spy_on_generate(monkeypatch), []
    _spy_on_training(monkeypatch, lambda _: alive.append(refs[0]() is not None))
    config = replace(small_config, train=replace(small_config.train, epochs=1))
    sweep_ensemble(config, [1, 2])
    # both sides train on the plan's jobs, and the dataset is freed first
    assert alive == [False, False]


def test_sweep_ensemble_takes_sizes_from_a_generator(small_config):
    # the bound check used to consume the generator, so the sweep saw none
    config = replace(small_config, train=replace(small_config.train, epochs=1))
    from_list = sweep_ensemble(config, [1, 2])
    assert sweep_ensemble(config, (s for s in [1, 2])).records() == \
        from_list.records()


def test_sweep_ensemble_rejects_sizes_outside_the_seed_layout(small_config,
                                                             monkeypatch):
    sizes_trained = []
    monkeypatch.setattr(harness, "sweep_ensemble_size",
                        lambda state, sizes: sizes_trained.append(sizes))
    for sizes in ([ENSEMBLE_REP_STRIDE], [1, 2, 100_000]):
        with pytest.raises(ValueError, match=f"below {ENSEMBLE_REP_STRIDE}"):
            sweep_ensemble(small_config, sizes)
    assert sizes_trained == []
    sweep_ensemble(small_config, [ENSEMBLE_REP_STRIDE - 1])
    assert sizes_trained == [[ENSEMBLE_REP_STRIDE - 1]]


@pytest.mark.parametrize("sizes", [[2, 1], [], [1, 1, 2]],
                         ids=["descending", "empty", "repeated"])
def test_sweep_ensemble_rejects_unordered_sizes_before_training(
        small_config, monkeypatch, sizes):
    monkeypatch.setattr(ensembles, "train_ensemble",
                        lambda *args, **kwargs: pytest.fail("trained"))
    with pytest.raises(ValueError, match="^sizes must be strictly ascending"):
        sweep_ensemble(small_config, sizes)


def test_sweep_ensemble_rejects_non_integer_sizes_before_training(
        small_config, monkeypatch):
    monkeypatch.setattr(ensembles, "train_ensemble",
                        lambda *args, **kwargs: pytest.fail("trained"))
    # int() read [2.5, 2] as [2, 2], which failed as not ascending
    for sizes, bad in (([2.5, 2], r"2\.5"), ([1, True], "True")):
        with pytest.raises(ValueError,
                           match=f"^ensemble sizes must be int, got {bad}$"):
            sweep_ensemble(small_config, sizes)
    # a string used to reach the bound check and raise a bare TypeError
    with pytest.raises(ValueError, match="^ensemble sizes must be int, got '2'$"):
        sweep_ensemble(small_config, ["2"])


def test_fine_tune_with_zero_epochs_scores_the_old_model():
    spec = SyntheticSpec(num_classes=4, input_dim=6, samples_per_class=40,
                         cluster_spread=1.0, seed=2)
    cfg = ExperimentConfig(
        dataset=spec,
        scenario=reference_scenario(ScenarioKind.FINE_TUNE, 4),
        train=TrainConfig(epochs=0, seed=1),
        method="no_treatment",
    )
    result = run_experiment(cfg)
    run = result.runs[0]
    # the init IS the old model, so there are no flips at all
    assert run.final.er_new == result.er_old
    assert run.final.nfr == 0.0 and run.final.pfr == 0.0
    assert len(run.epochs) == 1 and run.epochs[0].epoch == 0


def test_ensemble_fine_tune_with_zero_epochs_scores_the_old_ensemble():
    spec = SyntheticSpec(num_classes=4, input_dim=6, samples_per_class=40,
                         cluster_spread=1.0, seed=2)
    cfg = ExperimentConfig(
        dataset=spec,
        scenario=reference_scenario(ScenarioKind.FINE_TUNE, 4),
        train=TrainConfig(epochs=0, seed=1),
        method="ensemble",
        ensemble_size=3,
    )
    result = run_experiment(cfg)
    run = result.runs[0]
    # member j starts from old member j, so the new ensemble IS the old one
    assert run.final.er_new == result.er_old
    assert run.final.nfr == 0.0 and run.final.pfr == 0.0
    assert len(run.epochs) == 1 and run.epochs[0].epoch == 0


def test_rel_nfr_none_propagates_to_summary():
    spec = SyntheticSpec(num_classes=3, input_dim=5, samples_per_class=40,
                         cluster_spread=0.01, label_noise=0.0, seed=4)
    cfg = ExperimentConfig(
        dataset=spec,
        scenario=reference_scenario(ScenarioKind.SAME_ARCH_RETRAIN, 3),
        train=TrainConfig(epochs=8, batch_size=32, learning_rate=0.05, seed=1),
        method="no_treatment",
    )
    result = run_experiment(cfg)
    final = result.runs[0].final
    assert final.er_new == 0.0  # trivially separable task
    assert final.rel_nfr is None
    assert result.summary()["rel_nfr"] == {"median": None, "min": None,
                                           "max": None}


def test_methods_tuple_is_frozen():
    assert METHODS == ("no_treatment", "naive", "fd_kl", "fd_lm", "ensemble")
