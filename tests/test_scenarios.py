"""Update scenarios: validation rules, the reference pairings, and how a
scenario resolves against a concrete dataset."""

import re

import numpy as np
import pytest

from pctlab.datasets import SPLIT_TEST, SPLIT_TRAIN, SyntheticSpec, generate
from pctlab.rng import STREAM_SUBSET, stream_rng
from pctlab.scenarios import (REFERENCE_LARGE, REFERENCE_SMALL, DataFilter,
                              ModelSpec, ScenarioKind, UpdateScenario,
                              build_scenario, reference_scenario)

SPEC = SyntheticSpec(num_classes=6, input_dim=5, samples_per_class=40,
                     cluster_spread=1.0, seed=3)


@pytest.fixture(scope="module")
def data():
    return generate(SPEC)


def test_model_spec_dims():
    assert ModelSpec(hidden_dims=(32,)).dims(20, 10) == [20, 32, 10]
    assert ModelSpec(hidden_dims=(64, 64)).dims(5, 3) == [5, 64, 64, 3]
    # numpy integers are integers, and become plain ints
    assert ModelSpec(hidden_dims=np.array([8, 4])).hidden_dims == (8, 4)
    with pytest.raises(ValueError):
        ModelSpec(hidden_dims=(0,))


def test_a_side_needs_two_distinct_classes():
    for subset in ((2,), (3, 3)):
        with pytest.raises(ValueError, match="class_subset must name at least 2"):
            DataFilter(class_subset=subset)
    with pytest.raises(ValueError, match=re.escape(
            "class_subset must name at least 2 classes, got []")):
        DataFilter(class_subset=())
    assert DataFilter(class_subset=(3, 1)).class_subset == (3, 1)
    # the class_growth pairing's old side has the first k // 2 classes
    for k in (2, 3):
        with pytest.raises(ValueError, match=f"needs k >= 4, got k = {k}"):
            reference_scenario(ScenarioKind.CLASS_GROWTH, k)
    assert reference_scenario(ScenarioKind.CLASS_GROWTH,
                              4).old_data.class_subset == (0, 1)
    reference_scenario(ScenarioKind.SAME_ARCH_RETRAIN, 2)


def test_data_filter_applies_classes_then_samples(data):
    filt = DataFilter(sample_fraction=0.5, class_subset=(5, 3, 4), subset_seed=4)
    rows, classes = filt.select(data)
    np.testing.assert_array_equal(classes, [3, 4, 5])
    # one permutation per kept class, in class order, over that class's
    # training rows: the first draw goes to class 3, not to class 0
    rng = stream_rng(4, STREAM_SUBSET)
    train = data.rows_of_split(SPLIT_TRAIN)
    expected = []
    for c in classes:
        rows_c = train[data.labels[train] == c]
        expected.append(rng.permutation(rows_c)[:int(0.5 * rows_c.size)])
    np.testing.assert_array_equal(rows, np.sort(np.concatenate(expected)))


def test_data_filter_validation():
    with pytest.raises(ValueError):
        DataFilter(sample_fraction=0.0)
    with pytest.raises(ValueError):
        DataFilter(sample_fraction=1.5)


@pytest.mark.parametrize("make, name", [
    (lambda: ModelSpec(hidden_dims=(2.5, 7.9)), "hidden_dims"),
    (lambda: ModelSpec(hidden_dims=[64, True]), "hidden_dims"),
    (lambda: ModelSpec(hidden_dims="64"), "hidden_dims"),
    (lambda: DataFilter(class_subset=(0, 1.5)), "class_subset"),
    (lambda: DataFilter(class_subset=[0.0, 1.0]), "class_subset"),
])
def test_list_entries_must_be_integers(make, name):
    # int() read (2.5, 7.9) as (2, 7) and "64" as (6, 4)
    with pytest.raises(ValueError,
                       match=f"^{name} must be (int|a list), got "):
        make()


def test_reference_scenarios_cover_all_kinds():
    table = {
        ScenarioKind.SAME_ARCH_RETRAIN: (REFERENCE_SMALL, REFERENCE_SMALL,
                                         1.0, 1.0, None, False),
        ScenarioKind.ARCH_CHANGE: (REFERENCE_SMALL, REFERENCE_LARGE,
                                   1.0, 1.0, None, False),
        ScenarioKind.SAMPLE_GROWTH: (REFERENCE_SMALL, REFERENCE_SMALL,
                                     0.5, 1.0, None, False),
        ScenarioKind.CLASS_GROWTH: (REFERENCE_SMALL, REFERENCE_SMALL,
                                    1.0, 1.0, (0, 1, 2, 3, 4), False),
        ScenarioKind.TWO_CHANGES: (REFERENCE_SMALL, REFERENCE_LARGE,
                                   0.5, 1.0, None, False),
        ScenarioKind.FINE_TUNE: (REFERENCE_SMALL, REFERENCE_SMALL,
                                 0.5, 1.0, None, True),
    }
    for kind, (old_m, new_m, old_frac, new_frac, subset, init) in table.items():
        s = reference_scenario(kind, num_classes=10)
        assert s.kind is kind
        assert s.old_model == old_m and s.new_model == new_m
        assert s.old_data.sample_fraction == old_frac
        assert s.new_data.sample_fraction == new_frac
        assert s.old_data.class_subset == subset
        assert s.init_from_old is init


def test_reference_class_growth_scales_with_class_count():
    s = reference_scenario(ScenarioKind.CLASS_GROWTH, num_classes=6)
    assert s.old_data.class_subset == (0, 1, 2)


def test_scenario_validation_rules():
    small, large = REFERENCE_SMALL, REFERENCE_LARGE
    with pytest.raises(ValueError, match="fine_tune needs init_from_old"):
        UpdateScenario(ScenarioKind.FINE_TUNE, small, small)
    # a fine-tune starts from the old weights, so the init_from_old rule
    # rejects other model specs
    for kind in (ScenarioKind.ARCH_CHANGE, ScenarioKind.FINE_TUNE):
        with pytest.raises(ValueError, match="identical model specs"):
            UpdateScenario(kind, small, large, init_from_old=True)
    with pytest.raises(ValueError, match="matching class subsets"):
        UpdateScenario(ScenarioKind.SAME_ARCH_RETRAIN, small, small,
                       old_data=DataFilter(class_subset=(0, 1)),
                       init_from_old=True)
    with pytest.raises(ValueError, match="class_growth"):
        UpdateScenario(ScenarioKind.CLASS_GROWTH, small, small)
    with pytest.raises(ValueError):
        reference_scenario("not_a_kind")


def test_scenario_accepts_kind_as_string():
    s = UpdateScenario("same_arch_retrain")
    assert s.kind is ScenarioKind.SAME_ARCH_RETRAIN


def test_build_scenario_same_arch_shares_full_eval(data):
    plan = build_scenario(reference_scenario(ScenarioKind.SAME_ARCH_RETRAIN,
                                             SPEC.num_classes), data)
    test_rows = data.rows_of_split(SPLIT_TEST)
    np.testing.assert_array_equal(plan.eval_plan.features,
                                  data.features[test_rows])
    np.testing.assert_array_equal(plan.eval_plan.labels, data.labels[test_rows])
    np.testing.assert_array_equal(plan.old_to_new, np.arange(6))
    train = data.rows_of_split(SPLIT_TRAIN)
    for job in (plan.old_job, plan.new_job):
        np.testing.assert_array_equal(job.rows, train)
        np.testing.assert_array_equal(job.labels, data.labels[train])
        assert job.dims == [5, 32, 6]
    assert not plan.init_from_old


def test_build_scenario_class_growth_restricts_eval(data):
    plan = build_scenario(reference_scenario(ScenarioKind.CLASS_GROWTH,
                                             SPEC.num_classes), data)
    # evaluation sticks to classes the old model knows about
    assert set(np.unique(plan.eval_plan.labels)) <= {0, 1, 2}
    assert plan.old_job.dims == [5, 32, 3]
    assert plan.new_job.dims == [5, 32, 6]
    np.testing.assert_array_equal(plan.old_to_new, [0, 1, 2])
    test_rows = data.rows_of_split(SPLIT_TEST)
    keep = test_rows[np.isin(data.labels[test_rows], [0, 1, 2])]
    np.testing.assert_array_equal(plan.eval_plan.features, data.features[keep])
    np.testing.assert_array_equal(plan.eval_plan.labels, data.labels[keep])


def test_build_scenario_sample_growth_shares_eval_rows(data):
    plan = build_scenario(reference_scenario(ScenarioKind.SAMPLE_GROWTH,
                                             SPEC.num_classes), data)
    old_train, new_train = plan.old_job.rows, plan.new_job.rows
    assert old_train.size < new_train.size
    assert set(old_train) <= set(new_train)
    np.testing.assert_array_equal(plan.eval_plan.features,
                                  data.features[data.rows_of_split(SPLIT_TEST)])


# the sides of these pairings have equal data filters
SHARED_ROWS = {ScenarioKind.SAME_ARCH_RETRAIN, ScenarioKind.ARCH_CHANGE}


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_each_job_holds_its_rows_features(data, kind):
    plan = build_scenario(reference_scenario(kind, SPEC.num_classes), data)
    for job in (plan.old_job, plan.new_job):
        want = data.features[job.rows]
        assert (job.features.dtype, job.features.shape) == (want.dtype,
                                                            want.shape)
        assert job.features.tobytes() == want.tobytes()
    # equal filters select equal rows, which are gathered once
    assert np.shares_memory(plan.old_job.features,
                            plan.new_job.features) == (kind in SHARED_ROWS)
    assert not np.shares_memory(plan.new_job.features, data.features)


def test_build_scenario_fine_tune_marks_init(data):
    plan = build_scenario(reference_scenario(ScenarioKind.FINE_TUNE,
                                             SPEC.num_classes), data)
    assert plan.init_from_old
    assert plan.old_job.dims == plan.new_job.dims


def test_build_scenario_labels_everything_in_the_new_label_space(data):
    scenario = UpdateScenario(
        ScenarioKind.CLASS_GROWTH,
        old_data=DataFilter(class_subset=(1, 3)),
        new_data=DataFilter(class_subset=(1, 2, 3, 5)))
    plan = build_scenario(scenario, data)
    # old class j is new class old_to_new[j]: 1 -> 0 and 3 -> 2
    np.testing.assert_array_equal(plan.old_to_new, [0, 2])
    test_rows = data.rows_of_split(SPLIT_TEST)
    keep = test_rows[np.isin(data.labels[test_rows], [1, 3])]
    np.testing.assert_array_equal(plan.eval_plan.features, data.features[keep])
    np.testing.assert_array_equal(plan.eval_plan.labels,
                                  np.searchsorted([1, 2, 3, 5], data.labels[keep]))
    np.testing.assert_array_equal(
        np.array([1, 2, 3, 5])[plan.new_job.labels],
        data.labels[plan.new_job.rows])
    assert plan.new_job.dims == [5, 32, 4]


def test_build_scenario_rejects_a_new_side_without_an_old_class(data):
    for old, new in (((1, 3), (1, 2)), (None, (0, 1, 2, 3, 4))):
        scenario = UpdateScenario(ScenarioKind.SAME_ARCH_RETRAIN,
                                  old_data=DataFilter(class_subset=old),
                                  new_data=DataFilter(class_subset=new))
        with pytest.raises(ValueError, match="every old class must be present"):
            build_scenario(scenario, data)
