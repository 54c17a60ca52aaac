"""Synthetic task generation, splits, CSV round trips, and the training rows
and classes each side of an update sees."""

import re

import numpy as np
import pytest

from oracles import dataset_from_csv, error_rate
from pctlab import datasets, nn
from pctlab.datasets import (SPLIT_TEST, SPLIT_TRAIN, SPLIT_VALIDATION,
                             Dataset, DegenerateSpecError, SyntheticSpec,
                             generate)
from pctlab.losses import make_ce_objective
from pctlab.rng import STREAM_SUBSET, stream_rng
from pctlab.scenarios import (DataFilter, ScenarioKind, UpdateScenario,
                              build_scenario)

SPEC = SyntheticSpec(num_classes=4, input_dim=6, samples_per_class=60,
                     cluster_spread=1.0, seed=5)


@pytest.fixture(scope="module")
def data():
    return generate(SPEC)


def test_generate_is_deterministic(data):
    again = generate(SPEC)
    np.testing.assert_array_equal(data.features, again.features)
    np.testing.assert_array_equal(data.labels, again.labels)
    np.testing.assert_array_equal(data.split, again.split)
    other = generate(SyntheticSpec(num_classes=4, input_dim=6,
                                   samples_per_class=60, cluster_spread=1.0,
                                   seed=6))
    assert not np.array_equal(data.features, other.features)


def test_split_is_stratified_70_10_20(data):
    spc = SPEC.samples_per_class
    n_train, n_val = int(spc * 0.7), int(spc * 0.1)
    for c in range(SPEC.num_classes):
        block = data.split[c * spc:(c + 1) * spc]
        assert int(np.sum(block == SPLIT_TRAIN)) == n_train
        assert int(np.sum(block == SPLIT_VALIDATION)) == n_val
        assert int(np.sum(block == SPLIT_TEST)) == spc - n_train - n_val
    codes = (data.rows_of_split(SPLIT_TRAIN), data.rows_of_split(SPLIT_VALIDATION),
             data.rows_of_split(SPLIT_TEST))
    assert sum(len(r) for r in codes) == len(data.features)


def test_label_noise_only_relabels_train_rows():
    clean_spec = SyntheticSpec(num_classes=4, input_dim=6, samples_per_class=60,
                               cluster_spread=1.0, label_noise=0.0, seed=5)
    noisy_spec = SyntheticSpec(num_classes=4, input_dim=6, samples_per_class=60,
                               cluster_spread=1.0, label_noise=0.1, seed=5)
    clean, noisy = generate(clean_spec), generate(noisy_spec)
    np.testing.assert_array_equal(clean.features, noisy.features)
    changed = np.flatnonzero(clean.labels != noisy.labels)
    assert changed.size > 0
    assert np.all(noisy.split[changed] == SPLIT_TRAIN)
    n_train = len(clean.rows_of_split(SPLIT_TRAIN))
    # resampling may redraw the original label, so changed <= picked
    assert changed.size <= round(0.1 * n_train)


def test_degenerate_specs_are_rejected():
    with pytest.raises(DegenerateSpecError):
        SyntheticSpec(num_classes=1)
    with pytest.raises(DegenerateSpecError):
        SyntheticSpec(samples_per_class=1)
    with pytest.raises(DegenerateSpecError):
        SyntheticSpec(cluster_spread=0.0)
    with pytest.raises(DegenerateSpecError):
        SyntheticSpec(label_noise=1.0)
    with pytest.raises(DegenerateSpecError):
        SyntheticSpec(seed=-1)


def test_a_class_emptied_by_label_noise_is_rejected(monkeypatch):
    # 3 training rows, all relabeled: a class is left empty for most seeds
    built = []

    def record(*args):
        built.append(Dataset(*args))
        return built[-1]

    monkeypatch.setattr(datasets, "Dataset", record)
    raised = []
    for seed in range(40):
        try:
            generate(SyntheticSpec(num_classes=3, samples_per_class=2,
                                   label_noise=0.99, seed=seed))
        except DegenerateSpecError as err:
            assert str(err) == "a class has no training samples after noise"
            raised.append(seed)
    empty = [seed for seed, d in enumerate(built)
             if np.unique(d.labels[d.rows_of_split(SPLIT_TRAIN)]).size < 3]
    assert raised == empty
    assert 0 < len(empty) < 40


def test_csv_round_trip_is_exact(data):
    text = data.to_csv()
    back = dataset_from_csv(text)
    np.testing.assert_array_equal(back.features, data.features)
    np.testing.assert_array_equal(back.labels, data.labels)
    np.testing.assert_array_equal(back.split, data.split)
    assert back.num_classes == data.num_classes
    header = text.splitlines()[0]
    assert header == ",".join([f"f{j}" for j in range(SPEC.input_dim)]
                              + ["label", "split"])


def test_dataset_validation():
    with pytest.raises(ValueError, match="align"):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64),
                np.zeros(3, dtype=np.uint8), 2)
    with pytest.raises(ValueError, match="split"):
        Dataset(np.zeros((2, 2)), np.zeros(2, dtype=np.int64),
                np.array([0, 9], dtype=np.uint8), 2)
    with pytest.raises(ValueError, match="range"):
        Dataset(np.zeros((2, 2)), np.array([0, 5]),
                np.zeros(2, dtype=np.uint8), 2)


def test_tiny_spread_task_is_linearly_separable():
    spec = SyntheticSpec(num_classes=4, input_dim=6, samples_per_class=60,
                         cluster_spread=0.01, label_noise=0.0, seed=9)
    d = generate(spec)
    x = d.features[d.rows_of_split(SPLIT_TRAIN)]
    y = d.labels[d.rows_of_split(SPLIT_TRAIN)]
    model = nn.init_model([6, 4], seed=0)  # depth-1 linear classifier
    cfg = nn.TrainConfig(epochs=10, batch_size=32, learning_rate=0.05, seed=0)
    trained = nn.train(model, x, y, make_ce_objective(y), cfg).model
    xt = d.features[d.rows_of_split(SPLIT_TEST)]
    yt = d.labels[d.rows_of_split(SPLIT_TEST)]
    assert error_rate(trained, xt, yt) == 0.0


# ---------------------------------------------------------------------------
# views: the training rows each side of an update sees, and its classes, as
# ``scenarios.DataFilter.select`` resolves them


def test_full_view_is_identity(data):
    rows, classes = DataFilter().select(data)
    np.testing.assert_array_equal(rows, data.rows_of_split(SPLIT_TRAIN))
    np.testing.assert_array_equal(classes, np.arange(4))


def test_half_samples_view_keeps_stratified_fraction(data):
    rows, _ = DataFilter(sample_fraction=0.5, subset_seed=1).select(data)
    kept = data.labels[rows]
    full = data.labels[data.rows_of_split(SPLIT_TRAIN)]
    for c in range(SPEC.num_classes):
        # label noise skews the per-class counts, so stratify on the actual ones
        assert int(np.sum(kept == c)) == int(0.5 * np.sum(full == c))
    # ascending training rows only
    assert np.all(data.split[rows] == SPLIT_TRAIN)
    assert np.all(np.diff(rows) > 0)


def test_half_samples_view_deterministic_and_seeded(data):
    def rows(seed):
        return DataFilter(sample_fraction=0.5, subset_seed=seed).select(data)[0]

    np.testing.assert_array_equal(rows(1), rows(1))
    assert not np.array_equal(rows(1), rows(2))


def test_half_samples_view_edge_cases(data):
    rows, _ = DataFilter(sample_fraction=1.0, subset_seed=3).select(data)
    np.testing.assert_array_equal(rows, data.rows_of_split(SPLIT_TRAIN))
    with pytest.raises(ValueError):
        DataFilter(sample_fraction=0.0)
    with pytest.raises(ValueError, match="empty"):
        DataFilter(sample_fraction=0.001).select(data)


def test_half_classes_view_relabels_contiguously(data):
    subset = DataFilter(class_subset=(2, 0))
    rows, classes = subset.select(data)
    np.testing.assert_array_equal(classes, [0, 2])  # sorted
    job = build_scenario(UpdateScenario(ScenarioKind.CLASS_GROWTH,
                                        old_data=subset), data).old_job
    np.testing.assert_array_equal(job.features, data.features[rows])
    assert set(np.unique(job.labels)) == {0, 1}
    np.testing.assert_array_equal(classes[job.labels], data.labels[rows])
    assert job.dims[-1] == 2


def test_half_classes_view_validation(data):
    for subset in ((0, 9), (-1, 0)):
        with pytest.raises(ValueError, match=re.escape(
                f"class_subset {list(subset)} names a class outside [0, 4)")):
            DataFilter(class_subset=subset).select(data)
    with pytest.raises(ValueError, match=re.escape(
            "class_subset must name at least 2 classes, got []")):
        DataFilter(class_subset=()).select(data)
    # the full subset keeps the identity label space
    rows, classes = DataFilter(class_subset=(3, 1, 2, 0)).select(data)
    np.testing.assert_array_equal(classes, np.arange(4))
    np.testing.assert_array_equal(rows, data.rows_of_split(SPLIT_TRAIN))


def test_views_compose_classes_then_samples(data):
    rows, classes = DataFilter(sample_fraction=0.5, class_subset=(0, 1),
                               subset_seed=3).select(data)
    np.testing.assert_array_equal(classes, [0, 1])
    assert set(np.unique(data.labels[rows])) <= {0, 1}
    full = data.labels[DataFilter(class_subset=(0, 1)).select(data)[0]]
    expected = sum(int(0.5 * np.sum(full == c)) for c in (0, 1))
    assert rows.size == expected


def _select_with_unique(filt, dataset):
    """``DataFilter.select`` as written with ``np.unique``."""
    rows = dataset.rows_of_split(SPLIT_TRAIN)
    classes = np.arange(dataset.num_classes)
    if filt.class_subset is not None:
        classes = np.unique(np.asarray(filt.class_subset, dtype=np.int64))
        rows = rows[np.isin(dataset.labels[rows], classes)]
    if filt.sample_fraction < 1.0:
        rng = stream_rng(filt.subset_seed, STREAM_SUBSET)
        labels, kept = dataset.labels[rows], []
        for c in np.unique(labels):
            rows_c = rows[labels == c]
            n_keep = int(filt.sample_fraction * rows_c.size)
            kept.append(rng.permutation(rows_c)[:n_keep])
        rows = np.sort(np.concatenate(kept))
    return rows, classes


@pytest.mark.parametrize("filt", [
    DataFilter(class_subset=(3, 1, 3)),
    DataFilter(sample_fraction=0.5, subset_seed=2),
    DataFilter(sample_fraction=0.5, class_subset=(3, 1, 3), subset_seed=4),
    DataFilter(sample_fraction=0.3, class_subset=(2, 0, 2, 3)),
])
def test_select_equals_its_np_unique_form(data, filt):
    rows, classes = filt.select(data)
    want_rows, want_classes = _select_with_unique(filt, data)
    np.testing.assert_array_equal(rows, want_rows)
    np.testing.assert_array_equal(classes, want_classes)
    assert (rows.dtype, classes.dtype) == (want_rows.dtype, want_classes.dtype)
