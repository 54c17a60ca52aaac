"""Synthetic task generation, splits, CSV round trips, and data views."""

import numpy as np
import pytest

from oracles import dataset_from_csv, error_rate
from pctlab import nn
from pctlab.datasets import (SPLIT_TEST, SPLIT_TRAIN, SPLIT_VALIDATION,
                             Dataset, DegenerateSpecError, SyntheticSpec,
                             full_view, generate, half_classes_view,
                             half_samples_view)
from pctlab.losses import make_ce_objective

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
    assert sum(len(r) for r in codes) == data.n


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
# views


def test_full_view_is_identity(data):
    view = full_view(data)
    assert view.num_classes == data.num_classes
    np.testing.assert_array_equal(view.label_map(), np.arange(4))
    np.testing.assert_array_equal(view.features(SPLIT_TRAIN),
                                  data.features[data.rows_of_split(SPLIT_TRAIN)])
    np.testing.assert_array_equal(view.sample_ids(SPLIT_TEST),
                                  data.rows_of_split(SPLIT_TEST))


def test_half_samples_view_keeps_stratified_fraction(data):
    view = half_samples_view(data, 0.5, seed=1)
    kept = data.labels[view.split_rows(SPLIT_TRAIN)]
    full = data.labels[data.rows_of_split(SPLIT_TRAIN)]
    for c in range(SPEC.num_classes):
        # label noise skews the per-class counts, so stratify on the actual ones
        assert int(np.sum(kept == c)) == int(0.5 * np.sum(full == c))
    # held-out splits pass through untouched
    np.testing.assert_array_equal(view.split_rows(SPLIT_TEST),
                                  data.rows_of_split(SPLIT_TEST))
    np.testing.assert_array_equal(view.split_rows(SPLIT_VALIDATION),
                                  data.rows_of_split(SPLIT_VALIDATION))


def test_half_samples_view_deterministic_and_seeded(data):
    v1 = half_samples_view(data, 0.5, seed=1)
    v2 = half_samples_view(data, 0.5, seed=1)
    v3 = half_samples_view(data, 0.5, seed=2)
    np.testing.assert_array_equal(v1.rows, v2.rows)
    assert not np.array_equal(v1.rows, v3.rows)


def test_half_samples_view_edge_cases(data):
    assert half_samples_view(data, 1.0, seed=0).rows.size == data.n
    with pytest.raises(ValueError):
        half_samples_view(data, 0.0, seed=0)
    with pytest.raises(ValueError, match="empty"):
        half_samples_view(data, 0.001, seed=0)


def test_half_classes_view_relabels_contiguously(data):
    view = half_classes_view(data, [2, 0])
    assert view.num_classes == 2
    np.testing.assert_array_equal(view.label_map(), [0, 2])  # sorted
    raw = data.labels[view.split_rows(SPLIT_TRAIN)]
    remapped = view.labels(SPLIT_TRAIN)
    assert set(np.unique(remapped)) <= {0, 1}
    np.testing.assert_array_equal(view.label_map()[remapped], raw)


def test_half_classes_view_validation(data):
    with pytest.raises(ValueError, match="range"):
        half_classes_view(data, [0, 9])
    with pytest.raises(ValueError, match="nonempty"):
        half_classes_view(data, [])
    restricted = half_classes_view(data, [0, 1])
    with pytest.raises(ValueError, match="already restricted"):
        half_classes_view(restricted, [0])
    # the full subset keeps the identity label space
    assert half_classes_view(data, [0, 1, 2, 3]).class_subset is None


def test_views_compose_classes_then_samples(data):
    classes = half_classes_view(data, [0, 1])
    both = half_samples_view(classes, 0.5, seed=3)
    assert both.num_classes == 2
    labels = data.labels[both.split_rows(SPLIT_TRAIN)]
    assert set(np.unique(labels)) <= {0, 1}
    full = data.labels[classes.split_rows(SPLIT_TRAIN)]
    expected = sum(int(0.5 * np.sum(full == c)) for c in (0, 1))
    assert both.split_rows(SPLIT_TRAIN).size == expected
