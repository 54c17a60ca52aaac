"""The package namespace: every exported name resolves, and the per-sample
and per-record oracles that moved to ``tests/oracles.py``, the record-level
flip API, the dataset views and the names that only tests reached, all
deleted, stay out of it."""

import inspect
from dataclasses import fields

import pctlab
from pctlab import (config, datasets, ensembles, flips, harness, losses, nn,
                    scenarios)


def test_every_exported_name_resolves():
    assert len(set(pctlab.__all__)) == len(pctlab.__all__)
    missing = [name for name in pctlab.__all__ if not hasattr(pctlab, name)]
    assert missing == []


def test_oracles_live_only_in_the_tests():
    moved = {
        nn: ["softmax", "error_rate", "cross_entropy"],
        losses: ["total_objective", "pc_loss_naive", "pc_loss_focal",
                 "OracleEntry", "_ce_value_grad", "distance_lm",
                 "filter_weight"],
        datasets: ["SPLIT_CODES", "DatasetView", "full_view", "_as_view",
                   "half_samples_view", "half_classes_view"],
        harness: ["_combined_class_map"],
        flips: ["records_from_arrays", "compute_nfr", "flip_report",
                "FlipQuadrant", "PredictionRecord", "classify_flip",
                "records_to_csv", "UncertaintyRecord", "predictive_entropy",
                "default_entropy_bins", "nfr_by_uncertainty_bin"],
    }
    for module, names in moved.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert not hasattr(pctlab, name), name
    assert not hasattr(losses.OldModelOracle, "entry")
    # test-only: the deep copy is the oracles' copy_model, and configs load
    # through experiment_from_document(load_document(path))
    assert not hasattr(nn.MLPModel, "copy")
    assert not hasattr(nn.Layer, "copy")
    assert not hasattr(config, "load_config")
    # scoring runs block by block; no sum spans all the rows
    assert not hasattr(ensembles.Ensemble, "logit_sums")
    assert not hasattr(flips.FlipReport, "from_json")
    assert not hasattr(datasets.Dataset, "from_csv")
    # every weight stack is built and trained by ensembles.train_ensemble
    for name in ("init_model", "stack_models", "with_seed"):
        assert not hasattr(harness, name), name
    # a plan holds rows and labels in the new model's label space, and one
    # old-to-new class map instead of a label map per side
    gone = {scenarios.EvalPlan: {"old_label_map", "new_label_map", "sample_ids"},
            scenarios.TrainingJob: {"view", "init_from_old"},
            scenarios.ScenarioPlan: {"scenario"}}
    for cls, names in gone.items():
        assert names.isdisjoint(f.name for f in fields(cls)), cls.__name__
    assert not hasattr(scenarios.DataFilter, "apply")
    collector = harness._EpochCollector(None, None, None,
                                        scenarios.EvalPlan(None, None), None, None)
    assert not hasattr(collector, "new_label_map")


def test_names_only_tests_reached_stay_gone():
    # YAML text is parsed by tests/oracles.py's loads_config; no config is
    # dumped as YAML
    for name in ("loads_config", "dump_config"):
        assert not hasattr(config, name), name
    assert not hasattr(datasets.Dataset, "n")
    assert not hasattr(losses.OldModelOracle, "__len__")
    assert not hasattr(nn, "with_seed")
    assert not hasattr(harness, "epoch_series_csv")
    # every caller passes these, so none has a fallback
    required = {nn.ce_rows: ("m", "at"), nn.backward_batch: ("out",),
                ensembles.Ensemble.predict_batch: ("workspace",)}
    for fn, names in required.items():
        params = inspect.signature(fn).parameters
        for name in names:
            assert params[name].default is inspect.Parameter.empty, name
