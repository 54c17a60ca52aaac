"""The package namespace: every exported name resolves and has its own
docstring, and the per-sample and per-record oracles that moved to
``tests/oracles.py``, the record-level flip API, the dataset views and the
names that only tests reached, all deleted, stay out of it. No module
imports a name it never loads, except the ones the benchmark's tracer
patches, and only ``tables`` walks type hints or reads a field's key."""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import pctlab
from pctlab import (cli, config, datasets, ensembles, flips, harness, losses,
                    nn, reports, scenarios, tables)


def test_every_exported_name_resolves():
    assert len(set(pctlab.__all__)) == len(pctlab.__all__)
    missing = [name for name in pctlab.__all__ if not hasattr(pctlab, name)]
    assert missing == []


def test_every_exported_name_has_a_docstring():
    undocumented = []
    for name in pctlab.__all__:
        obj = getattr(pctlab, name)
        if not callable(obj):  # METHODS and __version__ are values
            continue
        doc = obj.__doc__
        # a dataclass without one gets its generated signature
        if not doc or doc.startswith(f"{obj.__name__}("):
            undocumented.append(name)
    assert undocumented == []


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
    # old-to-new class map instead of a label map per side; a side's row
    # indices come from its DataFilter.select
    gone = {scenarios.EvalPlan: {"old_label_map", "new_label_map", "sample_ids"},
            scenarios.TrainingJob: {"view", "init_from_old", "rows"},
            scenarios.ScenarioPlan: {"scenario"}}
    for cls, names in gone.items():
        assert names.isdisjoint(f.name for f in fields(cls)), cls.__name__
    assert not hasattr(scenarios.DataFilter, "apply")
    # scoring buffers live for one epoch, so no state owns a workspace
    assert "workspace" not in {f.name for f in fields(harness.ScenarioState)}


def test_names_only_tests_reached_stay_gone():
    # YAML text is parsed by tests/oracles.py's loads_config; no config is
    # dumped as YAML
    for name in ("loads_config", "dump_config"):
        assert not hasattr(config, name), name
    # a field names its own key, as_record is the one walker that writes
    # it, and one dataclass holds the sweep lists
    for name in ("_KEYS", "_FLAT", "_SWEEP_KEYS", "_number", "_sweep_list",
                 "to_document", "methods_from_document",
                 "focal_grid_from_document", "ensemble_sizes_from_document"):
        assert not hasattr(config, name), name
    for row_class in (harness.EpochMetrics, harness.MethodRow,
                      harness.FocalSweepRow, ensembles.SweepRow):
        assert not hasattr(row_class, "COLUMNS"), row_class.__name__
    assert not hasattr(reports, "result_to_document")
    assert not hasattr(datasets.Dataset, "n")
    assert not hasattr(losses.OldModelOracle, "__len__")
    assert not hasattr(nn, "with_seed")
    assert not hasattr(harness, "epoch_series_csv")
    # the old side scores every new side: no per-run collector object
    assert not hasattr(harness, "_EpochCollector")
    # tables.check_value is the one rule for what a field may hold
    for name in ("check_finite", "is_integer", "_integer_fields"):
        assert not hasattr(tables, name), name
    # tables.layout is the one reader of a field's key, and a flip report is
    # written as json_text(as_record(report)), like every other file
    assert not hasattr(tables, "field_key")
    assert not hasattr(flips.FlipReport, "to_json")
    # one handler serves the four experiment subcommands, and one writer
    # writes every result file
    for name in ("_load", "_out_dir", "_cmd_run", "_cmd_compare",
                 "_cmd_sweep_focal", "_cmd_sweep_ensemble"):
        assert not hasattr(cli, name), name
    for name in ("_check_format", "_write"):
        assert not hasattr(reports, name), name
    # every caller passes these, so none has a fallback
    required = {nn.ce_rows: ("m", "at"), nn.backward_batch: ("out",),
                ensembles.Ensemble.predict_batch: ("workspace",),
                harness.OldReference.score: ("workspace",)}
    for fn, names in required.items():
        params = inspect.signature(fn).parameters
        for name in names:
            assert params[name].default is inspect.Parameter.empty, name


def test_only_tables_walks_type_hints():
    """``tables.check_value`` is the one walker over type hints, so no other
    module of the package reads a hint's origin."""
    walkers = []
    for path in sorted(Path(pctlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem != "tables" and any(
                getattr(node, "id", getattr(node, "attr", None)) == "get_origin"
                for node in ast.walk(tree)):
            walkers.append(path.stem)
    assert walkers == []


def test_only_tables_reads_a_fields_metadata():
    """``tables.layout`` is the one reader of a field's key metadata, so the
    writer and the config codec walk the same layout: no other module of the
    package reads a field's ``metadata`` or calls ``dataclasses.fields``."""
    readers = set()
    for path in sorted(Path(pctlab.__file__).parent.glob("*.py")):
        if path.stem == "tables":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("metadata", "fields")
                    or isinstance(node, ast.ImportFrom)
                    and node.module == "dataclasses"
                    and "fields" in {a.name for a in node.names}):
                readers.add(path.stem)
    assert readers == set()


def test_model_shape_is_structural():
    # a layer is relu unless it is its model's last, so it stores no
    # activation, and a forward keeps no pre-activation, since the backward
    # masks on the relu output; glorot_uniform is the only init; an old side
    # is the Ensemble it trained as, and its error rate is a field of the
    # flip reports scored against it
    assert not hasattr(nn, "ACTIVATIONS")
    assert not hasattr(nn, "WEIGHT_INITS")
    assert [f.name for f in fields(nn.Layer)] == ["weights", "bias"]
    assert [f.name for f in fields(nn.BatchCache)] == ["x", "activations"]
    assert {"models", "param_count", "er_old"}.isdisjoint(
        f.name for f in fields(harness.OldReference))


# Imports that their module never loads. Each stays only because
# pctbench/tracing.py's ``install`` patches the name on that module; the
# value is the wrapping line there. ROADMAP item 5(b) drops the wrappers,
# and with them these entries.
TRACER_ONLY_IMPORTS = {
    ("harness", "make_ce_objective"):
        "harness.make_ce_objective = wrap_factory(harness.make_ce_objective)",
    ("harness", "batch_logits"): '(harness, "batch_logits", "nn.logits")',
    ("harness", "predict_batch"): '(harness, "predict_batch", "nn.predict")',
    ("harness", "train"): "harness.train = wrap_train(harness.train)",
    ("ensembles", "batch_logits"): '(ensembles, "batch_logits", "nn.logits")',
    ("losses", "batch_logits"): '(losses, "batch_logits", "nn.logits")',
}


def _unloaded_imports(source: str) -> set:
    """Names a module imports but never reads: no ``Load``-context use, and
    not in its ``__all__``."""
    tree = ast.parse(source)
    imported, loaded = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            loaded.update(ast.literal_eval(node.value))
    return imported - loaded


def test_no_module_imports_a_name_it_never_loads():
    found = set()
    for path in sorted(Path(pctlab.__file__).parent.glob("*.py")):
        found.update((path.stem, name) for name in
                     _unloaded_imports(path.read_text(encoding="utf-8")))
    assert found == set(TRACER_ONLY_IMPORTS)
    tracing = Path(__file__).resolve().parents[1] / "pctbench" / "tracing.py"
    source = tracing.read_text(encoding="utf-8")
    for key, wrapper in TRACER_ONLY_IMPORTS.items():
        assert wrapper in source, key
