"""The package namespace: every exported name resolves and has its own
docstring, and the per-sample and per-record oracles that moved to
``tests/oracles.py``, the record-level flip API, the dataset views and the
names that only tests reached, all deleted, stay out of it. No module
imports a name it never loads, except the ones the benchmark's tracer
patches, and only ``tables`` walks type hints or reads a field's key. A
run loads no module that importing the package has not loaded already,
and that import loads neither ``statistics`` nor what it imports."""

import ast
import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pctlab
from pctlab import (cli, config, datasets, ensembles, flips, harness, losses,
                    nn, reports, rng, scenarios, tables)


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
    # indices come from its DataFilter.select, and a run reads the fine-tune
    # flag from its config's scenario
    gone = {scenarios.EvalPlan: {"old_label_map", "new_label_map", "sample_ids"},
            scenarios.TrainingJob: {"view", "init_from_old", "rows"},
            scenarios.ScenarioPlan: {"scenario", "init_from_old"}}
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
                      harness.FocalSweepRow, harness.SweepRow):
        assert not hasattr(row_class, "COLUMNS"), row_class.__name__
    assert not hasattr(reports, "result_to_document")
    assert not hasattr(datasets.Dataset, "n")
    assert not hasattr(losses.OldModelOracle, "__len__")
    assert not hasattr(nn, "with_seed")
    assert not hasattr(harness, "epoch_series_csv")
    # the old side scores every new side: no per-run collector object
    assert not hasattr(harness, "_EpochCollector")
    # the size sweep runs on a ScenarioState: ensembles keeps no second
    # pipeline of its own, and ExperimentConfig bounds every seed it trains
    for name in ("sweep_ensemble_size", "SweepRow"):
        assert not hasattr(ensembles, name), name
    assert "sweep_ensemble_size" not in pctlab.__all__
    # Ensemble.predictions sizes its own buffers for every row set it scores
    assert not hasattr(ensembles, "scoring_workspace")
    assert not hasattr(rng, "check_seed")
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
    # report_from_arrays counts and divides in one function, an undefined
    # relative NFR is None, and the record oracle does its own arithmetic
    for name in ("UndefinedMetricError", "_quadrant_counts",
                 "report_from_counts"):
        assert not hasattr(flips, name), name
    oracle_tree = ast.parse(
        (Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    from_flips = [a.name for node in ast.walk(oracle_tree)
                  if isinstance(node, ast.ImportFrom)
                  and node.module == "pctlab.flips" for a in node.names]
    assert from_flips == ["FlipReport"]
    # ce_rows finds its labels' flat positions and its row max itself, and
    # the KL term's log-softmax always takes its own row max
    assert not hasattr(nn, "label_positions")
    assert list(inspect.signature(losses._log_softmax_rows).parameters) == ["x"]
    # every caller passes these, so none has a fallback
    required = {nn.ce_rows: ("labels",), nn.backward_batch: ("out",),
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
    # masks on the relu output; glorot_uniform is the only init; a state
    # keeps an old side as the Ensemble it trained as, and a run builds the
    # predictions it scores against, whose error rate is a field of the
    # flip reports
    assert not hasattr(nn, "ACTIVATIONS")
    assert not hasattr(nn, "WEIGHT_INITS")
    assert [f.name for f in fields(nn.Layer)] == ["weights", "bias"]
    assert [f.name for f in fields(nn.BatchCache)] == ["x", "activations"]
    assert [f.name for f in fields(harness.OldReference)] == [
        "eval_preds", "train_preds"]
    assert not hasattr(harness, "_build_old_reference")


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
    ("ensembles", "report_from_arrays"):
        '(ensembles, "report_from_arrays", "flips.report")',
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


# Prints which of statistics and its imports importing the package, the CLI
# and the writers loaded; then runs every scenario kind with every method,
# the ensemble sweep and every writer, at a tiny size, and prints the
# modules this loaded that the imports had not.
RUN_EVERYTHING = """\
import json, sys, tempfile
import pctlab, pctlab.cli, pctlab.reports
before = set(sys.modules)
print(json.dumps(sorted(before & {"statistics", "fractions", "decimal"})))
from pctlab import (METHODS, ExperimentConfig, ScenarioKind, SyntheticSpec,
                    TrainConfig, reference_scenario, run_experiment,
                    sweep_ensemble)
from pctlab.reports import write_ensemble_sweep, write_experiment
spec = SyntheticSpec(num_classes=4, samples_per_class=40)
train = TrainConfig(epochs=2, batch_size=32, seed=1)
with tempfile.TemporaryDirectory() as out:
    for kind in ScenarioKind:
        for method in METHODS:
            cfg = ExperimentConfig(dataset=spec, train=train, method=method,
                                   scenario=reference_scenario(kind, 4),
                                   repetitions=2, ensemble_size=2)
            write_experiment(run_experiment(cfg), f"{out}/{kind.value}_{method}")
    write_ensemble_sweep(sweep_ensemble(cfg, [1, 2]), f"{out}/sweep", "json")
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_a_run_loads_no_module_beyond_the_package_imports():
    # a fresh interpreter: pytest's plugins may already have loaded numpy.ma
    src = os.path.dirname(os.path.dirname(os.path.abspath(pctlab.__file__)))
    done = subprocess.run([sys.executable, "-c", RUN_EVERYTHING],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    imported, loaded = map(json.loads, done.stdout.splitlines())
    # harness._stats takes its medians without statistics
    assert imported == [], f"importing pctlab loaded {imported}"
    assert loaded == [], ("a run loaded modules that importing pctlab does "
                          f"not, such as numpy.ma or yaml: {loaded}")
