"""End-to-end CLI checks: every subcommand, output files, byte stability,
and error reporting."""

import filecmp
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

from oracles import loads_config
from pctlab import cli, harness, reports
from pctlab.cli import main
from pctlab.config import experiment_from_document, load_document
from pctlab.harness import MethodRow
from pctlab.tables import Table, as_record

CONFIG_TEXT = """\
dataset: {k: 5, input_dim: 8, samples_per_class: 80, cluster_spread: 1.2, seed: 11}
scenario: {kind: same_arch_retrain}
train: {epochs: 4, batch_size: 32, seed: 3}
method: fd_lm
repetitions: 2
methods: [no_treatment, naive]
focal_grid: [[0, 0], [1, 5]]
ensemble_sizes: [1, 2]
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    return str(path)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_generate_writes_csv_to_stdout(config_path, capsys):
    assert main(["generate", "--config", config_path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("f0,")
    assert len(lines) == 1 + 5 * 80


def test_generate_writes_file_and_seed_changes_data(config_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["generate", "--config", config_path, "--out", str(a)]) == 0
    assert main(["generate", "--config", config_path, "--out", str(b),
                 "--seed", "99"]) == 0
    assert _read(str(a)) != _read(str(b))


def test_run_emits_expected_files(config_path, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["run", "--config", config_path, "--out", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("method,er_old,er_new,nfr,rel_nfr,n_params\n")
    assert "fd_lm," in captured.out
    names = sorted(os.listdir(out_dir))
    assert names == ["artifacts.json", "epochs_rep00.csv", "epochs_rep01.csv",
                     "report_rep00.json", "report_rep01.json", "summary.csv"]
    result = reports.load_result(str(out_dir / "artifacts.json"))
    assert result.config.method == "fd_lm"
    assert len(result.runs) == 2


def test_run_json_format_writes_summary_json(config_path, tmp_path):
    out_dir = tmp_path / "run"
    assert main(["run", "--config", config_path, "--out", str(out_dir),
                 "--format", "json"]) == 0
    assert (out_dir / "summary.json").exists()
    assert not (out_dir / "summary.csv").exists()


def test_rerun_is_byte_identical(config_path, tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(["run", "--config", config_path, "--out", str(d1)]) == 0
    assert main(["run", "--config", config_path, "--out", str(d2)]) == 0
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    assert mismatch == [] and errors == []
    assert match == names


def test_seed_override_changes_run_outputs(config_path, tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(["run", "--config", config_path, "--out", str(d1)]) == 0
    assert main(["run", "--config", config_path, "--out", str(d2),
                 "--seed", "77"]) == 0
    assert _read(str(d1 / "artifacts.json")) != _read(str(d2 / "artifacts.json"))


def test_compare_uses_methods_list(config_path, tmp_path, capsys):
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--config", config_path, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "method,er_old,er_new,nfr,rel_nfr,n_params"
    assert [l.split(",")[0] for l in lines[1:]] == ["no_treatment", "naive"]
    assert (out_dir / "comparison.csv").exists()
    assert _read(str(out_dir / "comparison.csv")).decode() == out


def test_sweep_focal_auto_switches_to_focal_method(tmp_path, capsys):
    text = CONFIG_TEXT.replace("method: fd_lm", "method: no_treatment")
    path = tmp_path / "nt.yaml"
    path.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "focal"
    assert main(["sweep-focal", "--config", str(path),
                 "--out", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert "using fd_lm" in captured.err
    lines = captured.out.splitlines()
    assert lines[0] == "alpha,beta,er_new,nfr,rel_nfr"
    assert len(lines) == 3  # the two grid points from the config
    assert (out_dir / "focal_sweep.csv").exists()


def test_sweep_focal_keeps_a_named_kl_distance(tmp_path, capsys):
    # a non-focal method with pc.distance kl sweeps fd_kl, not logit match
    text = CONFIG_TEXT.replace("method: fd_lm", "method: naive\n"
                               "pc: {distance: kl, tau: 2.0}")
    tables = []
    for method in ("naive", "fd_kl"):
        path = tmp_path / f"{method}.yaml"
        path.write_text(text.replace("method: naive", f"method: {method}"),
                        encoding="utf-8")
        assert main(["sweep-focal", "--config", str(path),
                     "--out", str(tmp_path / method)]) == 0
        captured = capsys.readouterr()
        tables.append(captured.out)
        if method == "naive":
            assert "using fd_kl" in captured.err
    assert tables[0] == tables[1]


def test_sweep_ensemble_writes_size_rows(config_path, tmp_path, capsys):
    out_dir = tmp_path / "ens"
    assert main(["sweep-ensemble", "--config", config_path,
                 "--out", str(out_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "L,er_old,er_new,nfr,rel_nfr"
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "2"]
    assert (out_dir / "ensemble_sweep.csv").exists()


def test_report_reemits_identical_files(config_path, tmp_path):
    src = tmp_path / "src"
    assert main(["run", "--config", config_path, "--out", str(src)]) == 0
    dst = tmp_path / "dst"
    assert main(["report", "--artifacts", str(src / "artifacts.json"),
                 "--out", str(dst)]) == 0
    names = sorted(os.listdir(src))
    assert sorted(os.listdir(dst)) == names
    match, mismatch, errors = filecmp.cmpfiles(src, dst, names, shallow=False)
    assert mismatch == [] and errors == []


def test_report_reemits_stored_artifacts(tmp_path):
    """``data/artifacts.json`` is a tiny two-repetition run written before
    the config codec was derived from the dataclasses: it still loads, and
    ``report`` writes it back byte for byte in either format."""
    stored = os.path.join(os.path.dirname(__file__), "data", "artifacts.json")
    for fmt in reports.FORMATS:
        out_dir = tmp_path / fmt
        assert main(["report", "--artifacts", stored, "--out", str(out_dir),
                     "--format", fmt]) == 0
        assert _read(str(out_dir / "artifacts.json")) == _read(stored)


def _must_not_run(*args, **kwargs):
    raise AssertionError("trained despite a rejected config")


def test_errors_exit_nonzero_with_one_line_diagnostic(tmp_path, capsys,
                                                      monkeypatch):
    bad = tmp_path / "bad.yaml"
    bad.write_text("method: bogus\n", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1

    assert main(["run", "--config", str(tmp_path / "missing.yaml")]) == 1
    assert capsys.readouterr().err.startswith("error:")

    bad.write_text("scenario: {kind: arch_change, old_model: {activation: tanh}}\n",
                   encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "activation" in err
    assert len(err.strip().splitlines()) == 1

    # rejected when the document is read, before anything trains
    bad.write_text("output_dir: 5\n", encoding="utf-8")
    with monkeypatch.context() as mp:
        mp.setattr(cli, "run_experiment", _must_not_run)
        assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "output_dir" in err
    assert len(err.strip().splitlines()) == 1

    bad.write_text("ensemble_sizes: [1, 2.9]\n", encoding="utf-8")
    with monkeypatch.context() as mp:
        mp.setattr(cli, "sweep_ensemble", _must_not_run)
        assert main(["sweep-ensemble", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ensemble_sizes" in err


def test_a_new_side_without_an_old_class_exits_1_before_training(
        tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.yaml"
    bad.write_text(CONFIG_TEXT.replace(
        "scenario: {kind: same_arch_retrain}",
        "scenario: {kind: same_arch_retrain, new_data: {class_subset: [0, 1]}}"),
        encoding="utf-8")
    monkeypatch.setattr(harness.ensembles, "train_ensemble", _must_not_run)
    for command in ("run", "compare", "sweep-focal"):
        assert main([command, "--config", str(bad),
                     "--out", str(tmp_path / command)]) == 1
        assert capsys.readouterr().err == (
            "error: every old class must be present in the new data view\n")


@pytest.mark.parametrize("text, message", [
    ("dataset: {k: 3}\nscenario: {kind: class_growth}\n",
     "the class_growth reference pairing trains its old side on the first "
     "k // 2 classes, so it needs k >= 4, got k = 3"),
    ("scenario: {kind: class_growth, old_data: {class_subset: [2]}}\n",
     "scenario.old_data: class_subset must name at least 2 classes, got [2]"),
    ("method: ensemble\n"
     "scenario: {kind: class_growth, old_data: {class_subset: [2]}}\n",
     "scenario.old_data: class_subset must name at least 2 classes, got [2]"),
    ("scenario: {kind: same_arch_retrain, new_data: {class_subset: [1, 1]}}\n",
     "scenario.new_data: class_subset must name at least 2 classes, "
     "got [1, 1]"),
], ids=["reference-k3", "old-subset", "ensemble", "repeated-class"])
def test_a_side_with_one_class_exits_1_at_load(tmp_path, capsys, monkeypatch,
                                               text, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_zero_weight_init_exits_1_at_load(tmp_path, capsys, monkeypatch):
    path = tmp_path / "zeros.yaml"
    path.write_text("train: {weight_init: zeros}\n", encoding="utf-8")
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: train: weight_init must be 'glorot_uniform', got 'zeros'\n")
    assert not (tmp_path / "out").exists()


def test_a_value_of_the_wrong_kind_exits_1_naming_its_key(tmp_path, capsys,
                                                          monkeypatch):
    # float(None) used to escape as a bare TypeError text naming no key
    path = tmp_path / "bad.yaml"
    path.write_text("train: {learning_rate: null}\n", encoding="utf-8")
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: train.learning_rate must be float, got None\n")
    assert not (tmp_path / "out").exists()


def test_a_class_subset_out_of_range_exits_1_before_training(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "bad.yaml"
    path.write_text(CONFIG_TEXT.replace(
        "scenario: {kind: same_arch_retrain}",
        "scenario: {kind: class_growth, old_data: {class_subset: [0, 9]}}"),
        encoding="utf-8")
    monkeypatch.setattr(harness.ensembles, "train_ensemble", _must_not_run)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: class_subset [0, 9] names a class outside [0, 5)\n")


DIVERGING_TEXT = """\
dataset: {k: 4, input_dim: 6, samples_per_class: 40, seed: 2}
train: {epochs: 5, batch_size: 16, learning_rate: 1e6}
method: fd_lm
"""
DIVERGED_ERR = ("error: the old side diverged: member 0's weights are not "
                "finite\n")


def test_a_diverged_old_side_exits_1_naming_it(tmp_path, capsys):
    """A learning rate that sends the old model's weights to inf or nan is
    an error; scored, it would predict class 0 everywhere and report no
    flips."""
    path = tmp_path / "diverge.yaml"
    path.write_text(DIVERGING_TEXT, encoding="utf-8")
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == DIVERGED_ERR
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep-ensemble"])
def test_a_diverged_old_side_prints_only_its_error(tmp_path, command):
    """Run as a program, outside pytest's warning filters, a diverging old
    side prints the one error line: the overflow warnings of its training
    are not shown, since the finiteness check reports them."""
    path = tmp_path / "diverge.yaml"
    path.write_text(DIVERGING_TEXT, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "pctlab.cli", command, "--config", str(path),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (1, DIVERGED_ERR, "")


@pytest.mark.parametrize("text, message", [
    ('{"er_old": 0.1}', "artifacts needs a non-empty 'config'"),
    ("[1, 2]", "artifacts must be a mapping, got list"),
    (None, "artifacts needs a non-empty 'runs'"),
    ("not json\n", "{path} is not UTF-8 JSON: "
                   "Expecting value: line 1 column 1 (char 0)"),
    (b"\xff{}", "{path} is not UTF-8 JSON: 'utf-8' codec can't decode byte "
               "0xff in position 0: invalid start byte"),
], ids=["no-config", "list", "no-runs", "text", "not-utf8"])
def test_report_names_the_fault_of_malformed_artifacts(tmp_path, capsys, text,
                                                      message):
    if text is None:  # the stored run with its runs removed
        stored = os.path.join(os.path.dirname(__file__), "data", "artifacts.json")
        with open(stored, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        text = json.dumps(dict(doc, runs=[]))
    path = tmp_path / "artifacts.json"
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    assert main(["report", "--artifacts", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reps", [[0, 0], [5, 0], [1, 0], [0]],
                         ids=["repeated", "out-of-range", "reordered", "missing"])
def test_report_rejects_runs_that_are_not_each_repetition_once(tmp_path, capsys,
                                                              reps):
    """Each run's files are named by its repetition, so runs numbered
    [0, 0] once loaded and ``report`` overwrote ``epochs_rep00.csv``. The
    stored run, numbered [0, 1] under ``repetitions: 2``, still loads."""
    stored = os.path.join(os.path.dirname(__file__), "data", "artifacts.json")
    with open(stored, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["config"]["repetitions"] == 2
    assert [run.repetition for run in reports.result_from_document(doc).runs] \
        == [0, 1]
    runs = [dict(run, repetition=r) for run, r in zip(doc["runs"], reps)]
    path = tmp_path / "artifacts.json"
    path.write_text(json.dumps(dict(doc, runs=runs)), encoding="utf-8")
    assert main(["report", "--artifacts", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: artifacts runs must be "
                                       f"repetitions 0 to 1 in order, got {reps}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("methods", ["bogus_method_name"],
     "unknown key(s) ['methods'] in artifacts.config; allowed: "),
    ("ensemble_sizes", "x",
     "unknown key(s) ['ensemble_sizes'] in artifacts.config; allowed: "),
    ("focal_grid", [[1.0, 2.0]],
     "unknown key(s) ['focal_grid'] in artifacts.config; allowed: "),
    ("pc", {"distance": "kl"}, "artifacts.config.pc.distance must be "
     "'logit_match' for method fd_lm, got 'kl'\n"),
], ids=["methods", "ensemble_sizes", "focal_grid", "distance"])
def test_report_rejects_config_file_keys_in_artifacts(tmp_path, capsys, key,
                                                      value, message):
    """The sweep lists belong to CLI config files; an artifacts config
    block once loaded with any of them, since it was read as one. A focal
    method still picks its distance."""
    stored = os.path.join(os.path.dirname(__file__), "data", "artifacts.json")
    with open(stored, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["config"]["method"] == "fd_lm"
    path = tmp_path / "artifacts.json"
    path.write_text(json.dumps(dict(doc, config=dict(doc["config"],
                                                     **{key: value}))),
                    encoding="utf-8")
    assert main(["report", "--artifacts", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, extra, message", [
    ("dataset: {seed: 18446744073709551616}\n", [],
     "dataset: seed must be in [0, 2**64)"),
    # below 2**64, but the seed layout adds up to 99,099,999 to it
    ("train: {seed: 18446744073709551000}\n", [],
     "train.seed must be below 2**64 - 99099999"),
    ("method: naive\n", ["--seed", "18446744073709551000"],
     "train.seed must be below 2**64 - 99099999"),
    ("scenario: {kind: same_arch_retrain, "
     "old_data: {sample_fraction: 0.5, subset_seed: 18446744073709551616}}\n",
     [], "scenario.old_data: subset_seed must be in [0, 2**64)"),
], ids=["dataset", "train", "override", "subset"])
def test_seeds_past_2_64_exit_1_before_training(tmp_path, capsys, monkeypatch,
                                               text, extra, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                 *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert len(err.strip().splitlines()) == 1


def test_generate_seed_drives_only_the_data(config_path, tmp_path, capsys):
    # the largest dataset seed generates; one past it is rejected
    out = tmp_path / "data.csv"
    assert main(["generate", "--config", config_path, "--out", str(out),
                 "--seed", str(2**64 - 1)]) == 0
    capsys.readouterr()
    assert main(["generate", "--config", config_path, "--out", str(out),
                 "--seed", str(2**64)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: seed must be in [0, 2**64), got ")


def test_unknown_subcommand_is_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


EXPERIMENT_COMMANDS = ("run", "compare", "sweep-focal", "sweep-ensemble")


def test_experiment_subcommands_share_one_handler_and_options():
    parser = cli.build_parser()
    parsed = [parser.parse_args([command, "--config", "c.yaml", "--seed", "1",
                                 "--out", "o", "--format", "json"])
              for command in EXPERIMENT_COMMANDS]
    assert len({args.func for args in parsed}) == 1
    for command, args in zip(EXPERIMENT_COMMANDS, parsed):
        assert vars(args) == {"command": command, "config": "c.yaml",
                              "seed": 1, "out": "o", "format": "json",
                              "func": parsed[0].func}


@pytest.mark.parametrize("argv", [["run", "--bogus"], [], ["run", "--seed",
                                                           "abc"]],
                         ids=["unknown-option", "no-subcommand", "bad-seed"])
def test_argument_errors_exit_2_with_the_usage_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pctlab") and "error: " in err


@pytest.mark.parametrize("write, as_written", [
    (reports.write_experiment, lambda result: result),
    (reports.write_comparison, lambda result: Table([MethodRow.of(result)])),
], ids=["experiment", "comparison"])
def test_a_bad_format_raises_and_makes_no_directory(tmp_path, write,
                                                    as_written):
    stored = os.path.join(os.path.dirname(__file__), "data", "artifacts.json")
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(
            "format must be one of ('csv', 'json'), got 'xml'")):
        write(as_written(reports.load_result(stored)), str(out), "xml")
    assert not out.exists()


def test_config_module_round_trips_cli_document(config_path):
    # the config the CLI parses survives a YAML round trip of its document
    cfg = experiment_from_document(load_document(config_path))
    assert loads_config(yaml.safe_dump(as_record(cfg))) == cfg
