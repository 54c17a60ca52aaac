"""End-to-end CLI checks: every subcommand, output files, byte stability,
and error reporting."""

import filecmp
import os

import pytest

from pctlab import reports
from pctlab.cli import main
from pctlab.config import dump_config, loads_config

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


def test_errors_exit_nonzero_with_one_line_diagnostic(tmp_path, capsys):
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


def test_unknown_subcommand_is_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_config_module_round_trips_cli_document(config_path):
    # the config the CLI parses is exactly what dump/loads round-trips
    with open(config_path, "r", encoding="utf-8") as fh:
        cfg = loads_config(fh.read())
    assert loads_config(dump_config(cfg)) == cfg
