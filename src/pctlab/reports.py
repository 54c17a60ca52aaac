"""Report files for experiment results.

Every file is written in the one format of ``tables``, so identical inputs
yield byte-identical files. A run directory contains one epoch-series CSV
and one final flip-report JSON per repetition, a summary in the requested
format, and ``artifacts.json``, a complete machine-readable record that the
``report`` subcommand can re-emit from without recomputing anything. The
comparison and sweep ``tables.Table``s are written as CSV, plus JSON on request.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Dict, List

from .config import ConfigError, check_distance, from_document
from .harness import ExperimentResult, MethodRow
from .tables import Table, as_record, json_text

FORMATS = ("csv", "json")


def result_from_document(doc: dict) -> ExperimentResult:
    if not isinstance(doc, dict):
        raise ConfigError(f"artifacts must be a mapping, got {type(doc).__name__}")
    for key in ("config", "runs"):
        if not doc.get(key):
            raise ConfigError(f"artifacts needs a non-empty {key!r}")
    result = from_document(ExperimentResult, doc, "artifacts")
    check_distance(doc["config"], result.config, "artifacts.config.")
    # each run writes files named by its repetition, so a repeat overwrites
    reps = [run.repetition for run in result.runs]
    if reps != list(range(result.config.repetitions)):
        raise ConfigError(f"artifacts runs must be repetitions 0 to "
                          f"{result.config.repetitions - 1} in order, got {reps}")
    return result


def load_result(path: str) -> ExperimentResult:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path} is not UTF-8 JSON: {exc}") from None
    return result_from_document(doc)


def summary_csv(result: ExperimentResult) -> str:
    return Table([MethodRow.of(result)]).to_csv()


def _write_files(out_dir: str, fmt: str, texts: Dict[str, str]) -> List[str]:
    """Check ``fmt``, then write each text to its file name in ``out_dir``."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for name, text in texts.items():
        files.append(os.path.join(out_dir, name))
        with open(files[-1], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return files


def write_experiment(result: ExperimentResult, out_dir: str,
                     fmt: str = "json") -> List[str]:
    """Emit the full artifact set for one experiment into ``out_dir``."""
    texts = {}
    for run in result.runs:
        tag = f"rep{run.repetition:02d}"
        texts[f"epochs_{tag}.csv"] = Table(run.epochs).to_csv()
        texts[f"report_{tag}.json"] = json_text(as_record(run.final))
    texts[f"summary.{fmt}"] = (json_text(result.summary()) if fmt == "json"
                               else summary_csv(result))
    # the destination is not part of the experiment
    artifacts = replace(result, config=replace(result.config, output_dir=None))
    texts["artifacts.json"] = json_text(as_record(artifacts))
    return _write_files(out_dir, fmt, texts)


def _write_table(table: Table, out_dir: str, name: str, fmt: str) -> List[str]:
    """``name``.csv, plus ``name``.json when ``fmt`` is json."""
    texts = {f"{name}.csv": table.to_csv()}
    if fmt == "json":
        texts[f"{name}.json"] = json_text({"rows": table.records()})
    return _write_files(out_dir, fmt, texts)


def write_comparison(table: Table, out_dir: str, fmt: str = "csv") -> List[str]:
    return _write_table(table, out_dir, "comparison", fmt)


def write_focal_sweep(table: Table, out_dir: str, fmt: str = "csv") -> List[str]:
    return _write_table(table, out_dir, "focal_sweep", fmt)


def write_ensemble_sweep(table: Table, out_dir: str, fmt: str = "csv") -> List[str]:
    return _write_table(table, out_dir, "ensemble_sweep", fmt)
