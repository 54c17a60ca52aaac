"""Report files for experiment results.

Every file is written in the one format of ``tables``, so identical inputs
yield byte-identical files. A run directory contains one epoch-series CSV
and one final flip-report JSON per repetition, a summary in the requested
format, and ``artifacts.json``, a complete machine-readable record that the
``report`` subcommand can re-emit from without recomputing anything. The
comparison and sweep tables are written as CSV, plus JSON on request.
"""

from __future__ import annotations

import json
import os
from typing import List, Sequence

from .config import experiment_from_document, from_document, to_document
from .ensembles import SweepResult, SweepRow
from .harness import (ComparisonTable, ExperimentResult, FocalSweepRow,
                      FocalSweepTable, MethodRow, epoch_series_csv)
from .tables import as_record, csv_text, json_text

FORMATS = ("csv", "json")


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def result_to_document(result: ExperimentResult) -> dict:
    config_doc = to_document(result.config)
    config_doc["output_dir"] = None  # destination is not part of the experiment
    return {
        "config": config_doc,
        "er_old": result.er_old,
        "old_param_count": result.old_param_count,
        "runs": [as_record(run) for run in result.runs],
    }


def result_from_document(doc: dict) -> ExperimentResult:
    return from_document(ExperimentResult, doc, "artifacts",
                         config=experiment_from_document(doc["config"]))


def load_result(path: str) -> ExperimentResult:
    with open(path, "r", encoding="utf-8") as fh:
        return result_from_document(json.load(fh))


def summary_csv(result: ExperimentResult) -> str:
    return csv_text(MethodRow.COLUMNS,
                    [as_record(MethodRow.of(result)).values()])


def write_experiment(result: ExperimentResult, out_dir: str,
                     fmt: str = "json") -> List[str]:
    """Emit the full artifact set for one experiment into ``out_dir``."""
    _check_format(fmt)
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for run in result.runs:
        tag = f"rep{run.repetition:02d}"
        files.append(_write(os.path.join(out_dir, f"epochs_{tag}.csv"),
                            epoch_series_csv(run)))
        files.append(_write(os.path.join(out_dir, f"report_{tag}.json"),
                            run.final.to_json()))
    if fmt == "json":
        files.append(_write(os.path.join(out_dir, "summary.json"),
                            json_text(result.summary())))
    else:
        files.append(_write(os.path.join(out_dir, "summary.csv"),
                            summary_csv(result)))
    files.append(_write(os.path.join(out_dir, "artifacts.json"),
                        json_text(result_to_document(result))))
    return files


def _write_table(table, columns: Sequence[str], out_dir: str, name: str,
                 fmt: str) -> List[str]:
    """``name``.csv, plus ``name``.json when ``fmt`` is json: the rows of
    ``table`` under ``columns``."""
    _check_format(fmt)
    os.makedirs(out_dir, exist_ok=True)
    files = [_write(os.path.join(out_dir, f"{name}.csv"), table.to_csv())]
    if fmt == "json":
        rows = [dict(zip(columns, as_record(r).values())) for r in table.rows]
        files.append(_write(os.path.join(out_dir, f"{name}.json"),
                            json_text({"rows": rows})))
    return files


def write_comparison(table: ComparisonTable, out_dir: str,
                     fmt: str = "csv") -> List[str]:
    return _write_table(table, MethodRow.COLUMNS, out_dir, "comparison", fmt)


def write_focal_sweep(table: FocalSweepTable, out_dir: str,
                      fmt: str = "csv") -> List[str]:
    return _write_table(table, FocalSweepRow.COLUMNS, out_dir, "focal_sweep",
                        fmt)


def write_ensemble_sweep(result: SweepResult, out_dir: str,
                         fmt: str = "csv") -> List[str]:
    return _write_table(result, SweepRow.COLUMNS, out_dir, "ensemble_sweep",
                        fmt)
