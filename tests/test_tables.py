"""The one text format of every result file, pinned byte for byte: the cell
rules of ``tables.csv_text`` and both formats of ``tables.Table``, as the
comparison, focal-sweep and ensemble-sweep writers emit them."""

from dataclasses import fields

import numpy as np
import pytest

from pctlab import reports
from pctlab.harness import EpochMetrics, FocalSweepRow, MethodRow, SweepRow
from pctlab.tables import Table, csv_text


def test_csv_text_cell_format():
    text = csv_text(["s", "i", "f", "np", "none"],
                    [["naive", 330, 0.1, np.float64(1 / 3), None]])
    assert text == "s,i,f,np,none\nnaive,330,0.1,0.3333333333333333,\n"


TABLES = {
    "comparison": (
        reports.write_comparison,
        Table([MethodRow("no_treatment", 0.25, np.float64(0.3), 0.05, 0.2, 330),
               MethodRow("naive", 0.25, 0.5, 0.125, None, 330)]),
        "method,er_old,er_new,nfr,rel_nfr,n_params\n"
        "no_treatment,0.25,0.3,0.05,0.2,330\n"
        "naive,0.25,0.5,0.125,,330\n",
        '{\n  "rows": [\n'
        '    {\n      "er_new": 0.3,\n      "er_old": 0.25,\n'
        '      "method": "no_treatment",\n      "n_params": 330,\n'
        '      "nfr": 0.05,\n      "rel_nfr": 0.2\n    },\n'
        '    {\n      "er_new": 0.5,\n      "er_old": 0.25,\n'
        '      "method": "naive",\n      "n_params": 330,\n'
        '      "nfr": 0.125,\n      "rel_nfr": null\n    }\n  ]\n}\n'),
    "focal_sweep": (
        reports.write_focal_sweep,
        Table([FocalSweepRow(0.0, 1.0, 0.3, np.float64(0.05), 0.2),
               FocalSweepRow(1.0, 5.0, 0.0, 0.0, None)]),
        "alpha,beta,er_new,nfr,rel_nfr\n"
        "0.0,1.0,0.3,0.05,0.2\n"
        "1.0,5.0,0.0,0.0,\n",
        '{\n  "rows": [\n'
        '    {\n      "alpha": 0.0,\n      "beta": 1.0,\n      "er_new": 0.3,\n'
        '      "nfr": 0.05,\n      "rel_nfr": 0.2\n    },\n'
        '    {\n      "alpha": 1.0,\n      "beta": 5.0,\n      "er_new": 0.0,\n'
        '      "nfr": 0.0,\n      "rel_nfr": null\n    }\n  ]\n}\n'),
    "ensemble_sweep": (
        reports.write_ensemble_sweep,
        Table([SweepRow(1, 0.3, 0.25, 0.1, np.float64(0.5)),
               SweepRow(16, 0.2, 0.0, 0.0, None)]),
        "L,er_old,er_new,nfr,rel_nfr\n"
        "1,0.3,0.25,0.1,0.5\n"
        "16,0.2,0.0,0.0,\n",
        '{\n  "rows": [\n'
        '    {\n      "L": 1,\n      "er_new": 0.25,\n      "er_old": 0.3,\n'
        '      "nfr": 0.1,\n      "rel_nfr": 0.5\n    },\n'
        '    {\n      "L": 16,\n      "er_new": 0.0,\n      "er_old": 0.2,\n'
        '      "nfr": 0.0,\n      "rel_nfr": null\n    }\n  ]\n}\n'),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_writers_write_pinned_bytes(name, tmp_path):
    write, table, csv_expected, json_expected = TABLES[name]
    csv_path, json_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
    assert write(table, str(tmp_path), "csv") == [str(csv_path)]
    assert csv_path.read_bytes() == csv_expected.encode()
    assert not json_path.exists()
    assert write(table, str(tmp_path), "json") == [str(csv_path), str(json_path)]
    assert csv_path.read_bytes() == csv_expected.encode()
    assert json_path.read_bytes() == json_expected.encode()


@pytest.mark.parametrize("row_class, header", [
    (EpochMetrics, "epoch,er_train,er_val,nfr_val,rel_nfr_val,nfr_train"),
    (MethodRow, "method,er_old,er_new,nfr,rel_nfr,n_params"),
    (FocalSweepRow, "alpha,beta,er_new,nfr,rel_nfr"),
    (SweepRow, "L,er_old,er_new,nfr,rel_nfr"),
], ids=["EpochMetrics", "MethodRow", "FocalSweepRow", "SweepRow"])
def test_row_class_csv_header_is_its_json_row_keys(row_class, header):
    # one key per field, in field order, named by the field: the CSV header
    # and the JSON row keys cannot drift apart
    table = Table([row_class(*range(len(fields(row_class))))])
    assert table.to_csv().splitlines()[0] == header
    assert list(table.records()[0]) == header.split(",")


def test_table_needs_a_row():
    with pytest.raises(ValueError, match="at least one row"):
        Table([])
