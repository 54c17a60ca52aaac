"""The text format of every result file, and the one result table.

CSV: a header row, then one line per row, ``"\\n"`` line ends. A float cell
is ``repr(float(v))``, so numpy scalars print like Python floats; ``None``
is an empty cell; any other value is written as ``str``. JSON: sorted keys,
two-space indent and a trailing newline. Identical inputs therefore give
byte-identical files.
Every result table is a ``Table``, the only reader of a row class's
``COLUMNS``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Iterable, List, Sequence


def as_record(obj) -> dict:
    """The fields of dataclass instance ``obj`` by name, in field order,
    recursing only into nested dataclasses and lists.

    Unlike ``dataclasses.asdict`` it copies no value: the files it feeds
    read each value once, so a deep copy would only cost time.
    """
    return {f.name: _record_value(getattr(obj, f.name)) for f in fields(obj)}


def _record_value(value):
    if isinstance(value, (float, int, str)) or value is None:
        return value
    if isinstance(value, list):
        return [_record_value(v) for v in value]
    return as_record(value) if is_dataclass(value) else value


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return value


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@dataclass
class Table:
    """Rows of one dataclass, whose ``COLUMNS`` name its fields in field
    order, and the full results they summarise, keyed by the producer."""
    rows: list
    results: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.rows:
            raise ValueError("a table needs at least one row")

    def records(self) -> List[dict]:
        """The rows as ``{column: value}`` dicts: the ``rows`` of its JSON."""
        columns = self.rows[0].COLUMNS
        return [dict(zip(columns, as_record(r).values())) for r in self.rows]

    def to_csv(self) -> str:
        return csv_text(self.rows[0].COLUMNS,
                        (r.values() for r in self.records()))
