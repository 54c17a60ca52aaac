"""The text format of every result file, and the one result table.

CSV: a header row, then one line per row, ``"\\n"`` line ends. A float cell
is ``repr(float(v))``, so numpy scalars print like Python floats; ``None``
is an empty cell; any other value is written as ``str``. JSON: sorted keys,
two-space indent and a trailing newline. Identical inputs therefore give
byte-identical files.

A dataclass field's key in every file is its name unless its metadata says
otherwise: ``field(metadata={"key": "k"})`` renames it, ``{"key": None}``
gives it no key, and ``{"flat": True}`` puts the keys of the nested
dataclass in its parent's mapping. ``as_record`` is the one walker from a
dataclass to the mapping a file holds: the flip reports, the rows of every
``Table``, and ``artifacts.json`` with its config blocks. ``config`` reads
the same keys back, and a config dataclass rejects a bad number through
``check_finite``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from functools import lru_cache
from dataclasses import Field, dataclass, field, fields, is_dataclass
from enum import Enum
from typing import (Iterable, List, Optional, Sequence, Union, get_args,
                    get_origin, get_type_hints)


def field_key(f: Field) -> Optional[str]:
    """The key of dataclass field ``f`` (module docstring)."""
    return f.metadata.get("key", f.name)


def as_record(obj) -> dict:
    """Dataclass instance ``obj`` as ``{key: value}`` in field order, keyed
    by ``field_key``, flat fields merged in. Nested dataclasses become
    mappings, lists and tuples lists, enums their values. Unlike
    ``dataclasses.asdict`` it copies no other value: the files it feeds read
    each value once, so a deep copy would only cost time."""
    record = {}
    for name, key, flat in _layout(type(obj)):
        value = getattr(obj, name)
        if flat:
            record.update(as_record(value))
        else:
            record[key] = _record_value(value)
    return record


def check_finite(obj, error: type = ValueError) -> None:
    """Raise ``error`` naming the first field of dataclass ``obj`` that holds
    nan or an infinity, or a value that ``is_integer`` rejects in an int
    field or a tuple-of-ints entry, where ``int`` would truncate 0.5."""
    integer = _integer_fields(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name not in integer:
            if isinstance(value, numbers.Real) and not isinstance(
                    value, numbers.Integral) and not math.isfinite(value):
                raise error(f"{f.name} must be finite, got {value!r}")
        elif not integer[f.name]:
            if not is_integer(value):
                raise error(f"{f.name} must be an integer, got {value!r}")
        elif value is not None and not all(map(is_integer, value)):
            raise error(f"{f.name} must list integers, got {value!r}")


def is_integer(value) -> bool:
    """Whether ``value`` is a ``numbers.Integral`` other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@lru_cache(maxsize=None)
def _integer_fields(cls) -> dict:
    """``{name: listed}`` for each field of ``cls`` typed ``int`` (listed
    False) or a tuple of ints, optional or not (listed True)."""
    found = {}
    for name, tp in get_type_hints(cls).items():
        if get_origin(tp) is Union:  # Optional[T]
            tp = get_args(tp)[0]
        if tp is int or (get_origin(tp) is tuple and get_args(tp)[0] is int):
            found[name] = tp is not int
    return found


@lru_cache(maxsize=None)
def _layout(cls) -> tuple:
    """``(name, key, flat)`` of each field of ``cls`` that has a key."""
    return tuple((f.name, field_key(f), f.metadata.get("flat", False))
                 for f in fields(cls) if field_key(f) is not None)


def _record_value(value):
    if isinstance(value, (float, int, str)) or value is None:
        return value.value if isinstance(value, Enum) else value
    if isinstance(value, (list, tuple)):
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
    """Rows of one dataclass, and the full results they summarise, keyed by
    the producer. The row fields' keys head its CSV and key its JSON rows."""
    rows: list
    results: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.rows:
            raise ValueError("a table needs at least one row")

    def records(self) -> List[dict]:
        """The rows as ``as_record`` mappings: the ``rows`` of its JSON."""
        return [as_record(r) for r in self.rows]

    def to_csv(self) -> str:
        records = self.records()
        return csv_text(list(records[0]), (r.values() for r in records))
