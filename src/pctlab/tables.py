"""The text format of every result file, and the one result table.

CSV: a header row, then one line per row, ``"\\n"`` line ends. A float cell
is ``repr(float(v))``, so numpy scalars print like Python floats; ``None``
is an empty cell; any other value is written as ``str``. JSON: sorted keys,
two-space indent and a trailing newline. Identical inputs therefore give
byte-identical files.

A dataclass field's key in every file is its name unless its metadata says
otherwise: ``field(metadata={"key": "k"})`` renames it, ``{"key": None}``
gives it no key, and ``{"flat": True}`` puts the keys of the nested
dataclass in its parent's mapping. ``layout`` alone reads that metadata,
and one layout serves both directions: ``as_record`` walks it to write the
mapping a file holds (the flip reports, the rows of every ``Table``, and
``artifacts.json`` with its config blocks), and ``config`` walks it to
read a document back. ``check_value`` is the one walker from a type hint to
the values a field may hold: every config dataclass runs it on its fields
through ``check_fields``, and ``config`` on each value of a document, so
whatever a run writes reads back as the same value.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from collections.abc import Collection, Mapping
from functools import lru_cache
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from typing import (Callable, Iterable, List, Optional, Sequence, Union,
                    get_args, get_origin, get_type_hints)

import numpy as np


def as_record(obj) -> dict:
    """Dataclass instance ``obj`` as ``{key: value}`` in ``layout`` order,
    flat fields merged in. Nested dataclasses become mappings, lists and
    tuples lists, enums their values. Unlike ``dataclasses.asdict`` it
    copies no other value: the files it feeds read each value once, so a
    deep copy would only cost time."""
    record = {}
    for name, key, flat, _, _ in layout(type(obj)):
        value = getattr(obj, name)
        if flat:
            record.update(as_record(value))
        else:
            record[key] = _record_value(value)
    return record


def check_value(tp, value, name: str, error: type = ValueError,
                decode: Optional[Callable] = None):
    """``value`` in the normal form of type hint ``tp``, or ``error`` naming
    ``name``: the one rule for what a config field may hold. A numpy value
    counts as its Python value. An int takes only an integer, a float any
    finite number, a bool only True or False, a string only a string, an
    enum one of its values, a tuple any collection but a string or a mapping
    (of the tuple's length when it has one), and a dataclass an instance.
    ``decode(cls, block, name)``, given only for a document, reads a block
    into dataclass ``cls``; there a number may also be written as a string,
    since PyYAML reads 1e-3 and nan as strings, and an int takes 2.0."""
    # outside a document, most values come already in their normal form
    if (decode is None and type(value) is tp
            and (tp is not float or math.isfinite(value))):
        return value
    if get_origin(tp) is Union:  # Optional[T]
        return None if value is None else check_value(
            get_args(tp)[0], value, name, error, decode)
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if is_dataclass(tp):
        if decode is not None:
            value = decode(tp, value, name)
        if not isinstance(value, tp):
            raise error(f"{name} must be {tp.__name__}, got {value!r}")
        return value
    if get_origin(tp) in (tuple, list):
        # a string is not a list: "64" would read as (6, 4)
        if isinstance(value, (str, Mapping)) or not isinstance(value, Collection):
            raise error(f"{name} must be a list, got {value!r}")
        types = get_args(tp)
        if get_origin(tp) is list or types[-1] is Ellipsis:
            types = types[:1] * len(value)
        elif len(value) != len(types):
            raise error(f"{name} must be a list of {len(types)}, got {value!r}")
        return get_origin(tp)(check_value(t, v, name, error, decode)
                              for t, v in zip(types, value))
    if issubclass(tp, str):
        # str(['kl']) or str(5) would read as a name nobody wrote
        if not isinstance(value, str):
            raise error(f"{name} must be a string, got {value!r}")
        if issubclass(tp, Enum) and value not in {m.value for m in tp}:
            raise error(f"{name} must be one of {[m.value for m in tp]}, "
                        f"got {value!r}")
        return tp(value) if issubclass(tp, Enum) else value
    if decode is not None and tp in (int, float):
        if isinstance(value, str):
            try:
                value = tp(value)
            except ValueError:
                pass
        if tp is int and isinstance(value, float) and value.is_integer():
            value = int(value)
    # bool is an int subclass, so True would pass as 1; int(3.7), bool(0)
    # and float(None) would misread the value or fail without naming it
    if (isinstance(value, bool) != (tp is bool)
            or not isinstance(value, numbers.Real)
            or (tp is int and not isinstance(value, numbers.Integral))):
        raise error(f"{name} must be {tp.__name__}, got {value!r}")
    value = tp(value)
    if tp is float and not math.isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")
    return value


def check_fields(obj, error: type = ValueError) -> None:
    """Store each field of dataclass ``obj`` in its ``check_value`` normal
    form, or raise ``error`` naming the first field that rule rejects."""
    for name, tp in type_hints(type(obj)).items():
        object.__setattr__(obj, name,
                           check_value(tp, getattr(obj, name), name, error))


# typing.get_type_hints, resolved once per class
type_hints = lru_cache(maxsize=None)(get_type_hints)


@lru_cache(maxsize=None)
def layout(cls) -> tuple:
    """``(name, key, flat, required, tp)`` of each field of dataclass ``cls``
    that has a key, in field order: ``required`` when the field has no
    default, ``tp`` its type hint."""
    hints = type_hints(cls)
    return tuple((f.name, key, f.metadata.get("flat", False),
                  f.default is MISSING and f.default_factory is MISSING,
                  hints[f.name])
                 for f in fields(cls)
                 if (key := f.metadata.get("key", f.name)) is not None)


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
