"""The file formats: JSON for configs and results (`dumps` returns the
text, `dump` streams it to a file, `from_json` reads a config) and CSV for
figures and traces (one writer).

The JSON reader reads only JSON's shapes by each field's annotation: an
integral float becomes an int for an `int` field, a list a tuple, a name
its Enum member and an object its dataclass. Every value then goes to the
dataclass, whose `__post_init__` checks it and names the field in its
`ConfigError`.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from enum import Enum
from functools import cache
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError

_type_hints = cache(get_type_hints)  # annotations are strings; resolve each class once


def _plain(value):
    """The JSON form of a value that `json` cannot write itself."""
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def dumps(value, **kw) -> str:
    """`value` as JSON with sorted keys; dataclasses and arrays included."""
    return json.dumps(value, default=_plain, sort_keys=True, **kw)


def dump(value, fh, **kw) -> None:
    """`dumps(value, **kw)` written to the open file `fh` piece by piece,
    which keeps a large document from being held whole in memory."""
    json.dump(value, fh, default=_plain, sort_keys=True, **kw)


def write_csv(path, header, rows) -> None:
    """A CSV file at `path`: the row `header`, then every row of the iterable `rows`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def from_json(cls, data, where: str = "config"):
    """Dataclass `cls` from the JSON object `data`, named `where` in messages."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")
    hints = _type_hints(cls)
    return cls(**{name: _read(hints[name], value, f"{where}.{name}")
                  for name, value in data.items()})


def _read(tp, value, where: str):
    """The value of annotation `tp` that the JSON value `value` gives: only
    its JSON shape is read, and the dataclass checks the value."""
    if tp is int and isinstance(value, float) and value.is_integer():  # JSON's 5.0 reads as 5
        return int(value)
    if get_origin(tp) is tuple and isinstance(value, list):  # tuple[X, ...]
        return tuple(_read(get_args(tp)[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise ConfigError(f"{where} must be one of {[m.value for m in tp]}, "
                              f"got {value!r}") from None
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, where)
    return value
