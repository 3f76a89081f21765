"""The file formats: JSON for configs and results (`dumps` returns the
text, `dump` streams it to a file, `from_json` reads a config) and CSV for
figures and traces (one writer).

The JSON reader types each field by its annotation, so a value of the wrong
JSON type fails here with a `ConfigError` that names the field; range checks
stay in the dataclasses' `__post_init__`.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import types
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
    if isinstance(value, frozenset):
        return sorted(value)
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def dumps(value, **kw) -> str:
    """`value` as JSON with sorted keys; dataclasses, arrays and frozensets included."""
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
    """The value of annotation `tp` that the JSON value `value` gives."""
    if tp is int:
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if tp is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:  # an integer beyond the float range
                pass
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if tp is str:
        if isinstance(value, str):
            return value
        raise ConfigError(f"{where} must be a string, got {value!r}")
    if get_origin(tp) is types.UnionType:  # X | None
        if value is None and type(None) in get_args(tp):
            return None
        return _read(get_args(tp)[0], value, where)
    if get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a JSON list, got {value!r}")
        return tuple(_read(get_args(tp)[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise ConfigError(f"{where} must be one of {[m.value for m in tp]}, "
                              f"got {value!r}") from None
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, where)
    raise TypeError(f"{where}: no JSON reading for annotation {tp!r}")
