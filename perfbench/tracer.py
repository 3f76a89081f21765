"""In-memory span recorder that wraps the program's public functions.

Each wrapped function is replaced, in the module that calls it, by a
wrapper that records one span (name, start, end, parent) per call. Spans
live in flat arrays until `write` saves them; `summary` reduces them to
per-name call counts, total time and self time (duration minus the time
covered by child spans).

A function that no longer exists is skipped and listed in `absent`, so
metrics that depend on it can be reported as absent instead of failing
the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def wrap(self, module_name: str, attr: str, observe=None) -> None:
        """Record calls made through `module_name.attr`; `observe`, if
        given, sees each return value outside the timed span."""
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        label = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
        if fn is None:
            self.absent.append(label)
            return
        if label in self.names:
            nid = self.names.index(label)
        else:
            nid = len(self.names)
            self.names.append(label)
            # The layer is where the function is defined, not who calls it.
            self.layers.append(getattr(fn, "__module__", module_name).rsplit(".", 1)[-1])
        names, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, fn))

    def unwrap(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unwrap()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers), **self.arrays())

    def summary(self) -> dict[str, dict]:
        """{name: {"layer", "calls", "total_s", "self_s", "durations_s"}}."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - covered
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            out[name] = {
                "layer": self.layers[nid],
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
                "durations_s": dur[sel],
            }
        return out
