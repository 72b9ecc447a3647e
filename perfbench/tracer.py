"""Spans around calls into each `fdphase` module, recorded from outside.

Every function named in a layer module's ``__all__`` is wrapped, and the
wrapper is bound in place of the original in every `fdphase` module that
holds it (``from .numerics import mat_power`` copies the name into the
importing module, so patching only the defining module would miss those
calls). Calls made through other references, such as the
``_TAG_DEVIATIONS`` table in ``numerics``, stay unwrapped and count as
their caller's own time.

Spans (name, start, end, parent, op) stay in memory in flat arrays and are
written once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = ("numerics", "pegg_barnett", "deformed", "evolution", "suites", "report", "cli")


class Tracer:
    """Wraps the layer functions of the imported `fdphase` and records spans."""

    def __init__(self) -> None:
        self.names: list = []  # span name id -> "module.function"
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        stack, ids, starts, ends = self._stack, self.name_id, self.start, self.end
        parents, ops = self.parent, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"fdphase.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "fdphase":
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def summarize(names: list, a: dict) -> dict:
    """Per-name call count, inclusive and self seconds from the span arrays.

    A span's self time is its duration minus the durations of its direct
    children; calls nest on one thread, so children never overlap.
    """
    dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
    parent = a["parent"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_time = dur - child
    n = len(names)
    ids = a["name_id"]
    calls = np.bincount(ids, minlength=n)
    incl = np.bincount(ids, weights=dur, minlength=n)
    own = np.bincount(ids, weights=self_time, minlength=n)
    # A recursive call would count twice in inclusive time; no fdphase
    # function recurses, and the roots (cli.main) are never nested.
    return {
        name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
        for i, name in enumerate(names)
    }
