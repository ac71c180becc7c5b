"""Layer tracing from outside the program.

:class:`Tracer` wraps every public function of the traced ``cteskf`` modules
and rebinds each wrapper at every name a caller looks it up by: the defining
module's attribute (``lie.so3_exp`` after ``from . import lie``) and each
module global bound by ``from .errorstate import system_matrix``.  Each call
records one span (name, parent span, start, end) into flat arrays held in
memory; nothing is written until :meth:`SpanLog.save` at the end of a run.
The program runs on one thread (``monte_carlo_sweep(jobs=1)``), so a stack
gives each span its parent.
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("filter", "errorstate", "ins", "sensors", "sim", "io", "lie")


class SpanLog:
    """Spans kept in memory as parallel arrays; a parent of -1 marks a span
    opened outside every other traced call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """A wrapper around ``fn`` that records one span per call."""
        nid = self.name_index(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another inside it, so their summed
    durations are the part of the parent's interval they cover.
    """
    dur = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - covered


def summarize(names, name_id, parent, start, end) -> dict:
    """Per traced name: calls, inclusive seconds and self seconds."""
    dur = end - start
    own = self_times(parent, start, end)
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=dur, minlength=k)
    self_s = np.bincount(name_id, weights=own, minlength=k)
    return {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(names)
    }


class Tracer:
    """Installs span-recording wrappers into the loaded ``cteskf`` modules and
    removes them again; one :class:`SpanLog` collects the spans of every
    install."""

    def __init__(self):
        self.log = SpanLog()
        self._targets = []  # (function, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"cteskf.{layer}"]
            for fname, fn in vars(module).items():
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                self._targets.append((fn, self.log.wrap(f"{layer}.{fname}", fn)))
        self._modules = [m for name, m in sys.modules.items() if name == "cteskf" or name.startswith("cteskf.")]
        self._patched = []  # (module, attribute, original)

    def install(self) -> None:
        wrappers = {id(fn): wrapper for fn, wrapper in self._targets}
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
