"""Out-of-program span tracing for the benchmark's traced runs.

A :class:`Tracer` installs wrappers around public functions and methods of
the ``repro.*`` modules (the layer table :data:`LAYER_TARGETS`), records one
span per call (name, start, end, parent) in memory, and restores every
original on :meth:`Tracer.uninstall`.  Self time is a span's duration minus
the durations of its direct children.  Nothing inside the program is
changed: its own ``registry=`` / ``trace_log=`` instrumentation stays off.

A target that no longer exists (renamed or deleted by a later change) is
skipped and reported in :attr:`Tracer.missing`, so its layer metrics read
zero instead of the benchmark failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: (span name, module, attribute).  ``prefix*`` wraps every module function
#: whose name starts with *prefix*; ``*.name`` wraps the method *name* on
#: every class of the module that defines it itself.
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("engine.scan", "repro.engine.scan", "score_*"),
    ("engine.batch.apply", "repro.engine.batch", "BatchEvaluator.apply_moves"),
    ("engine.batch.apply", "repro.engine.batch", "BatchEvaluator.apply_swaps"),
    ("engine.batch.apply", "repro.engine.batch", "BatchEvaluator.undo_moves"),
    ("engine.batch.apply", "repro.engine.batch", "BatchEvaluator.undo_swaps"),
    ("engine.batch.recompute", "repro.engine.batch", "BatchEvaluator.recompute"),
    ("core.cma.start", "repro.core.cma", "CellularMemeticAlgorithm.start"),
    ("core.cma.step", "repro.core.cma", "CellularMemeticAlgorithm.step"),
    ("core.local_search.step_batch", "repro.core.local_search", "*.step_batch"),
    ("heuristics", "repro.heuristics.base", "build_schedule"),
    ("grid.sim.run", "repro.grid.simulator", "GridSimulator.run"),
    ("grid.events.push", "repro.grid.events", "EventQueue.push"),
    ("grid.events.pop", "repro.grid.events", "EventQueue.pop"),
    ("grid.machine.etc_matrix", "repro.grid.machine", "execution_times_matrix"),
    ("grid.service.warm_assignment", "repro.grid.service",
     "DynamicSchedulerService.warm_assignment"),
    ("traces.generate", "repro.traces.generators", "generate_trace"),
    ("traces.from_trace", "repro.grid.simulator", "GridSimulator.from_trace"),
    ("service.submit", "repro.service.state", "SchedulerCore.submit"),
    ("service.activate", "repro.service.state", "SchedulerCore.activate"),
)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        #: ``step_batch`` acceptance: rows attempted and rows improved.
        self.rows_attempted = 0
        self.rows_improved = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _open(self, name_id: int) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self._start)
            self._name.append(name_id)
            self._parent.append(stack[-1] if stack else -1)
            self._start.append(time.perf_counter())
            self._end.append(float("nan"))
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, function):
        tracer = self
        name_id = self._name_id(name)
        observe = name == "core.local_search.step_batch"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = tracer._open(name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(index)
            if observe:
                mask = np.asarray(result)
                tracer.rows_attempted += int(mask.size)
                tracer.rows_improved += int(mask.sum())
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # Installing wrappers
    # ------------------------------------------------------------------ #
    def install(self, targets=LAYER_TARGETS) -> None:
        """Wrap every resolvable target; record the unresolvable ones."""
        for name, module_name, attribute in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}:{attribute}")
                continue
            owner_name, _, member = attribute.rpartition(".")
            if not owner_name:
                functions = [
                    key for key, value in vars(module).items()
                    if inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and _matches(key, member)
                ]
                if not functions:
                    self.missing.append(f"{module_name}:{attribute}")
                for key in functions:
                    self._patch_function(name, module, key)
                continue
            owners = (
                [
                    value for value in vars(module).values()
                    if inspect.isclass(value) and value.__module__ == module.__name__
                ]
                if owner_name == "*"
                else [getattr(module, owner_name, None)]
            )
            patched = False
            for owner in owners:
                if owner is not None and member in vars(owner):
                    self._patch_method(name, owner, member)
                    patched = True
            if not patched:
                self.missing.append(f"{module_name}:{attribute}")

    def _patch_function(self, name: str, module, key: str) -> None:
        original = getattr(module, key)
        wrapper = self._wrap(name, original)
        # Callers that imported the function by name (the program's modules
        # and the benchmark's own) hold their own reference: rebind it in
        # every loaded module.
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if namespace is not None and namespace.get(key) is original:
                self._restore.append((other, key, original))
                setattr(other, key, wrapper)

    def _patch_method(self, name: str, owner, member: str) -> None:
        raw = vars(owner)[member]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(name, raw.__func__))
        else:
            wrapper = self._wrap(name, raw)
        self._restore.append((owner, member, raw))
        setattr(owner, member, wrapper)

    def uninstall(self) -> None:
        """Put every original function and method back."""
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns, with each span's self time."""
        name = np.frombuffer(self._name, dtype=np.int32).copy()
        parent = np.frombuffer(self._parent, dtype=np.int32).copy()
        start = np.frombuffer(self._start, dtype=np.float64).copy()
        end = np.frombuffer(self._end, dtype=np.float64).copy()
        duration = end - start
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return {
            "name": name,
            "parent": parent,
            "start": start,
            "end": end,
            "self": duration - child,
        }

    def summary(self) -> dict[str, dict[str, object]]:
        """Per span name: calls, total and self seconds, call durations."""
        columns = self.arrays()
        duration = columns["end"] - columns["start"]
        out: dict[str, dict[str, object]] = {}
        for name_id, name in enumerate(self.names):
            mask = columns["name"] == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(columns["self"][mask].sum()),
                "durations": duration[mask],
            }
        return out

    def write(self, path: Path) -> None:
        """Write the raw spans (and the span-name table) to an ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _matches(key: str, pattern: str) -> bool:
    if pattern.endswith("*"):
        return key.startswith(pattern[:-1])
    return key == pattern
