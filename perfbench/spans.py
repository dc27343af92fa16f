"""Observation hooks installed from outside the simulator.

Nothing here edits ``src/``: every hook replaces a public method or a
module-level name for the duration of a ``with`` block and restores the
original on exit, so the simulator's own code paths stay untouched.

* :class:`EventTap` -- reads ``sim.queue.executed`` when a session
  finishes.  One call per simulated cell, so it is cheap enough for the
  untimed-looking host-time passes.
* :class:`Profiling` -- gives every session created inside the block a
  ``TelemetryConfig(profile=True)`` and sums the ``SimProfiler``
  component split over the block.
* :class:`Spans` -- records a span around each call of the wrapped layer
  methods: name, start, end, parent span and cell id, kept in memory in
  flat arrays and written out by :meth:`Spans.write`.  ``Counter.add`` is
  counted only.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter

from repro import SimulationSession, TelemetryConfig, get_workload
from repro.accel.sampling import KernelSampler
from repro.experiments.jobs import JobSpec
from repro.experiments.store import ResultStore
from repro.memory.cache import Cache
from repro.memory.directory import Directory
from repro.memory.dram import DramSystem
from repro.memory.interconnect import Link
from repro.memory.mshr import MshrFile
from repro.stats.counters import Counter
import repro.session

__all__ = ["EventTap", "Profiling", "Spans", "SPAN_NAMES"]

#: span names, in the order their ids are assigned
SPAN_NAMES = (
    "workloads.build_trace",
    "topology.partition_trace",
    "session.init",
    "cache.l1.access",
    "cache.l2.access",
    "mshr.allocate",
    "mshr.coalesce",
    "link.send",
    "directory.access",
    "dram.access",
    "sampling.filter",
    "experiments.fingerprint",
    "experiments.store_load",
    "experiments.store_save",
)
_ID = {name: index for index, name in enumerate(SPAN_NAMES)}


class Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        # None marks an attribute the owner only inherited: undo deletes it
        self._undo.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


class EventTap:
    """Sums the executed events of every in-process session that finishes."""

    def __init__(self) -> None:
        self.events = 0
        self._patches = Patches()

    def __enter__(self) -> "EventTap":
        original = SimulationSession.finish
        tap = self

        def finish(session):
            report = original(session)
            tap.events += session.sim.queue.executed
            return report

        self._patches.set(SimulationSession, "finish", finish)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


class Profiling:
    """Turns on ``SimProfiler`` for sessions built inside the block."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.events = 0
        self.component_s: dict[str, float] = {}
        self._patches = Patches()

    def __enter__(self) -> "Profiling":
        init = SimulationSession.__init__
        finish = SimulationSession.finish
        prof = self

        def profiled_init(session, *args, **kwargs):
            if kwargs.get("telemetry") is None:
                kwargs["telemetry"] = TelemetryConfig(profile=True)
            init(session, *args, **kwargs)

        def collecting_finish(session):
            report = finish(session)
            profiler = session.profiler
            if profiler is not None:
                prof.wall_s += profiler.wall_seconds
                prof.events += profiler.events
                for name, seconds in profiler.component_seconds.items():
                    prof.component_s[name] = prof.component_s.get(name, 0.0) + seconds
            return report

        self._patches.set(SimulationSession, "__init__", profiled_init)
        self._patches.set(SimulationSession, "finish", collecting_finish)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    @property
    def callback_s(self) -> float:
        return sum(self.component_s.values())

    def component(self, *prefixes: str) -> float:
        """Seconds charged to components whose class name starts with a prefix."""
        return sum(
            seconds
            for name, seconds in self.component_s.items()
            if name.startswith(prefixes)
        )


class Spans:
    """In-memory span recorder around the layers' public methods.

    Args:
        workload_names: registry names whose ``build_trace`` is wrapped
            (each concrete workload class overrides it).
    """

    def __init__(self, workload_names) -> None:
        self.cell = -1
        self.counter_adds = 0
        self.name = array("i")
        self.parent = array("i")
        self.cell_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(SPAN_NAMES)
        self.inclusive_s = [0.0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self._stack: list[list] = []
        self._workload_classes = {type(get_workload(name)) for name in workload_names}
        self._patches = Patches()

    # ------------------------------------------------------------------
    def _call(self, name_id: int, fn, args, kwargs):
        stack = self._stack
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(stack[-1][0] if stack else -1)
        self.cell_of.append(self.cell)
        self.end.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        started = perf_counter()
        self.start.append(started)
        try:
            return fn(*args, **kwargs)
        finally:
            ended = perf_counter()
            stack.pop()
            self.end[index] = ended
            duration = ended - started
            if stack:
                stack[-1][1] += duration
            self.calls[name_id] += 1
            self.inclusive_s[name_id] += duration
            self.self_s[name_id] += duration - frame[1]

    def _wrap(self, owner, attr: str, span: str) -> None:
        original = getattr(owner, attr)
        name_id = _ID[span]
        call = self._call

        def wrapper(*args, **kwargs):
            return call(name_id, original, args, kwargs)

        self._patches.set(owner, attr, wrapper)

    def __enter__(self) -> "Spans":
        for cls in self._workload_classes:
            self._wrap(cls, "build_trace", "workloads.build_trace")
        # the session module bound partition_trace by name at import
        self._wrap(repro.session, "partition_trace", "topology.partition_trace")
        self._wrap(SimulationSession, "__init__", "session.init")
        self._wrap(MshrFile, "allocate", "mshr.allocate")
        self._wrap(MshrFile, "coalesce", "mshr.coalesce")
        self._wrap(Link, "send", "link.send")
        self._wrap(Directory, "access", "directory.access")
        self._wrap(DramSystem, "access", "dram.access")
        self._wrap(KernelSampler, "filter", "sampling.filter")
        self._wrap(JobSpec, "fingerprint", "experiments.fingerprint")
        self._wrap(ResultStore, "load", "experiments.store_load")
        self._wrap(ResultStore, "save", "experiments.store_save")

        cache_access = Cache.access
        call = self._call
        l1, l2 = _ID["cache.l1.access"], _ID["cache.l2.access"]

        def access(cache, request, on_done):
            name_id = l1 if cache.name.startswith("l1") else l2
            return call(name_id, cache_access, (cache, request, on_done), {})

        self._patches.set(Cache, "access", access)

        counter_add = Counter.add
        spans = self

        def add(counter, amount=1):
            spans.counter_adds += 1
            counter_add(counter, amount)

        self._patches.set(Counter, "add", add)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    # ------------------------------------------------------------------
    def stats(self, span: str) -> tuple[int, float, float]:
        """(calls, inclusive ns per call, self ns per call) of one span name."""
        name_id = _ID[span]
        calls = self.calls[name_id]
        if not calls:
            return 0, 0.0, 0.0
        return (
            calls,
            self.inclusive_s[name_id] * 1e9 / calls,
            self.self_s[name_id] * 1e9 / calls,
        )

    def seconds(self, span: str) -> float:
        return self.inclusive_s[_ID[span]]

    def write(self, directory: Path, stem: str, cells: list[str]) -> None:
        """Write the spans as flat native-order arrays plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{stem}.spans"
        with open(path, "wb") as handle:
            for column in (self.name, self.parent, self.cell_of, self.start, self.end):
                column.tofile(handle)
        index = {
            "count": len(self.name),
            "columns": [
                ["name", "i32"],
                ["parent", "i32"],
                ["cell", "i32"],
                ["start_s", "f64"],
                ["end_s", "f64"],
            ],
            "names": list(SPAN_NAMES),
            "cells": cells,
            "counter_adds": self.counter_adds,
        }
        (directory / f"{stem}.spans.json").write_text(json.dumps(index, indent=1))
