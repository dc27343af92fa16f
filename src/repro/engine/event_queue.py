"""Cycle-bucketed event scheduler for the discrete-event engine.

Pending events are grouped by the cycle they fire in: a binary heap holds
each distinct pending cycle once, and a dict maps every such cycle to a
plain list of its callbacks in scheduling order.  The order is exactly
that of a ``(time, sequence)`` heap -- earlier cycles first, and within a
cycle the order the events were scheduled in, which keeps the simulator
fully reproducible -- but the heap is pushed and popped once per distinct
cycle instead of once per event.  An event scheduled for the cycle that is
currently executing is appended to that cycle's list, and the running
iteration over the list reaches it after every event already there.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice
from time import perf_counter
from typing import Any, Callable

__all__ = ["EventQueue"]


class EventQueue:
    """A deterministic discrete-event queue.

    The queue tracks the current simulation time :attr:`now` (in cycles).
    Components schedule work with :meth:`schedule` (relative delay) or
    :meth:`schedule_at` (absolute time); :meth:`run` executes the events
    in time order.
    """

    __slots__ = ("now", "executed", "_times", "_buckets", "_base")

    def __init__(self) -> None:
        #: current simulation time in cycles
        self.now = 0
        #: number of events executed so far; callbacks see a live value
        self.executed = 0
        #: heap of the distinct cycles that have a bucket
        self._times: list[int] = []
        #: cycle -> callbacks still to run in that cycle, in scheduling order
        self._buckets: dict[int, list[Callable[[], Any]]] = {}
        #: ``executed`` when the front of the running bucket was last trimmed;
        #: ``executed - _base`` events of that bucket have run but are not
        #: yet removed from it (0 outside :meth:`run`)
        self._base = 0

    @property
    def pending(self) -> int:
        """Number of events scheduled but not yet executed."""
        return sum(map(len, self._buckets.values())) - (self.executed - self._base)

    def schedule(self, delay: int | float, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        Delays are rounded up to whole cycles; negative delays are an error.
        Integer delays (the overwhelmingly common case) skip the rounding
        entirely.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        time = self.now + (delay if delay.__class__ is int else int(round(delay)))
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heappush(self._times, time)
        else:
            bucket.append(callback)

    def schedule_at(self, time: int, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` to run at absolute cycle ``time``."""
        if time.__class__ is not int:
            time = int(time)
        if time < self.now:
            raise ValueError(
                f"cannot schedule an event at {time}, current time is {self.now}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heappush(self._times, time)
        else:
            bucket.append(callback)

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        before = self.executed
        self.run(max_events=1)
        return self.executed > before

    def run(
        self,
        until: int | None = None,
        max_events: int | None = None,
        profiler: Any = None,
    ) -> int:
        """Drain the queue.

        Args:
            until: stop once simulation time passes this cycle (events at
                later times remain queued).
            max_events: safety bound on the number of events to execute.
            profiler: optional :class:`repro.telemetry.profiler.SimProfiler`;
                when given, every callback is timed and reported to it, and
                the loop's wall time is added.  The events run are the same.

        Returns:
            The simulation time when the run stopped.
        """
        # One pass of the outer loop per distinct cycle.  The inner ``for``
        # iterates the cycle's list in place, so events appended to it by the
        # callbacks run in the same pass; ``islice`` caps the pass at the
        # remaining event budget.  The executed count is committed per event
        # so callbacks that read ``self.executed`` mid-run -- the
        # fast-forward sampler's per-kernel measurements -- see a live value.
        times = self._times
        buckets = self._buckets
        record = None if profiler is None else profiler.record
        stop = None if max_events is None else self.executed + max_events
        wall_start = perf_counter()
        try:
            while times:
                if stop is not None and self.executed >= stop:
                    break
                time = times[0]
                if until is not None and time > until:
                    self.now = until
                    break
                self.now = time
                bucket = buckets[time]
                batch = bucket if stop is None else islice(bucket, stop - self.executed)
                try:
                    for callback in batch:
                        self.executed += 1
                        if record is None:
                            callback()
                        else:
                            started = perf_counter()
                            callback()
                            record(callback, perf_counter() - started)
                finally:
                    done = self.executed - self._base
                    self._base = self.executed
                    partial = done < len(bucket)
                    if partial:
                        del bucket[:done]
                    else:
                        heappop(times)
                        del buckets[time]
                if partial:
                    break
        finally:
            if profiler is not None:
                profiler.add_wall(perf_counter() - wall_start)
        return self.now
