"""Tests for the discrete-event queue."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.event_queue import EventQueue


class TestScheduling:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(30, lambda: order.append("c"))
        queue.schedule(10, lambda: order.append("a"))
        queue.schedule(20, lambda: order.append("b"))
        queue.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        queue = EventQueue()
        order = []
        for label in "abcde":
            queue.schedule(5, lambda label=label: order.append(label))
        queue.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        queue = EventQueue()
        seen = []
        queue.schedule(42, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [42]
        assert queue.now == 42

    def test_schedule_at_absolute_time(self):
        queue = EventQueue()
        seen = []
        queue.schedule_at(100, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [100]

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        queue = EventQueue()
        queue.schedule(10, lambda: None)
        queue.run()
        with pytest.raises(ValueError):
            queue.schedule_at(5, lambda: None)

    def test_fractional_delay_rounds_to_cycles(self):
        queue = EventQueue()
        seen = []
        queue.schedule(1.4, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [1]


class TestExecution:
    def test_step_returns_false_when_empty(self):
        assert EventQueue().step() is False

    def test_events_scheduled_during_execution_run(self):
        queue = EventQueue()
        order = []

        def first():
            order.append("first")
            queue.schedule(5, lambda: order.append("second"))

        queue.schedule(1, first)
        queue.run()
        assert order == ["first", "second"]
        assert queue.now == 6

    def test_run_until_leaves_later_events_pending(self):
        queue = EventQueue()
        fired = []
        queue.schedule(5, lambda: fired.append(5))
        queue.schedule(50, lambda: fired.append(50))
        queue.run(until=10)
        assert fired == [5]
        assert queue.pending == 1
        queue.run()
        assert fired == [5, 50]

    def test_max_events_bounds_execution(self):
        queue = EventQueue()

        def reschedule():
            queue.schedule(1, reschedule)

        queue.schedule(1, reschedule)
        queue.run(max_events=25)
        assert queue.executed == 25

    def test_step_runs_one_event_at_a_time(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1, lambda: fired.append("a"))
        queue.schedule(1, lambda: fired.append("b"))
        queue.schedule(2, lambda: fired.append("c"))
        assert queue.step() is True
        assert fired == ["a"] and queue.now == 1 and queue.pending == 2
        assert queue.step() is True
        assert fired == ["a", "b"] and queue.pending == 1
        assert queue.step() is True
        assert fired == ["a", "b", "c"] and queue.now == 2
        assert queue.step() is False
        assert queue.executed == 3

    def test_callback_error_leaves_the_queue_consistent(self):
        queue = EventQueue()
        fired = []

        def boom():
            raise RuntimeError("boom")

        queue.schedule(1, lambda: fired.append("a"))
        queue.schedule(1, boom)
        queue.schedule(1, lambda: fired.append("b"))
        with pytest.raises(RuntimeError):
            queue.run()
        assert queue.executed == 2 and queue.pending == 1
        queue.run()
        assert fired == ["a", "b"]


class TestFastPath:
    def test_schedule_is_fire_and_forget(self):
        queue = EventQueue()
        assert queue.schedule(1, lambda: None) is None
        assert queue.schedule_at(5, lambda: None) is None

    def test_integer_delays_skip_rounding(self):
        queue = EventQueue()
        seen = []
        queue.schedule(3, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [3]

    def test_float_schedule_at_coerces_to_int_cycles(self):
        queue = EventQueue()
        seen = []
        queue.schedule_at(7.0, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [7] and seen[0].__class__ is int

    def test_bool_delay_is_not_mistaken_for_int_fast_path(self):
        # bool subclasses int; it must still schedule correctly
        queue = EventQueue()
        seen = []
        queue.schedule(True, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [1]


class ReferenceQueue:
    """Executable specification: one ``(time, seq, callback)`` heap entry
    per event, popped in tuple order."""

    def __init__(self) -> None:
        self.heap: list = []
        self.seq = 0
        self.now = 0
        self.executed = 0

    @property
    def pending(self) -> int:
        return len(self.heap)

    def schedule(self, delay, callback) -> None:
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time, callback) -> None:
        assert time >= self.now
        heappush(self.heap, (time, self.seq, callback))
        self.seq += 1

    def step(self) -> bool:
        if not self.heap:
            return False
        time, _, callback = heappop(self.heap)
        self.now = time
        self.executed += 1
        callback()
        return True

    def run(self, until=None, max_events=None) -> int:
        executed = 0
        while self.heap:
            if max_events is not None and executed >= max_events:
                break
            if until is not None and self.heap[0][0] > until:
                self.now = until
                break
            time, _, callback = heappop(self.heap)
            self.now = time
            executed += 1
            self.executed += 1
            callback()
        return self.now


#: (absolute?, delay) of one scheduling call; small delays force many
#: events into the same cycle, and 0 schedules into the running cycle
schedule_calls = st.tuples(st.booleans(), st.integers(min_value=0, max_value=4))
queue_ops = st.one_of(
    st.tuples(st.just("schedule"), schedule_calls),
    st.tuples(
        st.just("run"),
        st.tuples(
            st.none() | st.integers(min_value=0, max_value=12),
            st.none() | st.integers(min_value=0, max_value=6),
        ),
    ),
    st.tuples(st.just("step"), st.none()),
)


def drive(queue, spawns, ops):
    """Replay one schedule on ``queue``; returns the observation log.

    Event *i* (ids in scheduling order) schedules ``spawns[i]`` when it
    fires.  Every callback logs its id with the queue's ``now``,
    ``executed`` and ``pending``; every operation on the queue logs the same
    triple after it returns.
    """
    log: list = []
    ids = count()

    def add(absolute: bool, delay: int) -> None:
        event_id = next(ids)

        def fire() -> None:
            log.append(("event", event_id, queue.now, queue.executed, queue.pending))
            for call in spawns[event_id] if event_id < len(spawns) else ():
                add(*call)

        if absolute:
            queue.schedule_at(queue.now + delay, fire)
        else:
            queue.schedule(delay, fire)

    for op, arg in ops:
        if op == "schedule":
            add(*arg)
        elif op == "run":
            offset, max_events = arg
            until = None if offset is None else queue.now + offset
            log.append(("ran", queue.run(until=until, max_events=max_events)))
        else:
            log.append(("stepped", queue.step()))
        log.append((op, queue.now, queue.executed, queue.pending))
    queue.run()
    log.append(("drained", queue.now, queue.executed, queue.pending))
    return log


class TestReferenceOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        spawns=st.lists(st.lists(schedule_calls, max_size=3), max_size=40),
        ops=st.lists(queue_ops, min_size=1, max_size=30),
    )
    def test_matches_time_seq_heap(self, spawns, ops):
        assert drive(EventQueue(), spawns, ops) == drive(ReferenceQueue(), spawns, ops)
