"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation.engine import EventQueue


class TestEventQueue:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        log = []
        queue.schedule(30, lambda t: log.append(("c", t)))
        queue.schedule(10, lambda t: log.append(("a", t)))
        queue.schedule(20, lambda t: log.append(("b", t)))
        queue.run_until(100)
        assert log == [("a", 10), ("b", 20), ("c", 30)]

    def test_same_time_insertion_order(self):
        queue = EventQueue()
        log = []
        for name in "abc":
            queue.schedule(5, lambda t, n=name: log.append(n))
        queue.run_until(5)
        assert log == ["a", "b", "c"]

    def test_run_until_boundary_inclusive(self):
        queue = EventQueue()
        log = []
        queue.schedule(10, lambda t: log.append(t))
        queue.schedule(11, lambda t: log.append(t))
        executed = queue.run_until(10)
        assert executed == 1 and log == [10]
        assert queue.now == 10
        queue.run_until(20)
        assert log == [10, 11]
        assert queue.now == 20

    def test_cancel_prevents_execution(self):
        queue = EventQueue()
        log = []
        timer = queue.schedule(10, lambda t: log.append("x"))
        timer.cancel()
        queue.run_until(20)
        assert log == []
        assert len(queue) == 0

    def test_scheduling_in_the_past_rejected(self):
        queue = EventQueue()
        queue.schedule(10, lambda t: queue.run_until)
        queue.run_until(10)
        with pytest.raises(SimulationError):
            queue.schedule(5, lambda t: None)

    def test_events_scheduled_during_run(self):
        queue = EventQueue()
        log = []

        def chain(t):
            log.append(t)
            if t < 30:
                queue.schedule(t + 10, chain)

        queue.schedule(10, chain)
        queue.run_until(100)
        assert log == [10, 20, 30]

    def test_run_all(self):
        queue = EventQueue()
        log = []
        queue.schedule(10, lambda t: log.append(t))
        queue.schedule(1000, lambda t: log.append(t))
        assert queue.run_all() == 2
        assert log == [10, 1000]

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        queue.schedule(10, lambda t: None)
        gone = queue.schedule(20, lambda t: None)
        gone.cancel()
        assert len(queue) == 1

    def test_len_tracks_live_entries_without_scanning(self):
        # Regression: __len__ is a live counter, not an O(n) heap scan.
        # Exercise every path that moves the count: schedule, cancel,
        # double-cancel, execution, and cancel-after-execution.
        queue = EventQueue()
        timers = [queue.schedule(10 * i, lambda t: None) for i in range(6)]
        assert len(queue) == 6
        timers[0].cancel()
        timers[0].cancel()  # double cancel must not decrement twice
        timers[1].cancel()
        assert len(queue) == 4
        queue.run_until(20)  # executes t=20 (t=0, t=10 were cancelled)
        assert len(queue) == 3
        timers[2].cancel()  # already executed: must not decrement
        assert len(queue) == 3
        queue.run_all()
        assert len(queue) == 0

    def test_cancel_of_popped_timer_never_undercounts(self):
        # Regression: once an entry is popped for execution it has already
        # left the live count; cancelling its timer at that point (e.g. an
        # actor cancelling its own wake-up from inside the wake-up action)
        # must not decrement again, or len() would drop below the true
        # number of live entries.
        queue = EventQueue()
        holder = {}
        other = queue.schedule(20, lambda t: None)

        def self_cancel(t):
            holder["timer"].cancel()  # popped: must not touch the count
            holder["timer"].cancel()  # nor on a double cancel
            assert len(queue) == 1  # only `other` is live

        holder["timer"] = queue.schedule(10, self_cancel)
        assert len(queue) == 2
        queue.run_until(15)
        assert len(queue) == 1
        other.cancel()
        assert len(queue) == 0

    def test_len_counts_events_scheduled_during_run(self):
        queue = EventQueue()
        queue.schedule(5, lambda t: queue.schedule(15, lambda t2: None))
        queue.run_until(10)
        assert len(queue) == 1
        queue.run_all()
        assert len(queue) == 0


# ---------------------------------------------------------------------------
# Property-based: the queue matches a sorted-event model
# ---------------------------------------------------------------------------


@hsettings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),  # fire time
            st.booleans(),  # cancelled?
        ),
        max_size=40,
    )
)
def test_queue_matches_sorted_model(entries):
    queue = EventQueue()
    fired = []
    expected = []
    for i, (time, cancelled) in enumerate(entries):
        timer = queue.schedule(time, lambda t, i=i: fired.append((t, i)))
        if cancelled:
            timer.cancel()
        else:
            expected.append((time, i))
    assert len(queue) == len(expected)
    queue.run_all()
    assert len(queue) == 0
    # Stable order: by time, ties by insertion sequence.
    expected.sort(key=lambda pair: (pair[0], pair[1]))
    assert fired == expected
