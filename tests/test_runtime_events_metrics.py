"""Tests for repro.runtime.events and repro.runtime.metrics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.runtime.events import WAKE_PRIORITY, EventQueue
from repro.runtime.metrics import TimeSeriesRecorder


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.schedule(3.0, "c")
        queue.schedule(1.0, "a")
        queue.schedule(2.0, "b")
        kinds = [queue.pop()[1].kind for _ in range(3)]
        assert kinds == ["a", "b", "c"]

    def test_fifo_for_equal_times(self):
        queue = EventQueue()
        queue.schedule(1.0, "first")
        queue.schedule(1.0, "second")
        assert queue.pop()[1].kind == "first"
        assert queue.pop()[1].kind == "second"

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        handle = queue.schedule(1.0, "dead")
        queue.schedule(2.0, "alive")
        handle.cancel()
        time_s, event = queue.pop()
        assert event.kind == "alive"
        assert time_s == 2.0

    def test_reschedule_moves_event(self):
        queue = EventQueue()
        handle = queue.schedule(1.0, "wake", payload=7)
        queue.schedule(2.0, "sample")
        queue.reschedule(handle, 3.0)
        kinds = [queue.pop()[1].kind for _ in range(2)]
        assert kinds == ["sample", "wake"]

    def test_now_advances(self):
        queue = EventQueue()
        queue.schedule(5.0, "x")
        assert queue.now == 0.0
        queue.pop()
        assert queue.now == 5.0

    def test_cannot_schedule_in_past(self):
        queue = EventQueue()
        queue.schedule(5.0, "x")
        queue.pop()
        with pytest.raises(SimulationError):
            queue.schedule(4.0, "y")

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        handle = queue.schedule(1.0, "a")
        queue.schedule(2.0, "b")
        handle.cancel()
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        handle = queue.schedule(2.0, "a")
        queue.schedule(5.0, "b")
        assert queue.peek_time() == 2.0
        handle.cancel()
        assert queue.peek_time() == 5.0

    def test_drained_queue_returns_none(self):
        assert EventQueue().pop() is None

    def test_priority_orders_ties(self):
        """At one instant: faults (-1) before dynamics (0) before
        samples/wakes (1) — the pinned tie order of the simulator."""
        queue = EventQueue()
        queue.schedule(5.0, "sample", priority=1)
        queue.schedule(5.0, "arrival", priority=0)
        queue.schedule(5.0, "fault", priority=-1)
        kinds = [queue.pop()[1].kind for _ in range(3)]
        assert kinds == ["fault", "arrival", "sample"]

    def test_tie_order_independent_of_insertion_order(self):
        """Priority dominates insertion order, so the pop sequence at a
        shared timestamp never depends on who scheduled first."""
        import itertools

        events = [("fault", -1), ("arrival", 0), ("wake", 1)]
        for permutation in itertools.permutations(events):
            queue = EventQueue()
            for kind, priority in permutation:
                queue.schedule(2.0, kind, priority=priority)
            kinds = [queue.pop()[1].kind for _ in range(3)]
            assert kinds == ["fault", "arrival", "wake"], permutation

    def test_fifo_within_one_priority(self):
        queue = EventQueue()
        queue.schedule(1.0, "fault-a", priority=-1)
        queue.schedule(1.0, "fault-b", priority=-1)
        assert queue.pop()[1].kind == "fault-a"
        assert queue.pop()[1].kind == "fault-b"

    def test_reschedule_preserves_priority(self):
        queue = EventQueue()
        handle = queue.schedule(1.0, "fault", priority=-1)
        queue.schedule(3.0, "sample", priority=1)
        moved = queue.reschedule(handle, 3.0)
        assert moved.priority == -1
        assert queue.pop()[1].kind == "fault"


class NaiveQueue:
    """The pre-lane semantics, kept deliberately simple: every event,
    wakes included, is one list entry; arming a wake cancels the old one
    and pushes a fresh entry (a fresh ``seq``); FREEZE re-pushes every
    armed wake in the order sessions first armed one (dict order), and
    cancelling a session's wake forgets its place.  Pop scans for the
    smallest ``(time, priority, seq)``."""

    def __init__(self):
        self.entries = []  # [time, priority, seq, kind, payload, live]
        self.seq = 0
        self.wakes = {}  # sid -> its latest entry, in freeze order

    def schedule(self, time_s, kind, payload, priority):
        entry = [time_s, priority, self.seq, kind, payload, True]
        self.seq += 1
        self.entries.append(entry)
        return entry

    def schedule_wake(self, sid, time_s):
        old = self.wakes.get(sid)
        if old is not None:
            old[5] = False
        self.wakes[sid] = self.schedule(time_s, "wake", sid, WAKE_PRIORITY)

    def cancel_wake(self, sid):
        old = self.wakes.pop(sid, None)
        if old is not None:
            old[5] = False

    def freeze(self, now, duration):
        for sid, entry in list(self.wakes.items()):
            if not entry[5]:
                continue  # popped and not re-armed yet
            entry[5] = False
            shifted = max(entry[0], now) + duration
            self.wakes[sid] = self.schedule(shifted, "wake", sid, WAKE_PRIORITY)

    def pop(self):
        live = [entry for entry in self.entries if entry[5]]
        if not live:
            return None
        entry = min(live, key=lambda e: (e[0], e[1], e[2]))
        entry[5] = False
        return entry[0], entry[3], entry[4]


#: Offsets and durations are multiples of 0.25 (exact in binary) and
#: there are only three sessions, so equal-time ties between events,
#: samples and wakes — and re-armed, cancelled and re-arrived wakes —
#: are frequent.
_OFFSETS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
_SIDS = st.integers(min_value=0, max_value=2)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("event"), _OFFSETS, st.sampled_from([-1, 0, 1])),
        st.tuples(st.just("wake"), _SIDS, _OFFSETS),
        st.tuples(st.just("freeze"), st.sampled_from([0.0, 0.25, 0.5])),
        st.tuples(st.just("cancel_wake"), _SIDS),
        st.tuples(st.just("cancel_event"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("pop")),
    ),
    max_size=80,
)


class TestWakeLane:
    @settings(max_examples=500, deadline=None)
    @given(ops=_OPS)
    @example(  # a cancelled session re-arms last in freeze order
        ops=[("wake", 0, 1.0), ("wake", 1, 1.0), ("cancel_wake", 0),
             ("wake", 0, 1.0), ("freeze", 0.25), ("pop",), ("pop",)]
    )
    def test_pop_order_matches_naive_model(self, ops):
        queue, model = EventQueue(), NaiveQueue()
        events = []
        popped, expected = [], []
        for op in ops:
            name = op[0]
            if name == "event":
                _, offset, priority = op
                kind = f"e{len(events)}"
                events.append((
                    queue.schedule(queue.now + offset, kind, len(events), priority),
                    model.schedule(queue.now + offset, kind, len(events), priority),
                ))
            elif name == "wake":
                _, sid, offset = op
                queue.schedule_wake(sid, queue.now + offset)
                model.schedule_wake(sid, queue.now + offset)
            elif name == "freeze":
                queue.freeze(queue.now, op[1])
                model.freeze(queue.now, op[1])
            elif name == "cancel_wake":
                queue.cancel_wake(op[1])
                model.cancel_wake(op[1])
            elif name == "cancel_event":
                if op[1] < len(events):
                    handle, entry = events[op[1]]
                    handle.cancel()
                    entry[5] = False
            else:
                got = queue.pop()
                popped.append(None if got is None else (got[0], got[1].kind, got[1].payload))
                expected.append(model.pop())
        while (got := queue.pop()) is not None:
            popped.append((got[0], got[1].kind, got[1].payload))
        while (want := model.pop()) is not None:
            expected.append(want)
        assert popped == expected

    def test_frozen_wake_equals_python_chain(self):
        """k freezes leave a wake at exactly the left-to-right Python
        chain ``w = max(w, now) + d``, bit for bit."""
        rng = np.random.default_rng(5)
        for _trial in range(20):
            queue = EventQueue()
            wakes = {sid: float(rng.exponential(10.0)) for sid in range(6)}
            for sid, time_s in wakes.items():
                queue.schedule_wake(sid, time_s)
            now = 0.0
            for _k in range(int(rng.integers(1, 40))):
                now += float(rng.exponential(0.3))
                duration = float(rng.uniform(0.01, 0.1))
                queue.freeze(now, duration)
                for sid in wakes:
                    wakes[sid] = max(wakes[sid], now) + duration
            drained = {}
            while (popped := queue.pop()) is not None:
                drained[popped[1].payload] = popped[0]
            assert drained == wakes
            assert all(type(t) is float for t in drained.values())

    def test_wake_pops_as_wake_event(self):
        queue = EventQueue()
        queue.schedule_wake(3, 2.0)
        assert len(queue) == 1 and queue.peek_time() == 2.0
        time_s, handle = queue.pop()
        assert (time_s, handle.kind, handle.payload, handle.priority) == (
            2.0, "wake", 3, WAKE_PRIORITY
        )
        assert queue.now == 2.0 and len(queue) == 0

    def test_wake_ties_with_sample_by_insertion(self):
        queue = EventQueue()
        queue.schedule(1.0, "sample", priority=1)
        queue.schedule_wake(0, 1.0)
        queue.schedule(1.0, "arrival", priority=0)
        kinds = [queue.pop()[1].kind for _ in range(3)]
        assert kinds == ["arrival", "sample", "wake"]

    def test_freeze_restamps_in_first_armed_order(self):
        """After a freeze, equal-time wakes pop in the order their
        sessions first armed a wake, not by sid or by last arming."""
        queue = EventQueue()
        for sid in (2, 0, 1):
            queue.schedule_wake(sid, 1.0)
        queue.schedule_wake(2, 1.0)  # re-arming keeps sid 2 first
        queue.freeze(0.0, 0.5)
        assert [queue.pop()[1].payload for _ in range(3)] == [2, 0, 1]

    def test_cancel_wake_forgets_place(self):
        queue = EventQueue()
        for sid in (0, 1):
            queue.schedule_wake(sid, 1.0)
        queue.cancel_wake(0)
        assert not queue.has_wake(0) and queue.has_wake(1)
        queue.schedule_wake(0, 1.0)
        queue.freeze(0.0, 0.5)
        assert [queue.pop()[1].payload for _ in range(2)] == [1, 0]
        queue.cancel_wake(7)  # never armed: no-op
        assert queue.pop() is None

    def test_popped_wake_keeps_place_until_cancelled(self):
        queue = EventQueue()
        queue.schedule_wake(0, 1.0)
        queue.pop()
        assert queue.has_wake(0) and len(queue) == 0
        queue.cancel_wake(0)
        assert not queue.has_wake(0)

    def test_wake_in_past_rejected(self):
        queue = EventQueue()
        queue.schedule(5.0, "x")
        queue.pop()
        with pytest.raises(SimulationError):
            queue.schedule_wake(0, 4.0)

    def test_freeze_pushes_nothing_onto_the_heap(self):
        queue = EventQueue()
        for sid in range(50):
            queue.schedule_wake(sid, 1.0 + sid)
        for _ in range(10):
            queue.freeze(0.5, 0.05)
        assert queue._heap == []
        assert len(queue) == 50


class TestTimeSeriesRecorder:
    def test_round_trip(self):
        recorder = TimeSeriesRecorder()
        recorder.record("traffic", 0.0, 10.0)
        recorder.record("traffic", 1.0, 12.0)
        times, values = recorder.series("traffic")
        assert list(times) == [0.0, 1.0]
        assert list(values) == [10.0, 12.0]

    def test_unknown_series_raises(self):
        with pytest.raises(SimulationError):
            TimeSeriesRecorder().series("nope")

    def test_non_monotonic_time_rejected(self):
        recorder = TimeSeriesRecorder()
        recorder.record("x", 5.0, 1.0)
        with pytest.raises(SimulationError):
            recorder.record("x", 4.0, 2.0)

    def test_last_and_mean_after(self):
        recorder = TimeSeriesRecorder()
        for t, v in [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]:
            recorder.record("x", t, v)
        assert recorder.last("x") == 5.0
        assert recorder.mean_after("x", 1.0) == 4.0

    def test_mean_after_past_end_raises(self):
        recorder = TimeSeriesRecorder()
        recorder.record("x", 0.0, 1.0)
        with pytest.raises(SimulationError):
            recorder.mean_after("x", 10.0)

    def test_names_and_contains(self):
        recorder = TimeSeriesRecorder()
        recorder.record("b", 0.0, 0.0)
        recorder.record("a", 0.0, 0.0)
        assert recorder.names == ("a", "b")
        assert "a" in recorder and "c" not in recorder
