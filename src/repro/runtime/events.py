"""Event queue: a heap of one-shot events plus a lane of wake countdowns.

Two stores share one clock and one tie order:

* **Heap events** (samples, trace dynamics, fault boundaries) sit in a
  binary heap of plain ``(time_s, priority, seq, handle)`` tuples, so
  heap comparisons run in C.  Cancellation is lazy: a cancelled entry
  stays in the heap and is skipped on pop, which keeps every operation
  O(log n).
* **Wakes** — each session's WAIT countdown (paper Sec. V-A) — sit in a
  lane of numpy arrays indexed by session id: the wake time (``inf``
  when none is armed) and sequence number of each session, plus the
  sessions' *freeze order*.  FREEZE (:meth:`EventQueue.freeze`) pauses
  every armed countdown with one vectorised ``max(t, now) + duration``
  — no heap push and no dead entry per shifted wake.  Numpy float64
  ``maximum`` and ``+`` are the same IEEE operations as Python's, so a
  wake frozen k times equals the left-to-right Python chain bit for bit.

Tie order.  Everything pops in ascending ``(time_s, priority, seq)``.
``seq`` comes from one counter shared by both stores, and wakes carry
priority :data:`WAKE_PRIORITY`.  A freeze stamps consecutive ``seq``
values on the shifted wakes in freeze order: the order in which
sessions first armed a wake, where :meth:`~EventQueue.cancel_wake`
gives up a session's place (its next wake goes last) and a popped wake
re-armed by its session keeps it.  That is the order in which cancelling
and re-pushing each wake one by one would stamp them, so every tie —
wake against wake, sample or arrival — resolves the same either way.
"""

from __future__ import annotations

import heapq
from typing import Any

import numpy as np

from repro.errors import SimulationError

#: Priority of every wake: at a shared instant faults (-1) and session
#: dynamics (0) pop first; wakes tie with samples (1) by ``seq``.
WAKE_PRIORITY = 1


class EventHandle:
    """A cancellable reference to one scheduled event."""

    __slots__ = ("kind", "payload", "priority", "cancelled")

    def __init__(self, kind: str, payload: Any, priority: int = 0):
        self.kind = kind
        self.payload = payload
        self.priority = priority
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        state = " (cancelled)" if self.cancelled else ""
        return f"EventHandle({self.kind}, {self.payload!r}){state}"


class EventQueue:
    """Time-ordered queue of :class:`EventHandle` items and session wakes."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        self._seq = 0
        self._now = 0.0
        # The wake lane, indexed by session id.
        self._wake_time = np.full(0, np.inf)
        self._wake_seq = np.zeros(0, dtype=np.int64)
        self._wake_member = np.zeros(0, dtype=bool)
        #: Member sessions in freeze order.
        self._wake_order = np.zeros(0, dtype=np.intp)

    @property
    def now(self) -> float:
        """Simulation time of the most recently popped event."""
        return self._now

    def __len__(self) -> int:
        live = sum(1 for entry in self._heap if not entry[3].cancelled)
        return live + int(np.count_nonzero(self._wake_time != np.inf))

    def _stamp(self, time_s: float, kind: str) -> int:
        """Validate ``time_s`` and draw the next sequence number."""
        if time_s < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule {kind!r} at {time_s:.6f}s in the past "
                f"(now={self._now:.6f}s)"
            )
        seq = self._seq
        self._seq = seq + 1
        return seq

    def schedule(
        self,
        time_s: float,
        kind: str,
        payload: Any = None,
        priority: int = 0,
    ) -> EventHandle:
        """Add an event; ``time_s`` must not precede the current time.

        Ties at one timestamp pop in ``(priority, insertion order)``:
        lower-priority-number events first, so a caller can guarantee an
        ordering between event classes independent of when each was
        scheduled.  The simulator pins fault transitions (priority -1)
        before session dynamics (0) before samples and wakes (1) at a
        shared instant — an arrival coinciding with an outage bootstraps
        against the already-masked substrate view.
        """
        seq = self._stamp(time_s, kind)
        handle = EventHandle(kind, payload, priority)
        heapq.heappush(self._heap, (time_s, priority, seq, handle))
        return handle

    def reschedule(self, handle: EventHandle, time_s: float) -> EventHandle:
        """Cancel ``handle`` and schedule an identical event at ``time_s``."""
        handle.cancel()
        return self.schedule(time_s, handle.kind, handle.payload, handle.priority)

    # ------------------------------------------------------------------ #
    # Wake lane                                                          #
    # ------------------------------------------------------------------ #

    def schedule_wake(self, sid: int, time_s: float) -> None:
        """Arm session ``sid``'s countdown to pop as a ``"wake"`` event
        (payload ``sid``) at ``time_s``, replacing any armed one.  A
        session new to the lane goes last in freeze order."""
        seq = self._stamp(time_s, "wake")
        if sid >= self._wake_time.size:
            self._grow(sid + 1)
        if not self._wake_member[sid]:
            self._wake_member[sid] = True
            self._wake_order = np.append(self._wake_order, sid)
        self._wake_time[sid] = time_s
        self._wake_seq[sid] = seq

    def cancel_wake(self, sid: int) -> None:
        """Disarm ``sid``'s countdown and give up its place in freeze
        order (no-op for a session without one)."""
        if not self.has_wake(sid):
            return
        self._wake_time[sid] = np.inf
        self._wake_member[sid] = False
        self._wake_order = self._wake_order[self._wake_order != sid]

    def has_wake(self, sid: int) -> bool:
        """Whether ``sid`` holds a place in the lane: from its first wake
        until :meth:`cancel_wake`, including between a wake popping and
        the session re-arming it."""
        return sid < self._wake_member.size and bool(self._wake_member[sid])

    def freeze(self, now: float, duration_s: float) -> None:
        """FREEZE: shift every armed wake to ``max(t, now) + duration_s``,
        stamping fresh sequence numbers in freeze order."""
        times = self._wake_time
        armed = self._wake_order[times[self._wake_order] != np.inf]
        if not armed.size:
            return
        times[armed] = np.maximum(times[armed], now) + duration_s
        self._wake_seq[armed] = np.arange(self._seq, self._seq + armed.size)
        self._seq += int(armed.size)

    def _grow(self, size: int) -> None:
        extra = max(size, 2 * self._wake_time.size) - self._wake_time.size
        self._wake_time = np.append(self._wake_time, np.full(extra, np.inf))
        self._wake_seq = np.append(self._wake_seq, np.zeros(extra, dtype=np.int64))
        self._wake_member = np.append(self._wake_member, np.zeros(extra, dtype=bool))

    def _next_wake(self) -> tuple[float, int, int] | None:
        """``(time_s, seq, sid)`` of the earliest armed wake (ties at
        one time go to the lowest ``seq``), or None."""
        times = self._wake_time
        if not times.size:
            return None
        sid = int(times.argmin())
        time_s = times[sid]
        if time_s == np.inf:
            return None
        ties = np.flatnonzero(times == time_s)
        if ties.size > 1:
            sid = int(ties[self._wake_seq[ties].argmin()])
        return float(time_s), int(self._wake_seq[sid]), sid

    # ------------------------------------------------------------------ #
    # Consumption                                                        #
    # ------------------------------------------------------------------ #

    def _live_top(self) -> tuple[float, int, int, EventHandle] | None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def pop(self) -> tuple[float, EventHandle] | None:
        """Next live event as ``(time, handle)``, or None when drained."""
        top = self._live_top()
        wake = self._next_wake()
        if wake is not None:
            time_s, seq, sid = wake
            if top is None or (time_s, WAKE_PRIORITY, seq) < top[:3]:
                self._wake_time[sid] = np.inf
                self._now = time_s
                return time_s, EventHandle("wake", sid, WAKE_PRIORITY)
        if top is None:
            return None
        heapq.heappop(self._heap)
        self._now = top[0]
        return top[0], top[3]

    def peek_time(self) -> float | None:
        """Timestamp of the next live event without popping it."""
        top = self._live_top()
        wake = self._next_wake()
        times = [entry[0] for entry in (top, wake) if entry is not None]
        return min(times) if times else None
