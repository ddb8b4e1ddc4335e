"""Host speed reference: a fixed CPU burst timed between a run's ops.

On a shared VM the host's speed drifts by up to ~3x over minutes, and
every op of one run drifts with it, so no median over a run removes
it: the gated timings of runs a few minutes apart differed by more
than any bound allows.  A timed run therefore calls
:meth:`Reference.sample` before its first op, after every op and after
every set-up probe, and divides its timings by the host slowdown over
the run (:meth:`Reference.factor`: the median burst over
:data:`NOMINAL_S`).  The gated timings read as seconds on a host where
one burst takes :data:`NOMINAL_S`.

The burst is fixed code of this directory that touches nothing of the
program, so a change to the program moves the ops and not the bursts.
It mixes what the program's hot paths do: interpreter arithmetic,
numpy over arrays the size of a ``huge_conference`` flow table, a heap
of tuples, small-object churn and pointer chasing over a working set
larger than the caches.  On a 2-vCPU VM (Python 3.11), over eight
minutes of alternating ``sim_huge`` units and bursts of this mix (about
twice as long), the medians of eight units drifted with an IQR /
median of 0.15-0.20, and of 0.05-0.09 once divided by the bursts
around them.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

import numpy as np

#: Seconds one burst takes on the reference host: the scale of every
#: scaled timing.  A round figure below the run medians of 0.27-0.45 s
#: seen on a busy 2-vCPU Xeon VM (Python 3.11, numpy 2.4).
NOMINAL_S = 0.25
#: Bursts per :meth:`Reference.sample`.
BURSTS_PER_SAMPLE = 2

_FLOWS = 90_000
_OBJECTS = 300_000


class _Node:
    __slots__ = ("key", "value", "link")

    def __init__(self, key, value) -> None:
        self.key = key
        self.value = value
        self.link = None


class Reference:
    """The burst's fixed inputs and every burst timed so far."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20150701)
        self._a = rng.random(_FLOWS)
        self._b = rng.random(_FLOWS)
        self._index = rng.integers(0, 2000, _FLOWS)
        self._table = rng.random(2000)
        self._heap = rng.random(50_000).tolist()
        order = random.Random(7)
        self._nodes = [_Node(i, float(i)) for i in range(_OBJECTS)]
        self._walk = list(range(_OBJECTS))
        order.shuffle(self._walk)
        #: Seconds of every burst, in order.
        self.bursts: list[float] = []

    def _work(self) -> float:
        acc = 0
        for i in range(200_000):
            acc += i * i
        total = float(acc % 7)
        for _ in range(60):
            total += float((self._table[self._index] + self._a * self._b).sum())
        heap = [(value, i) for i, value in enumerate(self._heap)]
        heapq.heapify(heap)
        for i in range(30_000):
            heapq.heapreplace(heap, (heap[0][0] + 0.5, i))
        live = {}
        for i in range(60_000):
            node = _Node(i, i * 0.5)
            live[i % 5000] = node
            node.link = (i, node.value)
        nodes = self._nodes
        for j in self._walk[:150_000]:
            total += nodes[j].value
        return total

    def sample(self) -> None:
        """Time :data:`BURSTS_PER_SAMPLE` bursts, collector off (the
        program's garbage is not the host's speed)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(BURSTS_PER_SAMPLE):
                started = time.perf_counter()
                self._work()
                self.bursts.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Host slowdown over the run: the median burst over
        :data:`NOMINAL_S`."""
        return statistics.median(self.bursts) / NOMINAL_S
