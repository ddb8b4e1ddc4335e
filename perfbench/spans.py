"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` wraps callables from outside the program (see
``layers.py``): every call becomes one span ``(name, start, end,
parent, op)`` kept in memory, and the self time of a span is its
duration minus the time its child spans cover.  Spans are written out
only when the run ends (:meth:`Tracer.dump`), so the traced run does no
I/O on the measured path.

Layers are span names up to their first ``:`` (``events:pop`` and
``events:schedule`` both belong to ``events``).  A layer's inclusive
time counts only its outermost spans, so nested calls inside one layer
(``reschedule`` calling ``schedule``) are not counted twice; self times
of all layers plus the ``unattributed`` self time of the op roots add
up to the roots' total duration.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Name of the root span wrapping one measured operation.
OP = "op"


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


class Tracer:
    """Records nested spans and counters of one process."""

    def __init__(self) -> None:
        #: Finished spans: [name, start, end, parent index, op id].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        # Open spans: [index, name, layer, start, child time].
        self._stack: list[list] = []
        self.op_id: object = None
        self._op_start = 0.0
        self._marked: set = set()

    # -- recording ----------------------------------------------------- #

    def enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        frame = [index, name, layer_of(name), time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        index, name, layer, start, child = frame
        duration = end - start
        record = self.spans[index]
        record[1] = start
        record[2] = end
        self.calls[name] += 1
        self.self_time[layer] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[4] += duration
            if parent[2] != layer:
                self.inclusive[layer] += duration
        else:
            self.inclusive[layer] += duration

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(result, args)`` may
        bump counters from the call's result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if after is not None:
                after(result, args)
            return result

        return traced

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    @contextmanager
    def op(self, op_id, name: str = OP):
        """Root span of one measured operation (a unit, a pass, a sweep)."""
        self.op_id = op_id
        self._op_start = time.perf_counter()
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)
            self.op_id = None

    def mark_once(self, name: str) -> None:
        """Count seconds since the op began, the first time only."""
        if (self.op_id, name) not in self._marked:
            self._marked.add((self.op_id, name))
            self.counts[name] += time.perf_counter() - self._op_start

    # -- reading ------------------------------------------------------- #

    def snapshot(self) -> dict:
        """Cumulative totals, to difference around one op."""
        return {
            "counts": Counter(self.counts),
            "calls": Counter(self.calls),
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
        }

    def dump(self, path: Path, first: int = 0) -> int:
        """Append spans ``first..`` to ``path`` as gzip'd JSON lines;
        return the index to continue from."""
        with gzip.open(path, "at", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans[first:]:
                handle.write(
                    json.dumps([name, round(start, 7), round(end, 7), parent, op])
                )
                handle.write("\n")
        return len(self.spans)


def loads_totals(text: str) -> dict:
    data = json.loads(text)
    data["counts"] = Counter(data["counts"])
    data["calls"] = Counter(data["calls"])
    return data


def diff(after: dict, before: dict) -> dict:
    """Per-op totals: ``after - before`` of two :meth:`Tracer.snapshot`."""
    out = {}
    for key in ("counts", "calls"):
        out[key] = Counter(after[key])
        out[key].subtract(before[key])
    for key in ("inclusive", "self"):
        out[key] = {
            name: value - before[key].get(name, 0.0)
            for name, value in after[key].items()
        }
    return out


def merge(totals: list[dict]) -> dict:
    """Sum several per-op or per-process totals."""
    out = {"counts": Counter(), "calls": Counter(), "inclusive": {}, "self": {}}
    for part in totals:
        out["counts"].update(part["counts"])
        out["calls"].update(part["calls"])
        for key in ("inclusive", "self"):
            for name, value in part[key].items():
                out[key][name] = out[key].get(name, 0.0) + value
    return out


def self_time_table(totals: dict, root: str = OP) -> list[tuple[str, float, float]]:
    """``(layer, self seconds, share)`` rows summing to the root spans'
    duration; the roots' own self time is the ``unattributed`` row."""
    selfs = dict(totals["self"])
    rows = [
        (layer, seconds)
        for layer, seconds in sorted(selfs.items(), key=lambda kv: -kv[1])
        if layer != root
    ]
    rows.append(("unattributed", selfs.get(root, 0.0)))
    whole = sum(seconds for _layer, seconds in rows) or 1.0
    return [(layer, seconds, seconds / whole) for layer, seconds in rows]
