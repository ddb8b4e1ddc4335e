"""Local multiprocessing backend.

Without a budget this runs serial in-process for ``workers <= 1`` (or a
single payload),
otherwise a ``multiprocessing.Pool`` streaming records back through
``imap_unordered``.  Pool workers live for the whole batch, so the
process-local substrate cache (see :mod:`repro.fleet.compile`) warms
across same-substrate units.  A worker dying *hard* (segfault, OOM
kill — Python exceptions are caught worker-side) loses its in-flight
task and stalls the batch.  Set a budget (managed mode below) or use
the pool backend when crash detection matters.

With a per-unit budget the pool cannot help — a pool task can be
neither timed nor killed individually — so the backend switches to
*managed* mode: one short-lived ``multiprocessing.Process`` per unit
(at most ``workers`` concurrent), each reporting through a shared
queue.  Over-deadline processes are terminated and recorded as
``"timeout"``; processes that die without reporting (killed, crashed
interpreter) are recorded as ``"crashed"`` for the scheduler to retry.
Managed units pay cold caches — budgets trade throughput for bounded
wall time.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from collections import deque
from typing import Iterator, Sequence

import repro.telemetry as tele
from repro.fleet.backends.base import (
    ExecutionBackend,
    RunPayload,
    crash_record,
    timeout_record,
)

#: Seconds a dead worker's record may still be in queue transit before
#: the unit is declared crashed (the feeder thread races process exit).
_DRAIN_GRACE_S = 0.5

#: Queue poll interval of the managed loop.
_POLL_S = 0.05


def _pool_execute(payload: RunPayload) -> dict:
    """Pool worker entry (top-level so it pickles)."""
    return payload.execute()


def _managed_worker(
    results: multiprocessing.Queue, key: int, payload: RunPayload
) -> None:
    """Managed-mode child entry: run one unit, report, exit."""
    results.put((key, payload.execute()))


class LocalBackend(ExecutionBackend):
    """Multiprocessing on this machine (pooled, or managed when budgeted)."""

    kind = "local"

    def execute(
        self,
        payloads: Sequence[RunPayload],
        timeout_s: float | None = None,
    ) -> Iterator[dict]:
        """Dispatch via the legacy pool, or managed processes if budgeted."""
        payloads = list(payloads)
        if timeout_s:
            yield from self._execute_managed(payloads, timeout_s)
            return
        if self.workers <= 1 or len(payloads) <= 1:
            for payload in payloads:
                yield payload.execute()
            return
        workers = min(self.workers, len(payloads))
        with multiprocessing.Pool(processes=workers) as pool:
            yield from pool.imap_unordered(_pool_execute, payloads)

    def _execute_managed(
        self, payloads: list[RunPayload], timeout_s: float
    ) -> Iterator[dict]:
        """One process per unit, hard deadlines, crash detection."""
        workers = max(1, min(self.workers or 1, len(payloads)))
        results: multiprocessing.Queue = multiprocessing.Queue()
        pending = deque(enumerate(payloads))
        #: key -> [process, payload, deadline, dead_since]
        active: dict[int, list] = {}
        batch_start = time.monotonic()
        try:
            while pending or active:
                while pending and len(active) < workers:
                    key, payload = pending.popleft()
                    # Queue wait: how long the unit waited for a slot.
                    tele.count(
                        "backend.queue_wait_s",
                        time.monotonic() - batch_start,
                    )
                    process = multiprocessing.Process(
                        target=_managed_worker,
                        args=(results, key, payload),
                        daemon=True,
                    )
                    process.start()
                    active[key] = [
                        process,
                        payload,
                        time.monotonic() + timeout_s,
                        None,
                    ]
                try:
                    key, record = results.get(timeout=_POLL_S)
                except queue_module.Empty:
                    pass
                else:
                    entry = active.pop(key, None)
                    if entry is None:
                        # The unit was already resolved (a record landing
                        # just after its deadline fired): exactly one
                        # record per payload, so drop the late arrival.
                        continue
                    entry[0].join()
                    yield record
                    continue
                now = time.monotonic()
                for key in list(active):
                    process, payload, deadline, dead_since = active[key]
                    if process.is_alive():
                        if now >= deadline:
                            process.terminate()
                            process.join()
                            active.pop(key)
                            yield timeout_record(payload, timeout_s, timeout_s)
                    elif dead_since is None:
                        # Dead without a record *yet* — its queue write
                        # may still be in transit; give it a grace
                        # window before declaring a crash.
                        active[key][3] = now
                    elif now - dead_since >= _DRAIN_GRACE_S:
                        active.pop(key)
                        process.join()
                        yield crash_record(
                            payload,
                            f"worker process exited with code "
                            f"{process.exitcode} before reporting a record",
                            min(timeout_s, now - (deadline - timeout_s)),
                        )
        finally:
            for process, *_ in active.values():
                process.terminate()
                process.join()
