"""Pluggable execution backends for the fleet orchestrator.

The orchestration stack is layered so *where* run units execute is a
swappable choice (DESIGN.md "Execution backends & budgets"):

* :class:`~repro.fleet.backends.base.RunPayload` — one unit as plain
  picklable data (run id, resolved spec dict, axes, seed);
* :class:`~repro.fleet.backends.base.ExecutionBackend` — the contract:
  a batch of payloads in, one result record per payload streamed back
  (plus :meth:`~repro.fleet.backends.base.ExecutionBackend.execute_stream`
  for live-queue dispatch and ``close()`` for worker reaping);
* :mod:`~repro.fleet.backends.serial` — in-process, sequential;
* :mod:`~repro.fleet.backends.local` — ``multiprocessing`` on this
  machine (managed per-unit processes when a wall-time budget must
  kill);
* :mod:`~repro.fleet.backends.pool` — persistent framed-protocol
  worker commands (``python -m repro.fleet.backends.worker --loop``)
  spawned once per fleet, sticky substrate-affinity dispatch;
* :mod:`~repro.fleet.backends.remote` — the pool spread over an
  ``execution.hosts`` inventory via ``worker_cmd`` templating, with
  least-loaded dispatch and failure-aware host quarantine.

All backends are record-equivalent: the same spec produces bit-for-bit
identical records (modulo the nondeterministic ``wall_time_s``) on any
of them, which ``tests/test_fleet_backends.py`` and the CI backend
matrix pin.
"""

from __future__ import annotations

from repro.errors import SpecError
from repro.fleet.backends.base import (
    ExecutionBackend,
    RunPayload,
    crash_record,
    timeout_record,
)
from repro.fleet.backends.local import LocalBackend
from repro.fleet.backends.pool import (
    PoolBackend,
    default_worker_cmd,
    resolve_worker_cmd,
)
from repro.fleet.backends.remote import RemoteBackend
from repro.fleet.backends.serial import SerialBackend

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "LocalBackend",
    "PoolBackend",
    "RemoteBackend",
    "RunPayload",
    "SerialBackend",
    "crash_record",
    "create_backend",
    "default_worker_cmd",
    "resolve_worker_cmd",
    "timeout_record",
]

#: Registry: ``execution.backend`` spec value -> implementation.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    SerialBackend.kind: SerialBackend,
    LocalBackend.kind: LocalBackend,
    PoolBackend.kind: PoolBackend,
    RemoteBackend.kind: RemoteBackend,
}


def create_backend(
    kind: str, workers: int = 1, execution=None
) -> ExecutionBackend:
    """Instantiate a registered backend by its spec name.

    ``execution`` (an :class:`~repro.fleet.spec.ExecutionSpec`) supplies
    the backend-specific knobs — ``worker_cmd`` for the pool, plus
    ``hosts`` and ``quarantine_after`` for the remote backend; the
    scalar backends ignore it.
    """
    cls = BACKENDS.get(kind)
    if cls is None:
        raise SpecError(
            f"unknown execution backend {kind!r}; "
            f"choose from {sorted(BACKENDS)}"
        )
    if cls is PoolBackend:
        worker_cmd = None
        if execution is not None and execution.worker_cmd:
            worker_cmd = resolve_worker_cmd(execution.worker_cmd)
        return PoolBackend(workers=workers, worker_cmd=worker_cmd)
    if cls is RemoteBackend:
        if execution is None or not execution.hosts:
            raise SpecError(
                "remote backend needs a non-empty host inventory "
                "(execution.hosts)"
            )
        return RemoteBackend(
            workers=workers,
            hosts=execution.hosts,
            worker_cmd=execution.worker_cmd,
            quarantine_after=execution.quarantine_after,
        )
    return cls(workers=workers)
