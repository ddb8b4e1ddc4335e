"""Pool backend: persistent framed-protocol workers, spawned once.

Spawning a worker costs one interpreter start + ``repro`` import +
substrate synthesis; paid per *unit*, that overhead would dominate a
sweep of short units.  The pool backend spawns ``workers`` loop workers
(``python -m repro.fleet.backends.worker --loop``) once per fleet and
streams many length-prefixed frames over each worker's stdin/stdout
(pickled payload in, JSON record out — see
:mod:`repro.fleet.backends.worker` for the framing), so startup is paid
once and each worker's in-process substrate cache survives between
units.  Because a worker is a plain command, pointing ``worker_cmd`` at
``ssh host python -m ...`` or ``docker run ...`` moves it elsewhere
without touching the orchestration layers (the remote backend).

Dispatch is *sticky by substrate affinity*: every payload carries the
scheduler's :func:`~repro.fleet.scheduler.substrate_affinity` key, and
the pool routes same-key payloads to the worker that served the key
last, maximizing warm-cache hits (``pool.affinity_hits`` /
``pool.units`` telemetry counters).  When every pending key belongs to
a busy worker, an idle worker steals the oldest payload rather than
idling — stickiness is a cache heuristic, never a scheduling barrier.

Over-deadline workers are killed and their unit recorded
``"timeout"``; a worker that closes its stream or emits an unreadable
frame yields a ``"crashed"`` record (with exit code + stderr excerpt)
for the scheduler to retry, and the worker is respawned in place.
Worker stderr is spooled to an unlinked temp file rather than a pipe,
so a noisy worker can never deadlock against the dispatcher.  The backend holds OS resources, so it
must be closed — the scheduler context-manages every backend it
creates, including on error paths.
"""

from __future__ import annotations

import json
import os
import pickle
import select
import shlex
import subprocess
import sys
import tempfile
import time
from collections import deque
from pathlib import Path
from typing import IO, Iterator, Sequence

import repro.telemetry as tele
from repro.errors import SpecError
from repro.fleet.backends.base import (
    ExecutionBackend,
    RunPayload,
    crash_record,
    timeout_record,
)
from repro.fleet.backends.worker import FRAME_HEADER_LEN, MAX_FRAME_LEN

#: Select timeout cap when no unit deadline is nearer (keeps the loop
#: responsive to worker death even on unbudgeted fleets).
_WAIT_CAP_S = 1.0

#: Characters of stderr quoted in crash diagnostics.
_STDERR_EXCERPT = 400


def default_worker_cmd() -> list[str]:
    """The bundled loop worker under this interpreter."""
    return [sys.executable, "-m", "repro.fleet.backends.worker", "--loop"]


def _worker_env() -> dict[str, str]:
    """Child environment with the ``repro`` package made importable.

    ``PYTHONPATH=src`` style relative entries break when the fleet runs
    from another working directory, so the absolute directory holding
    the installed/checked-out ``repro`` package is prepended.
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    entries = [package_root] + [p for p in existing.split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(entries))
    return env


def resolve_worker_cmd(template: str, host: str = "localhost") -> list[str]:
    """A ``worker_cmd`` template rendered into an argv list.

    Empty templates resolve to the bundled loop worker under the
    current interpreter; ``{host}`` is substituted (``ssh {host}
    python -m repro.fleet.backends.worker --loop`` is the canonical
    remote shape).
    """
    if not template:
        return default_worker_cmd()
    try:
        rendered = template.format(host=host)
    except (KeyError, IndexError) as exc:
        raise SpecError(
            f"execution.worker_cmd template {template!r} is invalid: "
            f"only {{host}} may be substituted ({exc!r})"
        ) from None
    argv = shlex.split(rendered)
    if not argv:
        raise SpecError(
            f"execution.worker_cmd template {template!r} renders to an "
            f"empty command"
        )
    return argv


class _LoopWorker:
    """One persistent framed-protocol worker process."""

    def __init__(self, index: int, cmd: Sequence[str], host: str = "") -> None:
        self.index = index
        self.cmd = list(cmd)
        #: Remote-backend host label; "" on the local pool.
        self.host = host
        self.process: subprocess.Popen | None = None
        self.err: IO[bytes] | None = None
        self.buffer = bytearray()
        self.inflight: RunPayload | None = None
        self.sent_at = 0.0
        self.deadline: float | None = None

    def spawn(self) -> None:
        """Start (or restart) the worker process."""
        self.close()
        self.err = tempfile.TemporaryFile()
        self.process = subprocess.Popen(
            self.cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.err,
            env=_worker_env(),
        )
        self.buffer.clear()

    def alive(self) -> bool:
        """True while the worker process is running."""
        return self.process is not None and self.process.poll() is None

    def fileno(self) -> int:
        """The worker's stdout fd (what the dispatch loop selects on)."""
        return self.process.stdout.fileno()

    def send(self, payload: RunPayload, timeout_s: float | None) -> None:
        """Frame one payload onto the worker's stdin.

        Write failures are swallowed: a dead worker's stdout reads EOF,
        so the dispatch loop classifies the crash with the exit code
        and stderr in hand instead of guessing here.
        """
        self.inflight = payload
        self.sent_at = time.monotonic()
        self.deadline = self.sent_at + timeout_s if timeout_s else None
        frame = pickle.dumps(payload.to_wire())
        try:
            stdin = self.process.stdin
            stdin.write(len(frame).to_bytes(FRAME_HEADER_LEN, "big"))
            stdin.write(frame)
            stdin.flush()
        except (BrokenPipeError, OSError):
            pass

    def take_frame(self) -> bytes | None:
        """Pop one complete frame from the receive buffer, if any.

        Raises ``EOFError`` when the header announces an impossible
        length — the stream is desynced and the worker must respawn.
        """
        if len(self.buffer) < FRAME_HEADER_LEN:
            return None
        length = int.from_bytes(self.buffer[:FRAME_HEADER_LEN], "big")
        if length > MAX_FRAME_LEN:
            raise EOFError(
                f"frame header announces {length} bytes; stream desynced"
            )
        if len(self.buffer) < FRAME_HEADER_LEN + length:
            return None
        frame = bytes(self.buffer[FRAME_HEADER_LEN:FRAME_HEADER_LEN + length])
        del self.buffer[:FRAME_HEADER_LEN + length]
        return frame

    def stderr_excerpt(self) -> str:
        """Tail of the worker's spooled stderr, for crash diagnostics."""
        if self.err is None:
            return ""
        self.err.seek(0)
        text = self.err.read().decode("utf-8", "replace")
        return text.strip()[-_STDERR_EXCERPT:]

    def close(self) -> None:
        """Kill the process (if any) and release its resources."""
        if self.process is not None:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
            self.process.stdin.close()
            self.process.stdout.close()
            self.process = None
        if self.err is not None:
            self.err.close()
            self.err = None
        self.buffer.clear()


class PoolBackend(ExecutionBackend):
    """Persistent worker pool with sticky substrate-affinity dispatch."""

    kind = "pool"

    def __init__(
        self,
        workers: int = 1,
        worker_cmd: Sequence[str] | None = None,
    ) -> None:
        super().__init__(workers=workers)
        self.worker_cmd = list(worker_cmd) if worker_cmd else default_worker_cmd()
        self._pool: list[_LoopWorker] = []
        #: Sticky routing: affinity key -> worker index that served it
        #: last.  Persists across batches/rungs for the fleet lifetime.
        self._affinity: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Worker lifecycle (the hooks the remote backend specializes)        #
    # ------------------------------------------------------------------ #

    def _make_workers(self) -> list[_LoopWorker]:
        """The pool's worker slots (not yet spawned)."""
        return [
            _LoopWorker(index, self.worker_cmd)
            for index in range(max(1, self.workers))
        ]

    def _usable(self, worker: _LoopWorker) -> bool:
        """Whether the slot may run units (remote: host not quarantined)."""
        return True

    def _stalled_detail(self) -> str:
        """Crash-record detail when no usable worker slot remains."""
        return "no usable pool workers remain"

    def _after_record(self, worker: _LoopWorker, record: dict) -> None:
        """Bookkeeping after a worker round-trips a record."""

    def _after_crash(
        self, worker: _LoopWorker
    ) -> tuple[bool, list[_LoopWorker]]:
        """Post-crash policy: (respawn this slot?, extra drained slots)."""
        return True, []

    def _idle_order(
        self, idle: list[_LoopWorker]
    ) -> list[_LoopWorker]:
        """Dispatch order over idle workers (remote: least-loaded host)."""
        return idle

    def _spawn(self, worker: _LoopWorker) -> None:
        try:
            worker.spawn()
        except OSError as exc:
            raise SpecError(
                f"could not spawn worker command "
                f"{' '.join(worker.cmd)!r}: {exc}"
            ) from exc
        tele.count(f"{self.kind}.spawns")

    def _ensure_pool(self) -> None:
        if not self._pool:
            self._pool = self._make_workers()
        for worker in self._pool:
            if self._usable(worker) and worker.process is None:
                self._spawn(worker)

    def close(self) -> None:
        """Reap every pool worker; the pool respawns if reused."""
        for worker in self._pool:
            worker.close()
        self._pool = []

    # ------------------------------------------------------------------ #
    # Dispatch                                                           #
    # ------------------------------------------------------------------ #

    def _pick(
        self, worker: _LoopWorker, source: "deque[RunPayload]"
    ) -> RunPayload | None:
        """Sticky pick: owned key first, unclaimed key next, then steal."""
        claim = None
        for i, payload in enumerate(source):
            owner = self._affinity.get(payload.affinity)
            if owner == worker.index:
                tele.count("pool.affinity_hits")
                del source[i]
                return payload
            if claim is None and owner is None:
                claim = i
        if claim is None:
            # Every pending key is owned by another worker; steal the
            # oldest payload rather than idling (ownership unchanged).
            claim = 0
        else:
            self._affinity[source[claim].affinity] = worker.index
        payload = source[claim]
        del source[claim]
        return payload

    def execute(
        self,
        payloads: Sequence[RunPayload],
        timeout_s: float | None = None,
    ) -> Iterator[dict]:
        """Stream a fixed batch through the persistent pool."""
        yield from self.execute_stream(deque(payloads), timeout_s)

    def execute_stream(
        self,
        source: "deque[RunPayload]",
        timeout_s: float | None = None,
    ) -> Iterator[dict]:
        """Feed workers from a live queue as they idle; yield records.

        The caller may append to ``source`` between yielded records
        (crash retries, halving promotions); the stream ends when the
        queue is empty and no unit is in flight.
        """
        self._ensure_pool()
        batch_start = time.monotonic()
        while True:
            if not any(self._usable(w) for w in self._pool):
                while source:
                    yield crash_record(
                        source.popleft(), self._stalled_detail(), 0.0
                    )
            else:
                idle = [
                    w
                    for w in self._pool
                    if self._usable(w) and w.inflight is None
                ]
                for worker in self._idle_order(idle):
                    if not source:
                        break
                    payload = self._pick(worker, source)
                    if payload is None:
                        continue
                    if not worker.alive():
                        self._spawn(worker)
                    tele.count(
                        "backend.queue_wait_s",
                        time.monotonic() - batch_start,
                    )
                    tele.count(f"{self.kind}.units")
                    if worker.host:
                        tele.count(f"remote.host.{worker.host}.units")
                    worker.send(payload, timeout_s)
            busy = [w for w in self._pool if w.inflight is not None]
            if not busy:
                if source:
                    continue
                return
            yield from self._wait(busy, timeout_s)

    # ------------------------------------------------------------------ #
    # Completion / failure classification                                #
    # ------------------------------------------------------------------ #

    def _wait(
        self, busy: list[_LoopWorker], timeout_s: float | None
    ) -> list[dict]:
        """Block for the next event(s); return the records they yield."""
        now = time.monotonic()
        wait = _WAIT_CAP_S
        for worker in busy:
            if worker.deadline is not None:
                wait = min(wait, max(0.0, worker.deadline - now))
        readable, _, _ = select.select(busy, [], [], wait)
        records: list[dict] = []
        for worker in readable:
            try:
                data = os.read(worker.fileno(), 1 << 16)
            except OSError:
                data = b""
            if not data:
                records.extend(
                    self._crashed(worker, "worker closed its stream")
                )
                continue
            worker.buffer.extend(data)
            try:
                frame = worker.take_frame()
            except EOFError as exc:
                records.extend(self._crashed(worker, str(exc)))
                continue
            if frame is None:
                continue
            try:
                record = json.loads(frame.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                record = None
            if not isinstance(record, dict) or "status" not in record:
                records.extend(
                    self._crashed(worker, "worker emitted a non-record frame")
                )
                continue
            worker.inflight = None
            worker.deadline = None
            self._after_record(worker, record)
            records.append(record)
        now = time.monotonic()
        for worker in busy:
            if (
                worker.inflight is not None
                and worker.deadline is not None
                and now >= worker.deadline
            ):
                payload, wall = worker.inflight, now - worker.sent_at
                worker.inflight = None
                worker.close()
                if self._usable(worker):
                    self._spawn(worker)
                records.append(timeout_record(payload, timeout_s, wall))
        return records

    def _crashed(self, worker: _LoopWorker, reason: str) -> list[dict]:
        """Classify a dead/desynced worker; drain quarantine casualties."""
        now = time.monotonic()
        payload, wall = worker.inflight, now - worker.sent_at
        worker.inflight = None
        returncode = None
        if worker.process is not None:
            try:
                # Stdout EOF usually races the exit by a few ms; a short
                # wait turns "closed its stream" into an exit code.
                returncode = worker.process.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                returncode = None  # alive but desynced; killed below
        detail = reason
        if returncode is not None:
            detail = f"{detail} (exit code {returncode})"
        excerpt = worker.stderr_excerpt()
        if excerpt:
            detail = f"{detail}; stderr: {excerpt}"
        worker.close()
        if worker.host:
            tele.count(f"remote.host.{worker.host}.crashes")
        respawn, casualties = self._after_crash(worker)
        records = []
        if payload is not None:
            records.append(crash_record(payload, detail, wall))
        for victim in casualties:
            if victim.inflight is not None:
                records.append(
                    crash_record(
                        victim.inflight,
                        f"host {victim.host!r} quarantined; "
                        f"unit drained for re-dispatch",
                        now - victim.sent_at,
                    )
                )
                victim.inflight = None
            victim.close()
        if respawn:
            self._spawn(worker)
        return records
