"""Pool worker with the benchmark's timers installed (traced runs only).

``fleet_sweep`` points ``execution.worker_cmd`` here for its traced
sweeps: ``python3 worker.py <span dir>``.  The worker times its own
import, wraps each unit in a ``unit`` root span, installs the same
layer timers as the main process, and then serves the pool's framed
protocol through ``repro.fleet.backends.worker.serve_loop``.  After each
unit, before its record goes back to the pool, it rewrites its
cumulative totals and appends its new spans under ``<span dir>``: the
pool kills workers when the sweep ends, so nothing may wait for exit.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import spans


def main(out: Path) -> int:
    tracer = spans.Tracer()
    frame = tracer.enter("worker.import")
    import layers
    import repro.fleet.compile as compile_mod
    from repro.fleet.backends.worker import serve_loop

    layers.install(tracer, worker=True)
    tracer.exit(frame)

    stem = out / f"worker-{os.getpid()}"
    execute = compile_mod.execute_payload
    written = 0

    def traced_execute(run_id, *args, **kwargs):
        nonlocal written
        with tracer.op(run_id, name="unit"):
            record = execute(run_id, *args, **kwargs)
        written = tracer.dump(stem.with_suffix(".spans.jsonl.gz"), written)
        tmp = stem.with_suffix(".tmp")
        tmp.write_text(json.dumps(tracer.snapshot(), sort_keys=True), encoding="utf-8")
        os.replace(tmp, stem.with_suffix(".totals.json"))
        return record

    compile_mod.execute_payload = traced_execute
    return serve_loop(sys.stdin.buffer, sys.stdout.buffer)


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
