"""``fleet_sweep``: the ``poisson_churn`` library sweep on a 2-worker pool.

3 arrival rates x 2 holding times x 2 replicates (12 units of ~0.1 s)
through ``FleetOrchestrator.run`` on the ``pool`` backend: worker spawn
and import, compile, frame IPC, trace generation and persistence are a
large share of the time, and the units drive the event queue with trace
arrivals and departures rather than large freeze fan-outs.  The
workload seed permutes the values of each sweep axis, and with them the
order in which units are expanded, dispatched and persisted; the units
themselves are the shipped sweep's, so every seed does the same work.  Every sweep
spawns its own pool (a user pays that on every sweep) and writes to a
fresh directory, so nothing is served from the resume cache.  A timed
run reports the median and p90 of the units' own seconds (each
record's ``wall_time_s``, pooled over all sweeps) and completed units
per second of sweep wall, which is where spawn and dispatch show.
"""

from __future__ import annotations

import math
import shlex
import shutil
import sys
import time
from pathlib import Path

from common import HERE, Checks, median, same_counts, tail

SPEC = "poisson_churn"
WORKERS = 2
#: Planning estimate of one sweep's seconds: a timed run makes
#: ``ceil(seconds / SWEEP_S)`` sweeps (at least 3), a count that depends
#: on ``--seconds`` only.
SWEEP_S = 2.5
TRACED_SWEEPS = 2


def load(seed: int, worker_cmd: str = ""):
    import numpy as np

    from repro.fleet.library import load_library_spec
    from repro.fleet.spec import RunSpec

    data = load_library_spec(SPEC).to_dict()
    rng = np.random.default_rng(seed)
    for axis in data["sweep"]["axes"]:
        axis["values"] = [axis["values"][i] for i in rng.permutation(len(axis["values"]))]
    data.setdefault("execution", {})
    data["execution"].update(
        {"backend": "pool", "workers": WORKERS, "worker_cmd": worker_cmd}
    )
    return RunSpec.from_dict(data)


def setup(seed: int, work: Path) -> tuple[dict, object]:
    """Fresh-interpreter set-up: import, spec load, matrix expansion.
    Returns the phase times and the spec."""
    del work
    started = time.perf_counter()
    import repro  # noqa: F401

    imported = time.perf_counter()
    spec = load(seed)
    loaded = time.perf_counter()
    from repro.fleet.orchestrator import expand_matrix

    expand_matrix(spec)
    phases = {
        "import_s": imported - started,
        "load_s": loaded - imported,
        "build_s": time.perf_counter() - loaded,
    }
    return phases, spec


def probe_op(seed: int, spec, work: Path) -> None:
    """One sweep of the set-up's spec (the probe's peak memory)."""
    del seed
    sweep(spec, work / "sweep")


def sweep(spec, out: Path) -> tuple[float, object]:
    from repro.fleet.orchestrator import FleetOrchestrator

    started = time.perf_counter()
    result = FleetOrchestrator(out, resume=False).run(spec)
    return time.perf_counter() - started, result


def check_sweep(checks: Checks, label: str, spec, result) -> dict:
    """Every unit ``ok`` and one record per matrix unit; return counts."""
    from repro.analysis.report import canonical_results_digest
    from repro.fleet.orchestrator import expand_matrix

    records = result.records
    units = len(expand_matrix(spec))
    checks.check(f"{label}: one record per unit", len(records) == units, f"{len(records)}/{units}")
    bad = [r.get("status") for r in records if r.get("status") != "ok"]
    checks.check(f"{label}: every unit ok", not bad, f"statuses {bad}" if bad else "")
    return {
        "units": len(records),
        "hops": sum(r.get("hops", 0) for r in records),
        "migrations": sum(r.get("migrations", 0) for r in records),
        "digest": canonical_results_digest(result.out_dir),
    }


def overhead_share(wall: float, result) -> float:
    """1 - (unit seconds / worker seconds available during the sweep)."""
    busy = sum(r.get("wall_time_s", 0.0) for r in result.records)
    return 1.0 - busy / (WORKERS * wall)


def measure(seed: int, seconds: float, work: Path, ref) -> dict:
    """Sweeps, with a host reference sample (``ref``) before the first
    sweep and after every sweep."""
    spec = load(seed)
    checks = Checks()
    walls, unit_walls, counts = [], [], []
    ref.sample()
    for _ in range(max(3, math.ceil(seconds / SWEEP_S))):
        out = work / f"sweep{len(walls)}"
        wall, result = sweep(spec, out)
        ref.sample()
        walls.append(wall)
        unit_walls.extend(r["wall_time_s"] for r in result.records)
        counts.append(check_sweep(checks, f"sweep {len(walls)}", spec, result))
        shutil.rmtree(out)
    first = same_counts(checks, "sweep", counts)
    units = first["units"]
    label, tail_s = tail(unit_walls)
    return {
        "checks": checks,
        "attempted": units * len(walls),
        "failed": 0 if checks.ok else units * len(walls),
        "p50_ms": median(unit_walls) * 1000.0,
        "tail_ms": tail_s * 1000.0,
        "tail_label": label,
        "tail_n": len(unit_walls),
        "throughput_per_s": median(units / wall for wall in walls),
        "samples": {"sweep_wall_s": walls, "unit_wall_s": unit_walls},
        "counts": {k: v for k, v in first.items() if k != "digest"},
        "digests": {"canonical_results_digest": first["digest"]},
    }


def _worker_totals(directory: Path) -> list[dict]:
    """Per-process totals the traced workers wrote, one file each."""
    import spans

    out = []
    for path in sorted(directory.glob("worker-*.totals.json")):
        out.append(spans.loads_totals(path.read_text(encoding="utf-8")))
    return out


def traced(seed: int, seconds: float, work: Path, tracer) -> dict:
    """One untraced sweep, then :data:`TRACED_SWEEPS` traced ones.

    Traced sweeps start workers through ``execution.worker_cmd`` pointed
    at ``worker.py``, which installs the same timers in each worker and
    writes its totals and spans after every unit.  ``execution`` is
    excluded from run ids, so results stay identical.
    """
    import layers
    import spans

    del seconds
    checks = Checks()
    plain = load(seed)
    out = work / "sweep-untraced"
    untraced, result = sweep(plain, out)
    expected = check_sweep(checks, "untraced sweep", plain, result)
    share = overhead_share(untraced, result)
    shutil.rmtree(out)

    layers.install(tracer)
    per_op, walls, counts = [], [], []
    for index in range(TRACED_SWEEPS):
        span_dir = work / f"worker-spans{index}"
        span_dir.mkdir()
        cmd = " ".join(
            shlex.quote(part)
            for part in (sys.executable, str(HERE / "worker.py"), str(span_dir))
        )
        spec = load(seed, worker_cmd=cmd)
        out = work / f"sweep-traced{index}"
        before = tracer.snapshot()
        with tracer.op(f"sweep{index}"):
            wall, result = sweep(spec, out)
        parts = [spans.diff(tracer.snapshot(), before)] + _worker_totals(span_dir)
        totals = spans.merge(parts)
        per_op.append(parts)
        walls.append(wall)
        got = check_sweep(checks, f"traced sweep {index + 1}", spec, result)
        checks.check(
            f"traced sweep {index + 1}: digest equals untraced",
            got["digest"] == expected["digest"],
        )
        counts.append(
            {
                **{k: v for k, v in got.items() if k != "digest"},
                "events.pushes": totals["counts"]["events.pushes"],
                "kernel.candidates": totals["counts"]["kernel.candidates"],
            }
        )
        shutil.rmtree(out)
    return {
        "checks": checks,
        "per_op": [spans.merge(parts) for parts in per_op],
        "tables": {
            "main process": (spans.merge([parts[0] for parts in per_op]), spans.OP),
            "workers": (
                spans.merge([p for parts in per_op for p in parts[1:]]),
                "unit",
            ),
        },
        "counts": same_counts(checks, "traced sweep", counts),
        "overhead_s": median(walls) - untraced,
        "untraced_s": untraced,
        "extra": {"pool_overhead_share": share},
        "digests": {"canonical_results_digest": expected["digest"]},
    }
