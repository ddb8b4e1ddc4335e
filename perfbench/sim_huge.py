"""``sim_huge``: the ``huge_conference`` library spec simulated in-process.

500 users, 143 sessions, 7 agents, AgRank bootstrap, 60 s horizon: the
simulator's bookkeeping dominates (every accepted hop reschedules the
other sessions' wake events, every sample walks all flows through
``core.delay``).  The workload seed is the spec's ``simulation.seed``;
a timed run compiles the spec once (``compile_spec``) and times
``run_record`` on it; a traced op is one compile plus one simulation.
No service or dispatch code runs.
"""

from __future__ import annotations

import math
import time

from common import Checks, median, same_counts, sha256_json, tail

SPEC = "huge_conference"
#: Planning estimate of one unit's seconds: a timed run simulates
#: ``ceil(seconds / UNIT_S)`` units (at least 3), a count that depends
#: on ``--seconds`` only.
UNIT_S = 3.0
#: Traced units (two, so their counts can be compared).
TRACED_UNITS = 2


def load(seed: int):
    from repro.fleet.library import load_library_spec
    from repro.fleet.spec import RunSpec

    data = load_library_spec(SPEC).to_dict()
    data["simulation"]["seed"] = seed
    return RunSpec.from_dict(data)


def setup(seed: int, work) -> tuple[dict, object]:
    """Fresh-interpreter set-up: import, spec load, compile.  Returns the
    phase times and the compiled run."""
    del work
    started = time.perf_counter()
    import repro  # noqa: F401

    imported = time.perf_counter()
    spec = load(seed)
    loaded = time.perf_counter()
    from repro.fleet.compile import compile_spec

    compiled = compile_spec(spec)
    phases = {
        "import_s": imported - started,
        "load_s": loaded - imported,
        "build_s": time.perf_counter() - loaded,
    }
    return phases, compiled


def probe_op(seed: int, compiled, work) -> None:
    """One unit on the set-up's compiled run (the probe's peak memory)."""
    del seed, work
    _simulate(compiled)


def _simulate(compiled) -> tuple[float, dict, object]:
    """Time ``run_record``; also keep the simulation result that
    ``run_record`` reduces to a flat record."""
    from repro.fleet.compile import run_record

    kept = {}
    make = compiled.simulator

    def simulator():
        sim = make()
        run = sim.run

        def run_and_keep():
            kept["result"] = run()
            return kept["result"]

        sim.run = run_and_keep
        return sim

    compiled.simulator = simulator
    started = time.perf_counter()
    record = run_record(compiled)
    wall = time.perf_counter() - started
    del compiled.simulator
    return wall, record, kept["result"]


def check_unit(checks: Checks, index: int, record, result, compiled) -> None:
    """Final assignment feasible; phi, traffic and delay re-derived by
    the reference evaluator match the record."""
    from repro.core.feasibility import check_assignment

    schedule = compiled.schedule
    label = f"unit {index}"
    if not checks.check(
        f"{label}: static schedule", not schedule.events, "huge_conference has no churn"
    ):
        return
    sids = list(schedule.initial_sids)
    final = result.final_assignment
    report = check_assignment(compiled.conference, final, sids)
    checks.check(f"{label}: final assignment feasible", report.ok, report.summary())
    total = compiled.evaluator.total(final, sids)
    checks.close(f"{label}: phi", record["phi"], total.phi, 1e-9)
    checks.close(
        f"{label}: traffic",
        record["series"]["traffic"]["v"][-1],
        total.inter_agent_mbps,
        1e-5,
    )
    checks.close(
        f"{label}: delay",
        record["series"]["delay"]["v"][-1],
        total.average_delay_ms,
        1e-5,
    )


def _counts(record) -> dict:
    return {"hops": record["hops"], "migrations": record["migrations"], "units": 1}


def measure(seed: int, seconds: float, work, ref) -> dict:
    """Compile once (set-up), then simulate the compiled run repeatedly,
    with a host reference sample (``ref``) before the first unit and
    after every unit.

    A process that compiled each unit afresh would keep every
    conference's profile (``core.fastpath`` caches up to 64 by
    identity, ~40 MB each here), so its peak memory would count units
    rather than describe one.
    """
    from repro.fleet.compile import compile_spec

    compiled = compile_spec(load(seed))
    checks = Checks()
    walls, counts, digests = [], [], []
    ref.sample()
    for _ in range(max(3, math.ceil(seconds / UNIT_S))):
        wall, record, result = _simulate(compiled)
        ref.sample()
        walls.append(wall)
        check_unit(checks, len(walls), record, result, compiled)
        counts.append(_counts(record))
        digests.append(sha256_json(record))
    checks.check(
        "record digest repeats across units",
        len(set(digests)) == 1,
        digests[0][:16],
    )
    label, tail_s = tail(walls)
    return {
        "checks": checks,
        "attempted": len(walls),
        "failed": 0 if checks.ok else len(walls),
        "p50_ms": median(walls) * 1000.0,
        "tail_ms": tail_s * 1000.0,
        "tail_label": label,
        "tail_n": len(walls),
        "throughput_per_s": 1.0 / median(walls),
        "samples": {"unit_wall_s": walls},
        "counts": same_counts(checks, "unit", counts),
        "digests": {"record_sha256": digests[0]},
    }


def traced(seed: int, seconds: float, work, tracer) -> dict:
    """One untraced op, then :data:`TRACED_UNITS` traced ops (compile +
    simulate each); per-layer totals are per op."""
    import layers
    import spans

    del seconds
    spec = load(seed)
    checks = Checks()

    def op():
        from repro.fleet.compile import compile_spec

        started = time.perf_counter()
        _wall, record, _result = _simulate(compile_spec(spec))
        return time.perf_counter() - started, record

    untraced, record = op()
    digest = sha256_json(record)
    layers.install(tracer)
    per_op, walls, counts = [], [], []
    for index in range(TRACED_UNITS):
        before = tracer.snapshot()
        with tracer.op(f"unit{index}"):
            wall, record = op()
        totals = spans.diff(tracer.snapshot(), before)
        per_op.append(totals)
        walls.append(wall)
        checks.check(
            f"traced unit {index + 1}: record equals untraced",
            sha256_json(record) == digest,
        )
        counts.append(
            {
                **_counts(record),
                "events.pushes": totals["counts"]["events.pushes"],
                "kernel.candidates": totals["counts"]["kernel.candidates"],
            }
        )
    return {
        "checks": checks,
        "per_op": per_op,
        "counts": same_counts(checks, "traced unit", counts),
        "overhead_s": median(walls) - untraced,
        "untraced_s": untraced,
        "extra": {},
        "digests": {"record_sha256": digest},
    }
