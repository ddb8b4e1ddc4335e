"""Golden pins of the simulator's output bytes.

Each case simulates one short unit and hashes its flat ``run_record``
together with every recorded series at full resolution (the record
downsamples them).  The digests were captured from the simulator that
froze countdowns by cancelling and re-pushing every pending wake and
that recomputed every session's delays at every sample; the wake lane
and the per-session delay cache must reproduce them bit for bit.

Together the cases cover arrivals and departures, a re-arrival after a
departure (the session goes last in freeze order), resizes, the
``migrate`` and ``drop`` fault policies, latency spikes, and per-session
tracked series.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.fleet.compile import CompiledRun, compile_spec, compile_trace, run_record
from repro.fleet.library import load_library_spec
from repro.fleet.orchestrator import expand_matrix
from repro.runtime.traces import TraceEvent

#: A hand-written trace over ``prototype_smoke``'s 4 sessions: resizes,
#: a departure and re-arrival of sid 1, a late re-arrival of sid 0.
TRACE = tuple(
    TraceEvent(time_s, kind, sid)
    for time_s, kind, sid in [
        (0.0, "arrive", 0),
        (0.0, "arrive", 1),
        (3.0, "arrive", 2),
        (5.0, "resize", 0),
        (8.0, "depart", 1),
        (10.0, "resize", 2),
        (12.0, "arrive", 3),
        (15.0, "arrive", 1),
        (20.0, "resize", 1),
        (25.0, "depart", 0),
        (30.0, "resize", 3),
        (33.0, "arrive", 0),
    ]
)

#: case -> (library spec, overrides of its first expanded unit, tracked
#: sessions, play TRACE instead of the spec's churn, pinned digest).
GOLDEN = {
    "huge_conference_10s": (
        "huge_conference", {"simulation.duration_s": 10.0}, (), False,
        "9413571765e88731ff7ddb968381fd0e6d40e5499f1ffce682082d0b43e05b7a",
    ),
    "churn_heavy": (
        "churn_heavy", {}, (), False,
        "b78850877b539272be252c845ca3560c6aa7a403b2db33f4729ac02f2ce18f10",
    ),
    "chaos_storm": (
        "chaos_storm", {}, (), False,
        "0e35a149e13be69af61cc2b3fc2d733fa65ba3744208fc664972e62a9fbc9fcc",
    ),
    "chaos_storm_drop": (
        "chaos_storm", {"faults.policy": "drop"}, (), False,
        "47fd5dd3c168512a0e6be055d9ed8d2b2e80c4e3727290c00c64e9789e3f8cbb",
    ),
    "site_outage": (
        "site_outage", {}, (), False,
        "475c09bafc56b4fd521ffcde788dc642cc74d0cb4ec4c84035bbeae6e258d988",
    ),
    "latency_storm": (
        "latency_storm", {}, (), False,
        "04b5e0eb71e7ad5aab3e3dfc5c63d5f2fef8c6d209a063eda1a1388739b99910",
    ),
    "prototype_smoke_tracked": (
        "prototype_smoke", {}, (0, 1, 2, 3), False,
        "03fe95e7c029f8dbe07ff64c8764291a8fe5f2dca2c447c8da97ecdea07ce1fd",
    ),
    "prototype_smoke_trace": (
        "prototype_smoke", {}, (0, 1, 2, 3), True,
        "222b0613adcd6e741330f83f685d1982dd75e485ebb12de03681cd6030f4b7b3",
    ),
}


def compiled_case(name: str, overrides: dict, track: tuple, trace: bool) -> CompiledRun:
    spec = expand_matrix(load_library_spec(name))[0].spec
    if overrides:
        spec = spec.with_overrides(overrides)
    compiled = compile_trace(TRACE, spec) if trace else compile_spec(spec)
    if track:
        compiled.config = dataclasses.replace(compiled.config, track_sessions=track)
    return compiled


def unit_digest(compiled: CompiledRun) -> str:
    """SHA-256 of ``{"record": run_record, "series": every series}``."""
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
    record = run_record(compiled)
    recorder = kept["result"].recorder
    series = {
        name: [values.tolist() for values in recorder.series(name)]
        for name in recorder.names
    }
    payload = json.dumps({"record": record, "series": series}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_unit_bytes_pinned(case):
    name, overrides, track, trace, digest = GOLDEN[case]
    assert unit_digest(compiled_case(name, overrides, track, trace)) == digest
