"""Declarative scenario specs and the layered fleet execution stack.

The fleet layer turns the hand-coded experiment scripts into data: a
:class:`~repro.fleet.spec.RunSpec` is a typed, validation-first
description of a full run (agent topology / pricing regions, workload and
session mix, solver choice, noise model, churn plan, simulation horizon,
seeds, execution config) that loads from YAML/JSON and round-trips
losslessly.  The compiler (:mod:`repro.fleet.compile`) resolves a spec
into concrete ``Conference`` / solver / simulator objects — failing
fast on dangling references before any solve starts.  Execution is a
layered subsystem: :mod:`repro.fleet.matrix` expands parameter sweeps
into content-hash run units, :mod:`repro.fleet.backends` dispatches
self-contained unit payloads through pluggable backends (serial /
multiprocessing / persistent worker pools, local or remote), the scheduler
(:mod:`repro.fleet.scheduler`) owns ordering, per-unit wall-time
budgets, crash retries and successive-halving early abort, and the
orchestrator (:mod:`repro.fleet.orchestrator`) keeps the books —
per-run JSONL persistence, content-hash skip/resume caching, atomic
rewrites and summary aggregation.

Bundled example specs live in :mod:`repro.fleet.library`::

    repro fleet list
    repro fleet run prototype_smoke --workers 2
    repro fleet run prototype_smoke --backend pool --budget 120
    repro fleet sweep beta_locality --axis solver.beta=200,400
    repro fleet sweep beta_locality --replicates 4 --halving 1,2
    repro fleet report fleet_runs/prototype_smoke
"""

from repro.fleet.backends import (
    ExecutionBackend,
    LocalBackend,
    RunPayload,
    SerialBackend,
    create_backend,
)
from repro.fleet.compile import (
    CompiledRun,
    compile_spec,
    compile_trace,
    execute_payload,
    execute_spec,
    execute_trace,
)
from repro.fleet.library import library_spec_names, load_library_spec
from repro.fleet.orchestrator import (
    FleetOrchestrator,
    FleetResult,
    RunUnit,
    aggregate_records,
    expand_matrix,
)
from repro.fleet.scheduler import (
    FleetScheduler,
    SchedulerOutcome,
    substrate_affinity,
)
from repro.fleet.spec import (
    AxisSpec,
    ChurnSpec,
    ChurnWave,
    DemandSpec,
    ExecutionSpec,
    HalvingSpec,
    NoiseSpec,
    RunSpec,
    SimulationSpec,
    SolverSpec,
    SweepSpec,
    TopologySpec,
    TraceSpec,
    WorkloadSpec,
    load_spec,
    spec_hash,
)

__all__ = [
    "AxisSpec",
    "ChurnSpec",
    "ChurnWave",
    "CompiledRun",
    "DemandSpec",
    "ExecutionBackend",
    "ExecutionSpec",
    "FleetOrchestrator",
    "FleetResult",
    "FleetScheduler",
    "HalvingSpec",
    "LocalBackend",
    "NoiseSpec",
    "RunPayload",
    "RunSpec",
    "RunUnit",
    "SchedulerOutcome",
    "SerialBackend",
    "SimulationSpec",
    "SolverSpec",
    "SweepSpec",
    "TopologySpec",
    "TraceSpec",
    "WorkloadSpec",
    "aggregate_records",
    "compile_spec",
    "compile_trace",
    "create_backend",
    "execute_payload",
    "execute_spec",
    "execute_trace",
    "expand_matrix",
    "library_spec_names",
    "load_library_spec",
    "load_spec",
    "spec_hash",
    "substrate_affinity",
]
