"""Execution backends: cross-backend bit-equivalence on a golden spec,
and the local / serial crash and timeout failure paths (a dying or
hanging unit yields a diagnostic record and the remaining units still
complete).  The pool worker protocol and its failure paths live in
``test_fleet_pool.py``."""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.analysis.report import canonical_results_digest
from repro.errors import SpecError
from repro.fleet.backends import (
    LocalBackend,
    RunPayload,
    SerialBackend,
    create_backend,
)
from repro.fleet.matrix import expand_matrix
from repro.fleet.orchestrator import FleetOrchestrator
from repro.fleet.spec import (
    AxisSpec,
    RunSpec,
    SimulationSpec,
    SweepSpec,
    WorkloadSpec,
)

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash-injection via monkeypatch needs fork inheritance",
)


def golden_spec() -> RunSpec:
    """The golden library-shaped sweep every backend must agree on."""
    return RunSpec(
        name="golden",
        workload=WorkloadSpec(kind="prototype", num_sessions=2),
        simulation=SimulationSpec(
            duration_s=8.0, hop_interval_mean_s=4.0, seed=3
        ),
        sweep=SweepSpec(
            replicates=2,
            axes=(AxisSpec(path="solver.beta", values=(200, 400)),),
        ),
    )


def single_spec(num_sessions: int = 2) -> RunSpec:
    return RunSpec(
        name="one",
        workload=WorkloadSpec(num_sessions=num_sessions),
        simulation=SimulationSpec(
            duration_s=6.0, hop_interval_mean_s=3.0, seed=3
        ),
    )


def payloads_for(spec: RunSpec) -> list[RunPayload]:
    return [RunPayload.from_unit(unit) for unit in expand_matrix(spec)]


class TestBackendEquivalence:
    #: Content-hash ids of the golden matrix — pinned so resume caches
    #: stay valid across refactors (pure hashing, no floats involved).
    GOLDEN_RUN_IDS = [
        "32b21458e43f",
        "99a9394de167",
        "10724dc7b97f",
        "a60b334fd934",
    ]

    def test_golden_run_ids_are_stable(self):
        units = expand_matrix(golden_spec())
        assert [unit.run_id for unit in units] == self.GOLDEN_RUN_IDS

    def test_all_backends_bit_identical_on_golden_spec(self, tmp_path):
        """The acceptance criterion: serial, local and pool agree
        bit-for-bit on the golden spec's results.jsonl (canonical form,
        i.e. modulo the nondeterministic wall_time_s)."""
        digests = {}
        for backend, workers in (
            ("serial", 1),
            ("local", 2),
            ("pool", 2),
        ):
            out = tmp_path / backend
            result = FleetOrchestrator(
                out, workers=workers, backend=backend
            ).run(golden_spec())
            assert result.executed == 4 and result.failed == 0
            digests[backend] = canonical_results_digest(out)
        assert len(set(digests.values())) == 1, digests

    def test_local_default_path_byte_stable_across_runs(self, tmp_path):
        """Two cold runs of the default (local) path digest identically
        — the legacy orchestrator behavior, now behind the backend."""
        first = FleetOrchestrator(tmp_path / "a", workers=2).run(golden_spec())
        second = FleetOrchestrator(tmp_path / "b", workers=2).run(golden_spec())
        assert first.failed == second.failed == 0
        assert canonical_results_digest(
            tmp_path / "a"
        ) == canonical_results_digest(tmp_path / "b")

    def test_payload_is_picklable_plain_data(self):
        payload = payloads_for(single_spec())[0]
        clone = pickle.loads(pickle.dumps(payload))
        assert clone == payload
        assert isinstance(clone.spec, dict)
        wire = payload.to_wire()
        assert set(wire) == {"run_id", "spec", "axes", "seed", "telemetry"}

    def test_create_backend_registry(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        assert isinstance(create_backend("local", workers=2), LocalBackend)
        for retired in ("subprocess", "cluster"):
            with pytest.raises(SpecError, match="unknown execution backend"):
                create_backend(retired)

    def test_unknown_backend_rejected_by_orchestrator(self, tmp_path):
        with pytest.raises(SpecError, match="backend"):
            FleetOrchestrator(tmp_path, backend="cluster")


@FORK_ONLY
class TestLocalManagedFailurePaths:
    """The local backend's managed mode (active when a budget is set):
    hard deadlines and crash detection on multiprocessing children.

    Crash injection monkeypatches ``RunPayload.execute`` in the parent;
    forked children inherit the patch, so no worker-side hook is
    needed.
    """

    def test_managed_timeout_kills_and_rest_completes(self, monkeypatch):
        data = single_spec().to_dict()
        data["sweep"] = {"replicates": 2, "axes": []}
        payloads = payloads_for(RunSpec.from_dict(data))

        real_execute = RunPayload.execute

        def hang_for_seed_4(self):
            if self.seed == 4:
                time.sleep(300)
            return real_execute(self)

        monkeypatch.setattr(RunPayload, "execute", hang_for_seed_4)
        backend = LocalBackend(workers=2)
        started = time.monotonic()
        records = list(backend.execute(payloads, timeout_s=1.5))
        assert time.monotonic() - started < 60
        by_status = {record["status"]: record for record in records}
        assert set(by_status) == {"ok", "timeout"}
        assert by_status["timeout"]["seed"] == 4

    def test_managed_crash_detected_and_rest_completes(self, monkeypatch):
        spec = single_spec()
        data = spec.to_dict()
        data["sweep"] = {"replicates": 2, "axes": []}
        payloads = payloads_for(RunSpec.from_dict(data))

        real_execute = RunPayload.execute

        def crash_for_seed_4(self):
            if self.seed == 4:
                os._exit(7)
            return real_execute(self)

        monkeypatch.setattr(RunPayload, "execute", crash_for_seed_4)
        backend = LocalBackend(workers=2)
        records = list(backend.execute(payloads, timeout_s=60.0))
        by_status = {record["status"]: record for record in records}
        assert set(by_status) == {"ok", "crashed"}
        assert "exited with code 7" in by_status["crashed"]["error"]


class TestSerialBudget:
    def test_serial_detects_budget_post_hoc(self, monkeypatch):
        """The in-process backend cannot kill a unit, but an over-budget
        unit still comes back as a first-class timeout record."""
        payload = payloads_for(single_spec())[0]

        def pretend_slow(self):
            return {
                "status": "ok",
                "run_id": self.run_id,
                "wall_time_s": 99.0,
            }

        monkeypatch.setattr(RunPayload, "execute", pretend_slow)
        records = list(SerialBackend().execute([payload], timeout_s=1.0))
        assert records[0]["status"] == "timeout"
        assert "UnitTimeout" in records[0]["error"]

    def test_serial_without_budget_passes_records_through(self):
        payload = payloads_for(single_spec())[0]
        records = list(SerialBackend().execute([payload]))
        assert records[0]["status"] == "ok"
        assert records[0]["run_id"] == payload.run_id
