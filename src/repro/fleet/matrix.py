"""Run-matrix expansion: one spec with a sweep block -> concrete units.

``expand_matrix`` turns a spec into a list of :class:`RunUnit` — the
grid product of the sweep axes times seed replication — each carrying a
fully resolved (sweep-free) spec and a content-hash run id.  Unit
identity covers everything the unit *computes* (the resolved spec plus,
for file traces, the trace file's contents) and deliberately excludes
the ``execution`` section, which only describes how units are
dispatched; axes that sweep execution knobs are folded into the id
explicitly so backend-comparison sweeps still get distinct cache slots.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.fleet.spec import RunSpec, spec_hash

__all__ = ["RunUnit", "expand_matrix", "unit_run_id"]


@dataclass(frozen=True)
class RunUnit:
    """One concrete run of the matrix: resolved spec + identity."""

    run_id: str
    spec: RunSpec
    #: The sweep-axis values this unit pins (empty for sweep-free specs).
    axes: dict[str, object] = field(default_factory=dict)
    seed: int = 0
    #: Seed-replicate index within the unit's grid point (the halving
    #: scheduler's rung coordinate).
    replicate: int = 0

    @property
    def point(self) -> tuple:
        """Hashable grid-point key: the non-execution axis values.

        Seed replicates of one grid point share a point key; the
        successive-halving scheduler ranks and prunes at this
        granularity.
        """
        return tuple(
            (path, value)
            for path, value in sorted(self.axes.items())
            if not path.startswith("execution.")
        )


def unit_run_id(resolved: RunSpec, axes: dict[str, object]) -> str:
    """Content-hash id of one resolved unit.

    For ``churn.trace.kind: file`` specs the trace file's *contents*
    are folded into the id — the spec only names a path, and a resume
    cache keyed on the path string would silently serve results from an
    edited trace.  A missing file hashes as the bare spec; compilation
    raises the real diagnostic.

    ``execution.*`` axis values are folded in as well: they are
    excluded from :func:`~repro.fleet.spec.spec_hash` (scheduling
    config, not computation identity), but a sweep that *compares*
    backends or budgets still needs one cache slot per axis value, or
    every grid point would collapse onto one record.

    ``faults.*`` needs no such folding: a non-default ``faults:``
    section changes computation identity, so :func:`~repro.fleet.spec.
    spec_hash` already folds it in (only the all-default section is
    excluded, keeping no-fault ids byte-stable across the fault layer's
    introduction).
    """
    run_id = spec_hash(resolved)
    exec_axes = {
        path: value
        for path, value in axes.items()
        if path.startswith("execution.")
    }
    if exec_axes:
        canonical = json.dumps(exec_axes, sort_keys=True, separators=(",", ":"))
        run_id = hashlib.sha256(
            f"{run_id}:{canonical}".encode("utf-8")
        ).hexdigest()[:12]
    trace = resolved.churn.trace
    if trace.kind == "file":
        path = Path(trace.path)
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            run_id = hashlib.sha256(
                f"{run_id}:{digest}".encode("utf-8")
            ).hexdigest()[:12]
    return run_id


def expand_matrix(spec: RunSpec) -> list[RunUnit]:
    """Expand a spec's sweep block into the full run matrix.

    The grid is the cartesian product of the axes (in declaration order)
    and each grid point is replicated ``sweep.replicates`` times with
    seeds ``simulation.seed + i``.  Unit specs are sweep-free and carry a
    deterministic content-hash id (covering a file trace's contents as
    well), so re-expanding an unchanged spec reproduces the same ids
    (the skip/resume cache key).
    """
    sweep = spec.sweep
    axis_paths = [axis.path for axis in sweep.axes]
    axis_values = [axis.values for axis in sweep.axes]
    base_seed = spec.simulation.seed
    units: list[RunUnit] = []
    for combo in itertools.product(*axis_values) if axis_paths else [()]:
        axes = dict(zip(axis_paths, combo))
        for replicate in range(sweep.replicates):
            overrides: dict[str, object] = dict(axes)
            overrides["simulation.seed"] = base_seed + replicate
            resolved = spec.with_overrides(overrides)
            units.append(
                RunUnit(
                    run_id=unit_run_id(resolved, axes),
                    spec=resolved,
                    axes=axes,
                    seed=base_seed + replicate,
                    replicate=replicate,
                )
            )
    return units
