"""Simulated annealing over the UAP neighbourhood.

Sec. IV-A.3 contrasts Markov approximation with simulated annealing and
MCMC sampling: they share the chain-over-states idea but were not designed
for parallel per-session execution or provable robustness.  This module
provides the classic SA reference implementation for the ablation benches —
a single centralized chain with a geometric cooling schedule and Metropolis
acceptance on the *global* objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.assignment import Assignment
from repro.core.objective import ObjectiveEvaluator
from repro.core.search import SearchContext
from repro.errors import SolverError


@dataclass(frozen=True)
class AnnealingConfig:
    """Cooling-schedule parameters.

    Temperature after hop ``t`` is ``initial * decay ** t``, floored at
    ``final``; acceptance of an objective increase ``delta`` has
    probability ``exp(-delta / temperature)``.
    """

    initial_temperature: float = 1.0
    final_temperature: float = 1e-4
    decay: float = 0.995
    hops: int = 2000

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0 or self.final_temperature <= 0:
            raise SolverError("temperatures must be positive")
        if not 0.0 < self.decay < 1.0:
            raise SolverError(f"decay must be in (0, 1), got {self.decay}")
        if self.hops < 1:
            raise SolverError("hops must be >= 1")

    def temperature(self, step: int) -> float:
        return max(self.final_temperature, self.initial_temperature * self.decay**step)


@dataclass(frozen=True)
class AnnealingResult:
    """Outcome of a simulated-annealing run (best state seen)."""

    assignment: Assignment
    phi: float
    accepted: int
    proposed: int


def simulated_annealing(
    evaluator: ObjectiveEvaluator,
    initial_assignment: Assignment,
    config: AnnealingConfig | None = None,
    active_sids: list[int] | None = None,
    rng: np.random.Generator | None = None,
) -> AnnealingResult:
    """Run SA and return the best assignment encountered.

    Only the uniformly drawn proposal is materialized from the session's
    candidate batch.
    """
    config = config if config is not None else AnnealingConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    context = SearchContext(evaluator, initial_assignment, active_sids=active_sids)
    active = context.active_sessions

    best_assignment = context.assignment
    best_phi = context.total_phi()
    accepted = 0

    for step in range(config.hops):
        sid = active[int(rng.integers(len(active)))]
        batch = context.candidate_batch(sid)
        if batch.num_feasible == 0:
            continue
        candidate = batch.materialize(int(rng.integers(batch.num_feasible)))
        delta = candidate.phi - context.session_cost(sid).phi
        if delta <= 0 or rng.uniform() < np.exp(-delta / config.temperature(step)):
            context.commit(sid, candidate)
            accepted += 1
            phi = context.total_phi()
            if phi < best_phi:
                best_phi = phi
                best_assignment = context.assignment
    return AnnealingResult(
        assignment=best_assignment,
        phi=best_phi,
        accepted=accepted,
        proposed=config.hops,
    )
