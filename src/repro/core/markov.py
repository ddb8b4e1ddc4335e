"""Alg. 1 — Markov-approximation-based assignment.

The solver simulates the continuous-time Markov chain of Sec. IV-A: the
state is the joint assignment; each session independently waits an
exponential time (mean ``1/tau``) and then HOPs to a feasible neighbour
``f'`` with probability proportional to ``exp(0.5 * beta * (Phi_s,f -
Phi_s,f'))``, computed from the session-local objective only.  The chain's
stationary distribution approximates the Gibbs distribution
``p*_f ∝ exp(-beta * Phi_f)`` of Eq. (9), whose expected objective is within
``(U + theta_sum) log L / beta`` of optimal (Eq. 12).

Two hop rules are provided:

* ``"paper"`` — the pseudocode of Alg. 1 verbatim: sample among all
  feasible neighbours with softmax weights.  Because the softmax
  normalizer is state-dependent, detailed balance holds only
  approximately; this is the rule the paper evaluates.
* ``"metropolis"`` — propose a uniform feasible neighbour and accept with
  ``min(1, (|N(f)| / |N(f')|) * exp(beta * (Phi_f - Phi_f')))``; the
  Hastings factor restores exact detailed balance w.r.t. Eq. (9), at the
  price of a second neighbourhood enumeration per hop (a feasibility
  *count* against the shared capacity ledger — no search state is
  rebuilt).  :mod:`repro.core.theory` quantifies the difference on
  enumerable instances.

Candidate evaluation runs on the struct-of-arrays kernel of
:mod:`repro.core.arrays`; the hop rules act directly on its vectorized
``phi`` array and materialize only the chosen neighbour.

All hop weights are computed in the log domain, so raw-unit objectives with
``beta = 400`` are handled without overflow.

This module implements the *jump chain* (hop decisions); wall-clock timing,
FREEZE/UNFREEZE serialization and session dynamics live in
:mod:`repro.runtime`, which drives this solver one hop at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

import repro.telemetry as tele
from repro.core.assignment import Assignment
from repro.core.neighborhood import Move
from repro.core.objective import ObjectiveEvaluator
from repro.core.search import Candidate, CandidateBatch, SearchContext
from repro.errors import SolverError
from repro.model.conference import Conference
from repro.netsim.noise import NoiseModel


def hop_log_weights(phi_current: float, phi_candidates: np.ndarray, beta: float) -> np.ndarray:
    """Log-weights ``0.5 * beta * (Phi_f - Phi_f')`` of the HOP rule."""
    return 0.5 * beta * (phi_current - np.asarray(phi_candidates, dtype=float))


def hop_probabilities(
    phi_current: float, phi_candidates: np.ndarray, beta: float
) -> np.ndarray:
    """Normalized hop probabilities, computed stably in the log domain."""
    log_w = hop_log_weights(phi_current, phi_candidates, beta)
    log_w -= log_w.max()
    weights = np.exp(log_w)
    return weights / weights.sum()


def _sample_index(rng: np.random.Generator, probabilities: np.ndarray) -> int:
    """Draw one index distributed as ``probabilities``.

    Replicates ``rng.choice(n, p=probabilities)`` draw-for-draw — numpy's
    ``Generator.choice`` builds the same renormalized cumulative sum and
    bisects it against a single ``rng.random()`` — while skipping its
    per-call argument validation, which is pure overhead on the hop hot
    path where the probabilities are freshly normalized each time.
    """
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def metropolis_log_acceptance(
    beta: float,
    phi_current: float,
    phi_proposal: float,
    forward_degree: int,
    backward_degree: int,
) -> float:
    """Log of the Metropolis-Hastings acceptance ratio.

    ``beta * (Phi_f - Phi_f') + log(|N(f)| / |N(f')|)`` — the energy term
    plus the Hastings correction for asymmetric neighbourhood sizes.
    """
    return beta * (phi_current - phi_proposal) + np.log(
        forward_degree / backward_degree
    )


@dataclass(frozen=True)
class MarkovConfig:
    """Tuning parameters of Alg. 1.

    Attributes
    ----------
    beta:
        The approximation sharpness; the paper uses 400 ("proportional to
        the logarithm of the problem state space") and contrasts 200.
    tau:
        The countdown rate: each session hops at rate ``tau`` (mean wait
        ``1/tau`` seconds; the prototype uses a 10 s mean).  Only the
        runtime uses the wall-clock value; the jump chain is insensitive
        to it.
    hop_rule:
        ``"paper"`` or ``"metropolis"`` (see module docstring).
    """

    beta: float = 400.0
    tau: float = 0.1
    hop_rule: Literal["paper", "metropolis"] = "paper"

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise SolverError(f"beta must be positive, got {self.beta}")
        if self.tau <= 0:
            raise SolverError(f"tau must be positive, got {self.tau}")
        if self.hop_rule not in ("paper", "metropolis"):
            raise SolverError(f"unknown hop rule {self.hop_rule!r}")


@dataclass(frozen=True)
class HopResult:
    """Outcome of one HOP invocation for one session."""

    sid: int
    moved: bool
    move: Move | None
    phi_before: float
    phi_after: float
    num_candidates: int


class MarkovAssignmentSolver:
    """The per-conference instantiation of Alg. 1.

    One solver spans all active sessions (it is the in-cloud counterpart of
    every session's local algorithm put together); ``session_hop`` performs
    a single session's HOP, and ``run`` simulates the jump chain by waking
    sessions uniformly at random — the correct embedding when every session
    shares the same ``tau``.
    """

    def __init__(
        self,
        evaluator: ObjectiveEvaluator,
        initial_assignment: Assignment,
        config: MarkovConfig | None = None,
        active_sids: list[int] | None = None,
        noise: NoiseModel | None = None,
        rng: np.random.Generator | None = None,
    ):
        self._config = config if config is not None else MarkovConfig()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._context = SearchContext(
            evaluator,
            initial_assignment,
            active_sids=active_sids,
            noise=noise,
            rng=self._rng,
        )
        self._hops = 0
        self._migrations = 0
        self._best_phi = self._context.total_phi()
        self._best_assignment = self._context.assignment

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> MarkovConfig:
        return self._config

    @property
    def context(self) -> SearchContext:
        return self._context

    @property
    def conference(self) -> Conference:
        return self._context.conference

    @property
    def assignment(self) -> Assignment:
        return self._context.assignment

    @property
    def hops(self) -> int:
        """Number of HOP invocations so far."""
        return self._hops

    @property
    def migrations(self) -> int:
        """Number of hops that actually changed a decision."""
        return self._migrations

    @property
    def best_phi(self) -> float:
        """Lowest global objective observed along the trajectory."""
        return self._best_phi

    @property
    def best_assignment(self) -> Assignment:
        """The assignment achieving :attr:`best_phi`.

        The paper's chain keeps moving even at the optimum (HOP always
        migrates), so one-shot experiments report the best state visited
        rather than the final snapshot.
        """
        return self._best_assignment

    def metrics(self) -> tuple[float, float]:
        """``(inter_agent_mbps, average_delay_ms)`` of the current state."""
        return self._context.metrics()

    def total_phi(self) -> float:
        return self._context.total_phi()

    # ------------------------------------------------------------------ #
    # The HOP procedure                                                  #
    # ------------------------------------------------------------------ #

    def session_hop(self, sid: int) -> HopResult:
        """One HOP of session ``sid`` (lines 9-16 of Alg. 1).

        The hop rules act directly on the vectorized ``phi`` array; only
        the chosen neighbour is materialized into a full
        :class:`Candidate`.
        """
        self._hops += 1
        # One collector lookup per hop: with telemetry disabled the whole
        # hop touches no counter dicts and allocates no span (the
        # REPRO_PERF overhead guard depends on this at SoA scale).
        collector = tele.active_collector()
        if collector is not None:
            collector.count("solver.hops_proposed")
        phi_before = self._context.session_cost(sid).phi
        span = (
            collector.span("solver.hop_batch")
            if collector is not None
            else tele.NOOP_SPAN
        )
        with span:
            batch = self._context.candidate_batch(sid)
            num_candidates = batch.num_feasible
            if num_candidates == 0:
                return HopResult(sid, False, None, phi_before, phi_before, 0)
            if self._config.hop_rule == "paper":
                chosen = self._paper_hop(phi_before, batch)
            else:
                chosen = self._metropolis_hop(sid, phi_before, batch)

        if collector is not None:
            collector.count("solver.candidates", num_candidates)
        if chosen is None:
            return HopResult(
                sid, False, None, phi_before, phi_before, num_candidates
            )
        self._context.commit(sid, chosen)
        self._migrations += 1
        if collector is not None:
            collector.count("solver.hops_accepted")
        phi_total = self._context.total_phi()
        if phi_total < self._best_phi:
            self._best_phi = phi_total
            self._best_assignment = self._context.assignment
        return HopResult(
            sid=sid,
            moved=True,
            move=chosen.move,
            phi_before=phi_before,
            phi_after=self._context.session_cost(sid).phi,
            num_candidates=num_candidates,
        )

    def _paper_hop(self, phi_before: float, batch: CandidateBatch) -> Candidate:
        probabilities = hop_probabilities(phi_before, batch.phi, self._config.beta)
        return batch.materialize(_sample_index(self._rng, probabilities))

    def _metropolis_hop(
        self, sid: int, phi_before: float, batch: CandidateBatch
    ) -> Candidate | None:
        position = int(self._rng.integers(batch.num_feasible))
        proposal = batch.materialize(position)
        accepted = self._metropolis_accept(
            sid,
            phi_before,
            proposal.phi,
            batch.num_feasible,
            proposal.assignment,
        )
        return proposal if accepted else None

    def _metropolis_accept(
        self,
        sid: int,
        phi_before: float,
        phi_proposal: float,
        forward: int,
        proposal_assignment: Assignment,
    ) -> bool:
        # Hastings correction: neighbourhood size at the proposed state,
        # counted against the *current* capacity ledger (no other session
        # moves, so the residuals excluding ``sid`` are unchanged) — the
        # former full SearchContext rebuild per proposal is gone.
        backward = self._context.count_feasible(sid, proposal_assignment)
        if backward == 0:
            return False  # the reverse move would be impossible; reject
        log_accept = metropolis_log_acceptance(
            self._config.beta, phi_before, phi_proposal, forward, backward
        )
        return bool(np.log(self._rng.uniform()) < min(0.0, log_accept))

    # ------------------------------------------------------------------ #
    # Jump-chain simulation                                              #
    # ------------------------------------------------------------------ #

    def run(
        self,
        num_hops: int,
        on_hop: Callable[[HopResult], None] | None = None,
    ) -> HopResult | None:
        """Simulate ``num_hops`` wake-ups with uniformly random sessions.

        With equal ``tau`` across sessions this is exactly the jump chain
        of the paper's CTMC.  Returns the last hop result.
        """
        result: HopResult | None = None
        active = self._context.active_sessions
        if not active:
            raise SolverError("no active sessions")
        for _ in range(num_hops):
            sid = active[int(self._rng.integers(len(active)))]
            result = self.session_hop(sid)
            if on_hop is not None:
                on_hop(result)
        return result

    def run_until_stable(
        self,
        min_hops: int = 50,
        max_hops: int = 5000,
        patience: int | None = None,
    ) -> int:
        """Run until :attr:`best_phi` stops improving for ``patience``
        consecutive hops (default: 8x the session count); returns the
        number of hops executed.

        The paper rule keeps migrating forever by construction, so
        "no better state found recently" is the practical convergence
        criterion for the one-shot experiments (Table II); the result of
        interest is then :attr:`best_assignment`.
        """
        patience = patience if patience is not None else 8 * len(
            self._context.active_sessions
        )
        quiet = 0
        executed = 0
        active = self._context.active_sessions
        best = self._best_phi
        while executed < max_hops:
            sid = active[int(self._rng.integers(len(active)))]
            self.session_hop(sid)
            executed += 1
            if self._best_phi < best - 1e-12:
                best = self._best_phi
                quiet = 0
            else:
                quiet += 1
            if executed >= min_hops and quiet >= patience:
                break
        return executed
