"""Theory toolkit: exact analysis of the approximation framework.

Everything Sec. IV-A states about Alg. 1 is checkable on enumerable
instances, and this module checks it:

* the log-sum-exp approximation UAP-beta and its optimal value
  (Eq. (9)/(10)): ``min Phi - log|F| / beta <= Phi_hat <= min Phi``;
* the CTMC realized by Alg. 1 — its generator matrix under either hop
  rule, its exact stationary distribution, and the distance to the Gibbs
  target ``p*_f ∝ exp(-beta Phi_f)``;
* the optimality-gap bound of Eq. (12),
  ``0 <= Phi_avg - Phi_min <= (U + theta_sum) log L / beta``;
* Theorem 1's perturbed chain: stationary distribution Eq. (11) and the
  noisy bound Eq. (13) with the ``Delta_max`` term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from repro.core.assignment import Assignment
from repro.core.exact import enumerate_assignments
from repro.core.markov import MarkovAssignmentSolver, MarkovConfig
from repro.core.objective import ObjectiveEvaluator
from repro.errors import SolverError
from repro.model.conference import Conference
from repro.netsim.noise import QuantizedPerturbation

HopRule = Literal["paper", "metropolis"]


# --------------------------------------------------------------------- #
# State space                                                           #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StateSpace:
    """The enumerated feasible set F with objective values."""

    assignments: tuple[Assignment, ...]
    phis: np.ndarray
    sids: tuple[int, ...]

    def __post_init__(self) -> None:
        self.phis.setflags(write=False)

    def __len__(self) -> int:
        return len(self.assignments)

    def index_of(self, assignment: Assignment) -> int:
        for i, state in enumerate(self.assignments):
            if state == assignment:
                return i
        raise SolverError("assignment is not a feasible state of this space")

    @property
    def phi_min(self) -> float:
        return float(self.phis.min())


def build_state_space(
    evaluator: ObjectiveEvaluator,
    sids: Iterable[int] | None = None,
    max_states: int = 1_000_000,
) -> StateSpace:
    """Enumerate F and evaluate Phi_f for every feasible state."""
    conference = evaluator.conference
    sid_list = list(sids) if sids is not None else list(range(conference.num_sessions))
    assignments = tuple(
        enumerate_assignments(conference, sid_list, max_states=max_states)
    )
    if not assignments:
        raise SolverError("the instance has no feasible states")
    phis = np.array(
        [evaluator.total(a, sid_list).phi for a in assignments], dtype=float
    )
    return StateSpace(assignments=assignments, phis=phis, sids=tuple(sid_list))


# --------------------------------------------------------------------- #
# Gibbs target and the log-sum-exp approximation                        #
# --------------------------------------------------------------------- #


def logsumexp(values: np.ndarray) -> float:
    """``log(sum(exp(values)))`` without overflow.

    The maximal terms are split out of the sum — ``max + log(m) +
    log1p(sum(exp(rest - max)) / m)`` for ``m`` tied maxima — which keeps
    precision when one term dominates.  Infinite and NaN inputs give
    scipy's answers (``-inf``, ``inf``, ``nan``) without warnings.
    """
    values = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        top = values.max()
        is_top = values == top
        count = np.count_nonzero(is_top)
        rest = np.where(is_top, 0.0, np.exp(values - top)).sum() / count
        return float(np.log1p(rest) + np.log(count) + top)


def gibbs_distribution(phis: np.ndarray, beta: float) -> np.ndarray:
    """Eq. (9): ``p*_f ∝ exp(-beta Phi_f)``, computed in the log domain."""
    log_w = -beta * np.asarray(phis, dtype=float)
    log_w = log_w - log_w.max()
    weights = np.exp(log_w)
    return weights / weights.sum()


def uap_beta_optimum(phis: np.ndarray, beta: float) -> float:
    """The optimal value ``Phi_hat`` of UAP-beta:
    ``-(1/beta) log sum_f exp(-beta Phi_f)``."""
    return float(-logsumexp(-beta * np.asarray(phis, dtype=float)) / beta)


def eq10_bounds(phis: np.ndarray, beta: float) -> tuple[float, float, float]:
    """``(lower, phi_hat, upper)`` of Eq. (10):
    ``min Phi - log|F|/beta <= Phi_hat <= min Phi``."""
    phis = np.asarray(phis, dtype=float)
    phi_min = float(phis.min())
    return (
        phi_min - np.log(len(phis)) / beta,
        uap_beta_optimum(phis, beta),
        phi_min,
    )


def expected_phi(distribution: np.ndarray, phis: np.ndarray) -> float:
    """``Phi_avg = sum_f p_f Phi_f``."""
    return float(np.dot(np.asarray(distribution), np.asarray(phis)))


def optimality_gap_bound(
    conference: Conference, beta: float, sids: Iterable[int] | None = None
) -> float:
    """Eq. (12)'s right-hand side, ``(U + theta_sum) log L / beta``,
    restricted to the active sessions when given."""
    if sids is None:
        users = conference.num_users
        tasks = conference.theta_sum
    else:
        users = 0
        tasks = 0
        for sid in sids:
            users += len(conference.session(sid).user_ids)
            tasks += len(conference.session_pair_indices(sid))
    return (users + tasks) * float(np.log(conference.num_agents)) / beta


# --------------------------------------------------------------------- #
# The exact CTMC of Alg. 1                                              #
# --------------------------------------------------------------------- #


def _owning_session(
    conference: Conference, a: Assignment, b: Assignment
) -> int | None:
    """The session owning the single differing decision, or None if the
    states differ in zero or more than one decision."""
    user_diff = np.nonzero(a.user_agent != b.user_agent)[0]
    task_diff = np.nonzero(a.task_agent != b.task_agent)[0]
    if len(user_diff) + len(task_diff) != 1:
        return None
    if len(user_diff) == 1:
        return conference.session_of(int(user_diff[0]))
    pair = conference.transcode_pairs[int(task_diff[0])]
    return conference.session_of(pair[0])


def generator_matrix(
    conference: Conference,
    space: StateSpace,
    beta: float,
    rule: HopRule = "paper",
    tau: float = 1.0,
) -> np.ndarray:
    """The CTMC generator Q realized by Alg. 1 on the enumerated space.

    Sessions wake independently at rate ``tau``.  Under the ``"paper"``
    rule a woken session jumps to candidate ``f'`` with probability
    ``softmax(0.5 beta (Phi_f - Phi_f'))`` over its candidate set; under
    ``"metropolis"`` it proposes uniformly and applies the Hastings-
    corrected acceptance (rejection keeps the state, contributing no
    off-diagonal rate).
    """
    size = len(space)
    neighbors: dict[int, dict[int, list[int]]] = {
        i: {} for i in range(size)
    }  # state -> session -> candidate state indices
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            sid = _owning_session(conference, space.assignments[i], space.assignments[j])
            if sid is not None:
                neighbors[i].setdefault(sid, []).append(j)

    q = np.zeros((size, size), dtype=float)
    for i in range(size):
        for sid, candidates in neighbors[i].items():
            if not candidates:
                continue
            phi_i = space.phis[i]
            phi_c = space.phis[candidates]
            if rule == "paper":
                log_w = 0.5 * beta * (phi_i - phi_c)
                log_w = log_w - log_w.max()
                weights = np.exp(log_w)
                weights = weights / weights.sum()
                for weight, j in zip(weights, candidates):
                    q[i, j] += tau * float(weight)
            else:
                forward = len(candidates)
                for j in candidates:
                    backward = len(neighbors[j].get(sid, []))
                    if backward == 0:
                        continue
                    log_accept = beta * (phi_i - space.phis[j]) + np.log(
                        forward / backward
                    )
                    accept = float(np.exp(min(0.0, log_accept)))
                    q[i, j] += tau * accept / forward
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def stationary_distribution(q: np.ndarray) -> np.ndarray:
    """Solve ``pi Q = 0``, ``sum pi = 1`` by least squares."""
    size = q.shape[0]
    a = np.vstack([q.T, np.ones((1, size))])
    b = np.zeros(size + 1)
    b[-1] = 1.0
    solution, *_ = np.linalg.lstsq(a, b, rcond=None)
    solution = np.clip(solution, 0.0, None)
    total = solution.sum()
    if total <= 0:
        raise SolverError("failed to compute a stationary distribution")
    return solution / total


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance between two distributions."""
    return float(0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum())


def simulate_occupancy(
    evaluator: ObjectiveEvaluator,
    space: StateSpace,
    initial: Assignment,
    beta: float,
    hops: int,
    rule: HopRule = "paper",
    rng: np.random.Generator | None = None,
    burn_in: int = 0,
) -> np.ndarray:
    """Empirical time-weighted occupancy of Alg. 1 over the state space.

    Sessions wake as a Poisson process with constant total rate, so the
    occupancy estimator weights each inter-wake interval with an
    exponential holding time (rejected Metropolis proposals simply extend
    the current state's holding).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    solver = MarkovAssignmentSolver(
        evaluator,
        initial,
        config=MarkovConfig(beta=beta, hop_rule=rule),
        active_sids=list(space.sids),
        rng=rng,
    )
    occupancy = np.zeros(len(space), dtype=float)
    index_by_key = {a.key(): i for i, a in enumerate(space.assignments)}
    active = solver.context.active_sessions
    for step in range(hops):
        holding = float(rng.exponential(1.0))
        if step >= burn_in:
            occupancy[index_by_key[solver.assignment.key()]] += holding
        sid = active[int(rng.integers(len(active)))]
        solver.session_hop(sid)
    total = occupancy.sum()
    if total <= 0:
        raise SolverError("occupancy simulation recorded no time (hops too small?)")
    return occupancy / total


# --------------------------------------------------------------------- #
# Theorem 1: perturbed chain                                            #
# --------------------------------------------------------------------- #


def perturbed_stationary(
    phis: np.ndarray,
    beta: float,
    perturbations: Sequence[QuantizedPerturbation],
) -> np.ndarray:
    """Eq. (11): ``p_bar_f ∝ delta_f exp(-beta Phi_f)`` with
    ``delta_f = sum_j eta_j exp(beta j Delta_f / n_f)``."""
    phis = np.asarray(phis, dtype=float)
    if len(perturbations) != len(phis):
        raise SolverError("one perturbation model per state is required")
    log_delta = np.array(
        [
            logsumexp(np.log(np.asarray(p.eta)) + beta * p.offsets)
            for p in perturbations
        ]
    )
    log_w = log_delta - beta * phis
    log_w = log_w - log_w.max()
    weights = np.exp(log_w)
    return weights / weights.sum()


def eq13_bound(
    conference: Conference,
    beta: float,
    delta_max: float,
    sids: Iterable[int] | None = None,
) -> float:
    """Eq. (13)'s right-hand side:
    ``(U + theta_sum) log L / beta + Delta_max``."""
    return optimality_gap_bound(conference, beta, sids) + delta_max
