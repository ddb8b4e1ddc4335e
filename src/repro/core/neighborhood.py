"""Single-decision neighbourhood (paper Sec. IV-A.2).

To keep migration overhead low, the Markov chain only links assignments
that differ in *exactly one* decision variable: one user's agent or one
transcoding task's agent.  This module enumerates those moves for a
session; feasibility filtering happens in the search layer, where the
capacity ledger lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal

from repro.core.assignment import Assignment
from repro.errors import ModelError
from repro.model.conference import Conference

#: Integer codes for :attr:`Move.kind`, shared with the flat-array move
#: representation of :mod:`repro.core.arrays`.
KIND_USER = 0
KIND_TASK = 1


@dataclass(frozen=True)
class Move:
    """One elementary migration.

    ``kind`` selects the decision dimension: ``"user"`` re-attaches user
    ``index`` (a uid), ``"task"`` re-places transcoding pair ``index`` (a
    position in ``Conference.transcode_pairs``).
    """

    kind: Literal["user", "task"]
    index: int
    old_agent: int
    new_agent: int

    def __post_init__(self) -> None:
        if self.kind not in ("user", "task"):
            raise ModelError(f"unknown move kind {self.kind!r}")
        if self.old_agent == self.new_agent:
            raise ModelError("a move must change the agent")

    def apply(self, assignment: Assignment) -> Assignment:
        """The neighbouring assignment this move leads to."""
        if self.kind == "user":
            return assignment.with_user(self.index, self.new_agent)
        return assignment.with_task(self.index, self.new_agent)

    def describe(self, conference: Conference) -> str:
        """Human-readable rendering, e.g. for migration logs."""
        new = conference.agent(self.new_agent).name
        old = conference.agent(self.old_agent).name
        if self.kind == "user":
            return f"user {conference.user(self.index).name}: {old} -> {new}"
        source, destination = conference.transcode_pairs[self.index]
        return (
            f"transcode {conference.user(source).name}->"
            f"{conference.user(destination).name}: {old} -> {new}"
        )


def session_moves(
    conference: Conference, assignment: Assignment, sid: int
) -> Iterator[Move]:
    """All single-decision moves available to session ``sid``.

    Yields ``|U(s)| * (L-1) + |pairs(s)| * (L-1)`` moves; the time
    complexity of materializing and evaluating them matches the paper's
    ``O(|U(s)|^2 L)`` per-iteration bound (each evaluation is
    ``O(|U(s)|)`` for delay terms).
    """
    num_agents = conference.num_agents
    session = conference.session(sid)
    for uid in session.user_ids:
        current = assignment.agent_of(uid)
        for agent in range(num_agents):
            if agent != current:
                yield Move("user", uid, current, agent)
    for i in conference.session_pair_indices(sid):
        current = assignment.task_agent_of(i)
        for agent in range(num_agents):
            if agent != current:
                yield Move("task", i, current, agent)


def count_session_moves(conference: Conference, sid: int) -> int:
    """Size of the move set (before feasibility filtering)."""
    session = conference.session(sid)
    pairs = conference.session_pair_indices(sid)
    return (len(session.user_ids) + len(pairs)) * (conference.num_agents - 1)
