"""Tests for repro.runtime.live and the incremental re-solve kernels.

Two layers are pinned here.  First the :class:`SearchContext` entry
points — :meth:`best_candidate` and :meth:`greedy_refine` — must agree
bit-for-bit with a per-move walk over the oracle costs and stay
rng-free.  Second
the extracted :class:`LiveConference` engine must reproduce exactly
what a freshly built search context computes for the same active set,
restore state on infeasible resizes, and carry hop counters across
evaluator swaps — the properties both the simulator and the placement
service lean on.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.runtime.live as live_module
from repro.core.markov import MarkovConfig
from repro.core.nearest import nearest_assignment
from repro.core.neighborhood import session_moves
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.core.search import Candidate, SearchContext
from repro.errors import InfeasibleError
from repro.runtime.live import LiveConference
from repro.workloads.prototype import prototype_conference
from repro.workloads.scenarios import ScenarioParams, scenario_conference


def make_evaluator(conference, alphas=(1.0, 1.0, 1.0)):
    a1, a2, a3 = alphas
    return ObjectiveEvaluator(
        conference,
        ObjectiveWeights.normalized_for(conference, alpha1=a1, alpha2=a2, alpha3=a3),
    )


def make_context(conference, sids=None):
    evaluator = make_evaluator(conference)
    sids = list(range(conference.num_sessions)) if sids is None else list(sids)
    assignment = nearest_assignment(conference, sids)
    return SearchContext(evaluator, assignment, active_sids=sids)


def oracle_best(context, sid):
    """The first lowest-``phi`` feasible neighbour, one move at a time
    through the per-assignment oracle."""
    evaluator = context.evaluator
    conference = context.conference
    best = None
    for move in session_moves(conference, context.assignment, sid):
        candidate = move.apply(context.assignment)
        cost = evaluator.session_cost(candidate, sid)
        _, max_flow = evaluator.profile.session_delays(
            candidate.user_agent, candidate.task_agent, sid
        )
        if not context.ledger.fits(cost.usage):
            continue
        if max_flow > conference.dmax_ms + 1e-9:
            continue
        if best is None or cost.phi < best.phi:
            best = Candidate(move=move, assignment=candidate, cost=cost)
    return best


class TestBestCandidate:
    def test_matches_oracle_bit_for_bit(self, small_scenario_conf):
        context = make_context(small_scenario_conf)
        for sid in range(small_scenario_conf.num_sessions):
            fast = context.best_candidate(sid)
            ref = oracle_best(context, sid)
            assert (ref is None) == (fast is None)
            if ref is None:
                continue
            assert ref.move == fast.move
            assert ref.phi == fast.phi  # exact, not approx
            assert ref.assignment == fast.assignment

    def test_is_the_argmin_of_the_feasible_set(self, small_scenario_conf):
        context = make_context(small_scenario_conf)
        for sid in range(small_scenario_conf.num_sessions):
            best = context.best_candidate(sid)
            candidates = context.feasible_candidates(sid)
            assert best is not None
            assert best.phi == min(c.phi for c in candidates)

    def test_repeat_calls_are_identical(self, small_scenario_conf):
        """rng-free: the same live state always names the same move."""
        context = make_context(small_scenario_conf)
        first = context.best_candidate(0)
        second = context.best_candidate(0)
        assert first.move == second.move
        assert first.phi == second.phi

    def test_none_when_no_moves_exist(self):
        conf = prototype_conference(
            seed=1, num_sessions=2, regions_override=("Virginia",)
        )
        context = make_context(conf)
        assert context.best_candidate(0) is None


class TestGreedyRefine:
    def test_commits_only_strict_improvements(self, small_scenario_conf):
        context = make_context(small_scenario_conf)
        before = context.total_phi()
        hops = context.greedy_refine(0, max_hops=8)
        assert 0 <= hops <= 8
        assert context.total_phi() <= before
        if hops < 8:
            # Terminated because no improving move remains.
            best = context.best_candidate(0)
            assert best is None or best.phi >= context.session_cost(0).phi

    def test_zero_budget_is_a_noop(self, small_scenario_conf):
        context = make_context(small_scenario_conf)
        before = context.assignment
        assert context.greedy_refine(0, max_hops=0) == 0
        assert context.assignment == before

    def test_lands_on_the_oracle_refine_state(self, small_scenario_conf):
        def oracle_refine(context, sid, max_hops):
            hops = 0
            while hops < max_hops:
                best = oracle_best(context, sid)
                if best is None or best.phi >= context.session_cost(sid).phi:
                    break
                context.commit(sid, best)
                hops += 1
            return hops

        fast = make_context(small_scenario_conf)
        oracle = make_context(small_scenario_conf)
        sids = range(small_scenario_conf.num_sessions)
        fast_hops = [fast.greedy_refine(sid, max_hops=4) for sid in sids]
        oracle_hops = [oracle_refine(oracle, sid, 4) for sid in sids]
        assert sum(fast_hops) > 0
        assert fast_hops == oracle_hops
        assert fast.assignment == oracle.assignment
        assert fast.total_phi() == oracle.total_phi()


class TestLiveConferenceDynamics:
    @pytest.fixture()
    def conf(self):
        params = ScenarioParams(num_user_sites=32, num_users=16)
        return scenario_conference(seed=5, params=params)

    def test_arrive_matches_fresh_context(self, conf):
        """Splicing sessions in one at a time lands on the state a cold
        build over the same active set computes."""
        evaluator = make_evaluator(conf)
        initial = [0]
        live = LiveConference.bootstrap(evaluator, initial)
        for sid in range(1, conf.num_sessions):
            live.arrive(sid)
        sids = list(range(conf.num_sessions))
        cold = SearchContext(
            evaluator, nearest_assignment(conf, sids), active_sids=sids
        )
        assert live.assignment == cold.assignment
        assert live.total_phi() == cold.total_phi()

    def test_depart_releases_capacity(self, conf):
        evaluator = make_evaluator(conf)
        sids = list(range(conf.num_sessions))
        live = LiveConference.bootstrap(evaluator, sids)
        live.depart(1)
        assert 1 not in live.active_sessions
        # A fresh context over the reduced set agrees on phi.
        survivors = [s for s in sids if s != 1]
        cold = SearchContext(
            evaluator,
            live.assignment,
            active_sids=survivors,
        )
        assert live.total_phi() == cold.total_phi()
        # The freed capacity admits the session again.
        live.arrive(1)
        assert 1 in live.active_sessions

    def test_resize_restores_placement_on_infeasible(self, conf, monkeypatch):
        evaluator = make_evaluator(conf)
        live = LiveConference.bootstrap(evaluator, list(range(conf.num_sessions)))
        before_assignment = live.assignment
        before_phi = live.total_phi()

        def explode(sid):
            raise InfeasibleError("no placement fits")

        monkeypatch.setattr(live, "placement_for", explode)
        with pytest.raises(InfeasibleError):
            live.resize(2)
        assert live.assignment == before_assignment
        assert live.total_phi() == before_phi
        assert 2 in live.active_sessions

    def test_resolve_from_scratch_failure_leaves_state_untouched(
        self, conf, monkeypatch
    ):
        evaluator = make_evaluator(conf)
        live = LiveConference.bootstrap(evaluator, [0, 1, 2])
        before_assignment = live.assignment
        before_active = live.active_sessions

        def explode(*args, **kwargs):
            raise InfeasibleError("pool exhausted")

        monkeypatch.setattr(live_module, "bootstrap_assignment", explode)
        with pytest.raises(InfeasibleError):
            live.resolve_from_scratch(extra_sid=3)
        assert live.assignment == before_assignment
        assert live.active_sessions == before_active
        assert 3 not in live.active_sessions

    def test_resolve_from_scratch_admits_extra_sid(self, conf):
        evaluator = make_evaluator(conf)
        live = LiveConference.bootstrap(evaluator, [0, 1])
        live.resolve_from_scratch(extra_sid=3)
        assert live.active_sessions == [0, 1, 3]
        # Equal to a cold bootstrap over the same set.
        cold = nearest_assignment(conf, [0, 1, 3])
        assert live.assignment == cold

    def test_swap_evaluator_carries_hops_and_state(self, conf):
        evaluator = make_evaluator(conf)
        live = LiveConference.bootstrap(
            evaluator,
            list(range(conf.num_sessions)),
            markov=MarkovConfig(beta=400.0),
            rng=np.random.default_rng(9),
        )
        for sid in range(conf.num_sessions):
            live.hop(sid)
        hops_before = live.hops
        assert hops_before == conf.num_sessions
        assignment_before = live.assignment
        swapped = make_evaluator(conf, alphas=(2.0, 1.0, 1.0))
        live.swap_evaluator(swapped)
        assert live.hops == hops_before  # accumulated, not reset
        assert live.assignment == assignment_before
        assert live.evaluator is swapped
        live.hop(0)
        assert live.hops == hops_before + 1

    def test_refine_is_deterministic_and_bounded(self, conf):
        evaluator = make_evaluator(conf)
        results = []
        for _ in range(2):
            live = LiveConference.bootstrap(evaluator, [0])
            for sid in range(1, conf.num_sessions):
                live.arrive(sid)
                live.refine(sid, 2)
            results.append((live.assignment, live.total_phi()))
        assert results[0] == results[1]
        assert LiveConference.bootstrap(evaluator, [0]).refine(0, 0) == 0

    def test_agrank_policy_places_against_live_ledger(self, conf):
        from repro.core.agrank import AgRankConfig

        evaluator = make_evaluator(conf)
        live = LiveConference.bootstrap(
            evaluator,
            [0],
            initial_policy="agrank",
            agrank=AgRankConfig(n_ngbr=2),
        )
        live.arrive(1)
        assert set(live.active_sessions) == {0, 1}
        placed = live.assignment
        for uid in conf.session(1).user_ids:
            assert 0 <= placed.agent_of(uid) < conf.num_agents
