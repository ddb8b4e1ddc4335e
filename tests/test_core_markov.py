"""Tests for repro.core.markov — Alg. 1."""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.exact import solve_exact
from repro.core.markov import (
    MarkovAssignmentSolver,
    MarkovConfig,
    hop_log_weights,
    hop_probabilities,
    metropolis_log_acceptance,
)
from repro.core.nearest import nearest_assignment
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.core.search import SearchContext
from repro.errors import SolverError
from repro.netsim.noise import QuantizedPerturbation
from tests.conftest import build_pair_conference


@pytest.fixture()
def conf():
    return build_pair_conference("720p", "360p", "360p", "480p")


@pytest.fixture()
def evaluator(conf):
    return ObjectiveEvaluator(conf, ObjectiveWeights.normalized_for(conf))


class TestHopProbabilities:
    def test_sum_to_one(self):
        probabilities = hop_probabilities(1.0, np.array([0.5, 1.5, 2.0]), beta=4.0)
        assert probabilities.sum() == pytest.approx(1.0)

    def test_two_candidate_ratio(self):
        """p_a / p_b = exp(0.5 * beta * (phi_b - phi_a))."""
        beta = 2.0
        probabilities = hop_probabilities(1.0, np.array([0.4, 1.2]), beta=beta)
        expected_ratio = np.exp(0.5 * beta * (1.2 - 0.4))
        assert probabilities[0] / probabilities[1] == pytest.approx(expected_ratio)

    def test_lower_phi_more_probable(self):
        probabilities = hop_probabilities(1.0, np.array([0.2, 0.8, 1.4]), beta=3.0)
        assert probabilities[0] > probabilities[1] > probabilities[2]

    def test_extreme_beta_no_overflow(self):
        """Raw-unit objectives at beta = 400 must not overflow."""
        probabilities = hop_probabilities(
            500.0, np.array([100.0, 900.0]), beta=400.0
        )
        assert np.isfinite(probabilities).all()
        assert probabilities[0] == pytest.approx(1.0)

    def test_log_weights_formula(self):
        weights = hop_log_weights(2.0, np.array([1.0, 3.0]), beta=4.0)
        assert list(weights) == pytest.approx([2.0, -2.0])


class TestConfig:
    def test_validation(self):
        with pytest.raises(SolverError):
            MarkovConfig(beta=0.0)
        with pytest.raises(SolverError):
            MarkovConfig(tau=0.0)
        with pytest.raises(SolverError):
            MarkovConfig(hop_rule="gibbs")


class TestSolver:
    def test_paper_rule_always_migrates(self, evaluator):
        solver = MarkovAssignmentSolver(
            evaluator,
            Assignment(np.array([0, 1]), np.array([0])),
            rng=np.random.default_rng(0),
        )
        for _ in range(20):
            result = solver.session_hop(0)
            assert result.moved
        assert solver.migrations == 20

    def test_escapes_local_optimum_to_find_global(self, conf, evaluator):
        """The fixture's landscape has a local optimum (phi = 3.95) between
        Nrst and the global optimum (phi = 3.6); greedy provably gets stuck
        there (see test_core_solvers), while the chain crosses the ridge at
        moderate beta."""
        exact = solve_exact(evaluator)
        solver = MarkovAssignmentSolver(
            evaluator,
            nearest_assignment(conf),
            config=MarkovConfig(beta=8.0),
            rng=np.random.default_rng(1),
        )
        solver.run(400)
        assert solver.best_phi == pytest.approx(exact.phi, rel=1e-9)
        assert solver.best_assignment == exact.assignment

    def test_best_phi_monotone_nonincreasing(self, conf, evaluator):
        solver = MarkovAssignmentSolver(
            evaluator, nearest_assignment(conf), rng=np.random.default_rng(2)
        )
        best_values = []
        for _ in range(30):
            solver.session_hop(0)
            best_values.append(solver.best_phi)
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best_values, best_values[1:]))

    def test_metropolis_rule_can_reject(self, conf, evaluator):
        solver = MarkovAssignmentSolver(
            evaluator,
            nearest_assignment(conf),
            config=MarkovConfig(beta=64.0, hop_rule="metropolis"),
            rng=np.random.default_rng(3),
        )
        results = [solver.session_hop(0) for _ in range(60)]
        assert any(not r.moved for r in results)  # rejections happen
        assert any(r.moved for r in results)  # and acceptances too

    def test_run_until_stable_terminates(self, conf, evaluator):
        solver = MarkovAssignmentSolver(
            evaluator, nearest_assignment(conf), rng=np.random.default_rng(4)
        )
        hops = solver.run_until_stable(min_hops=10, max_hops=500)
        assert 10 <= hops <= 500

    def test_deterministic_under_seed(self, conf, evaluator):
        runs = []
        for _ in range(2):
            solver = MarkovAssignmentSolver(
                evaluator, nearest_assignment(conf), rng=np.random.default_rng(7)
            )
            solver.run(50)
            runs.append(solver.assignment)
        assert runs[0] == runs[1]

    def test_noisy_oracle_still_feasible(self, conf, evaluator):
        from repro.core.feasibility import is_feasible

        solver = MarkovAssignmentSolver(
            evaluator,
            nearest_assignment(conf),
            noise=QuantizedPerturbation(delta=0.05, levels=2),
            rng=np.random.default_rng(5),
        )
        solver.run(80)
        assert is_feasible(conf, solver.assignment)

    def test_run_requires_sessions(self, conf, evaluator):
        solver = MarkovAssignmentSolver(
            evaluator,
            Assignment(np.array([0, 1]), np.array([0])),
            rng=np.random.default_rng(0),
        )
        solver.context.remove_session(0)
        with pytest.raises(SolverError):
            solver.run(1)

    def test_hop_callback_invoked(self, conf, evaluator):
        solver = MarkovAssignmentSolver(
            evaluator,
            nearest_assignment(conf),
            rng=np.random.default_rng(0),
        )
        seen = []
        solver.run(5, on_hop=seen.append)
        assert len(seen) == 5

class TestMetropolisHastings:
    """The Hastings correction and its (probe-free) backward count."""

    def test_log_acceptance_pins_hastings_ratio(self):
        """``beta * (phi - phi') + log(|N(f)| / |N(f')|)`` exactly."""
        value = metropolis_log_acceptance(
            beta=2.0,
            phi_current=1.0,
            phi_proposal=0.5,
            forward_degree=6,
            backward_degree=3,
        )
        assert value == pytest.approx(2.0 * 0.5 + np.log(2.0))
        # Symmetric neighbourhoods reduce to pure Metropolis.
        symmetric = metropolis_log_acceptance(4.0, 1.0, 1.25, 5, 5)
        assert symmetric == pytest.approx(-1.0)
        # A shrinking neighbourhood at the proposal boosts acceptance.
        assert metropolis_log_acceptance(1.0, 1.0, 1.0, 8, 2) == pytest.approx(
            np.log(4.0)
        )

    def test_count_feasible_matches_probe_context(self):
        """The backward degree equals what the old full-SearchContext
        probe computed, without rebuilding any search state."""
        from repro.workloads.scenarios import ScenarioParams, scenario_conference

        conference = scenario_conference(
            seed=23,
            params=ScenarioParams(
                num_user_sites=32,
                num_users=16,
                mean_bandwidth_mbps=200.0,
                mean_transcode_slots=18.0,
            ),
        )
        evaluator = ObjectiveEvaluator(
            conference, ObjectiveWeights.normalized_for(conference)
        )
        assignment = nearest_assignment(conference)
        context = SearchContext(evaluator, assignment)
        for sid in range(min(4, conference.num_sessions)):
            for candidate in context.feasible_candidates(sid)[:5]:
                probe = SearchContext(
                    evaluator,
                    candidate.assignment,
                    active_sids=context.active_sessions,
                )
                expected = len(probe.feasible_candidates(sid))
                assert context.count_feasible(sid, candidate.assignment) == expected

    def test_metropolis_hop_builds_no_probe_context(self, conf, evaluator, monkeypatch):
        """Regression: the Hastings count must reuse the live context."""
        solver = MarkovAssignmentSolver(
            evaluator,
            nearest_assignment(conf),
            config=MarkovConfig(beta=16.0, hop_rule="metropolis"),
            rng=np.random.default_rng(11),
        )
        constructions = []
        original_init = SearchContext.__init__

        def counting_init(self, *args, **kwargs):
            constructions.append(self)
            return original_init(self, *args, **kwargs)

        monkeypatch.setattr(SearchContext, "__init__", counting_init)
        for _ in range(25):
            solver.session_hop(0)
        assert constructions == []


class TestSolverMultiSession:
    def test_multi_session_hops_only_touch_own_session(self, proto_conf):
        evaluator = ObjectiveEvaluator(
            proto_conf, ObjectiveWeights.normalized_for(proto_conf)
        )
        solver = MarkovAssignmentSolver(
            evaluator, nearest_assignment(proto_conf), rng=np.random.default_rng(6)
        )
        before = solver.assignment
        result = solver.session_hop(3)
        if result.moved:
            after = solver.assignment
            changed_users = np.nonzero(before.user_agent != after.user_agent)[0]
            changed_pairs = np.nonzero(before.task_agent != after.task_agent)[0]
            touched_sids = {proto_conf.session_of(int(u)) for u in changed_users}
            touched_sids.update(
                proto_conf.session_of(proto_conf.transcode_pairs[int(i)][0])
                for i in changed_pairs
            )
            assert touched_sids == {3}
