"""Equivalence suite: the struct-of-arrays kernel vs the per-assignment oracle.

The arrays kernel (:mod:`repro.core.arrays`) is the only candidate
evaluator the solvers run.  It earns that place by agreeing bit-for-bit
with the oracle — :meth:`ConferenceProfile.session_usage` /
:meth:`ConferenceProfile.session_delays` applied to each neighbouring
assignment (themselves pinned to :mod:`repro.core.traffic` /
:mod:`repro.core.delay` in ``test_core_fastpath.py``), the capacity
ledger's ``fits`` and :meth:`ObjectiveEvaluator.assemble_session_cost`.
These tests enforce that contract on arbitrary states of randomized
conferences, on edge-case conferences (one agent, one user pair), on
the split-flow fallback, and at *every state visited* by solver
trajectories — usage rows, masks, ``phi`` and noise draws included.
Trajectory assertions also require non-trivial acceptance counts, so an
accidentally-empty candidate stream can never pass as "equivalent".
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.annealing import AnnealingConfig, simulated_annealing
from repro.core.arrays import (
    ConferenceArrays,
    PhiArray,
    arrays_for,
    capacity_mask,
    delay_mask,
)
from repro.core.assignment import Assignment
from repro.core.fastpath import profile_for
from repro.core.greedy import IMPROVEMENT_EPSILON, greedy_descent
from repro.core.feasibility import CAPACITY_TOLERANCE, check_assignment
from repro.core.markov import (
    MarkovAssignmentSolver,
    MarkovConfig,
    hop_probabilities,
    metropolis_log_acceptance,
)
from repro.core.nearest import nearest_assignment
from repro.core.neighborhood import KIND_USER, session_moves
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.core.search import SearchContext
from repro.fleet.compile import compile_spec
from repro.fleet.library import load_library_spec
from repro.fleet.orchestrator import expand_matrix
from repro.netsim.noise import GaussianNoise, NoNoise, QuantizedPerturbation
from repro.workloads.prototype import prototype_conference
from repro.workloads.scenarios import ScenarioParams, scenario_conference
from tests.conftest import build_pair_conference

#: Randomized instances: unconstrained, capacity-tight, transcode-heavy.
SCENARIO_GRID = [
    (3, ScenarioParams(num_user_sites=32, num_users=12)),
    (5, ScenarioParams(num_user_sites=64, num_users=30)),
    (
        7,
        ScenarioParams(
            num_user_sites=48,
            num_users=24,
            mean_bandwidth_mbps=250.0,
            mean_transcode_slots=25.0,
        ),
    ),
    (
        11,
        ScenarioParams(
            num_user_sites=64,
            num_users=20,
            max_session_size=4,
            session_locality=0.4,
        ),
    ),
]

ALPHAS = [(1.0, 1.0, 1.0), (5.0, 1.0, 0.2)]

#: A conference whose capacities bind: some candidates fail only the
#: capacity mask, so the ledger path is exercised along trajectories.
TIGHT = (
    17,
    ScenarioParams(
        num_user_sites=48,
        num_users=24,
        mean_bandwidth_mbps=140.0,
        mean_transcode_slots=12.0,
    ),
)

#: Scarce bandwidth and transcode slots: every capacity resource
#: rejects some candidates at arbitrary states.
SCARCE = (
    17,
    ScenarioParams(
        num_user_sites=48,
        num_users=24,
        mean_bandwidth_mbps=100.0,
        mean_transcode_slots=4.0,
    ),
)

USAGE_FIELDS = ("inter_in", "inter_out", "download", "upload", "transcodes")


def make_evaluator(conference, alphas=(1.0, 1.0, 1.0)):
    a1, a2, a3 = alphas
    return ObjectiveEvaluator(
        conference,
        ObjectiveWeights.normalized_for(
            conference, alpha1=a1, alpha2=a2, alpha3=a3
        ),
    )


def random_assignment(conference, rng):
    """An arbitrary (not necessarily feasible) full assignment."""
    return Assignment(
        rng.integers(0, conference.num_agents, conference.num_users),
        rng.integers(0, conference.num_agents, conference.theta_sum),
    )


def assert_rows_match_oracle(evaluation, profile, conference, assignment, sid, tag=""):
    """Every row of a :class:`BatchEvaluation` equals the oracle, bitwise,
    in :func:`session_moves` order."""
    moves = list(session_moves(conference, assignment, sid))
    assert evaluation.size == len(moves), f"{tag}: candidate count"
    for i, move in enumerate(moves):
        assert evaluation.moves.move(i) == move, f"{tag}: move {i}"
        candidate = move.apply(assignment)
        usage = profile.session_usage(candidate.user_agent, candidate.task_agent, sid)
        mean, max_flow = profile.session_delays(
            candidate.user_agent, candidate.task_agent, sid
        )
        for field in USAGE_FIELDS:
            assert np.array_equal(
                getattr(evaluation, field)[i], getattr(usage, field)
            ), f"{tag}: {field} row {i}"
        assert evaluation.delay_cost_ms[i] == mean, f"{tag}: delay row {i}"
        assert evaluation.max_flow_ms[i] == max_flow, f"{tag}: max flow row {i}"


def oracle_candidates(context, sid, noise, rng):
    """The per-move walk the kernel replaces: ``(move, feasible, cost)``
    for every neighbour, with noise drawn per feasible candidate in
    enumeration order."""
    evaluator = context.evaluator
    profile = evaluator.profile
    conference = context.conference
    assignment = context.assignment
    out = []
    for move in session_moves(conference, assignment, sid):
        candidate = move.apply(assignment)
        usage = profile.session_usage(candidate.user_agent, candidate.task_agent, sid)
        delay_cost, max_flow = profile.session_delays(
            candidate.user_agent, candidate.task_agent, sid
        )
        fits = context.ledger.fits(usage)
        delay_ok = not max_flow > conference.dmax_ms + 1e-9
        cost = evaluator.assemble_session_cost(sid, usage, delay_cost)
        observed = noise.perturb(cost.phi, rng) if fits and delay_ok else None
        out.append((move, fits, delay_ok, cost, observed))
    return out


def assert_batch_matches_oracle(context, batch, expected, tag=""):
    """Masks, observed ``phi`` and materialized candidates vs the oracle."""
    assert batch.feasible_mask.tolist() == [
        fits and delay_ok for _, fits, delay_ok, _, _ in expected
    ], f"{tag}: feasibility mask"
    feasible = [entry for entry in expected if entry[4] is not None]
    assert batch.phi.tolist() == [observed for *_, observed in feasible], (
        f"{tag}: observed phi"
    )
    for position, (move, _, _, cost, observed) in enumerate(feasible):
        candidate = batch.materialize(position)
        assert candidate.move == move
        assert candidate.assignment == move.apply(context.assignment)
        assert candidate.phi == observed
        assert candidate.cost.delay_cost_ms == cost.delay_cost_ms
        assert candidate.cost.traffic_cost == cost.traffic_cost
        assert candidate.cost.transcode_cost == cost.transcode_cost
        for field in USAGE_FIELDS:
            assert np.array_equal(
                getattr(candidate.cost.usage, field), getattr(cost.usage, field)
            )


class TestKernelEquivalence:
    """The raw batch evaluation, on arbitrary assignments."""

    @pytest.mark.parametrize("seed,params", SCENARIO_GRID)
    def test_random_states_bitwise_equal(self, seed, params):
        conference = scenario_conference(seed=seed, params=params)
        profile = profile_for(conference)
        arrays = arrays_for(profile)
        rng = np.random.default_rng(71)
        for trial in range(12):
            assignment = random_assignment(conference, rng)
            sid = int(rng.integers(conference.num_sessions))
            assert_rows_match_oracle(
                arrays.evaluate_candidates(assignment, sid),
                profile,
                conference,
                assignment,
                sid,
                f"seed={seed} trial={trial} sid={sid}",
            )

    def test_split_flow_fallback_bitwise_equal(self):
        """Force the split (non-fused) flow path and re-check the oracle.

        The fused formula requires a clean latency matrix; layouts built
        with ``flows_fused=False`` must produce the same bits through
        the split direct/transcoded blocks and the runtime permutation.
        """
        conference = scenario_conference(
            seed=7, params=ScenarioParams(num_user_sites=48, num_users=24)
        )
        profile = profile_for(conference)
        assert arrays_for(profile)._flows_fused, "library matrices should be clean"
        split = ConferenceArrays(profile)
        split._flows_fused = False
        rng = np.random.default_rng(5)
        for trial in range(10):
            assignment = random_assignment(conference, rng)
            sid = int(rng.integers(conference.num_sessions))
            assert_rows_match_oracle(
                split.evaluate_candidates(assignment, sid),
                profile,
                conference,
                assignment,
                sid,
                f"trial={trial} sid={sid}",
            )

    @pytest.mark.parametrize("seed,params", SCENARIO_GRID + [TIGHT, SCARCE])
    def test_feasibility_masks_match_oracle(self, seed, params):
        """``capacity_mask`` / ``delay_mask`` agree, row by row, with the
        ledger's per-candidate ``fits`` and the oracle's max-flow check
        (constraints (5)-(8)) on arbitrary, mostly infeasible states.
        Each capacity resource is also checked on its own (the other
        residuals set to ``inf``), so no single clause can go missing."""
        conference = scenario_conference(seed=seed, params=params)
        context = SearchContext(make_evaluator(conference), nearest_assignment(conference))
        profile = context.evaluator.profile
        arrays = arrays_for(profile)
        rng = np.random.default_rng(43)
        rejected = np.zeros(3, dtype=int)  # download, upload, slots
        for trial in range(8):
            assignment = random_assignment(conference, rng)
            sid = int(rng.integers(conference.num_sessions))
            evaluation = arrays.evaluate_candidates(assignment, sid)
            residuals = context.ledger.residuals(excluding_sid=sid)
            fits = capacity_mask(evaluation, *residuals, CAPACITY_TOLERANCE)
            alone = []
            for r, residual in enumerate(residuals):
                isolated = [np.full_like(other, np.inf) for other in residuals]
                isolated[r] = residual
                alone.append(capacity_mask(evaluation, *isolated, CAPACITY_TOLERANCE))
                rejected[r] += int((~alone[r]).sum())
            delay_ok = delay_mask(evaluation, conference.dmax_ms)
            for i, move in enumerate(session_moves(conference, assignment, sid)):
                candidate = move.apply(assignment)
                usage = profile.session_usage(
                    candidate.user_agent, candidate.task_agent, sid
                )
                _, max_flow = profile.session_delays(
                    candidate.user_agent, candidate.task_agent, sid
                )
                tag = f"trial={trial} sid={sid} row={i}"
                assert bool(fits[i]) == context.ledger.fits(usage), tag
                for r, field in enumerate(("download", "upload", "transcodes")):
                    assert bool(alone[r][i]) == bool(
                        np.all(getattr(usage, field) <= residuals[r] + CAPACITY_TOLERANCE)
                    ), f"{tag} {field}"
                assert bool(delay_ok[i]) == (
                    not max_flow > conference.dmax_ms + 1e-9
                ), tag
        if (seed, params) == TIGHT:
            assert rejected.sum() > 0, "capacity never bound"
        if (seed, params) == SCARCE:
            assert (rejected > 0).all(), f"a resource never bound: {rejected}"

    def test_move_order_matches_session_moves(self, small_scenario_conf):
        conference = small_scenario_conf
        arrays = arrays_for(profile_for(conference))
        assignment = nearest_assignment(conference)
        for sid in range(conference.num_sessions):
            moves = arrays.evaluate_candidates(assignment, sid).moves
            listed = list(session_moves(conference, assignment, sid))
            assert moves.size == len(listed)
            assert [moves.move(i) for i in range(moves.size)] == listed
            # Users first, then transcoding pairs; L - 1 agents each.
            kinds = moves.kinds.tolist()
            assert kinds == sorted(kinds, key=lambda k: k != KIND_USER)

    def test_single_agent_conference_yields_empty_batch(self):
        conference = prototype_conference(
            seed=1, num_sessions=2, regions_override=("Virginia",)
        )
        evaluator = make_evaluator(conference)
        assignment = nearest_assignment(conference)
        evaluation = arrays_for(evaluator.profile).evaluate_candidates(assignment, 0)
        assert evaluation.size == 0
        assert evaluation.download.shape == (0, 1)
        assert list(session_moves(conference, assignment, 0)) == []
        context = SearchContext(evaluator, assignment)
        assert context.candidate_batch(0).num_feasible == 0
        assert context.count_feasible(0, assignment) == 0
        assert context.best_candidate(0) is None
        solver = MarkovAssignmentSolver(evaluator, assignment)
        hop = solver.session_hop(0)
        assert not hop.moved and hop.num_candidates == 0

    @pytest.mark.parametrize(
        "reps",
        [("720p", "360p", "360p", "480p"), ("720p", "720p", "720p", "720p")],
    )
    def test_pair_conference_matches_oracle(self, reps):
        conference = build_pair_conference(*reps)
        evaluator = make_evaluator(conference)
        task_agent = np.zeros(conference.theta_sum, dtype=np.int64)
        assignment = Assignment(np.array([0, 1]), task_agent)
        assert_rows_match_oracle(
            arrays_for(evaluator.profile).evaluate_candidates(assignment, 0),
            evaluator.profile,
            conference,
            assignment,
            0,
        )
        context = SearchContext(evaluator, assignment)
        expected = oracle_candidates(context, 0, NoNoise(), None)
        assert_batch_matches_oracle(context, context.candidate_batch(0), expected)

    def test_arrays_instance_cached_on_profile(self):
        profile = profile_for(prototype_conference())
        assert arrays_for(profile) is arrays_for(profile)


class TestCandidateEquivalence:
    """SearchContext candidate batches: masks, costs and noise draws."""

    @staticmethod
    def _check_candidates(seed, params, alphas):
        conference = scenario_conference(seed=seed, params=params)
        evaluator = make_evaluator(conference, alphas)
        context = SearchContext(evaluator, nearest_assignment(conference))
        for sid in range(conference.num_sessions):
            expected = oracle_candidates(context, sid, NoNoise(), None)
            assert_batch_matches_oracle(
                context, context.candidate_batch(sid), expected, f"sid={sid}"
            )
            assert context.count_feasible(sid, context.assignment) == sum(
                1 for entry in expected if entry[4] is not None
            )

    @pytest.mark.parametrize("seed,params", SCENARIO_GRID)
    def test_candidates_bitwise_equal(self, seed, params):
        self._check_candidates(seed, params, ALPHAS[0])

    @pytest.mark.parametrize("seed,params", SCENARIO_GRID)
    def test_candidates_bitwise_equal_reweighted(self, seed, params):
        """The same contract under unequal cost weights."""
        self._check_candidates(seed, params, ALPHAS[1])

    @pytest.mark.parametrize(
        "noise_factory",
        [
            lambda: GaussianNoise(sigma=0.05),
            lambda: QuantizedPerturbation(delta=0.1, levels=3),
        ],
    )
    def test_noise_consumes_rng_identically(self, noise_factory):
        conference = scenario_conference(
            seed=9, params=ScenarioParams(num_user_sites=32, num_users=14)
        )
        evaluator = make_evaluator(conference)
        rng = np.random.default_rng(21)
        oracle_rng = np.random.default_rng(21)
        context = SearchContext(
            evaluator, nearest_assignment(conference), noise=noise_factory(), rng=rng
        )
        noise = noise_factory()
        for sid in range(conference.num_sessions):
            batch = context.candidate_batch(sid)
            expected = oracle_candidates(context, sid, noise, oracle_rng)
            assert_batch_matches_oracle(context, batch, expected, f"sid={sid}")
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


    @pytest.mark.parametrize("hop_rule,beta", [("paper", 64.0), ("metropolis", 2.0)])
    def test_chosen_hop_matches_oracle_draw(self, hop_rule, beta):
        """Given one rng, the solver picks the hop the oracle picks: the
        paper rule draws from ``hop_probabilities`` over the oracle's
        feasible ``phi`` exactly as ``rng.choice`` would; Metropolis
        proposes uniformly and accepts against the Hastings-corrected
        ratio with the oracle's backward degree."""
        conference = scenario_conference(
            seed=13, params=ScenarioParams(num_user_sites=48, num_users=20)
        )
        evaluator = make_evaluator(conference)
        rng = np.random.default_rng(4)
        solver = MarkovAssignmentSolver(
            evaluator,
            nearest_assignment(conference),
            config=MarkovConfig(beta=beta, hop_rule=hop_rule),
            rng=rng,
        )
        context = solver.context
        moved = 0
        for _ in range(6):
            for sid in range(conference.num_sessions):
                oracle_rng = copy.deepcopy(rng)
                phi_before = context.session_cost(sid).phi
                feasible = [
                    entry
                    for entry in oracle_candidates(context, sid, NoNoise(), None)
                    if entry[4] is not None
                ]
                phis = np.array([entry[4] for entry in feasible])
                expected = None
                if hop_rule == "paper":
                    probabilities = hop_probabilities(phi_before, phis, beta)
                    index = oracle_rng.choice(len(feasible), p=probabilities)
                    expected = feasible[index][0]
                else:
                    index = int(oracle_rng.integers(len(feasible)))
                    move = feasible[index][0]
                    backward = sum(
                        1
                        for entry in oracle_candidates(
                            SearchContext(
                                evaluator,
                                move.apply(context.assignment),
                                active_sids=context.active_sessions,
                            ),
                            sid,
                            NoNoise(),
                            None,
                        )
                        if entry[4] is not None
                    )
                    log_accept = metropolis_log_acceptance(
                        beta, phi_before, phis[index], len(feasible), backward
                    )
                    if np.log(oracle_rng.uniform()) < min(0.0, log_accept):
                        expected = move
                hop = solver.session_hop(sid)
                assert hop.move == expected, f"sid={sid}"
                assert hop.moved == (expected is not None)
                assert rng.bit_generator.state == oracle_rng.bit_generator.state
                moved += hop.moved
        assert moved > 3, f"trivial trajectory ({moved} accepted)"


def _library_instance(name):
    compiled = compile_spec(expand_matrix(load_library_spec(name))[0].spec)
    return compiled.evaluator, compiled.config.markov.beta


def _scenario_instance(seed, params):
    return make_evaluator(scenario_conference(seed=seed, params=params)), None


class TestTrajectoryEquivalence:
    """Walk solver trajectories; check the kernel at every visited state."""

    @staticmethod
    def _checked_context(context, noise, rng, stats):
        """Route the context's kernel calls through oracle comparisons.

        Each ``candidate_batch`` is replayed by the oracle on a copy of
        the generator taken just before the call, so the noise draws are
        compared value by value and the generators must end in the same
        state; each Metropolis ``count_feasible`` is recounted per move.
        """
        candidate_batch = context.candidate_batch
        count_feasible = context.count_feasible

        def checked_batch(sid):
            oracle_rng = copy.deepcopy(rng)
            batch = candidate_batch(sid)
            expected = oracle_candidates(context, sid, noise, oracle_rng)
            assert_batch_matches_oracle(
                context, batch, expected, f"state {stats['states']} sid={sid}"
            )
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            stats["states"] += 1
            stats["capacity_rejects"] += sum(
                1 for _, fits, delay_ok, _, _ in expected if delay_ok and not fits
            )
            return batch

        def checked_count(sid, assignment):
            count = count_feasible(sid, assignment)
            profile = context.evaluator.profile
            expected = 0
            for move in session_moves(context.conference, assignment, sid):
                candidate = move.apply(assignment)
                usage = profile.session_usage(
                    candidate.user_agent, candidate.task_agent, sid
                )
                _, max_flow = profile.session_delays(
                    candidate.user_agent, candidate.task_agent, sid
                )
                if context.ledger.fits(usage) and not (
                    max_flow > context.conference.dmax_ms + 1e-9
                ):
                    expected += 1
            assert count == expected
            stats["counts"] += 1
            return count

        context.candidate_batch = checked_batch
        context.count_feasible = checked_count

    @pytest.mark.parametrize(
        "instance,hop_rule,beta,sigma",
        [
            ("tight", "paper", 48.0, 0.0),
            ("tight", "metropolis", 2.0, 0.0),
            ("tight", "paper", 8.0, 0.4),
            ("tight", "metropolis", 1.0, 0.4),
            ("prototype_smoke", "paper", None, 0.0),
            ("beta_locality", "paper", None, 0.0),
        ],
    )
    def test_every_visited_state_matches_oracle(self, instance, hop_rule, beta, sigma):
        if instance == "tight":
            evaluator, _ = _scenario_instance(*TIGHT)
        else:
            evaluator, beta = _library_instance(instance)
        conference = evaluator.conference
        rng = np.random.default_rng(31)
        noise = GaussianNoise(sigma) if sigma else NoNoise()
        solver = MarkovAssignmentSolver(
            evaluator,
            nearest_assignment(conference),
            config=MarkovConfig(beta=beta, hop_rule=hop_rule),
            rng=rng,
            noise=noise if sigma else None,
        )
        context = solver.context
        stats = {"states": 0, "counts": 0, "capacity_rejects": 0}
        self._checked_context(context, copy.deepcopy(noise), rng, stats)
        moved = 0
        for _ in range(60):
            sid = context.active_sessions[int(rng.integers(conference.num_sessions))]
            hop = solver.session_hop(sid)
            moved += hop.moved
            # The committed state's cost is the oracle's exact cost, and
            # the phi mirror sums it in session order.
            exact = evaluator.session_cost(context.assignment, sid)
            assert context.session_cost(sid).phi == exact.phi
            for field in USAGE_FIELDS:
                assert np.array_equal(
                    getattr(context.ledger.session_usage(sid), field),
                    getattr(exact.usage, field),
                )
            assert context.total_phi() == sum(
                evaluator.session_phi(context.assignment, s)
                for s in context.active_sessions
            )
        assert moved > 3, f"trivial trajectory ({moved}/60 accepted)"
        assert stats["states"] == 60
        if hop_rule == "metropolis":
            assert stats["counts"] > 3
        if instance == "tight":
            assert stats["capacity_rejects"] > 0, "capacity never bound"

    def test_committed_states_pass_the_constraint_check(self):
        """Under binding capacities, every state the kernel's masks let
        the solver commit satisfies constraints (1)-(8) as checked by
        :func:`check_assignment` on the reference traffic/delay model."""
        conference = scenario_conference(seed=TIGHT[0], params=TIGHT[1])
        evaluator = make_evaluator(conference)
        start = nearest_assignment(conference)
        assert check_assignment(conference, start).ok
        for hop_rule, beta in (("paper", 8.0), ("metropolis", 2.0)):
            solver = MarkovAssignmentSolver(
                evaluator,
                start,
                config=MarkovConfig(beta=beta, hop_rule=hop_rule),
                rng=np.random.default_rng(59),
            )
            moved = 0
            for _ in range(80):
                hop = solver.run(1)
                if hop.moved:
                    moved += 1
                    report = check_assignment(conference, solver.assignment)
                    assert report.ok, (hop_rule, report)
            assert moved > 3, f"{hop_rule}: trivial trajectory ({moved}/80)"

    def test_greedy_descent_stops_at_an_oracle_local_optimum(self):
        conference = scenario_conference(seed=TIGHT[0], params=TIGHT[1])
        evaluator = make_evaluator(conference)
        result = greedy_descent(evaluator, nearest_assignment(conference))
        assert result.converged and result.iterations > 3
        assert result.phi == sum(
            evaluator.session_phi(result.assignment, sid)
            for sid in range(conference.num_sessions)
        )
        context = SearchContext(evaluator, result.assignment)
        for sid in range(conference.num_sessions):
            current = context.session_cost(sid).phi
            for move, fits, delay_ok, cost, _ in oracle_candidates(
                context, sid, NoNoise(), None
            ):
                if fits and delay_ok:
                    assert current - cost.phi <= IMPROVEMENT_EPSILON, move

    def test_annealing_best_state_matches_oracle_objective(self):
        conference = scenario_conference(seed=TIGHT[0], params=TIGHT[1])
        evaluator = make_evaluator(conference)
        result = simulated_annealing(
            evaluator,
            nearest_assignment(conference),
            config=AnnealingConfig(hops=300),
            rng=np.random.default_rng(2),
        )
        assert result.accepted > 3
        assert result.phi == sum(
            evaluator.session_phi(result.assignment, sid)
            for sid in range(conference.num_sessions)
        )


class TestPhiArray:
    """The conference-level phi mirror under session dynamics."""

    def test_total_matches_sequential_python_sum(self):
        rng = np.random.default_rng(0)
        phis = {sid: float(phi) for sid, phi in enumerate(rng.normal(size=40))}
        mirror = PhiArray(phis)
        assert mirror.total() == sum(phis.values())

    def test_set_append_remove_track_dict_semantics(self):
        phis = {0: 1.25, 1: 2.5, 2: -0.75}
        mirror = PhiArray(dict(phis))
        mirror.set(1, 9.0)
        phis[1] = 9.0
        assert mirror.total() == sum(phis.values())
        mirror.append(7, 0.5)
        phis[7] = 0.5
        assert mirror.total() == sum(phis.values())
        mirror.remove(0)
        del phis[0]
        assert mirror.total() == sum(phis.values())
        mirror.append(0, 3.25)  # re-arrival lands at the *end*, like a dict
        phis[0] = 3.25
        assert mirror.total() == sum(phis.values())

    def test_empty_total_is_int_zero_like_builtin_sum(self):
        mirror = PhiArray({})
        assert mirror.total() == 0
        assert isinstance(mirror.total(), int)
        mirror.append(4, 1.5)
        mirror.remove(4)
        assert mirror.total() == 0

    def test_search_context_phi_matches_reference_sum(self):
        conference = scenario_conference(
            seed=3, params=ScenarioParams(num_user_sites=32, num_users=12)
        )
        evaluator = make_evaluator(conference)
        assignment = nearest_assignment(conference)
        context = SearchContext(evaluator, assignment)
        assert context.total_phi() == sum(
            evaluator.session_phi(assignment, sid)
            for sid in range(conference.num_sessions)
        )
