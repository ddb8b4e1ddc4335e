"""Tests for repro.core.theory — the Sec. IV-A guarantees, checked exactly."""

import numpy as np
import pytest

from repro.core.markov import MarkovConfig
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.core.theory import (
    build_state_space,
    eq10_bounds,
    eq13_bound,
    expected_phi,
    generator_matrix,
    gibbs_distribution,
    logsumexp,
    optimality_gap_bound,
    perturbed_stationary,
    simulate_occupancy,
    stationary_distribution,
    total_variation,
    uap_beta_optimum,
)
from repro.netsim.noise import QuantizedPerturbation
from repro.workloads.toy import FIG3_NUM_STATES, toy_conference


@pytest.fixture(scope="module")
def toy_space():
    conference = toy_conference()
    evaluator = ObjectiveEvaluator(
        conference, ObjectiveWeights.normalized_for(conference)
    )
    return conference, evaluator, build_state_space(evaluator)


class TestStateSpace:
    def test_fig3_has_eight_states(self, toy_space):
        _conf, _ev, space = toy_space
        assert len(space) == FIG3_NUM_STATES

    def test_states_unique(self, toy_space):
        _conf, _ev, space = toy_space
        keys = {a.key() for a in space.assignments}
        assert len(keys) == len(space)

    def test_index_of(self, toy_space):
        _conf, _ev, space = toy_space
        assert space.index_of(space.assignments[3]) == 3


class TestGibbsAndBounds:
    def test_gibbs_normalized_and_ordered(self, toy_space):
        _conf, _ev, space = toy_space
        gibbs = gibbs_distribution(space.phis, beta=5.0)
        assert gibbs.sum() == pytest.approx(1.0)
        # Lower phi -> higher probability.
        order = np.argsort(space.phis)
        assert gibbs[order[0]] >= gibbs[order[-1]]

    def test_gibbs_uniform_at_beta_zero_limit(self, toy_space):
        _conf, _ev, space = toy_space
        gibbs = gibbs_distribution(space.phis, beta=1e-9)
        assert np.allclose(gibbs, 1.0 / len(space), atol=1e-6)

    def test_eq10_sandwich_for_many_betas(self, toy_space):
        _conf, _ev, space = toy_space
        for beta in (0.5, 2.0, 10.0, 50.0, 400.0):
            lower, phi_hat, upper = eq10_bounds(space.phis, beta)
            assert lower - 1e-12 <= phi_hat <= upper + 1e-12

    def test_logsumexp_is_stable_and_exact(self):
        assert logsumexp(np.array([1000.0, 1000.0])) == 1000.0 + np.log(2.0)
        assert logsumexp(np.array([-1000.0])) == -1000.0
        assert logsumexp(np.array([0.0, -np.inf])) == 0.0
        values = np.random.default_rng(3).normal(size=50) * 30.0
        assert logsumexp(values) == pytest.approx(
            np.log(np.exp(values).sum()), rel=1e-12
        )

    @pytest.mark.parametrize(
        "values,expected",
        [
            ([-np.inf, -np.inf], -np.inf),
            ([np.inf, 1.0], np.inf),
            ([np.nan, 1.0], np.nan),
        ],
        ids=["all-minus-inf", "plus-inf", "nan"],
    )
    def test_logsumexp_non_finite_inputs(self, values, expected):
        """Non-finite inputs give scipy's answers, and stay silent: a
        zero-weight state is ``log(0) = -inf`` in the Gibbs sums."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = logsumexp(np.array(values))
        np.testing.assert_equal(result, expected)

    def test_logsumexp_matches_scipy_bitwise(self):
        """Where scipy is installed, the numpy helper reproduces its
        bits, so theory artifacts are unchanged by dropping scipy."""
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(0)
        for size in (1, 2, 7, 8, 9, 130, 1000):
            values = rng.normal(size=size) * 100.0
            values[0] = values.max()  # tied maxima
            assert logsumexp(values) == special.logsumexp(values)

    def test_uap_beta_optimum_approaches_min(self, toy_space):
        _conf, _ev, space = toy_space
        assert uap_beta_optimum(space.phis, 1e4) == pytest.approx(
            space.phi_min, abs=1e-3
        )

    def test_eq12_gap_within_bound(self, toy_space):
        conf, _ev, space = toy_space
        for beta in (1.0, 5.0, 25.0):
            gibbs = gibbs_distribution(space.phis, beta)
            gap = expected_phi(gibbs, space.phis) - space.phi_min
            assert 0.0 <= gap <= optimality_gap_bound(conf, beta) + 1e-12

    def test_gap_bound_formula(self, toy_space):
        conf, _ev, _space = toy_space
        # (2 users + 1 task) * ln(2) / beta.
        assert optimality_gap_bound(conf, beta=3.0) == pytest.approx(
            3 * np.log(2) / 3.0
        )


class TestChainStationarity:
    def test_metropolis_chain_matches_gibbs_exactly(self, toy_space):
        conf, _ev, space = toy_space
        for beta in (2.0, 8.0):
            q = generator_matrix(conf, space, beta, rule="metropolis")
            pi = stationary_distribution(q)
            assert total_variation(pi, gibbs_distribution(space.phis, beta)) < 1e-8

    def test_paper_chain_biased_towards_good_states(self, toy_space):
        conf, _ev, space = toy_space
        q = generator_matrix(conf, space, beta=8.0, rule="paper")
        pi = stationary_distribution(q)
        best = int(np.argmin(space.phis))
        worst = int(np.argmax(space.phis))
        assert pi[best] > pi[worst]

    def test_paper_chain_deviates_from_gibbs(self, toy_space):
        """The normalized HOP rule is *not* exactly Gibbs — the documented
        reproduction finding."""
        conf, _ev, space = toy_space
        q = generator_matrix(conf, space, beta=6.0, rule="paper")
        pi = stationary_distribution(q)
        assert total_variation(pi, gibbs_distribution(space.phis, 6.0)) > 0.05

    def test_generator_rows_sum_to_zero(self, toy_space):
        conf, _ev, space = toy_space
        for rule in ("paper", "metropolis"):
            q = generator_matrix(conf, space, beta=4.0, rule=rule)
            assert np.allclose(q.sum(axis=1), 0.0, atol=1e-12)
            off_diagonal = q[~np.eye(len(space), dtype=bool)]
            assert (off_diagonal >= 0).all()

    def test_empirical_occupancy_matches_exact_stationary(self, toy_space):
        conf, evaluator, space = toy_space
        beta = 4.0
        q = generator_matrix(conf, space, beta, rule="paper")
        pi_exact = stationary_distribution(q)
        occupancy = simulate_occupancy(
            evaluator,
            space,
            space.assignments[0],
            beta=beta,
            hops=6000,
            rule="paper",
            rng=np.random.default_rng(0),
            burn_in=500,
        )
        assert total_variation(occupancy, pi_exact) < 0.08


class TestTheorem1:
    def test_zero_delta_reduces_to_gibbs(self, toy_space):
        _conf, _ev, space = toy_space
        perturbations = [QuantizedPerturbation(delta=0.0, levels=2)] * len(space)
        p_bar = perturbed_stationary(space.phis, 5.0, perturbations)
        assert total_variation(p_bar, gibbs_distribution(space.phis, 5.0)) < 1e-12

    def test_eq13_gap_within_bound(self, toy_space):
        conf, _ev, space = toy_space
        delta = 0.08
        beta = 10.0
        perturbations = [QuantizedPerturbation(delta=delta, levels=4)] * len(space)
        p_bar = perturbed_stationary(space.phis, beta, perturbations)
        gap = expected_phi(p_bar, space.phis) - space.phi_min
        assert 0.0 <= gap <= eq13_bound(conf, beta, delta) + 1e-12

    def test_eq13_bound_exceeds_eq12(self, toy_space):
        conf, _ev, _space = toy_space
        assert eq13_bound(conf, 5.0, 0.3) == pytest.approx(
            optimality_gap_bound(conf, 5.0) + 0.3
        )

    def test_perturbation_count_validated(self, toy_space):
        _conf, _ev, space = toy_space
        from repro.errors import SolverError

        with pytest.raises(SolverError):
            perturbed_stationary(
                space.phis, 5.0, [QuantizedPerturbation(delta=0.1)]
            )


class TestSolverAgainstTheory:
    def test_solver_occupancy_reflects_metropolis_gibbs(self, toy_space):
        """End-to-end: Alg. 1 with the Metropolis rule time-averages to
        the Eq. (9) distribution on the toy instance."""
        conf, evaluator, space = toy_space
        beta = 3.0
        occupancy = simulate_occupancy(
            evaluator,
            space,
            space.assignments[0],
            beta=beta,
            hops=8000,
            rule="metropolis",
            rng=np.random.default_rng(1),
            burn_in=500,
        )
        gibbs = gibbs_distribution(space.phis, beta)
        assert total_variation(occupancy, gibbs) < 0.08

    def test_markov_config_rules_consistent_with_theory(self):
        assert MarkovConfig(hop_rule="paper").hop_rule == "paper"
        assert MarkovConfig(hop_rule="metropolis").hop_rule == "metropolis"
