"""Tests for repro.core.fastpath — exact agreement with the reference
implementations on every workload the suite touches."""

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.delay import session_delay_cost, session_user_delays
from repro.core.fastpath import ConferenceProfile, profile_for
from repro.core.nearest import nearest_assignment
from repro.core.traffic import compute_session_usage
from tests.conftest import build_pair_conference


def random_assignment(conf, rng):
    return Assignment(
        rng.integers(0, conf.num_agents, conf.num_users),
        rng.integers(0, conf.num_agents, conf.theta_sum),
    )


class TestUsageEquivalence:
    def test_matches_reference_on_prototype(self, proto_conf, rng):
        profile = ConferenceProfile(proto_conf)
        for _ in range(5):
            assignment = random_assignment(proto_conf, rng)
            for sid in range(proto_conf.num_sessions):
                ref = compute_session_usage(proto_conf, assignment, sid)
                fast = profile.session_usage(
                    assignment.user_agent, assignment.task_agent, sid
                )
                assert np.allclose(ref.inter_in, fast.inter_in)
                assert np.allclose(ref.inter_out, fast.inter_out)
                assert np.allclose(ref.download, fast.download)
                assert np.allclose(ref.upload, fast.upload)
                assert np.array_equal(ref.transcodes, fast.transcodes)

    def test_matches_on_split_task_groups(self):
        from tests.conftest import build_shared_dest_conference

        conf = build_shared_dest_conference()
        profile = ConferenceProfile(conf)
        for tasks in ([0, 0], [0, 1], [1, 0], [1, 1]):
            assignment = Assignment(np.array([0, 1, 0]), np.array(tasks))
            ref = compute_session_usage(conf, assignment, 0)
            fast = profile.session_usage(
                assignment.user_agent, assignment.task_agent, 0
            )
            assert np.allclose(ref.inter_in, fast.inter_in)
            assert np.array_equal(ref.transcodes, fast.transcodes)


class TestDelayEquivalence:
    def test_matches_reference_on_prototype(self, proto_conf, rng):
        profile = ConferenceProfile(proto_conf)
        for _ in range(5):
            assignment = random_assignment(proto_conf, rng)
            for sid in range(proto_conf.num_sessions):
                ref = session_user_delays(proto_conf, assignment, sid)
                fast = profile.session_user_delays(
                    assignment.user_agent, assignment.task_agent, sid
                )
                assert ref.keys() == fast.keys()
                for uid in ref:
                    assert ref[uid] == pytest.approx(fast[uid])

    def test_delay_cost_and_max_flow(self, proto_conf, rng):
        from repro.core.delay import max_session_flow_delay

        profile = ConferenceProfile(proto_conf)
        assignment = random_assignment(proto_conf, rng)
        for sid in range(0, proto_conf.num_sessions, 3):
            mean, max_flow = profile.session_delays(
                assignment.user_agent, assignment.task_agent, sid
            )
            assert mean == pytest.approx(
                session_delay_cost(proto_conf, assignment, sid)
            )
            assert max_flow == pytest.approx(
                max_session_flow_delay(proto_conf, assignment, sid)
            )


class TestProfileCache:
    def test_profile_for_reuses_instance(self):
        conf = build_pair_conference("720p", "480p", "480p", "720p")
        assert profile_for(conf) is profile_for(conf)

    def test_profile_freed_with_its_conference(self):
        """The profile lives exactly as long as its conference: a
        long-lived process that compiles and runs many specs holds no
        profile (or conference) beyond the run that built it."""
        from repro.fleet.compile import compile_spec, run_record
        from repro.fleet.library import load_library_spec
        from repro.fleet.orchestrator import expand_matrix

        spec = expand_matrix(load_library_spec("prototype_smoke"))[0].spec
        compiled = compile_spec(spec)
        run_record(compiled)
        conference = weakref.ref(compiled.conference)
        profile = weakref.ref(profile_for(compiled.conference))
        assert compiled.evaluator.profile is profile()
        del compiled
        gc.collect()
        assert conference() is None
        assert profile() is None

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda conf: pickle.loads(pickle.dumps(conf))],
        ids=["deepcopy", "pickle"],
    )
    def test_cloned_conference_owns_an_equal_profile(self, clone, rng):
        """A copied conference carries its own profile (never the
        original's instance) and it evaluates bit-for-bit the same."""
        conf = build_pair_conference("720p", "480p", "480p", "720p")
        profile = profile_for(conf)
        twin = clone(conf)
        twin_profile = profile_for(twin)
        assert twin_profile is not profile
        assert profile_for(twin) is twin_profile
        for _ in range(5):
            a = random_assignment(conf, rng)
            usage = profile.session_usage(a.user_agent, a.task_agent, 0)
            twin_usage = twin_profile.session_usage(a.user_agent, a.task_agent, 0)
            for field in ("inter_in", "inter_out", "download", "upload", "transcodes"):
                assert np.array_equal(getattr(usage, field), getattr(twin_usage, field))
            assert profile.session_delays(
                a.user_agent, a.task_agent, 0
            ) == twin_profile.session_delays(a.user_agent, a.task_agent, 0)

    def test_sigma_table_shape(self, proto_conf):
        profile = ConferenceProfile(proto_conf)
        assert profile.sigma.shape == (proto_conf.theta_sum, proto_conf.num_agents)
        assert (profile.sigma > 0).all()

    def test_demand_out_matches_model(self, proto_conf):
        profile = ConferenceProfile(proto_conf)
        for session in proto_conf.sessions:
            for uid in session.user_ids:
                expected = sum(
                    proto_conf.user(uid).downstream_from(v).bitrate_mbps
                    for v in session.others(uid)
                )
                assert profile.demand_out_mbps[uid] == pytest.approx(expected)
