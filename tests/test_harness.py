"""Experiment harness: environments, deterministic runs, averaging, CSV output."""

import math

import numpy as np
import pytest

from cmab.distributions import make_finite
from cmab.harness import (
    Environment,
    PolicyFactory,
    RegretTrace,
    builtin_env,
    builtin_env_names,
    run_many,
    run_one,
    write_csv,
)
from cmab.oracles import FeasibleFamily, exhaustive_oracle
from cmab.policies import Osm, lazy_sdcb_known_T
from cmab.rewards import SuperArm, kmax_spec
from cmab.rng import ARM_STREAM, substream

EXACT = 1e-12


def tiny_env():
    arms = [
        make_finite([0.0, 1.0], [0.5, 0.5]),
        make_finite([0.0, 1.0], [0.8, 0.2]),
        make_finite([0.5], [1.0]),
    ]
    return Environment(arms, FeasibleFamily.cardinality_at_most(2, 3), kmax_spec(), name="tiny")


class FixedChoice:
    """Factory that always plays one super arm; stands in for a learner."""

    def __init__(self, members):
        self.members = tuple(members)
        self.outcomes = []

    def __call__(self, family, spec, T, rng):
        return self

    def select(self, t):
        return SuperArm(self.members)

    def observe(self, t, S, outcomes):
        self.outcomes.append(outcomes)


class TestEnvironment:
    def test_arm_count_must_match_family(self):
        arms = [make_finite([0.5], [1.0])] * 2
        with pytest.raises(ValueError):
            Environment(arms, FeasibleFamily.cardinality_at_most(1, 3), kmax_spec())

    def test_optimum_of_tiny_instance(self):
        env = tiny_env()
        # max of arms 0 and 2 beats every other pair: 0.5*0.5 + 0.5*1 = 0.75
        assert env.optimal_arm == SuperArm([0, 2])
        assert env.optimal_value == pytest.approx(0.75, abs=EXACT)

    def test_score_caching_returns_same_value(self):
        env = tiny_env()
        S = SuperArm([0, 1])
        assert env.score(S) == env.score(S)

    def test_repr_mentions_name(self):
        assert "tiny" in repr(tiny_env())


class TestRunOne:
    def test_playing_optimum_gives_zero_regret(self):
        env = tiny_env()
        trace = run_one(env, FixedChoice(env.optimal_arm.members), T=50, seed=0)
        assert np.allclose(trace.cum_regret, 0.0, atol=EXACT)
        assert np.allclose(trace.rewards, env.optimal_value, atol=EXACT)

    def test_fixed_gap_accumulates_linearly(self):
        env = tiny_env()
        S = SuperArm([1])
        gap = env.optimal_value - env.score(S)
        trace = run_one(env, FixedChoice(S.members), T=20, seed=0)
        want = gap * np.arange(1, 21)
        assert np.allclose(trace.cum_regret, want, atol=1e-9)

    def test_regret_increments_match_rewards(self):
        env = tiny_env()
        trace = run_one(env, PolicyFactory("sdcb"), T=40, seed=7)
        increments = np.diff(trace.cum_regret, prepend=0.0)
        assert np.allclose(increments, env.optimal_value - trace.rewards, atol=1e-9)
        assert np.all(increments >= -1e-9)

    def test_same_seed_same_trace(self):
        env = tiny_env()
        a = run_one(env, PolicyFactory("sdcb"), T=60, seed=3)
        b = run_one(env, PolicyFactory("sdcb"), T=60, seed=3)
        assert np.array_equal(a.rewards, b.rewards)
        assert a.super_arms == b.super_arms

    def test_different_seeds_diverge(self):
        env = tiny_env()
        a = run_one(env, PolicyFactory("sdcb"), T=60, seed=3)
        b = run_one(env, PolicyFactory("sdcb"), T=60, seed=4)
        assert a.super_arms != b.super_arms

    def test_arm_substreams_are_decoupled(self):
        # an arm's draws depend only on its own pull count, not on other arms
        env = tiny_env()
        for members in ((0,), (0, 1)):
            policy = FixedChoice(members)
            run_one(env, policy, T=5, seed=11)
            for i in members:
                rng = substream(11, ARM_STREAM, i)
                assert [x[i] for x in policy.outcomes] == [env.arms[i].inverse_cdf(rng.random()) for _ in range(5)]

    def test_infeasible_selection_raises(self):
        env = tiny_env()
        with pytest.raises(RuntimeError):
            run_one(env, FixedChoice((0, 1, 2)), T=3, seed=0)

    def test_alpha_scales_the_benchmark(self):
        env = tiny_env()
        trace = run_one(env, FixedChoice(env.optimal_arm.members), T=10, seed=0, alpha=0.5)
        want = (0.5 * env.optimal_value - env.optimal_value) * np.arange(1, 11)
        assert np.allclose(trace.cum_regret, want, atol=1e-9)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            run_one(tiny_env(), PolicyFactory("sdcb"), T=0, seed=0)

    def test_every_policy_runs_on_tiny_env(self):
        env = tiny_env()
        for name in ("sdcb", "lazy-sdcb", "lazy-sdcb-doubling", "cucb", "osm"):
            trace = run_one(env, PolicyFactory(name), T=25, seed=2)
            assert trace.rounds == 25


class TestRunMany:
    def test_single_run_average_equals_run_one(self):
        env = tiny_env()
        avg, traces = run_many(env, PolicyFactory("sdcb"), T=30, runs=1, seed_base=42)
        solo = run_one(env, PolicyFactory("sdcb"), T=30, seed=42)
        assert np.array_equal(avg.rewards, solo.rewards)
        assert np.array_equal(traces[0].cum_regret, solo.cum_regret)

    def test_seed_layout_is_base_plus_run(self):
        env = tiny_env()
        _, traces = run_many(env, PolicyFactory("sdcb"), T=10, runs=3, seed_base=100)
        assert [tr.metadata["seed"] for tr in traces] == [100, 101, 102]
        assert [tr.metadata["run"] for tr in traces] == [0, 1, 2]

    def test_average_is_mean_of_runs(self):
        env = tiny_env()
        avg, traces = run_many(env, PolicyFactory("cucb"), T=20, runs=4, seed_base=0)
        stack = np.mean([tr.cum_regret for tr in traces], axis=0)
        assert np.array_equal(avg.cum_regret, stack)

    def test_parallel_matches_serial(self):
        env = tiny_env()
        serial, s_traces = run_many(env, PolicyFactory("sdcb"), T=30, runs=4, seed_base=5, n_jobs=1)
        parallel, p_traces = run_many(env, PolicyFactory("sdcb"), T=30, runs=4, seed_base=5, n_jobs=2)
        assert np.array_equal(serial.rewards, parallel.rewards)
        assert np.array_equal(serial.cum_regret, parallel.cum_regret)
        for a, b in zip(s_traces, p_traces):
            assert a.super_arms == b.super_arms

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            run_many(tiny_env(), PolicyFactory("sdcb"), T=5, runs=0, seed_base=0)

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            run_many(tiny_env(), PolicyFactory("sdcb"), T=5, runs=2, seed_base=0, n_jobs=0)


# every entry point that takes a horizon or a count, given one bad value
COUNT_ENTRY_POINTS = {
    "run_one-T": lambda n: run_one(tiny_env(), PolicyFactory("sdcb"), n, 1),
    "lazy_sdcb_known_T": lambda n: lazy_sdcb_known_T(tiny_env().family, kmax_spec(), exhaustive_oracle, n),
    "Osm-T": lambda n: Osm(tiny_env().family, n, substream(0, 1, 0)),
    "run_many-runs": lambda n: run_many(tiny_env(), PolicyFactory("sdcb"), 5, n, 0),
    "run_many-n_jobs": lambda n: run_many(tiny_env(), PolicyFactory("sdcb"), 5, 2, 0, n_jobs=n),
}


class TestCountChecks:
    @pytest.mark.parametrize("value", [0, -5, 2.5, 2.0, True], ids=repr)
    @pytest.mark.parametrize("call", COUNT_ENTRY_POINTS.values(), ids=COUNT_ENTRY_POINTS.keys())
    def test_rejects_all_but_integers_from_one(self, call, value):
        with pytest.raises(ValueError, match=r"must be >= 1 and an integer"):
            call(value)

    @pytest.mark.parametrize("call", COUNT_ENTRY_POINTS.values(), ids=COUNT_ENTRY_POINTS.keys())
    def test_accepts_numpy_integers(self, call):
        call(np.int64(2))


class TestBuiltinEnvs:
    def test_names_and_descriptions(self):
        names = builtin_env_names()
        assert [n for n, _ in names] == ["dist1", "dist2", "dist3", "dist4"]
        assert all(desc for _, desc in names)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_env("dist9")

    def test_shared_shape(self):
        for name in ("dist1", "dist2", "dist3", "dist4"):
            env = builtin_env(name)
            assert env.family.m == 9 and env.family.K == 3
            assert env.spec.kind == "kmax"

    def test_dist1_arm_parameters(self):
        env = builtin_env("dist1")
        good, weak = env.arms[0], env.arms[5]
        assert np.allclose(good.probs, [0.1] * 5 + [0.5], atol=EXACT)
        assert np.allclose(weak.probs, [0.5] + [0.1] * 5, atol=EXACT)
        assert np.allclose(good.support, np.arange(6) / 5, atol=EXACT)

    def test_dist2_mid_arms(self):
        env = builtin_env("dist2")
        assert np.allclose(env.arms[3].probs, [0.12] * 5 + [0.4], atol=EXACT)

    def test_dist3_tiers(self):
        env = builtin_env("dist3")
        assert env.arms[0].probs[-1] == pytest.approx(0.5, abs=EXACT)
        assert env.arms[3].probs[-1] == pytest.approx(0.4, abs=EXACT)
        assert env.arms[8].probs[-1] == pytest.approx(0.2, abs=EXACT)

    def test_dist4_densities(self):
        env = builtin_env("dist4")
        assert env.arms[0].cdf(0.5) == pytest.approx(0.5, abs=EXACT)
        assert env.arms[3].cdf(0.5) == pytest.approx(0.6, abs=EXACT)
        assert env.arms[3].mean() == pytest.approx(0.45, abs=EXACT)

    def test_all_optima_are_first_three_arms(self):
        for name in ("dist1", "dist2", "dist3", "dist4"):
            assert builtin_env(name).optimal_arm == SuperArm([0, 1, 2])

    def test_dist1_optimal_value(self):
        # 1 - P[all three below 1] and the lower-order terms: 0.955
        assert builtin_env("dist1").optimal_value == pytest.approx(0.955, abs=1e-9)


class TestWriteCsv:
    def test_single_trace_layout(self, tmp_path):
        trace = RegretTrace(np.array([0.5, 0.25, 0.125]), np.array([0.0, 0.25, 0.625]))
        path = tmp_path / "trace.csv"
        write_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,expected_reward,cum_regret"
        assert len(lines) == 4
        assert lines[1].startswith("1,0.5,")

    def test_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        rewards = rng.random(50)
        trace = RegretTrace(rewards, np.cumsum(0.9 - rewards))
        path = tmp_path / "trace.csv"
        write_csv(trace, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(data[:, 1], trace.rewards, atol=1e-10)
        assert np.allclose(data[:, 2], trace.cum_regret, atol=1e-10)
        assert np.array_equal(data[:, 0], np.arange(1, 51))

    def test_per_run_column(self, tmp_path):
        env = tiny_env()
        _, traces = run_many(env, PolicyFactory("sdcb"), T=5, runs=2, seed_base=0)
        path = tmp_path / "runs.csv"
        write_csv(traces, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,expected_reward,cum_regret,run"
        assert len(lines) == 11
        assert lines[1].endswith(",0") and lines[-1].endswith(",1")

    def test_lf_line_endings(self, tmp_path):
        trace = RegretTrace(np.array([1.0]), np.array([0.0]))
        path = tmp_path / "t.csv"
        write_csv(trace, path)
        assert b"\r" not in path.read_bytes()

    def test_unwritable_path_names_target(self, tmp_path):
        trace = RegretTrace(np.array([1.0]), np.array([0.0]))
        bad = tmp_path / "missing" / "t.csv"
        with pytest.raises(OSError) as err:
            write_csv(trace, bad)
        assert "t.csv" in str(err.value)
