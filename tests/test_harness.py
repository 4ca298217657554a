"""Experiment harness: environments, deterministic runs, averaging, CSV output."""

import math
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmab import oracles
from cmab.distributions import _DRAW_BLOCK, CdfMatrix, PiecewiseDensity, make_finite, sample
from cmab.harness import (
    ORACLES,
    POLICIES,
    Environment,
    PolicyFactory,
    RegretTrace,
    builtin_env,
    builtin_env_names,
    run_many,
    run_one,
    write_csv,
)
from cmab.oracles import FeasibleFamily, _signatures, exhaustive_oracle, greedy_kmax, ptas_kmax
from cmab.policies import Osm, Sdcb, lazy_sdcb_known_T
from cmab.rewards import UTILITY_CURVES, SuperArm, _Quadrature, expected_reward, kmax_spec, linear_spec, utility_spec
from cmab.rng import ARM_STREAM, run_seed, substream
from util import COARSE_GRID, random_arm_list, random_explicit, reference_run_one

EXACT = 1e-12


def tiny_env():
    arms = [
        make_finite([0.0, 1.0], [0.5, 0.5]),
        make_finite([0.0, 1.0], [0.8, 0.2]),
        make_finite([0.5], [1.0]),
    ]
    return Environment(arms, FeasibleFamily.cardinality_at_most(2, 3), kmax_spec(), name="tiny")


class FixedChoice:
    """Factory that always plays one super arm in every run; stands in for a learner.  ``outcomes`` holds the
    first run's outcome maps."""

    def __init__(self, members):
        self.members = tuple(members)
        self.outcomes = []

    def __call__(self, family, spec, T, rngs):
        self.runs = len(rngs)
        return self

    def select_batch(self, t):
        return [SuperArm(self.members)] * self.runs

    def observe_batch(self, t, arms, outcomes):
        self.outcomes.append(outcomes[0])


def fail(message):
    raise ValueError(message)


class Hooked:
    """The sdcb factory, calling ``in_caller()`` first when it builds a batch in the process that made it and
    ``in_worker()`` first in any other process."""

    def __init__(self, in_caller=lambda: None, in_worker=lambda: None):
        self.pid, self.in_caller, self.in_worker = os.getpid(), in_caller, in_worker

    def __call__(self, family, spec, T, rngs):
        (self.in_caller if os.getpid() == self.pid else self.in_worker)()
        return PolicyFactory("sdcb")(family, spec, T, rngs)


@pytest.fixture
def within_30s():
    """Fails the test with a TimeoutError raised in it if it runs for 30 s, where a hung wait would block forever."""

    def expire(signum, frame):
        raise TimeoutError("still running after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


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

    @pytest.mark.parametrize("name", ["dist1", "dist4"])
    def test_arm_list_converted_once(self, monkeypatch, name):
        # the optimum and every score read the one matrix built from the arm list: a CdfMatrix of the
        # finite arms of dist1, the quadrature of dist4's continuous ones
        built = []
        of, quadrature = CdfMatrix.of.__func__, _Quadrature.__init__
        monkeypatch.setattr(CdfMatrix, "of", classmethod(lambda cls, dists: built.append(cls) or of(cls, dists)))
        monkeypatch.setattr(_Quadrature, "__init__", lambda self, dists: built.append(self) or quadrature(self, dists))
        env = builtin_env(name)
        values = [env.score(S) for S in env.family]
        assert len(built) == 1 and isinstance(env.arms, list)
        assert values == [expected_reward(env.arms, S, env.spec) for S in env.family]


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
        # an arm's draws depend only on its own pull count, not on other arms: its j-th outcome is the j-th
        # sample() on its substream, also past the first block of uniforms
        cases = [(tiny_env(), [(0,), (0, 1)], 5)]
        cases += [(env, [env.optimal_arm.members], _DRAW_BLOCK + 20) for env in map(builtin_env, ("dist1", "dist4"))]
        for env, sets, T in cases:
            for members in sets:
                policy = FixedChoice(members)
                run_one(env, policy, T=T, seed=11)
                for i in members:
                    rng = substream(11, ARM_STREAM, i)
                    assert [x[i] for x in policy.outcomes] == [sample(env.arms[i], rng) for _ in range(T)]

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
        # even chunks, uneven chunks (5 runs over 2 workers) and more jobs than runs all give the serial bytes
        env = tiny_env()
        for runs, n_jobs in ((4, 2), (5, 2), (2, 3)):
            serial, s_traces = run_many(env, PolicyFactory("sdcb"), T=30, runs=runs, seed_base=5, n_jobs=1)
            parallel, p_traces = run_many(env, PolicyFactory("sdcb"), T=30, runs=runs, seed_base=5, n_jobs=n_jobs)
            assert serial.rewards.tobytes() == parallel.rewards.tobytes()
            assert serial.cum_regret.tobytes() == parallel.cum_regret.tobytes()
            assert len(p_traces) == runs
            for r, (a, b) in enumerate(zip(s_traces, p_traces)):
                assert a.super_arms == b.super_arms
                assert a.rewards.tobytes() == b.rewards.tobytes()
                assert a.cum_regret.tobytes() == b.cum_regret.tobytes()
                assert b.metadata["run"] == r and b.metadata["seed"] == 5 + r

    def test_runtime_is_shared_within_a_batch(self):
        # a batch's wall time is split evenly over its runs: one batch when serial, one per contiguous chunk
        env = tiny_env()
        _, traces = run_many(env, PolicyFactory("sdcb"), T=20, runs=3, seed_base=0)
        times = [tr.metadata["runtime_s"] for tr in traces]
        assert times[0] > 0.0 and times == [times[0]] * 3
        _, traces = run_many(env, PolicyFactory("sdcb"), T=20, runs=5, seed_base=0, n_jobs=2)
        times = [tr.metadata["runtime_s"] for tr in traces]
        assert times[0] > 0.0 and times[:2] == [times[0]] * 2
        assert times[2] > 0.0 and times[2:] == [times[2]] * 3

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            run_many(tiny_env(), PolicyFactory("sdcb"), T=5, runs=0, seed_base=0)

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            run_many(tiny_env(), PolicyFactory("sdcb"), T=5, runs=2, seed_base=0, n_jobs=0)

    def test_worker_error_is_raised_in_the_caller(self, within_30s):
        # the caller steps the first chunk; an error in a worker's chunk comes back with its type and message
        with pytest.raises(ValueError, match="^bad chunk in a worker$"):
            run_many(tiny_env(), Hooked(in_worker=lambda: fail("bad chunk in a worker")), T=5, runs=3, seed_base=0, n_jobs=3)
        assert multiprocessing.active_children() == []

    def test_worker_exit_without_traces(self, within_30s):
        # a worker that dies before sending ends the caller's wait with its exit code
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_many(tiny_env(), Hooked(in_worker=lambda: os._exit(3)), T=5, runs=2, seed_base=0, n_jobs=2)
        assert multiprocessing.active_children() == []

    def test_caller_error_stops_the_workers(self, within_30s):
        # an error in the caller's own chunk terminates and joins workers that are still stepping theirs
        with pytest.raises(ValueError, match="^bad chunk in the caller$"):
            run_many(
                tiny_env(),
                Hooked(in_caller=lambda: fail("bad chunk in the caller"), in_worker=lambda: time.sleep(60)),
                T=5,
                runs=3,
                seed_base=0,
                n_jobs=3,
            )
        assert multiprocessing.active_children() == []



def explicit_env():
    """Five arms, finite and continuous, under an explicit family of pairs and one triple."""
    arms = [
        make_finite([0.0, 0.5, 1.0], [0.3, 0.3, 0.4]),
        PiecewiseDensity([0.0, 0.5, 1.0], [0.6, 1.4]),
        make_finite([0.2, 0.9], [0.5, 0.5]),
        PiecewiseDensity([0.0, 1.0], [1.0]),
        make_finite([0.1, 0.7, 1.0], [0.2, 0.5, 0.3]),
    ]
    family = FeasibleFamily.explicit([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [1, 3, 4]], 5)
    return Environment(arms, family, kmax_spec(), name="explicit")


# (environment, policy, oracle, T, runs): every policy with greedy, exhaustive and ptas (at a small T), on dist1-4
# and an explicit family, at batch sizes 1, 2, 3, 5 and 20; T = 300 runs past one block of uniforms and through
# five doubling epochs, and unbinned sdcb on dist4 gives every run a grid of its own; at 20 runs greedy steps its
# width groups of six or more runs as stacks
LOCKSTEP_CASES = [
    ("dist1", "sdcb", "greedy", 300, 20),
    ("dist4", "sdcb", "greedy", 300, 3),
    ("dist2", "sdcb", "exhaustive", 300, 2),
    ("dist3", "sdcb", "ptas", 40, 5),
    ("dist4", "lazy-sdcb", "greedy", 300, 5),
    ("dist3", "lazy-sdcb", "exhaustive", 300, 1),
    ("dist4", "lazy-sdcb", "ptas", 40, 2),
    ("dist4", "lazy-sdcb-doubling", "greedy", 300, 2),
    ("dist4", "lazy-sdcb-doubling", "greedy", 300, 20),
    ("dist1", "lazy-sdcb-doubling", "exhaustive", 300, 3),
    ("dist2", "lazy-sdcb-doubling", "ptas", 40, 1),
    ("dist2", "cucb", "greedy", 300, 5),
    ("dist4", "cucb", "exhaustive", 300, 2),
    ("dist1", "cucb", "ptas", 40, 3),
    ("dist1", "osm", "exhaustive", 300, 2),
    ("dist2", "osm", "exhaustive", 300, 1),
    ("dist3", "osm", "exhaustive", 300, 5),
    ("dist4", "osm", "exhaustive", 300, 3),
    ("explicit", "sdcb", "exhaustive", 300, 3),
    ("explicit", "lazy-sdcb", "exhaustive", 300, 2),
    ("explicit", "lazy-sdcb-doubling", "exhaustive", 300, 5),
    ("explicit", "cucb", "exhaustive", 300, 1),
]


class TestLockstep:
    @pytest.mark.parametrize("env_name, policy, oracle, T, runs", LOCKSTEP_CASES, ids=lambda v: str(v))
    def test_runs_match_one_run_reference(self, env_name, policy, oracle, T, runs):
        # every run of a lockstep batch plays, scores and accounts exactly as the one-run loop did for its seed
        env = explicit_env() if env_name == "explicit" else builtin_env(env_name)
        _, traces = run_many(env, PolicyFactory(policy, oracle), T, runs, seed_base=17)
        assert len(traces) == runs
        for r, trace in enumerate(traces):
            played, rewards = reference_run_one(env, policy, oracle, T, 17 + r)
            assert trace.super_arms == played
            assert trace.rewards.tobytes() == rewards.tobytes()
            assert trace.cum_regret.tobytes() == np.cumsum(env.optimal_value - rewards).tobytes()

    def test_run_one_is_the_first_run_of_any_batch(self):
        env = builtin_env("dist4")
        _, traces = run_many(env, PolicyFactory("lazy-sdcb-doubling", "greedy"), 80, 3, seed_base=9)
        solo = run_one(env, PolicyFactory("lazy-sdcb-doubling", "greedy"), 80, 9)
        assert solo.super_arms == traces[0].super_arms
        assert solo.rewards.tobytes() == traces[0].rewards.tobytes()


# every (policy, oracle) pair a run can take; osm calls no oracle
LOCKSTEP_PAIRS = [(p, o) for p in POLICIES if p != "osm" for o in ORACLES] + [("osm", "exhaustive")]


def random_lockstep_case(rng):
    """(environment, policy, oracle, T, runs, n_jobs) of one random legal call.

    First a (policy, oracle) pair: osm needs a cardinality family, greedy and ptas a cardinality family and the K-MAX
    reward, and ptas runs only up to T = 30.  Then m in 2-7, K in 1-4, a K-MAX, linear or utility reward, and finite,
    continuous or mixed arms (finite for a utility), or finite arms on one shared support, whose runs soon keep equal
    widths; 1 to 9 runs, at times in two processes.  Half the greedy calls take shared supports and
    ``oracles._STACK_RUNS`` runs or more, so greedy steps their width groups as stacks.
    """
    policy, oracle = LOCKSTEP_PAIRS[int(rng.integers(len(LOCKSTEP_PAIRS)))]
    m = int(rng.integers(2, 8))
    K = int(rng.integers(1, min(m, 4) + 1))
    cardinality = policy == "osm" or oracle != "exhaustive" or rng.random() < 0.5
    reward = "kmax" if oracle != "exhaustive" else str(rng.choice(["kmax", "linear", "utility"]))
    kinds = ["finite", "shared"] if reward == "utility" else ["finite", "continuous", "mixed", "shared"]
    stack = oracle == "greedy" and rng.random() < 0.5
    kind = "shared" if stack else str(rng.choice(kinds))
    if kind == "shared":
        support = np.sort(rng.choice(COARSE_GRID, size=int(rng.integers(1, 4)), replace=False))
        probs = rng.random((m, len(support))) + 0.2
        arms = [make_finite(support, p / p.sum()) for p in probs]
    else:
        arms = random_arm_list(rng, kind, m)
    family = FeasibleFamily.cardinality_at_most(K, m) if cardinality else random_explicit(rng, m, K)
    if reward == "kmax":
        spec = kmax_spec()
    elif reward == "linear":
        spec = linear_spec(float(K))
    else:
        spec = utility_spec(str(rng.choice(sorted(UTILITY_CURVES))), bound_M=float(K * K), lipschitz_C=float(2 * K))
    T = int(rng.integers(1, 31 if oracle == "ptas" else 121))
    stacks = [oracles._STACK_RUNS, oracles._STACK_RUNS + 1, oracles._STACK_RUNS + 3]
    runs = int(rng.choice(stacks if stack else [1, 2, 3, *stacks]))
    n_jobs = 2 if runs > 1 and rng.random() < 0.1 else 1
    return Environment(arms, family, spec, name=f"{kind} {reward}"), policy, oracle, T, runs, n_jobs


class TestRandomLockstep:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_runs_match_one_run_reference(self, seed):
        # a random call's runs each play, score and account as the one-run loop did for their seeds
        rng = np.random.default_rng(seed)
        env, policy, oracle, T, runs, n_jobs = random_lockstep_case(rng)
        seed_base = int(rng.integers(0, 10**6))
        _, traces = run_many(env, PolicyFactory(policy, oracle), T, runs, seed_base, n_jobs=n_jobs)
        for r, trace in enumerate(traces):
            played, rewards = reference_run_one(env, policy, oracle, T, seed_base + r)
            assert trace.super_arms == played
            assert trace.rewards.tobytes() == rewards.tobytes()
            assert trace.cum_regret.tobytes() == np.cumsum(env.optimal_value - rewards).tobytes()


class TestOracleCalls:
    @pytest.mark.parametrize("env_name, policy", [("dist1", "sdcb"), ("dist4", "lazy-sdcb")])
    def test_greedy_batch_builds_no_matrix(self, monkeypatch, env_name, policy):
        # sdcb's greedy handle reads the kernel's arrays: after the environment, a run builds no CdfMatrix
        env = builtin_env(env_name)
        built = []
        init = CdfMatrix.__init__
        monkeypatch.setattr(CdfMatrix, "__init__", lambda self, values, F: built.append(self) or init(self, values, F))
        run_many(env, PolicyFactory(policy, "greedy"), 60, 5, seed_base=4)
        assert built == []

    def test_plain_function_oracle_gets_one_matrix_per_run_and_round(self):
        env, T, runs = builtin_env("dist1"), 60, 3
        laws = []

        def oracle(cdfs):
            laws.append(cdfs)
            return greedy_kmax(cdfs, env.family.K)

        _, traces = run_many(env, lambda family, spec, T, rngs: Sdcb(family, spec, oracle, runs=len(rngs)), T, runs, 4)
        assert len(laws) == runs * (T - env.family.m)
        assert all(type(cdfs) is CdfMatrix for cdfs in laws)
        _, batched = run_many(env, PolicyFactory("sdcb", "greedy"), T, runs, 4)
        assert [tr.super_arms for tr in traces] == [tr.super_arms for tr in batched]


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


# library calls given one value their own rule rejects, where no CLI check stands in front: (call, message)
VALUE_ERRORS = {
    "run_many-seed-fraction": (lambda: run_many(tiny_env(), PolicyFactory("sdcb"), 5, 2, seed_base=2.7), "seed must be"),
    "run_many-seed-bool": (lambda: run_many(tiny_env(), PolicyFactory("sdcb"), 5, 2, seed_base=True), "seed must be"),
    "run_many-alpha-nan": (lambda: run_many(tiny_env(), PolicyFactory("sdcb"), 5, 2, 0, alpha=math.nan), "alpha"),
    "run_many-alpha-above-one": (lambda: run_many(tiny_env(), PolicyFactory("sdcb"), 5, 2, 0, alpha=7), "alpha"),
    "run_one-alpha-bool": (lambda: run_one(tiny_env(), PolicyFactory("sdcb"), 5, 0, alpha=True), "alpha"),
    "substream-seed-fraction": (lambda: substream(1.5, 0, 0), "seed must be"),
    "substream-kind-fraction": (lambda: substream(0, 0.5, 1), "kind must be"),
    "substream-index-fraction": (lambda: substream(0, 0, 1.9), "index must be"),
    "substream-index-bool": (lambda: substream(0, 0, True), "index must be"),
    "run_seed-run-bool": (lambda: run_seed(3, True), "run must be"),
    "run_seed-run-fraction": (lambda: run_seed(3, 1.9), "run must be"),
    "signatures-W-nan": (lambda: _signatures(CdfMatrix.of(tiny_env().arms), math.nan, 0.25), "W must be"),
    "cardinality-K-fraction": (lambda: FeasibleFamily.cardinality_at_most(2.5, 3), "K must be"),
    "greedy-K-float": (lambda: greedy_kmax(tiny_env().arms, 2.0), "K must be"),
    "ptas-K-float": (lambda: ptas_kmax(tiny_env().arms, 2.0, 0.25), "K must be"),
    "factory-epsilon-negative": (lambda: PolicyFactory("sdcb", "greedy", epsilon=-3), "epsilon must"),
    "factory-unknown-policy": (lambda: PolicyFactory("thompson"), "unknown policy 'thompson'"),
    "factory-unknown-oracle": (lambda: PolicyFactory("sdcb", "lp"), "unknown oracle 'lp'"),
    "utility-bound_M-bool": (lambda: utility_spec("sqrt", bound_M=True, lipschitz_C=1.0), "bound_M must be"),
    "linear-bound_M-string": (lambda: linear_spec(bound_M="3"), "bound_M must be"),
    "utility-table-string": (lambda: utility_spec([("0", 0), (1, 1)], bound_M=1.0, lipschitz_C=1.0), "utility table"),
}


class TestValueChecks:
    @pytest.mark.parametrize("call, message", VALUE_ERRORS.values(), ids=VALUE_ERRORS.keys())
    def test_library_rejects(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            call()


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
