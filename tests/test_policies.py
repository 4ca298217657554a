"""Learning policies: SDCB variants, CUCB, and the OSM baseline with its Exp3 weight matrix."""

import math
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmab.distributions import _DRAW_BLOCK, bin_value, confidence_radius, dominant_cdfs, make_finite, sample
from cmab.harness import PolicyFactory, builtin_env
from cmab.oracles import FeasibleFamily, exhaustive_oracle, greedy_kmax
from cmab.policies import Cucb, LazySdcbDoubling, Osm, Sdcb, lazy_sdcb_known_T
from cmab.rewards import SuperArm, expected_kmax, kmax_spec
from cmab.rng import ARM_STREAM, POLICY_STREAM, substream
from util import COARSE_GRID, ReferenceDoubling, ReferenceMatrixOsm, ReferenceOsm, count_matrix, run_grid

EXACT = 1e-12


def point(v):
    return make_finite([v], [1.0])


def cardinality_setup(K, m):
    fam = FeasibleFamily.cardinality_at_most(K, m)
    spec = kmax_spec()
    oracle = partial(exhaustive_oracle, family=fam, spec=spec)
    return fam, spec, oracle


def drive(policy, arm_values, T):
    """Run a policy against fixed deterministic outcomes; returns member tuples."""
    seq = []
    for t in range(1, T + 1):
        S = policy.select(t)
        seq.append(S.members)
        policy.observe(t, S, {i: arm_values[i] for i in S.members})
    return seq


POLICY_MAKERS = {
    "sdcb": Sdcb,
    "lazy-sdcb-doubling": LazySdcbDoubling,
    "cucb": Cucb,
    "osm": lambda fam, spec, oracle: Osm(fam, 100, substream(0, 1, 0)),
}


def arm_state(pol):
    """Copies of every array a policy learns into, over all its runs."""
    if isinstance(pol, Sdcb):
        return [pol.grid_values.copy(), pol.cum.copy()]
    if isinstance(pol, Cucb):
        return [pol.sums.copy(), pol.counts.copy()]
    return [pol.weights.copy()]


def same_state(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class TestRoundContract:
    def test_select_twice_errors(self):
        fam, spec, oracle = cardinality_setup(1, 2)
        pol = Sdcb(fam, spec, oracle)
        pol.select(1)
        with pytest.raises(ValueError):
            pol.select(2)

    def test_observe_without_select_errors(self):
        fam, spec, oracle = cardinality_setup(1, 2)
        pol = Sdcb(fam, spec, oracle)
        with pytest.raises(ValueError):
            pol.observe(1, SuperArm([0]), {0: 0.5})

    def test_round_skip_errors(self):
        fam, spec, oracle = cardinality_setup(1, 2)
        pol = Sdcb(fam, spec, oracle)
        S = pol.select(1)
        pol.observe(1, S, {0: 0.5})
        with pytest.raises(ValueError):
            pol.select(3)

    def test_outcome_set_must_match(self):
        fam, spec, oracle = cardinality_setup(2, 3)
        pol = Sdcb(fam, spec, oracle)
        S = pol.select(1)
        with pytest.raises(ValueError):
            pol.observe(1, S, {0: 0.5, 2: 0.5})
        for bad in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError):
                pol.observe(1, S, {i: bad for i in S.members})
        assert not pol.cum.any()

    @pytest.mark.parametrize("make", POLICY_MAKERS.values(), ids=POLICY_MAKERS.keys())
    def test_corrected_retry_after_rejection(self, make):
        fam, spec, oracle = cardinality_setup(2, 3)
        pol = make(fam, spec, oracle)
        for t in (1, 2, 3, 4):
            S = pol.select(t)
            other = min(set(range(3)) - set(S.members))
            before = arm_state(pol)
            for bad in (1.5, -0.1, math.nan):
                with pytest.raises(ValueError, match="outside"):
                    pol.observe(t, S, {i: bad for i in S.members})
            with pytest.raises(ValueError, match="members"):
                pol.observe(t, S, {i: 0.5 for i in S.members + (other,)})
            assert same_state(arm_state(pol), before)
            pol.observe(t, S, {i: 0.5 for i in S.members})
            assert not same_state(arm_state(pol), before)


BATCH_MAKERS = {
    "sdcb": partial(Sdcb, runs=3),
    "lazy-sdcb-doubling": partial(LazySdcbDoubling, runs=3),
    "cucb": partial(Cucb, runs=3),
    "osm": lambda fam, spec, oracle: Osm(fam, 100, *(substream(s, 1, 0) for s in range(3))),
}


class TestBatchContract:
    @pytest.mark.parametrize("make", BATCH_MAKERS.values(), ids=BATCH_MAKERS.keys())
    def test_one_bad_outcome_changes_no_run(self, make):
        # one run's bad outcome rejects the whole round before any run's state moves; a corrected retry is taken
        fam, spec, oracle = cardinality_setup(2, 3)
        pol = make(fam, spec, oracle)
        values = [0.25, 0.5, 0.75]
        for t in range(1, 6):
            arms = pol.select_batch(t)
            assert len(arms) == 3
            good = [{i: values[(i + r) % 3] for i in S.members} for r, S in enumerate(arms)]
            before = arm_state(pol)
            for bad in (1.5, -0.1, math.nan):
                outcomes = [dict(o) for o in good]
                outcomes[2][arms[2].members[-1]] = bad
                with pytest.raises(ValueError, match="outside"):
                    pol.observe_batch(t, arms, outcomes)
                assert same_state(arm_state(pol), before)
            extra = [dict(o) for o in good]
            extra[1][min(set(range(3)) - set(arms[1].members))] = 0.5
            with pytest.raises(ValueError, match="members"):
                pol.observe_batch(t, arms, extra)
            with pytest.raises(ValueError, match="expected 3 super arms"):
                pol.observe_batch(t, arms[:2], good[:2])
            assert same_state(arm_state(pol), before)
            pol.observe_batch(t, arms, good)
            assert not same_state(arm_state(pol), before)

    @pytest.mark.parametrize("make", BATCH_MAKERS.values(), ids=BATCH_MAKERS.keys())
    def test_one_run_calls_need_one_run(self, make):
        fam, spec, oracle = cardinality_setup(2, 3)
        pol = make(fam, spec, oracle)
        with pytest.raises(ValueError, match="steps 3 runs"):
            pol.select(1)
        arms = pol.select_batch(1)
        with pytest.raises(ValueError, match="steps 3 runs"):
            pol.observe(1, arms[0], {i: 0.5 for i in arms[0].members})

    def test_runs_are_checked(self):
        fam, spec, oracle = cardinality_setup(2, 3)
        for runs in (0, 1.5, True):
            with pytest.raises(ValueError, match="runs must be >= 1"):
                Sdcb(fam, spec, oracle, runs=runs)
        with pytest.raises(ValueError, match="runs must be >= 1"):
            Osm(fam, 100)

    def test_grids_stay_right_aligned(self):
        # runs that see different values keep their own grids, right-aligned over one zero column or more
        fam, spec, oracle = cardinality_setup(1, 2)
        pol = Sdcb(fam, spec, oracle, runs=2)
        seen = [[[], []], [[], []]]
        rng = np.random.default_rng(5)
        for t in range(1, 40):
            arms = pol.select_batch(t)
            outcomes = [{i: float(rng.choice(COARSE_GRID[: 40 * (r + 1)])) for i in S.members} for r, S in enumerate(arms)]
            pol.observe_batch(t, arms, outcomes)
            for r, run_outcomes in enumerate(outcomes):
                for i, x in run_outcomes.items():
                    seen[r][i].append(x)
            for r in range(2):
                values, counts = count_matrix(seen[r])
                L = len(values)
                assert np.array_equal(pol.grid_values[r, -L:], values)
                assert not pol.cum[r, :, :-L].any()
                assert np.array_equal(np.diff(pol.cum[r, :, -L - 1 :]), counts)
        assert pol.cum.shape[-1] > len(count_matrix(seen[0])[0]) + 1  # run 0's grid is the shorter one


class TestSdcb:
    def test_initialization_rounds_cover_arms(self):
        fam, spec, oracle = cardinality_setup(2, 4)
        pol = Sdcb(fam, spec, oracle)
        seq = drive(pol, {i: 0.5 for i in range(4)}, 4)
        assert seq == [(0,), (1,), (2,), (3,)]

    def test_initialization_explicit_family(self):
        fam = FeasibleFamily.explicit([[0, 1], [1, 2]], 3)
        spec = kmax_spec()
        oracle = partial(exhaustive_oracle, family=fam, spec=spec)
        pol = Sdcb(fam, spec, oracle)
        seq = drive(pol, {i: 0.5 for i in range(3)}, 3)
        # round i plays the smallest feasible super arm containing arm i-1
        assert seq == [(0, 1), (0, 1), (1, 2)]

    def test_deterministic_sequence_two_point_arms(self):
        # arm 0 always pays 0.2, arm 1 always 0.8; optimism saturates at 1
        # until an arm's radius drops below 1, then the better arm takes over
        fam, spec, oracle = cardinality_setup(1, 2)
        pol = Sdcb(fam, spec, oracle)
        seq = drive(pol, {0: 0.2, 1: 0.8}, 8)
        assert seq == [(0,), (1,), (0,), (0,), (1,), (1,), (1,), (0,)]
        assert pol.cum[0, :, -1].tolist() == [4, 4]

    def test_counter_conservation(self):
        fam, spec, oracle = cardinality_setup(2, 3)
        pol = Sdcb(fam, spec, oracle)
        seq = drive(pol, {0: 0.3, 1: 0.6, 2: 0.9}, 12)
        assert pol.cum[0, :, -1].sum() == sum(len(s) for s in seq)

    def test_outcome_binning(self):
        fam, spec, oracle = cardinality_setup(1, 2)
        pol = Sdcb(fam, spec, oracle, outcome_bins=4)
        S = pol.select(1)
        pol.observe(1, S, {0: 0.3})
        values, counts = run_grid(pol)
        assert np.array_equal(values[counts[0] > 0], [0.5])

    @pytest.mark.parametrize("bins", [None, 4])
    def test_observe_rejects_out_of_range_outcomes(self, bins):
        # a rejected outcome leaves the value grid and the cumulative counts as they were
        fam, spec, oracle = cardinality_setup(1, 2)
        for bad in (1.5, -0.1):
            pol = Sdcb(fam, spec, oracle, outcome_bins=bins)
            pol.observe(1, pol.select(1), {0: 0.5})
            before = arm_state(pol)
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                pol.observe(2, pol.select(2), {1: bad})
            assert same_state(arm_state(pol), before)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([None, 3, 10]))
    def test_count_matrix_tracks_observations(self, seed, bins):
        # the grid stays strictly ascending and ends at 1; each row counts its arm's values
        rng = np.random.default_rng(seed)
        fam, spec, oracle = cardinality_setup(2, 4)
        pol = Sdcb(fam, spec, oracle, outcome_bins=bins)
        seen = {i: [] for i in range(4)}
        for t in range(1, 30):
            S = pol.select(t)
            outcomes = {i: float(rng.choice(COARSE_GRID)) for i in S.members}
            pol.observe(t, S, outcomes)
            for i, x in outcomes.items():
                seen[i].append(x if bins is None else bin_value(x, bins))
            values, counts = run_grid(pol)
            assert np.all(np.diff(values) > 0) and values[-1] == 1.0
        for i, obs in seen.items():
            assert {v: c for v, c in zip(values, counts[i]) if c} == Counter(obs)
        assert pol.cum[0, :, -1].tolist() == [len(seen[i]) for i in range(4)]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from([None, 1, 3, 10, 45]))
    def test_oracle_input_is_dominant_cdfs(self, seed, m, bins):
        # from cumulative counts, every round's oracle input equals dominant_cdfs on the count matrix of the
        # outcomes seen so far, bit for bit and Fortran-ordered as greedy's gemv reads it; new values keep arriving
        # below, between and above the grid, and a binned grid holds every bin from the start
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, m + 1))
        inputs = []
        pol = Sdcb(
            FeasibleFamily.cardinality_at_most(K, m),
            kmax_spec(),
            lambda laws: inputs.append(laws) or SuperArm(rng.choice(m, size=K, replace=False)),
            outcome_bins=bins,
        )
        pool = [float(rng.choice(COARSE_GRID))]
        seen = [[] for _ in range(m)]
        for t in range(1, 60):
            want = dominant_cdfs(*count_matrix(seen), t) if t > m else None
            S = pol.select(t)
            if want is not None:
                got = inputs.pop()
                assert np.array_equal(got.values, want.values) and got.values.dtype == want.values.dtype
                assert np.array_equal(got.F, want.F) and got.F.dtype == want.F.dtype
                assert got.F.flags.f_contiguous and want.F.flags.f_contiguous
            if rng.random() < 0.3:
                pool.append(float(rng.choice([0.0, 1.0, rng.random(), rng.choice(COARSE_GRID)])))
            outcomes = {i: pool[int(rng.integers(len(pool)))] for i in S.members}
            pol.observe(t, S, outcomes)
            for i, x in outcomes.items():
                seen[i].append(x if bins is None else bin_value(x, bins))
            assert np.array_equal(run_grid(pol)[0], count_matrix(seen)[0])
        assert not inputs

    def test_identical_histories_identical_choices(self):
        fam, spec, oracle = cardinality_setup(1, 3)
        a = Sdcb(fam, spec, oracle)
        b = Sdcb(fam, spec, oracle)
        values = {0: 0.1, 1: 0.5, 2: 0.9}
        assert drive(a, values, 10) == drive(b, values, 10)


class TestLazySdcb:
    def test_bin_count_is_ceil_sqrt(self):
        fam, spec, oracle = cardinality_setup(1, 2)
        assert lazy_sdcb_known_T(fam, spec, oracle, 16).outcome_bins == 4
        assert lazy_sdcb_known_T(fam, spec, oracle, 17).outcome_bins == 5
        assert lazy_sdcb_known_T(fam, spec, oracle, 1).outcome_bins == 1
        assert lazy_sdcb_known_T(fam, spec, oracle, 100).outcome_bins == 10

    def test_spec_binning_examples(self):
        fam, spec, oracle = cardinality_setup(1, 2)
        pol = lazy_sdcb_known_T(fam, spec, oracle, 100)
        S = pol.select(1)
        pol.observe(1, S, {0: 0.25})
        values, counts = run_grid(pol)
        assert np.array_equal(values[counts[0] > 0], [0.3])

    def test_horizon_one_bins_everything_to_one(self):
        fam, spec, oracle = cardinality_setup(1, 2)
        pol = lazy_sdcb_known_T(fam, spec, oracle, 1)
        S = pol.select(1)
        pol.observe(1, S, {0: 0.0})
        values, counts = run_grid(pol)
        assert np.array_equal(values[counts[0] > 0], [1.0])

    def test_rejects_bad_horizon(self):
        fam, spec, oracle = cardinality_setup(1, 2)
        with pytest.raises(ValueError):
            lazy_sdcb_known_T(fam, spec, oracle, 0)


class TestLazySdcbDoubling:
    def test_epoch_boundaries(self):
        def epochs(K, m, T):
            fam, spec, oracle = cardinality_setup(K, m)
            pol = LazySdcbDoubling(fam, spec, oracle)
            boundaries = []
            for t in range(1, T + 1):
                S = pol.select(t)
                boundaries.append(pol.epoch)
                pol.observe(t, S, {i: 0.5 for i in S.members})
            return boundaries

        boundaries = epochs(3, 9, 69)
        assert boundaries[0] == (1, 16)
        assert boundaries[15] == (1, 16)
        assert boundaries[16] == (17, 32)
        assert boundaries[31] == (17, 32)
        assert boundaries[32] == (33, 64)
        assert boundaries[64] == (65, 128)
        # a single arm needs no initialization epoch: 1..1, then doubling
        assert epochs(1, 1, 4) == [(1, 1), (2, 2), (3, 4), (3, 4)]

    def test_state_resets_at_epoch_start(self):
        # a fresh epoch replays initialization, so round 17 must select {0}
        fam, spec, oracle = cardinality_setup(1, 2)
        pol = LazySdcbDoubling(fam, spec, oracle)
        values = {0: 0.2, 1: 0.9}
        seq = drive(pol, values, 9)
        # m=2: epochs are (1,2), (3,4), (5,8), (9,16); each restarts with arm 0
        assert seq[0] == (0,)
        assert seq[2] == (0,)
        assert seq[4] == (0,)
        assert seq[8] == (0,)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))),
        st.integers(1, 300),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_restarted_reference(self, mK, T, seed):
        # restarting its own counts plays as a fresh known-horizon policy per epoch: every round the same
        # selection and epoch, and the same grid, counts and bins as that epoch's policy
        m, K = mK
        fam = FeasibleFamily.cardinality_at_most(K, m)
        spec, oracle = kmax_spec(), partial(greedy_kmax, K=K)
        pol, ref = LazySdcbDoubling(fam, spec, oracle), ReferenceDoubling(fam, spec, oracle)
        rng = np.random.default_rng(seed)
        skew = rng.uniform(0.2, 3.0, size=m)  # arm i pays u ** skew[i], and now and then exactly 0 or 1
        for t in range(1, T + 1):
            S = pol.select(t)
            assert S.members == ref.select(t).members
            assert pol.epoch == ref.epoch
            outcomes = {i: float(rng.integers(2) if rng.random() < 0.1 else rng.random() ** skew[i]) for i in S.members}
            pol.observe(t, S, outcomes)
            ref.observe(t, S, outcomes)
            assert same_state(arm_state(pol), arm_state(ref.inner))
            assert pol.outcome_bins == ref.inner.outcome_bins

    def test_rejected_observe_at_epoch_end_keeps_schedule(self):
        # a rejected observe on an epoch's last round, then a corrected retry, plays as an undisturbed run
        fam, spec, oracle = cardinality_setup(2, 3)
        pol, undisturbed = LazySdcbDoubling(fam, spec, oracle), LazySdcbDoubling(fam, spec, oracle)
        values = {0: 0.2, 1: 0.9, 2: 0.55}
        for t in range(1, 41):
            S = pol.select(t)
            assert S == undisturbed.select(t)
            assert pol.epoch == undisturbed.epoch
            if t == pol.epoch[1]:
                before = arm_state(pol)
                with pytest.raises(ValueError, match="outside"):
                    pol.observe(t, S, {i: 1.5 for i in S.members})
                with pytest.raises(ValueError, match="members"):
                    pol.observe(t, S, {i: 0.5 for i in range(3)})
                assert same_state(arm_state(pol), before)
            pol.observe(t, S, {i: values[i] for i in S.members})
            undisturbed.observe(t, S, {i: values[i] for i in S.members})
            assert same_state(arm_state(pol), arm_state(undisturbed))
        assert pol.epoch == (33, 64)


class TestCucb:
    def test_initialization_then_ucb_point_masses(self):
        fam = FeasibleFamily.cardinality_at_most(1, 2)
        spec = kmax_spec()
        captured = []

        def oracle(dists):
            captured.append(dists)
            return SuperArm([0])

        pol = Cucb(fam, spec, oracle)
        drive(pol, {0: 0.4, 1: 0.8}, 13)
        # by round 13 arm 0 has 12 pulls (init + 10 stub picks), arm 1 has 1
        dists = captured[-1]
        r0 = math.sqrt(1.5 * math.log(13) / 11)
        assert dists[0].support[0] == pytest.approx(min(0.4 + r0, 1.0), abs=EXACT)
        assert dists[1].support[0] == 1.0  # radius with one pull clamps at 1
        assert all(len(d.support) == 1 for d in dists)

    def test_selection_follows_ucb(self):
        fam, spec, oracle = cardinality_setup(1, 2)
        pol = Cucb(fam, spec, oracle)
        seq = drive(pol, {0: 0.2, 1: 0.8}, 30)
        assert seq[0] == (0,) and seq[1] == (1,)
        # the better arm dominates the tail
        tail = seq[20:]
        assert sum(s == (1,) for s in tail) == len(tail)

    def test_counter_conservation(self):
        fam, spec, oracle = cardinality_setup(2, 3)
        pol = Cucb(fam, spec, oracle)
        seq = drive(pol, {0: 0.3, 1: 0.6, 2: 0.9}, 10)
        assert pol.counts[0].sum() == sum(len(s) for s in seq)


def osm(K, m, T=100, seed=0, gamma=None):
    """An Osm on the cardinality family (K, m); ``gamma`` replaces the tuned rate."""
    pol = Osm(FeasibleFamily.cardinality_at_most(K, m), T, substream(seed, 1, 0))
    if gamma is not None:
        pol.gamma = gamma
    return pol


def play(pol, t, value):
    """One round of ``pol`` in which every played arm pays ``value``; returns the draws."""
    S = pol.select(t)
    pol.observe(t, S, {i: value for i in S.members})
    return pol.last_draws[0]


class TestExp3:
    """The Exp3 math of each instance, one row of ``Osm.weights``."""

    def test_fresh_probs_uniform(self):
        assert np.allclose(osm(3, 8, gamma=0.3).probs(), 1 / 8, atol=EXACT)

    def test_full_exploration_ignores_weights(self):
        pol = osm(1, 3, gamma=1.0)
        pol.weights[0] = [10.0, 1.0, 1.0]
        assert np.allclose(pol.probs(), 1 / 3, atol=EXACT)

    def test_update_weight_math(self):
        pol = osm(1, 2, gamma=0.5)
        (arm,) = play(pol, 1, 1.0)
        # w_arm *= exp(0.5 * (1/0.5) / 2) = e^0.5, then rescaled by the max
        assert pol.weights[0, arm] == 1.0
        assert pol.weights[0, 1 - arm] == pytest.approx(math.exp(-0.5), abs=EXACT)

    def test_update_raises_chosen_probability(self):
        pol = osm(1, 3, gamma=0.2)
        before = pol.probs()
        (arm,) = play(pol, 1, 1.0)
        assert pol.probs()[0, arm] > before[0, arm]

    def test_zero_payoff_keeps_probs(self):
        pol = osm(2, 3, gamma=0.2)
        play(pol, 1, 0.0)
        assert np.allclose(pol.probs(), 1 / 3, atol=EXACT)

    def test_payoff_and_gamma_validation(self):
        # a payoff outside [0, 1] is rejected before any weight moves; the tuned rate lies in (0, 1]
        pol = osm(1, 2, gamma=0.5)
        S = pol.select(1)
        with pytest.raises(ValueError, match="outside"):
            pol.observe(1, S, {i: 1.5 for i in S.members})
        assert np.array_equal(pol.weights, np.ones((1, 2)))
        for T in (1, 10, 10**6, 10**12):
            assert 0.0 < osm(1, 2, T).gamma <= 1.0

    def test_gamma_formula(self):
        assert osm(1, 1, 100).gamma == 1.0
        want = min(1.0, math.sqrt(9 * math.log(9) / ((math.e - 1) * 10_000)))
        assert osm(2, 9, 10_000).gamma == pytest.approx(want, abs=0.0)
        assert osm(2, 9, 1).gamma == 1.0

    def test_select_reproducible(self):
        a, b = osm(3, 5, seed=3, gamma=0.4), osm(3, 5, seed=3, gamma=0.4)
        assert a.select(1) == b.select(1)
        assert a.last_draws == b.last_draws

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_probabilities_stay_simplex(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        gamma = float(rng.uniform(0.05, 1.0))
        pol = osm(int(rng.integers(1, m + 1)), m, seed=seed, gamma=gamma)
        for t in range(1, 41):
            S = pol.select(t)
            pol.observe(t, S, {i: float(rng.random()) for i in S.members})
            p = pol.probs()
            assert np.all(np.abs(p.sum(1) - 1.0) <= 1e-12)
            assert np.all(p >= gamma / m - 1e-12)
            assert np.all(pol.weights > 0)


class TestOsm:
    def test_requires_cardinality_family(self):
        fam = FeasibleFamily.explicit([[0], [1]], 2)
        with pytest.raises(ValueError):
            Osm(fam, 100, substream(0, 1, 0))

    @pytest.mark.parametrize("T", [0, -5, 2.5])
    def test_rejects_bad_horizon(self, T):
        with pytest.raises(ValueError, match=r"horizon T must be >= 1"):
            osm(2, 3, T)

    def test_plays_feasible_unions(self):
        fam = FeasibleFamily.cardinality_at_most(3, 5)
        pol = Osm(fam, 200, substream(5, 1, 0))
        for t in range(1, 51):
            S = pol.select(t)
            assert 1 <= len(S) <= 3
            assert fam.is_feasible(S)
            pol.observe(t, S, {i: 0.5 for i in S.members})

    def test_k_one_reduces_to_exp3_singletons(self):
        fam = FeasibleFamily.cardinality_at_most(1, 4)
        pol = Osm(fam, 100, substream(9, 1, 0))
        for t in range(1, 21):
            S = pol.select(t)
            assert len(S) == 1
            pol.observe(t, S, {i: 0.9 for i in S.members})

    def test_marginal_gain_feedback(self):
        fam = FeasibleFamily.cardinality_at_most(2, 3)
        pol = Osm(fam, 100, substream(2, 1, 0))
        S = pol.select(1)
        (draws,) = pol.last_draws
        gamma = pol.gamma
        p_before = pol.probs()
        outcomes = {i: 0.2 + 0.3 * i for i in S.members}
        pol.observe(1, S, outcomes)
        # gains telescope the running max in draw order
        g1 = outcomes[draws[0]]
        g2 = max(g1, outcomes[draws[1]]) - g1
        m = fam.m
        for row, arm, gain, p in zip(pol.weights, draws, (g1, g2), p_before):
            grow = math.exp(gamma * (gain / p[arm]) / m)
            w = np.ones(m)
            w[arm] *= grow
            w /= w.max()
            assert np.allclose(row, np.maximum(w, 1e-300), atol=EXACT)

    def test_duplicate_draw_second_gain_zero(self):
        fam = FeasibleFamily.cardinality_at_most(2, 2)
        rng = substream(0, 1, 0)
        for t in range(1, 200):
            pol = Osm(fam, 100, rng)
            S = pol.select(1)
            (draws,) = pol.last_draws
            if len(set(draws)) == 1:
                arm = draws[0]
                before = pol.weights[1].copy()
                pol.observe(1, S, {arm: 0.7})
                # the second instance saw gain max(0.7, 0.7) - 0.7 = 0
                assert np.allclose(pol.weights[1], before, atol=EXACT)
                return
        pytest.fail("no duplicate draw found")

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.integers(1, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))),
        st.integers(1, 10**6),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    )
    def test_matches_per_instance_reference(self, mK, T, seed, levels):
        # the weight matrix draws and updates bit for bit as K separate rng.choice/Exp3 instances;
        # outcomes come from a few levels, so equal outcomes and zero gains are common
        # and as the matrix policy did with one random(K) per round, past the first block of uniforms
        m, K = mK
        pol = osm(K, m, T, seed)
        ref = ReferenceOsm(m, K, pol.gamma, substream(seed, 1, 0))
        matrix_ref = ReferenceMatrixOsm(FeasibleFamily.cardinality_at_most(K, m), T, substream(seed, 1, 0))
        outcome_rng = np.random.default_rng(seed)
        duplicates = 0
        for t in range(1, _DRAW_BLOCK + 45):
            S = pol.select(t)
            assert S == matrix_ref.select(t)
            assert pol.last_draws == [list(ref.select())] == [list(matrix_ref.last_draws)]
            duplicates += len(S) < K
            outcomes = {i: levels[int(outcome_rng.integers(len(levels)))] for i in S.members}
            pol.observe(t, S, outcomes)
            ref.observe(outcomes)
            matrix_ref.observe(t, S, outcomes)
            assert np.array_equal(pol.weights, np.vstack(ref.weights))
            assert np.array_equal(pol.weights, matrix_ref.weights)
        assert duplicates > 0 or K == 1


class TestRegretCertificate:
    """The SDCB analysis's per-round proof step, checked on the learning loop itself.

    E_t is the event sup_x |F-hat_i(x) - F_i(x)| <= L_i for every arm i, with
    L_i = sqrt(3 ln t / 2 T_i).  On every round after initialization where
    E_t holds, optimism plus an alpha-approximate oracle give
    (a) alpha r_D(S*) <= r_Dbar(S_t) and (b) r_Dbar(S_t) - r_D(S_t) <= 2 M sum_{i in S_t} L_i.
    Rounds where E_t fails are counted, against a budget fixed from the
    Massart bound P(sup_x |F-hat - F| > L) <= 2 exp(-2 n L^2) = 2 t^-3 per
    arm, summed over the t possible counts n: 2 m t^-2 per round.
    """

    @pytest.mark.parametrize(
        "env_name, oracle, alpha",
        [("dist1", "exhaustive", 1.0), ("dist2", "greedy", 1.0 - 1.0 / math.e), ("dist3", "exhaustive", 1.0)],
    )
    def test_optimism_and_confidence_bounds(self, env_name, oracle, alpha):
        T, seed = 3000, 7
        env = builtin_env(env_name)
        m, M = env.family.m, env.spec.bound_M
        pol = PolicyFactory("sdcb", oracle)(env.family, env.spec, T, [substream(seed, POLICY_STREAM, 0)])
        arm_rngs = [substream(seed, ARM_STREAM, i) for i in range(m)]
        # the empirical and true CDFs are right-continuous steps: |F-hat - F| peaks at a jump of either
        jumps = np.unique(np.concatenate([arm.support for arm in env.arms] + [[0.0, 1.0]]))
        true_cdfs = np.vstack([arm.cdf(jumps) for arm in env.arms])
        failures, certified = 0, 0
        for t in range(1, T + 1):
            if t > m:
                values, counts = run_grid(pol)
                n = counts.sum(1)
                radius = confidence_radius(t, n)
                at = np.searchsorted(values, jumps, side="right")
                empirical = np.hstack([np.zeros((m, 1)), np.cumsum(counts, 1) / n[:, None]])[:, at]
                holds = bool(np.all(np.abs(empirical - true_cdfs).max(1) <= radius))
            S = pol.select(t)
            if t > m and holds:
                optimistic = expected_kmax(dominant_cdfs(values, counts, t), S)
                assert alpha * env.optimal_value <= optimistic + EXACT, (t, S)
                assert optimistic - env.score(S) <= 2 * M * radius[list(S.members)].sum() + EXACT, (t, S)
                certified += 1
            elif t > m:
                failures += 1
            pol.observe(t, S, {i: sample(env.arms[i], arm_rngs[i]) for i in S.members})
        assert certified + failures == T - m
        budget = sum(2 * m / t**2 for t in range(m + 1, T + 1))
        assert failures <= budget, (failures, budget)
