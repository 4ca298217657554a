"""Reward layer: super arms, reward specs, exact expected-reward evaluation."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmab
from cmab.distributions import CdfMatrix, PiecewiseDensity, dominant_cdfs, make_finite
from cmab.errors import GuardExceeded
from cmab.harness import Environment, builtin_env
from cmab.oracles import FeasibleFamily
from cmab.rewards import (
    UTILITY_CURVES,
    RewardSpec,
    SuperArm,
    TabulatedUtility,
    _cdfs,
    _check_curve,
    _kmax_scores,
    _scores,
    expected_kmax,
    expected_reward,
    kmax_spec,
    linear_spec,
    utility_spec,
)
from util import (
    bruteforce_kmax,
    count_matrix,
    joint_expected,
    random_arm_list,
    random_counts,
    random_finite,
    reference_expected_kmax_continuous,
    value_pool,
)

EXACT = 1e-12
QUAD = 1e-9


class TestSuperArm:
    def test_sorted_dedup(self):
        s = SuperArm([3, 1, 3, 2])
        assert s.members == (1, 2, 3)
        assert len(s) == 3 and 2 in s and 0 not in s

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            SuperArm([])
        with pytest.raises(ValueError):
            SuperArm([-1, 2])

    def test_ordering_and_equality(self):
        assert SuperArm([0, 3]) < SuperArm([3])
        assert SuperArm([0, 1]) < SuperArm([0, 2])
        assert SuperArm([2, 1]) == SuperArm([1, 2])
        assert len({SuperArm([1, 2]), SuperArm([2, 1])}) == 1

    def test_iterates_members_in_order(self):
        assert list(SuperArm([2, 0, 2])) == [0, 2]


class TestRewardSpec:
    def test_repr_names_kind_and_constants(self):
        assert repr(utility_spec("sqrt", 2.0, 1.5)) == "RewardSpec(kind='utility_of_sum', bound_M=2.0, lipschitz_C=1.5)"

    def test_kmax_pins_constants(self):
        spec = kmax_spec()
        assert spec.kind == "kmax"
        assert spec.bound_M == 1.0 and spec.lipschitz_C == 1.0

    def test_kmax_rejects_utility(self):
        with pytest.raises(ValueError):
            RewardSpec("kmax", utility=lambda y: y)

    def test_misplaced_or_uncallable_curve(self):
        with pytest.raises(ValueError, match="linear_sum takes no utility curve"):
            RewardSpec("linear_sum", utility=lambda y: y)
        with pytest.raises(ValueError, match="requires a curve name or callable"):
            utility_spec(0.5, bound_M=1.0, lipschitz_C=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RewardSpec("median")

    def test_bound_positive(self):
        with pytest.raises(ValueError):
            linear_spec(bound_M=0.0)

    def test_named_curves(self):
        spec = utility_spec("square", bound_M=9.0, lipschitz_C=6.0)
        assert spec.utility(3.0) == 9.0
        with pytest.raises(ValueError):
            utility_spec("cubic", bound_M=1.0, lipschitz_C=1.0)

    def test_named_curves_checked_once(self, monkeypatch):
        # the named curves pass the check, which ran at import; a spec naming one does not run it again
        for curve in UTILITY_CURVES.values():
            _check_curve(curve)
        calls = []
        monkeypatch.setattr("cmab.rewards._check_curve", calls.append)
        for name in UTILITY_CURVES:
            utility_spec(name, bound_M=1.0, lipschitz_C=1.0)
        assert calls == []
        curve = lambda y: y  # noqa: E731
        utility_spec(curve, bound_M=1.0, lipschitz_C=1.0)
        assert calls == [curve]

    def test_rejects_decreasing_curve(self):
        with pytest.raises(ValueError):
            utility_spec(lambda y: -y, bound_M=1.0, lipschitz_C=1.0)

    def test_tabulated_curve(self):
        spec = utility_spec([(0.0, 0.0), (1.0, 0.5), (2.0, 0.6)], bound_M=0.6, lipschitz_C=0.5)
        assert spec.utility(0.5) == pytest.approx(0.25, abs=EXACT)
        assert spec.utility(1.5) == pytest.approx(0.55, abs=EXACT)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedUtility([(0.0, 0.0)])
        with pytest.raises(ValueError):
            TabulatedUtility([(0.0, 0.0), (0.0, 1.0)])


NON_FINITE_INPUTS = {
    "finite-support-nan": lambda: make_finite([0.5, math.nan], [0.5, 0.5]),
    "finite-mass-nan": lambda: make_finite([0.2, 0.5], [math.nan, 0.5]),
    "finite-mass-inf": lambda: make_finite([0.2, 0.5], [math.inf, 0.5]),
    "density-nan": lambda: PiecewiseDensity([0.0, 0.5, 1.0], [math.nan, 1.0]),
    "breakpoint-nan": lambda: PiecewiseDensity([0.0, math.nan, 1.0], [1.0, 1.0]),
    "bound-nan": lambda: linear_spec(bound_M=math.nan),
    "bound-inf": lambda: linear_spec(bound_M=math.inf),
    "lipschitz-nan": lambda: utility_spec("sqrt", bound_M=1.0, lipschitz_C=math.nan),
    "curve-nan": lambda: utility_spec(lambda y: math.nan, bound_M=1.0, lipschitz_C=1.0),
    "curve-partly-nan": lambda: utility_spec(lambda y: y if y < 1 else math.nan, bound_M=1.0, lipschitz_C=1.0),
    "table-nan": lambda: TabulatedUtility([(0.0, 0.0), (1.0, math.nan)]),
    "table-inf": lambda: TabulatedUtility([(0.0, 0.0), (math.inf, 1.0)]),
}


@pytest.mark.parametrize("build", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS.keys())
def test_non_finite_input_rejected(build):
    with pytest.raises(ValueError):
        build()


class TestExpectedKmax:
    def test_singleton_is_mean(self):
        d = make_finite([0.2, 0.8], [0.3, 0.7])
        assert expected_kmax([d], SuperArm([0])) == pytest.approx(d.mean(), abs=EXACT)

    def test_two_independent_arms(self):
        a = make_finite([0.0, 1.0], [0.5, 0.5])
        b = make_finite([0.0, 1.0], [0.5, 0.5])
        # max is 1 unless both are 0
        assert expected_kmax([a, b], SuperArm([0, 1])) == pytest.approx(0.75, abs=EXACT)

    def test_builtin_pair_value(self):
        env = builtin_env("dist1")
        assert expected_kmax(env.arms, SuperArm([0, 3])) == pytest.approx(0.77, abs=EXACT)

    def test_continuous_list_is_its_reward(self):
        # one evaluator for any arm laws: a continuous list is scored as expected_reward scores it, and the
        # former continuous-only name is the same function, gone from the package root
        u = PiecewiseDensity([0.0, 1.0], [1.0])
        assert expected_kmax([u], SuperArm([0])) == expected_reward([u], SuperArm([0]), kmax_spec())
        assert cmab.rewards.expected_kmax_continuous is expected_kmax
        assert "expected_kmax_continuous" not in cmab.__all__

    def test_point_masses(self):
        a = make_finite([0.4], [1.0])
        b = make_finite([0.7], [1.0])
        assert expected_kmax([a, b], SuperArm([0, 1])) == pytest.approx(0.7, abs=EXACT)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_joint_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        dists = [random_finite(rng, max_support=4) for _ in range(3)]
        for members in [(0,), (0, 1), (0, 1, 2)]:
            got = expected_kmax(dists, SuperArm(members))
            want = bruteforce_kmax(dists, members)
            assert got == pytest.approx(want, abs=1e-10)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_monotone_in_members(self, seed):
        rng = np.random.default_rng(seed)
        dists = [random_finite(rng, max_support=4) for _ in range(3)]
        v1 = expected_kmax(dists, SuperArm([0]))
        v2 = expected_kmax(dists, SuperArm([0, 1]))
        v3 = expected_kmax(dists, SuperArm([0, 1, 2]))
        assert v1 <= v2 + EXACT and v2 <= v3 + EXACT

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["optimistic", "near-duplicates", "cucb"]))
    def test_matrix_read_equals_list_read(self, seed, kind):
        # a CdfMatrix is read in place, its rows' laws through CdfMatrix.of: both give the same bits
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 7))
        radius = rng.uniform(0.0, 1.5, size=m) if rng.random() < 0.5 else None
        if kind == "optimistic":
            cdfs = dominant_cdfs(*random_counts(rng, m), int(rng.integers(2, 10**6)), radius)
        elif kind == "near-duplicates":
            pool = value_pool(rng, near_duplicates=True)
            obs = [rng.choice(pool, size=int(rng.integers(1, 12))) for _ in range(m)]
            cdfs = dominant_cdfs(*count_matrix(obs), int(rng.integers(2, 10**6)), radius)
        else:  # Cucb's clamped upper bounds as point masses, two of them closer than VALUE_TOL
            ucb = rng.choice([0.3, 0.5, 0.9, 0.9 + 4e-10, 1.0], size=m)
            values = np.unique(ucb)
            cdfs = CdfMatrix(values, (ucb[:, None] <= values).astype(float))
        laws = list(cdfs)
        for k in range(1, min(m, 4) + 1):
            for members in itertools.combinations(range(m), k):
                got = expected_kmax(cdfs, SuperArm(members))
                assert got == expected_kmax(laws, SuperArm(members))
                assert got == pytest.approx(bruteforce_kmax(laws, members), abs=EXACT)


class TestExpectedKmaxContinuous:
    def test_three_uniforms(self):
        u = PiecewiseDensity([0.0, 1.0], [1.0])
        # E[max of n iid U(0,1)] = n/(n+1)
        assert expected_kmax([u, u, u], SuperArm([0, 1, 2])) == pytest.approx(0.75, abs=QUAD)

    def test_uniform_with_point_mass(self):
        u = PiecewiseDensity([0.0, 1.0], [1.0])
        p = make_finite([0.5], [1.0])
        # E[max(U, 0.5)] = 0.5 * 0.5 + int_{0.5}^{1} x dx
        got = expected_kmax([u, p], SuperArm([0, 1]))
        assert got == pytest.approx(0.625, abs=QUAD)

    def test_point_mass_one_ulp_from_a_breakpoint(self):
        # the segment between 0.5 and the point mass one ulp above it carries no weight and is skipped
        u = PiecewiseDensity([0.0, 0.5, 1.0], [1.0, 1.0])
        p = make_finite([float(np.nextafter(0.5, 1.0))], [1.0])
        assert expected_kmax([u, p], SuperArm([0, 1])) == pytest.approx(0.625, abs=QUAD)

    def test_tilted_pair_against_quadrature(self):
        d = PiecewiseDensity([0.0, 0.5, 1.0], [1.2, 0.8])

        def F(x):
            return 1.2 * x if x <= 0.5 else 0.6 + 0.8 * (x - 0.5)

        want = float(mpmath.quad(lambda x: 1.0 - F(x) ** 2, [0, 0.5, 1]))
        got = expected_kmax([d, d], SuperArm([0, 1]))
        assert got == pytest.approx(want, abs=QUAD)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["continuous", "mixed"]), st.integers(1, 6), st.integers(1, 64))
    def test_batch_matches_kept_loop(self, seed, kind, m, block):
        # every row of the batch, in blocks of any size, is expected_kmax of its set bit for bit
        # and lies within QUAD of the per-segment loop over the members it replaced
        rng = np.random.default_rng(seed)
        dists = random_arm_list(rng, kind, m)
        rows = FeasibleFamily.cardinality_at_most(m, m).index_rows()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cmab.rewards._SCORE_BLOCK", block)
            scores = _kmax_scores(_cdfs(dists), rows)
        for row, score in zip(rows, scores.tolist()):
            S = SuperArm(row[row < m])
            assert score == expected_kmax(dists, S) == expected_reward(dists, S, kmax_spec())
            assert score == pytest.approx(reference_expected_kmax_continuous(dists, S), abs=QUAD)

    def test_dist4_matches_kept_loop(self):
        # all 129 sets of dist4 within QUAD of the per-segment loop, with the same best set
        env = builtin_env("dist4")
        sets = list(env.family)
        scores = _kmax_scores(_cdfs(env.arms), env.family.index_rows())
        want = [reference_expected_kmax_continuous(env.arms, S) for S in sets]
        np.testing.assert_allclose(scores, want, rtol=0.0, atol=QUAD)
        assert sets[int(np.argmax(scores))] == sets[int(np.argmax(want))] == env.optimal_arm == SuperArm([0, 1, 2])
        assert env.optimal_value == scores.max()

    def test_matches_discrete_on_finite_members(self):
        # finite members of a list holding a continuous arm are scored on its quadrature, within QUAD of the matrix
        a = make_finite([0.2, 0.9], [0.4, 0.6])
        b = make_finite([0.5, 1.0], [0.7, 0.3])
        u = PiecewiseDensity([0.0, 1.0], [1.0])
        got = expected_kmax([a, b, u], SuperArm([0, 1]))
        want = expected_kmax([a, b], SuperArm([0, 1]))
        assert got == pytest.approx(want, abs=QUAD)


class TestExpectedReward:
    def test_linear_is_sum_of_means(self):
        a = make_finite([0.2, 0.8], [0.5, 0.5])
        b = PiecewiseDensity([0.0, 1.0], [1.0])
        got = expected_reward([a, b], SuperArm([0, 1]), linear_spec(bound_M=2.0))
        assert got == pytest.approx(0.5 + 0.5, abs=EXACT)

    def test_kmax_dispatches_on_member_kinds(self):
        a = make_finite([0.2, 0.8], [0.5, 0.5])
        u = PiecewiseDensity([0.0, 1.0], [1.0])
        finite_only = expected_reward([a, a], SuperArm([0, 1]), kmax_spec())
        assert finite_only == pytest.approx(expected_kmax([a, a], SuperArm([0, 1])), abs=EXACT)
        mixed = expected_reward([a, u], SuperArm([0, 1]), kmax_spec())
        assert mixed == pytest.approx(expected_kmax([a, u], SuperArm([0, 1])), abs=EXACT)

    def test_kmax_on_a_mixed_list_is_its_batch_row(self):
        # the list's matrix depends on the whole list: a finite set among continuous arms is scored on the
        # list's quadrature, as its row of the batch, and equals its discrete value within EXACT
        a = make_finite([0.2, 0.8], [0.5, 0.5])
        u = PiecewiseDensity([0.0, 1.0], [1.0])
        rows = np.array([[0, 2], [1, 2], [0, 1]])
        batch = _kmax_scores(_cdfs([a, u]), rows).tolist()
        for row, score in zip(rows, batch):
            S = SuperArm(row[row < 2])
            assert expected_reward([a, u], S, kmax_spec()) == expected_kmax([a, u], S) == score
        assert batch[0] == pytest.approx(expected_kmax([a], SuperArm([0])), abs=EXACT)
        env = Environment([a, u], FeasibleFamily.cardinality_at_most(2, 2), kmax_spec())
        assert env.score(SuperArm([0])) == batch[0]
        assert env.optimal_arm == SuperArm([0, 1])
        assert env.optimal_value == batch[2]
        assert env.optimal_value == pytest.approx(reference_expected_kmax_continuous([a, u], SuperArm([0, 1])), abs=EXACT)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["finite", "matrix", "continuous", "mixed"]), st.integers(1, 6))
    def test_linear_batch_is_sum_of_means(self, seed, kind, m):
        # a linear row sums its members' means, each the K-MAX score of its arm alone, and the pad adds +0.0
        rng = np.random.default_rng(seed)
        dists = random_arm_list(rng, kind, m)
        rows = FeasibleFamily.cardinality_at_most(min(m, 3), m).index_rows()
        scores = _scores(dists, rows, linear_spec())
        for row, score in zip(rows, scores.tolist()):
            S = SuperArm(row[row < m])
            assert score == expected_reward(dists, S, linear_spec())
            assert score == pytest.approx(sum(dists[i].mean() for i in S.members), abs=EXACT)

    def test_utility_matches_joint_enumeration(self):
        rng = np.random.default_rng(5)
        dists = [random_finite(rng, max_support=4) for _ in range(3)]
        spec = utility_spec("square", bound_M=9.0, lipschitz_C=6.0)
        got = expected_reward(dists, SuperArm([0, 1, 2]), spec)
        want = joint_expected(dists, (0, 1, 2), lambda vals: sum(vals) ** 2)
        assert got == pytest.approx(want, abs=1e-10)

    def test_utility_saturating(self):
        dists = [make_finite([0.0, 1.0], [0.5, 0.5]) for _ in range(2)]
        spec = utility_spec("saturating", bound_M=1.0, lipschitz_C=1.0)
        want = joint_expected(dists, (0, 1), lambda vals: -math.expm1(-sum(vals)))
        got = expected_reward(dists, SuperArm([0, 1]), spec)
        assert got == pytest.approx(want, abs=1e-10)

    def test_utility_rejects_continuous(self):
        u = PiecewiseDensity([0.0, 1.0], [1.0])
        with pytest.raises(TypeError):
            expected_reward([u], SuperArm([0]), utility_spec("identity", bound_M=1.0, lipschitz_C=1.0))

    @pytest.mark.parametrize("as_matrix", [False, True], ids=["list", "matrix"])
    def test_arm_past_the_laws(self, as_matrix):
        # index m is the batched scorers' pad, so a set naming arm m or more is refused, not scored without it
        dists = [make_finite([0.2, 0.5], [0.5, 0.5])] * 3
        dists = CdfMatrix.of(dists) if as_matrix else dists
        for spec in (kmax_spec(), utility_spec("sqrt", bound_M=2.0, lipschitz_C=1.0)):
            for arm in (3, 4):
                with pytest.raises(IndexError):
                    expected_reward(dists, SuperArm([0, arm]), spec)

    def test_convolution_guard(self):
        # the message names the set and its exact count of product points, 101^3
        support = np.linspace(0.0, 1.0, 101)
        probs = np.full(101, 1 / 101)
        dists = [make_finite([0.5], [1.0])] + [make_finite(support, probs) for _ in range(3)]
        message = r"super arm \[1, 2, 3\] needs 1030301 product points; the guard is 1000000$"
        with pytest.raises(GuardExceeded, match=message):
            expected_reward(dists, SuperArm([1, 2, 3]), utility_spec("identity", bound_M=3.0, lipschitz_C=1.0))
