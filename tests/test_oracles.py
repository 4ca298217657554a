"""Offline solvers: enumeration, greedy, and the signature approximation scheme."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmab.distributions import bernoulli_decomposition, make_finite
from cmab.errors import GuardExceeded
from cmab.harness import builtin_env
from cmab.oracles import (
    FeasibleFamily,
    Signature,
    discretize_bernoullis,
    dp_find_set,
    exhaustive_oracle,
    greedy_kmax,
    ptas_discretize,
    ptas_grid,
    ptas_kmax,
    recompose_max,
    signature_cap,
    signature_of_arm,
    signature_value,
)
from cmab.rewards import SuperArm, expected_kmax, kmax_spec, linear_spec
from util import bruteforce_max_law, dicts_close, law_as_dict, random_finite

EXACT = 1e-12


def point(v):
    return make_finite([v], [1.0])


class TestFeasibleFamily:
    def test_cardinality_count_and_iteration(self):
        fam = FeasibleFamily.cardinality_at_most(2, 4)
        assert fam.count() == 4 + 6
        sets = list(fam)
        assert len(sets) == 10
        assert len(set(sets)) == 10
        assert all(1 <= len(S) <= 2 for S in sets)

    def test_cardinality_validation(self):
        with pytest.raises(ValueError):
            FeasibleFamily.cardinality_at_most(0, 3)
        with pytest.raises(ValueError):
            FeasibleFamily.cardinality_at_most(4, 3)

    def test_explicit_family(self):
        fam = FeasibleFamily.explicit([[0, 1], [2], [1, 2]], 3)
        assert fam.count() == 3
        assert fam.K == 2
        assert fam.is_feasible(SuperArm([2]))
        assert not fam.is_feasible(SuperArm([0]))

    def test_explicit_requires_coverage(self):
        with pytest.raises(ValueError):
            FeasibleFamily.explicit([[0, 1]], 3)  # arm 2 unplayable

    def test_explicit_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FeasibleFamily.explicit([[0, 3]], 3)

    def test_explicit_rejects_empty(self):
        with pytest.raises(ValueError):
            FeasibleFamily.explicit([], 2)

    def test_is_feasible_cardinality(self):
        fam = FeasibleFamily.cardinality_at_most(2, 4)
        assert fam.is_feasible(SuperArm([1, 3]))
        assert not fam.is_feasible(SuperArm([1, 2, 3]))
        assert not fam.is_feasible(SuperArm([4]))

    def test_smallest_containing_cardinality_is_singleton(self):
        fam = FeasibleFamily.cardinality_at_most(3, 5)
        assert fam.smallest_containing(2) == SuperArm([2])
        with pytest.raises(ValueError):
            fam.smallest_containing(5)

    def test_smallest_containing_explicit(self):
        fam = FeasibleFamily.explicit([[2, 3], [0, 2], [1]], 4)
        assert fam.smallest_containing(2) == SuperArm([0, 2])
        assert fam.smallest_containing(3) == SuperArm([2, 3])


class TestExhaustiveOracle:
    def test_linear_singletons(self):
        dists = [point(0.2), point(0.9), point(0.5)]
        fam = FeasibleFamily.cardinality_at_most(1, 3)
        assert exhaustive_oracle(dists, fam, linear_spec()) == SuperArm([1])

    def test_builtin_optimum(self):
        env = builtin_env("dist1")
        assert exhaustive_oracle(env.arms, env.family, env.spec) == SuperArm([0, 1, 2])

    def test_explicit_single_set(self):
        fam = FeasibleFamily.explicit([[0, 1]], 2)
        dists = [point(0.1), point(0.2)]
        assert exhaustive_oracle(dists, fam, kmax_spec()) == SuperArm([0, 1])

    def test_ties_go_lexicographically_smallest(self):
        dists = [point(0.5)] * 3
        fam = FeasibleFamily.cardinality_at_most(2, 3)
        assert exhaustive_oracle(dists, fam, kmax_spec()) == SuperArm([0])

    def test_enumeration_guard(self):
        dists = [point(0.5)] * 40
        fam = FeasibleFamily.cardinality_at_most(20, 40)
        with pytest.raises(GuardExceeded):
            exhaustive_oracle(dists, fam, kmax_spec())


def reference_greedy(dists, K):
    """Greedy re-derived with per-candidate scoring; strict > keeps lowest index."""
    chosen = []
    for _ in range(K):
        best_j, best_v = None, -math.inf
        for j in range(len(dists)):
            if j in chosen:
                continue
            v = expected_kmax(dists, SuperArm(chosen + [j]))
            if v > best_v:
                best_j, best_v = j, v
        chosen.append(best_j)
    return SuperArm(chosen)


class TestGreedyKmax:
    def test_first_pick_is_best_mean(self):
        dists = [point(0.3), point(0.9), point(0.5)]
        assert greedy_kmax(dists, 1) == SuperArm([1])

    def test_k_equals_m_takes_everything(self):
        rng = np.random.default_rng(3)
        dists = [random_finite(rng) for _ in range(4)]
        assert greedy_kmax(dists, 4) == SuperArm([0, 1, 2, 3])

    def test_tie_break_lowest_index(self):
        dists = [point(0.5)] * 3
        assert greedy_kmax(dists, 2) == SuperArm([0, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            greedy_kmax([point(0.5)], 2)
        with pytest.raises(ValueError):
            greedy_kmax([point(0.5)], 0)

    def test_continuous_arms_use_generic_path(self):
        env = builtin_env("dist4")
        assert greedy_kmax(env.arms, 3) == SuperArm([0, 1, 2])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_fast_path_matches_reference(self, seed, K):
        rng = np.random.default_rng(seed)
        dists = [random_finite(rng, max_support=4) for _ in range(5)]
        assert greedy_kmax(dists, K) == reference_greedy(dists, K)


class TestPtasGrid:
    def test_integer_inverse_eps_squared(self):
        grid = ptas_grid(0.25, 0.8)
        assert len(grid) == 16
        assert grid[0] == pytest.approx(0.2, abs=EXACT)
        assert grid[-1] == pytest.approx(0.8 / 0.25, abs=EXACT)

    def test_fractional_inverse_adds_endpoint(self):
        grid = ptas_grid(0.3, 1.0)
        assert len(grid) == 12
        assert grid[-2] == pytest.approx(11 * 0.3, abs=EXACT)
        assert grid[-1] == pytest.approx(1.0 / 0.3, abs=EXACT)

    def test_cap_values(self):
        assert signature_cap(0.3, 2) == 1189
        assert signature_cap(0.25, 5) == 7097


class TestDiscretizeBernoullis:
    def test_rounds_down_to_grid(self):
        out = discretize_bernoullis([(0.55, 0.4)], W=0.8, eps=0.25)
        assert out == [(pytest.approx(0.4, abs=EXACT), 0.4)]

    def test_grid_points_fixed(self):
        out = discretize_bernoullis([(0.4, 0.7)], W=0.8, eps=0.25)
        assert out == [(pytest.approx(0.4, abs=EXACT), 0.7)]

    def test_zero_value_passes_through(self):
        out = discretize_bernoullis([(0.0, 0.9)], W=0.8, eps=0.25)
        assert out == [(0.0, 0.9)]

    def test_large_values_collapse_mean_preserving(self):
        v, q = 0.9, 0.1
        (v2, q2), = discretize_bernoullis([(v, q)], W=0.2, eps=0.25)
        assert v2 == pytest.approx(0.2 / 0.25, abs=EXACT)
        assert v2 * q2 == pytest.approx(v * q, abs=EXACT)

    def test_validates_params(self):
        with pytest.raises(ValueError):
            discretize_bernoullis([], W=1.0, eps=0.6)
        with pytest.raises(ValueError):
            discretize_bernoullis([], W=0.0, eps=0.25)


class TestRecomposeMax:
    def test_known_pairs(self):
        pairs = [(0.5, 0.5), (1.0, 0.5)]
        dist = recompose_max(pairs)
        law = law_as_dict(dist)
        want = bruteforce_max_law(pairs)
        assert dicts_close(law, want, EXACT)

    def test_all_inactive_gives_point_mass_at_zero(self):
        dist = recompose_max([(0.5, 0.0), (0.0, 0.8)])
        assert np.array_equal(dist.support, [0.0])
        assert dist.probs[0] == 1.0

    def test_duplicate_values_merge(self):
        pairs = [(0.5, 0.3), (0.5, 0.4)]
        dist = recompose_max(pairs)
        law = law_as_dict(dist)
        want = bruteforce_max_law(pairs)
        assert dicts_close(law, want, EXACT)

    def test_roundtrip_with_decomposition(self):
        d = make_finite([0.0, 0.3, 0.7], [0.2, 0.3, 0.5])
        back = recompose_max(bernoulli_decomposition(d))
        assert dicts_close(law_as_dict(back), law_as_dict(d), EXACT)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_bruteforce_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        pairs = [(float(rng.integers(1, 9)) / 8.0, float(rng.random())) for _ in range(n)]
        dist = recompose_max(pairs)
        assert dicts_close(law_as_dict(dist), bruteforce_max_law(pairs), 1e-10)


class TestSignatureOfArm:
    def test_frozen_unit_count(self):
        # -ln(0.5) * 2 / 0.3^4 = 171.14...
        eps, m, W = 0.3, 2, 1.0
        grid = ptas_grid(eps, W)
        sg = signature_of_arm([(float(grid[0]), 0.5)], eps, m, W)
        assert sg.units[0] == 171
        assert all(u == 0 for u in sg.units[1:])
        assert sg.unit_size == pytest.approx(eps**4 / m, abs=0.0)

    def test_certain_activation_hits_cap(self):
        eps, m, W = 0.3, 2, 1.0
        grid = ptas_grid(eps, W)
        sg = signature_of_arm([(float(grid[2]), 1.0)], eps, m, W)
        assert sg.units[2] == sg.cap_units == 1189

    def test_zero_activation_gives_zero_units(self):
        eps, m, W = 0.3, 2, 1.0
        grid = ptas_grid(eps, W)
        sg = signature_of_arm([(float(grid[1]), 0.0)], eps, m, W)
        assert all(u == 0 for u in sg.units)

    def test_off_grid_value_rejected(self):
        with pytest.raises(ValueError):
            signature_of_arm([(0.123, 0.5)], 0.3, 2, 1.0)


class TestSignatureValue:
    def test_all_zero_is_zero(self):
        eps, W = 0.3, 1.0
        sg = Signature((0,) * 12, eps**4 / 2, signature_cap(eps, 2))
        assert signature_value(sg, eps, W) == 0.0

    def test_single_coordinate_closed_form(self):
        eps, m, W = 0.3, 2, 1.0
        grid = ptas_grid(eps, W)
        units = [0] * len(grid)
        units[4] = 300
        sg = Signature(tuple(units), eps**4 / m, signature_cap(eps, m))
        want = float(grid[4]) * -math.expm1(-300 * eps**4 / m)
        assert signature_value(sg, eps, W) == pytest.approx(want, rel=1e-12)

    def test_matches_activation_enumeration(self):
        eps, m, W = 0.25, 4, 0.9
        grid = ptas_grid(eps, W)
        rng = np.random.default_rng(11)
        units = tuple(int(u) for u in rng.integers(0, 50, size=len(grid)))
        sg = Signature(units, eps**4 / m, signature_cap(eps, m))
        pairs = [(float(v), -math.expm1(-u * sg.unit_size)) for v, u in zip(grid, units)]
        law = bruteforce_max_law(pairs)
        want = sum(v * p for v, p in law.items())
        assert signature_value(sg, eps, W) == pytest.approx(want, rel=1e-10)


class TestDpFindSet:
    def _sig(self, units, unit=0.1, cap=100):
        return Signature(tuple(units), unit, cap)

    def test_finds_identical_arm_sum(self):
        s = self._sig((3, 1))
        target = self._sig((6, 2))
        assert dp_find_set([s, s, s], 2, target) == SuperArm([0, 1])

    def test_unreachable_returns_none(self):
        sigs = [self._sig((1, 0)), self._sig((0, 1))]
        assert dp_find_set(sigs, 1, self._sig((1, 1))) is None

    def test_exact_cardinality_required(self):
        sigs = [self._sig((2, 0)), self._sig((0, 3))]
        assert dp_find_set(sigs, 2, self._sig((2, 3))) == SuperArm([0, 1])
        assert dp_find_set(sigs, 2, self._sig((2, 0))) is None  # needs both arms

    def test_prefers_lexicographically_smallest(self):
        s = self._sig((5,))
        assert dp_find_set([s, s, s], 1, s) == SuperArm([0])

    def test_target_bound_validation(self):
        sigs = [self._sig((1,), cap=3)]
        with pytest.raises(ValueError):
            dp_find_set(sigs, 1, self._sig((10,), cap=3))


class TestPtasKmax:
    def test_matches_optimum_on_easy_instances(self):
        env = builtin_env("dist1")
        assert ptas_kmax(env.arms, 3, 0.25) == SuperArm([0, 1, 2])

    def test_k_equals_m(self):
        rng = np.random.default_rng(4)
        dists = [random_finite(rng, max_support=3) for _ in range(3)]
        assert ptas_kmax(dists, 3, 0.25) == SuperArm([0, 1, 2])

    def test_zero_value_instance_returns_greedy_seed(self):
        dists = [point(0.0)] * 3
        assert ptas_kmax(dists, 2, 0.25) == greedy_kmax(dists, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ptas_kmax([point(0.5)], 1, 0.6)
        with pytest.raises(ValueError):
            ptas_kmax([point(0.5)], 2, 0.25)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_value_bound_random(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        K = int(rng.integers(1, min(3, m) + 1))
        dists = [random_finite(rng, max_support=3) for _ in range(m)]
        eps = 0.25
        got = expected_kmax(dists, ptas_kmax(dists, K, eps))
        seed_set = greedy_kmax(dists, K)
        W = expected_kmax(dists, seed_set)
        fam = FeasibleFamily.cardinality_at_most(K, m)
        opt = expected_kmax(dists, exhaustive_oracle(dists, fam, kmax_spec()))
        assert got >= opt - 8 * eps * W - 1e-9
        assert got <= opt + EXACT
