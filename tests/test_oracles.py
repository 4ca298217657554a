"""Offline solvers: enumeration, greedy, and the signature approximation scheme."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmab import oracles
from cmab.distributions import (
    VALUE_TOL,
    CdfMatrix,
    FiniteDistribution,
    _optimistic,
    confidence_radius,
    dominant_cdfs,
    make_finite,
)
from cmab.errors import GuardExceeded
from cmab.harness import builtin_env
from cmab.oracles import (
    FeasibleFamily,
    _best_row,
    _Greedy,
    _reachable_sets,
    _signatures,
    exhaustive_oracle,
    greedy_kmax,
    ptas_grid,
    ptas_kmax,
    signature_cap,
)
from cmab.policies import Cucb
from cmab.rewards import (
    UTILITY_CURVES,
    SuperArm,
    _kmax_scores,
    _laws,
    _scores,
    _utility_scores,
    expected_kmax,
    expected_reward,
    kmax_spec,
    linear_spec,
    utility_spec,
)
from util import (
    COARSE_GRID,
    ReferenceFamily,
    count_matrix,
    joint_expected,
    random_arm_list,
    random_counts,
    random_explicit,
    random_finite,
    random_piecewise,
    reference_arm_signature,
    reference_exhaustive,
    reference_expected_kmax,
    reference_expected_kmax_continuous,
    reference_expected_utility,
    reference_greedy_matrix,
    reference_reachable_sets,
)

EXACT = 1e-12
QUAD = 1e-9


def point(v):
    return make_finite([v], [1.0])


LAW_KINDS = ("finite", "optimistic", "cucb", "near-finite", "near-optimistic")


def random_laws(rng, kind, m):
    """m arm laws of one kind: a list of finite laws or a CdfMatrix."""
    if kind == "finite":
        return [random_finite(rng) for _ in range(m)]
    if kind == "optimistic":  # many exact ties, at 1 and elsewhere
        radius = rng.uniform(0.0, 1.5, size=m) if rng.random() < 0.5 else None
        return dominant_cdfs(*random_counts(rng, m), int(rng.integers(2, 10**6)), radius)
    if kind == "cucb":  # clamped upper bounds as point masses, some equal, two closer than VALUE_TOL
        ucb = rng.choice([0.3, 0.5, 0.9, 0.9 + 4e-10, 1.0], size=m)
        values = np.unique(ucb)
        return CdfMatrix(values, (ucb[:, None] <= values).astype(float))
    # support points of different arms (and, in a matrix, of one arm) less than VALUE_TOL apart
    base = rng.choice(COARSE_GRID[1:], size=4, replace=False)
    offsets = np.array([0.0, 3e-10, 6e-10, 9e-10, 1.2e-9])
    if kind == "near-finite":
        arms = []
        for _ in range(m):
            support = rng.choice(base, size=int(rng.integers(1, 5)), replace=False) - rng.choice(offsets)
            probs = rng.random(len(support)) + 0.05
            arms.append(make_finite(support, probs / probs.sum()))
        return arms
    obs = [base[rng.integers(0, 4, size=n)] - rng.choice(offsets, size=n) for n in rng.integers(1, 8, size=m)]
    return dominant_cdfs(*count_matrix(obs), int(rng.integers(2, 1000)))


class TestFeasibleFamily:
    def test_cardinality_count_and_iteration(self):
        fam = FeasibleFamily.cardinality_at_most(2, 4)
        assert fam.count() == 4 + 6
        sets = list(fam)
        assert len(sets) == 10
        assert len(set(sets)) == 10
        assert all(1 <= len(S) <= 2 for S in sets)

    def test_cardinality_repr(self):
        assert repr(FeasibleFamily.cardinality_at_most(2, 4)) == "FeasibleFamily.cardinality_at_most(K=2, m=4)"

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

    def test_index_rows(self):
        # one row per set in iteration order, short sets padded with m; built once
        for fam in (FeasibleFamily.cardinality_at_most(2, 3), FeasibleFamily.explicit([[1, 2], [0], [2]], 3)):
            rows = fam.index_rows()
            assert rows.tolist() == [list(S.members) + [3] * (fam.K - len(S)) for S in fam]
            assert fam.index_rows() is rows

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rows_answer_as_the_per_set_family(self, seed):
        # raw sets with unsorted and repeated members, sets equal up to order and singletons, read by
        # FeasibleFamily.explicit and by the CLI's padded table; probed with every set, its subsets and supersets,
        # arms out of range, and random sets
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9))
        sets = [rng.integers(0, m, size=int(rng.integers(1, 5))).tolist() for _ in range(int(rng.integers(0, 10)))]
        sets += [[i, *rng.integers(0, m, size=int(rng.integers(0, 3))).tolist()] for i in range(m)]
        sets += [[int(i)] for i in rng.integers(0, m, size=int(rng.integers(0, 3)))]
        sets += [rng.permutation(S).tolist() for S in sets[: int(rng.integers(0, 4))]]
        sets = [sets[i] for i in rng.permutation(len(sets))]
        width = max(map(len, sets))
        table = np.array([S + [m] * (width - len(S)) for S in sets])
        ref = ReferenceFamily(sets, m)
        probes = {S.members for S in ref}
        probes |= {S[:j] + S[j + 1 :] for S in list(probes) if len(S) > 1 for j in range(len(S))}
        probes |= {tuple(sorted({*S, a})) for S in list(probes) for a in (*rng.integers(0, m, size=2).tolist(), m, m + 3)}
        probes |= {tuple(rng.choice(m + 1, size=int(rng.integers(1, m + 2)), replace=False)) for _ in range(5)}
        for fam in (FeasibleFamily.explicit(sets, m), FeasibleFamily._of_rows(table, m)):
            assert (fam.count(), repr(fam)) == (ref.count(), repr(ref))
            assert list(fam) == list(ref)
            assert [fam.is_feasible(SuperArm(P)) for P in probes] == [ref.is_feasible(SuperArm(P)) for P in probes]
            for arm in range(-1, m + 2):
                try:
                    want = ref.smallest_containing(arm)
                except ValueError as e:
                    with pytest.raises(ValueError, match=f"^{e}$"):
                        fam.smallest_containing(arm)
                else:
                    got = fam.smallest_containing(arm)
                    assert (type(got), got.members) == (SuperArm, want.members)


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

    def test_enumeration_guard(self, monkeypatch):
        monkeypatch.setattr(FeasibleFamily, "index_rows", lambda fam: pytest.fail("built the candidate matrix"))
        dists = [point(0.5)] * 40
        fam = FeasibleFamily.cardinality_at_most(20, 40)
        with pytest.raises(GuardExceeded):
            exhaustive_oracle(dists, fam, kmax_spec())

    def test_family_must_match_arms(self):
        with pytest.raises(ValueError, match="over 4 arms"):
            exhaustive_oracle([point(0.5)] * 3, FeasibleFamily.cardinality_at_most(2, 4), kmax_spec())

    def test_tie_across_sizes(self):
        # {1} and {0, 1} both score exactly 0.5; the smallest member tuple over all sizes is (0, 1)
        dists = [point(0.0), point(0.5)]
        for fam in (FeasibleFamily.cardinality_at_most(2, 2), FeasibleFamily.explicit([[1], [0, 1]], 2)):
            assert exhaustive_oracle(dists, fam, kmax_spec()) == SuperArm([0, 1])

    def test_rounding_never_decides(self):
        # arm 1 lies above both point masses, so {1}, {0, 1} and {1, 2} are equal in exact arithmetic;
        # the batched score is expected_kmax bit for bit, so exhaustive and the per-set loop pick one set
        arm = make_finite([0.375, 0.42, 0.575, 0.71, 0.82, 0.885], [0.16, 0.25, 0.2, 0.05, 0.22, 0.12])
        dists = [point(0.255), arm, point(0.185)]
        fam = FeasibleFamily.cardinality_at_most(2, 3)
        assert exhaustive_oracle(dists, fam, kmax_spec()) == reference_exhaustive(dists, fam, kmax_spec())

    def test_values_within_value_tol(self):
        # values less than VALUE_TOL apart are read exactly: {0, 2} has max 0.7 with chance 1/2 and
        # 0.7 - 6e-10 otherwise, above {0}, {0, 1} and {1, 2} at 0.7 - 6e-10
        dists = [point(0.7 - 6e-10), point(0.7 - 1.2e-9), make_finite([0.1, 0.7], [0.5, 0.5])]
        fam = FeasibleFamily.cardinality_at_most(2, 3)
        assert exhaustive_oracle(dists, fam, kmax_spec()) == reference_exhaustive(dists, fam, kmax_spec())
        assert exhaustive_oracle(dists, fam, kmax_spec()) == SuperArm([0, 2])

    def test_scoring_blocks(self, monkeypatch):
        rng = np.random.default_rng(11)
        dists = CdfMatrix.of([random_finite(rng) for _ in range(8)])
        assert np.count_nonzero(np.count_nonzero(np.diff(dists.F, prepend=0.0), axis=1) > 1) == 7  # one point mass
        fam = FeasibleFamily.cardinality_at_most(4, 8)
        whole = _kmax_scores(dists, fam.index_rows())
        chosen = exhaustive_oracle(dists, fam, kmax_spec()), ptas_kmax(dists, 4, 0.3)
        monkeypatch.setattr("cmab.rewards._SCORE_BLOCK", 3 * 4 * len(dists.values))  # three rows a block
        np.testing.assert_array_equal(_kmax_scores(dists, fam.index_rows()), whole)
        assert (exhaustive_oracle(dists, fam, kmax_spec()), ptas_kmax(dists, 4, 0.3)) == chosen

    def test_matrix_builds_no_law(self, monkeypatch):
        # arms 1 and 3 put all their optimistic mass at 1, so every set holding one of them ties at 1, and
        # for the utility arms 0, 2 and 4 are one law, so {0, 1, 3}, {1, 2, 3} and {1, 3, 4} tie; from a
        # matrix no oracle builds a per-arm law: exhaustive and ptas score the matrix's batched rows (a
        # utility's from the CDF steps), greedy its marginal gains, and the signatures read the steps
        values, counts = count_matrix([[0.2, 0.5]] * 5)
        cdfs = dominant_cdfs(values, counts, 2, radius=[0.1, 1.5, 0.1, 1.5, 0.1])
        fam = FeasibleFamily.cardinality_at_most(3, 5)
        utility = utility_spec("sqrt", bound_M=2.0, lipschitz_C=1.0)
        want = reference_exhaustive(cdfs, fam, kmax_spec())
        want_utility = reference_exhaustive(cdfs, fam, utility)
        worth = reference_expected_utility(cdfs, want_utility, utility)
        calls = []
        getitem = CdfMatrix.__getitem__
        monkeypatch.setattr(CdfMatrix, "__getitem__", lambda self, i: calls.append(i) or getitem(self, i))
        assert exhaustive_oracle(cdfs, fam, kmax_spec()) == want == SuperArm([0, 1])
        assert greedy_kmax(cdfs, 3) == SuperArm([0, 1, 2])
        assert ptas_kmax(cdfs, 3, 0.3) == SuperArm([0, 1, 2])
        assert expected_reward(cdfs, SuperArm([0, 1]), kmax_spec()) == 1.0
        assert exhaustive_oracle(cdfs, fam, utility) == want_utility == SuperArm([0, 1, 3])
        assert expected_reward(cdfs, want_utility, utility) == pytest.approx(worth, abs=EXACT)
        assert calls == []

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(LAW_KINDS), st.integers(1, 7), st.integers(1, 7), st.booleans())
    def test_matches_reference_loop(self, seed, kind, m, K, explicit):
        rng = np.random.default_rng(seed)
        K = min(K, m)
        dists = random_laws(rng, kind, m)
        fam = random_explicit(rng, m, K) if explicit else FeasibleFamily.cardinality_at_most(K, m)
        assert exhaustive_oracle(dists, fam, kmax_spec()) == reference_exhaustive(dists, fam, kmax_spec())

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["finite", "continuous", "mixed", *LAW_KINDS[1:]]),
        st.integers(1, 6),
        st.integers(1, 4),
        st.booleans(),
    )
    def test_continuous_and_linear_match_reference_loop(self, seed, kind, m, K, explicit):
        # K-MAX on lists with continuous arms and linear rewards on every kind of laws pick what a per-set loop
        # over expected_reward picks; on continuous arms, the pick scores within QUAD of the kept loop's best
        rng = np.random.default_rng(seed)
        K = min(K, m)
        dists = random_arm_list(rng, kind, m) if kind in ("continuous", "mixed") else random_laws(rng, kind, m)
        fam = random_explicit(rng, m, K) if explicit else FeasibleFamily.cardinality_at_most(K, m)
        for spec in (kmax_spec(), linear_spec()):
            assert exhaustive_oracle(dists, fam, spec) == reference_exhaustive(dists, fam, spec)
        if kind in ("continuous", "mixed"):
            best = max(reference_expected_kmax_continuous(dists, S) for S in fam)
            assert reference_expected_kmax_continuous(dists, exhaustive_oracle(dists, fam, kmax_spec())) >= best - QUAD


class TestBestRow:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["explicit", "cardinality", "ptas"]), st.integers(1, 7), st.booleans())
    def test_tie_break_is_smallest_member_tuple(self, seed, rows_kind, m, coarse):
        # on tie-heavy rows (explicit families with pads, cardinality rows, the PTAS's candidates) and under
        # optimism or with scores from {0, 1, 2}, one lexsort picks the set min() over the tied sets picks
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, m + 1))
        dists = random_laws(rng, str(rng.choice(["optimistic", "cucb"])), m)
        if rows_kind == "explicit":
            rows = random_explicit(rng, m, K).index_rows()
        elif rows_kind == "cardinality":
            rows = FeasibleFamily.cardinality_at_most(K, m).index_rows()
        else:
            rows = np.array(list(_reachable_sets(_signatures(dists, 1.0, 0.3), K)[K].values()))
        scores = rng.integers(0, 3, len(rows)).astype(float) if coarse else _scores(dists, rows, kmax_spec())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cmab.oracles._scores", lambda *args: scores)
            got = _best_row(dists, rows, kmax_spec())
        assert got == min(SuperArm(row[row < m]) for row in rows[scores == scores.max()])


class TestKmaxScores:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(LAW_KINDS),
        st.integers(1, 7),
        st.integers(1, 7),
        st.booleans(),
        st.booleans(),
        st.integers(1, 64),
    )
    def test_rows_are_expected_kmax(self, seed, kind, m, K, explicit, as_matrix, block):
        # every row's batched score, in blocks of any size, is expected_kmax of its set bit for bit,
        # on a list of laws (only the members read) or on a matrix (only the member rows read)
        rng = np.random.default_rng(seed)
        K = min(K, m)
        dists = random_laws(rng, kind, m)
        if as_matrix and not isinstance(dists, CdfMatrix):
            dists = CdfMatrix.of(dists)
        rows = (random_explicit(rng, m, K) if explicit else FeasibleFamily.cardinality_at_most(K, m)).index_rows()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cmab.rewards._SCORE_BLOCK", block)
            scores = _kmax_scores(dists if isinstance(dists, CdfMatrix) else CdfMatrix.of(dists), rows)
        for row, score in zip(rows, scores.tolist()):
            S = SuperArm(row[row < m])
            assert score == expected_kmax(dists, S)
            assert abs(score - reference_expected_kmax(dists, S)) <= EXACT


def random_utility(rng, curve):
    """A named utility curve, or for "table" a tabulated one that starts below 0."""
    if curve == "table":
        ys = np.sort(rng.choice(np.arange(8) / 2, size=int(rng.integers(2, 6)), replace=False))
        us = np.cumsum(rng.random(len(ys))) - rng.uniform(0.5, 2.0)
        curve = list(zip(ys, us))
    return utility_spec(curve, bound_M=1.0, lipschitz_C=1.0)


def utility_case(seed, kind, curve, m, K, explicit):
    """(laws, family, spec) of one utility instance: list or matrix laws, on and off a lattice."""
    rng = np.random.default_rng(seed)
    K = min(K, m)
    dists = random_laws(rng, kind, m)
    fam = random_explicit(rng, m, K) if explicit else FeasibleFamily.cardinality_at_most(K, m)
    return dists, fam, random_utility(rng, curve)


UTILITY_CASES = st.builds(
    utility_case,
    st.integers(0, 2**32 - 1),
    st.sampled_from(LAW_KINDS),
    st.sampled_from([*UTILITY_CURVES, "table"]),
    st.integers(2, 6),
    st.integers(1, 4),
    st.booleans(),
)


class TestExhaustiveUtility:
    def test_rounding_never_decides(self):
        # arm 1 has mean 0.3 like the point mass 2, so {0, 1} and {0, 2} tie in exact arithmetic; read from
        # the CDF steps (arm 1's upper mass is 1 - 2/3, not 1/3), both score exactly 1.2058823529411766, so
        # the tie rule, not rounding, picks the smaller member tuple {0, 1}; the batched score is
        # expected_reward bit for bit, so exhaustive and the per-set loop pick that one set
        dists = [
            make_finite([0.7, 0.8, 1.0], [2 / 17, 5 / 17, 10 / 17]),
            make_finite([0.1, 0.7], [2 / 3, 1 / 3]),
            point(0.3),
        ]
        fam = FeasibleFamily.cardinality_at_most(2, 3)
        spec = utility_spec("identity", bound_M=2.0, lipschitz_C=1.0)
        assert expected_reward(dists, SuperArm([0, 1]), spec) == expected_reward(dists, SuperArm([0, 2]), spec)
        assert exhaustive_oracle(dists, fam, spec) == reference_exhaustive(dists, fam, spec) == SuperArm([0, 1])

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([*UTILITY_CURVES, "table"]), st.integers(2, 5), st.integers(1, 3))
    def test_list_scores_as_its_matrix(self, seed, curve, m, K):
        # a list of finite laws and CdfMatrix.of of it give one support table, each arm's masses the steps of
        # its CDF: every feasible set's value has the same bits, and exhaustive picks the same set from both
        rng = np.random.default_rng(seed)
        arms = [random_finite(rng) for _ in range(m)]
        matrix = CdfMatrix.of(arms)
        fam = FeasibleFamily.cardinality_at_most(min(K, m), m)
        spec = random_utility(rng, curve)
        for S in fam:
            assert expected_reward(arms, S, spec) == expected_reward(matrix, S, spec)
        assert exhaustive_oracle(arms, fam, spec) == exhaustive_oracle(matrix, fam, spec)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(UTILITY_CASES)
    def test_matches_reference_loop(self, case):
        dists, fam, spec = case
        assert exhaustive_oracle(dists, fam, spec) == reference_exhaustive(dists, fam, spec)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(UTILITY_CASES, st.integers(1, 64))
    def test_rows_are_expected_reward(self, case, block):
        # every row's batched score, in blocks of any size and over chunks past a block's points, is
        # expected_reward of its set bit for bit, and lies within rounding of the dict convolution: over a
        # row of K members and N points a batch term rounds at most K + N times, a convolution term at most
        # (K + 1) N times, so the two lie within (K + 2)(N + 1) eps times the row's sum of |mass u|,
        # doubled for second-order terms
        dists, fam, spec = case
        rows = fam.index_rows()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cmab.rewards._SCORE_BLOCK", block)
            scores = _utility_scores(dists, rows, spec)
        sizes = _laws(dists, spec).sizes
        for row, score in zip(rows, scores.tolist()):
            S = SuperArm(row[row < len(dists)])
            assert score == expected_reward(dists, S, spec)
            magnitude = joint_expected(dists, S.members, lambda vals: abs(spec.utility(sum(vals))))
            bound = 2 * (len(row) + 2) * (math.prod(sizes[row].tolist()) + 1) * np.finfo(float).eps * magnitude
            assert abs(score - reference_expected_utility(dists, S, spec)) <= bound

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(UTILITY_CASES)
    def test_guard_trips_on_the_same_families(self, case):
        # at a guard of 20 product points, the batch raises exactly when some set of the per-set loop does
        dists, fam, spec = case

        def trips(solve) -> bool:
            try:
                solve(dists, fam, spec)
            except GuardExceeded:
                return True
            return False

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cmab.rewards.CONVOLUTION_GUARD", 20)
            batch = trips(lambda dists, fam, spec: _utility_scores(dists, fam.index_rows(), spec))
            assert batch == trips(reference_exhaustive)

    @pytest.mark.parametrize("as_matrix", [False, True], ids=["list", "matrix"])
    def test_guard_counts_real_support_points(self, monkeypatch, as_matrix):
        # a 4-point and a 5-point arm: {0, 1} has 20 product points, though the matrix holds 8 columns
        arms = [make_finite([0.1, 0.2, 0.3, 0.4], [0.25] * 4), make_finite([0.5, 0.6, 0.7, 0.8, 0.9], [0.2] * 5)]
        dists = CdfMatrix.of(arms) if as_matrix else arms
        rows = FeasibleFamily.explicit([[0, 1]], 2).index_rows()
        spec = utility_spec("sqrt", bound_M=2.0, lipschitz_C=1.0)
        monkeypatch.setattr("cmab.rewards.CONVOLUTION_GUARD", 21)
        _utility_scores(dists, rows, spec)
        monkeypatch.setattr("cmab.rewards.CONVOLUTION_GUARD", 20)
        with pytest.raises(GuardExceeded, match=r"super arm \[0, 1\] needs 20 product points"):
            _utility_scores(dists, rows, spec)

    def test_scoring_blocks_and_one_utility_call_per_sum(self, monkeypatch):
        calls = []
        spec = utility_spec(lambda y: calls.append(y) or math.sqrt(y), bound_M=2.0, lipschitz_C=1.0)
        rng = np.random.default_rng(11)
        dists = CdfMatrix.of([random_finite(rng) for _ in range(8)])
        fam = FeasibleFamily.cardinality_at_most(3, 8)
        sizes = _laws(dists, spec).sizes
        assert np.count_nonzero(sizes[:-1] > 1) == 7 and (sizes[fam.index_rows()].prod(1) > 40).any()
        calls.clear()
        whole = _utility_scores(dists, fam.index_rows(), spec)
        sums = sorted(calls)
        assert len(sums) == len(set(sums))
        chosen = exhaustive_oracle(dists, fam, spec)
        monkeypatch.setattr("cmab.rewards._SCORE_BLOCK", 40)  # a few rows a block, or one row past 40 points
        calls.clear()
        blocked = _utility_scores(dists, fam.index_rows(), spec)
        assert sorted(calls) == sums
        np.testing.assert_array_equal(blocked, whole)
        assert exhaustive_oracle(dists, fam, spec) == chosen

    def test_oversized_rows_scored_in_chunks(self, monkeypatch):
        # at a block of 5 points, every row past 5 product points is scored in chunks of at most 5, each
        # carrying the row's running total into the next, so scores keep their bits
        spec = utility_spec("sqrt", bound_M=3.0, lipschitz_C=1.0)
        rng = np.random.default_rng(11)
        dists = [random_finite(rng) for _ in range(6)]
        fam = FeasibleFamily.cardinality_at_most(3, 6)
        whole = _utility_scores(dists, fam.index_rows(), spec)
        chosen = exhaustive_oracle(dists, fam, spec)
        sizes = _laws(dists, spec).sizes
        assert np.mean(sizes[fam.index_rows()].prod(1) > 5) > 0.5
        sized = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda keys, **kw: sized.append(len(keys)) or unique(keys, **kw))
        monkeypatch.setattr("cmab.rewards._SCORE_BLOCK", 5)
        chunked = _utility_scores(dists, fam.index_rows(), spec)
        assert max(sized) <= 5
        np.testing.assert_array_equal(chunked, whole)
        assert exhaustive_oracle(dists, fam, spec) == chosen


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

    def test_continuous_arms_on_quadrature(self):
        env = builtin_env("dist4")
        assert greedy_kmax(env.arms, 3) == SuperArm([0, 1, 2])

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["continuous", "mixed"]), st.integers(1, 6))
    def test_continuous_matches_per_set_reference(self, seed, kind, m):
        # each step's pick scores, by the per-segment loop, within QUAD of the best remaining arm's; the
        # gains of continuous arms are a gemv with the quadrature weights, not one expected value per set
        dists = random_arm_list(np.random.default_rng(seed), kind, m)
        chosen = ()
        for k in range(1, m + 1):  # greedy's answer for K = k adds one arm to its answer for k - 1
            (pick,) = set(greedy_kmax(dists, k).members) - set(chosen)
            gains = {
                j: reference_expected_kmax_continuous(dists, SuperArm([*chosen, j])) for j in range(m) if j not in chosen
            }
            assert gains[pick] >= max(gains.values()) - QUAD
            chosen += (pick,)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans(), st.booleans())
    def test_fast_path_matches_reference(self, seed, K, optimistic, per_arm_radius):
        rng = np.random.default_rng(seed)
        if optimistic:  # greedy reads the CdfMatrix; the reference scores its per-arm laws
            radius = rng.uniform(0.0, 1.5, size=5) if per_arm_radius else None
            dists = dominant_cdfs(*random_counts(rng, 5), int(rng.integers(2, 10**6)), radius)
        else:
            dists = [random_finite(rng, max_support=4) for _ in range(5)]
        assert greedy_kmax(dists, K) == reference_greedy(list(dists), K)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(LAW_KINDS), st.integers(1, 9))
    def test_matrix_path_matches_masked_reference(self, seed, kind, m):
        # dominant_cdfs and Cucb point-mass matrices, and lists read through CdfMatrix.of: the same pick,
        # bit-equal ties included, as greedy scoring boolean-masked rows times a running product
        dists = random_laws(np.random.default_rng(seed), kind, m)
        cdfs = dists if isinstance(dists, CdfMatrix) else CdfMatrix.of(dists)
        for K in range(1, m + 1):
            assert greedy_kmax(dists, K) == reference_greedy_matrix(cdfs, K)

    @pytest.mark.parametrize("seed, K", [(4725, 5), (5165, 4), (5565, 5)])
    def test_scores_the_remaining_rows_only(self, seed, K):
        # a matrix-vector product's last bits depend on its row count: on these near-ties, scoring all m
        # rows with the chosen ones masked out can change the pick; the remaining rows alone keep it
        dists = random_laws(np.random.default_rng(seed), "finite", 7)
        assert greedy_kmax(dists, K) == reference_greedy_matrix(CdfMatrix.of(dists), K)

    def test_ties_only_when_bit_equal(self):
        # after {0, 2}, arms 1, 3 and 4 lie below arm 0's point mass at 0.76 and add nothing in exact
        # arithmetic, but their computed gains differ in the last bit: greedy takes 3, as the masked
        # scoring did, where reference_greedy's strict > on expected_kmax takes 1
        rng = np.random.default_rng(365)
        dists = [random_finite(rng, max_support=4) for _ in range(5)]
        assert greedy_kmax(dists, 3) == reference_greedy_matrix(CdfMatrix.of(dists), 3) == SuperArm([0, 2, 3])
        assert reference_greedy(dists, 3) == SuperArm([0, 1, 2])

    def test_matrix_read_within_value_tol(self):
        # arm 0 has mass 1/2 at 0.3 and at 0.3 + 4e-10, arm 1 all at 0.3 + 3e-10;
        # both CDFs are read exactly, so arm 1's larger mean wins
        values, counts = count_matrix([[0.3, 0.3 + 4e-10], [0.3 + 3e-10]])
        cdfs = dominant_cdfs(values, counts, 2, radius=0.0)
        assert np.array_equal(np.vstack([d.cdf(cdfs.values) for d in cdfs]), [[0.5, 0.5, 1.0], [0.0, 1.0, 1.0]])
        assert greedy_kmax(cdfs, 1) == greedy_kmax(list(cdfs), 1) == SuperArm([1])

    def test_cucb_matrix_picks_what_point_masses_picked(self):
        family = FeasibleFamily.cardinality_at_most(3, 6)
        policy = Cucb(family, kmax_spec(), oracle=lambda laws: laws)
        for t in range(1, 7):
            policy.select(t)
            policy.observe(t, SuperArm([t - 1]), {t - 1: 0.5})
        # the top two upper bounds lie closer than VALUE_TOL and are read
        # exactly, so arm 1 wins the first pick; arms 2 and 5 tie exactly
        n = 10**6
        policy.counts[:] = n
        policy.sums[:] = np.array([0.9, 0.9 + 4e-10, 0.3, 0.1, 0.5, 0.3]) * n
        cdfs = policy.select(7)
        ucb = np.minimum(policy.sums[0] / policy.counts[0] + confidence_radius(7, policy.counts[0]), 1.0)
        assert 0.0 < ucb[1] - ucb[0] < VALUE_TOL
        points = [FiniteDistribution([u], [1.0]) for u in ucb]
        for K in (1, 2, 3):
            assert greedy_kmax(cdfs, K) == greedy_kmax(points, K)
        for spec in (kmax_spec(), linear_spec()):
            assert exhaustive_oracle(cdfs, family, spec) == exhaustive_oracle(points, family, spec)
        singles = FeasibleFamily.cardinality_at_most(1, 6)
        assert greedy_kmax(cdfs, 1) == exhaustive_oracle(cdfs, singles, kmax_spec()) == SuperArm([1])


class Gains(np.ndarray):
    """An array whose matrix products are logged: greedy's gains, one array per step (per stack on the stacked path)."""

    log: list = []

    def __matmul__(self, other):
        out = super().__matmul__(other)
        Gains.log.append(np.asarray(out).copy())
        return out


def random_batch(rng, R):
    """A lockstep batch's optimistic CDFs as ``_optimistic`` leaves them, for m arms over grids of w columns; each
    run drops a random number of grid columns, so the kept widths differ across the batch."""
    m, w = int(rng.integers(2, 10)), int(rng.integers(1, 10))
    counts = rng.integers(0, 4, size=(R, m, w))
    for r in range(R):
        counts[r, :, rng.choice(w, size=int(rng.integers(0, min(3, w))), replace=False)] = 0
    counts[..., -1] += 1  # every arm observed
    cum = np.zeros((R, m, w + 1), dtype=np.int64)
    np.cumsum(counts, axis=-1, out=cum[..., 1:])
    n = cum[..., -1]
    radius = confidence_radius(int(rng.integers(2, 10**4)), n) * rng.uniform(0.0, 1.0, size=(R, 1))
    values = np.zeros((R, w + 1))
    values[:, 1:] = np.sort(rng.uniform(0.0, 1.0, size=(R, w)), axis=1)
    values[:, -1] = 1.0
    return (values, *_optimistic(cum, n, radius)), m


class TestGreedyBatch:
    """The greedy handle's batch entry gives every run ``greedy_kmax``'s gains, bit for bit, on both of its paths."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, oracles._STACK_RUNS, 20]),
        st.sampled_from(["per-run", "stacked"]),
        st.data(),
    )
    def test_gains_match_greedy_kmax(self, seed, R, path, data):
        (values, low, keep), m = random_batch(np.random.default_rng(seed), R)
        K = data.draw(st.integers(1, m))
        want, gains = [], []
        for v, F, k in zip(values, low, keep):
            Gains.log = []
            want.append(greedy_kmax(CdfMatrix(v[k], F[:, k].view(Gains)), K))
            gains.append(Gains.log)
        Gains.log = []
        stack = 1 if path == "stacked" else R + 1  # every width group stacked, or none
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "_STACK_RUNS", stack)
            got = _Greedy(K, m)._batch(values, low.view(Gains), keep)
        assert got == want
        if path == "per-run":
            got_gains = [Gains.log[r * K : (r + 1) * K] for r in range(R)]
        else:  # one log entry per step of each width group, the groups by ascending width
            got_gains = [None] * R
            widths = np.count_nonzero(keep, axis=1)
            steps = iter(Gains.log)
            for width in np.unique(widths):
                group = np.flatnonzero(widths == width)
                stacked = [next(steps) for _ in range(K)]
                for i, r in enumerate(group):
                    got_gains[r] = [step[i, :, 0] for step in stacked]
        for r in range(R):
            assert [g.tobytes() for g in got_gains[r]] == [g.tobytes() for g in gains[r]]

    def test_default_threshold_mixes_paths(self):
        # 20 runs: the width groups of six or more runs are stacked, the rest run one by one, and every pick
        # is greedy_kmax's
        (values, low, keep), m = random_batch(np.random.default_rng(8), 20)
        K = 3
        sizes = np.bincount(np.count_nonzero(keep, axis=1))
        assert sizes.max() >= oracles._STACK_RUNS > sizes[sizes > 0].min()
        want = [greedy_kmax(CdfMatrix(v[k], F[:, k]), K) for v, F, k in zip(values, low, keep)]
        assert _Greedy(K, m)._batch(values, low, keep) == want

    def test_handle_checks_K_once(self):
        with pytest.raises(ValueError, match="need 1 <= K <= m"):
            _Greedy(4, 3)
        with pytest.raises(ValueError, match="K must be"):
            _Greedy(2.0, 3)


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


def units(q, eps, m):
    """Signature units of one activation rate q."""
    return math.floor(-math.log1p(-q) * m / eps**4)


def arm_signature(dist, W, eps, m):
    """One arm's signature: row 0 of the signatures of a matrix of m copies of it."""
    return tuple(_signatures(CdfMatrix.of([dist] * m), W, eps)[0].tolist())


class TestDiscretizeBernoullis:
    """Moving an arm's Bernoulli parts onto the grid, as seen in its signature."""

    def test_rounds_down_to_grid(self):
        eps, m, W = 0.25, 1, 0.8
        assert ptas_grid(eps, W)[1] == pytest.approx(0.4, abs=EXACT)
        sig = arm_signature(make_finite([0.0, 0.55], [0.6, 0.4]), W, eps, m)
        assert sig == tuple(units(0.4, eps, m) if j == 1 else 0 for j in range(16))

    def test_grid_points_fixed(self):
        eps, m, W = 0.25, 1, 0.8
        sig = arm_signature(make_finite([0.0, 0.4], [0.3, 0.7]), W, eps, m)
        assert sig == tuple(units(0.7, eps, m) if j == 1 else 0 for j in range(16))

    def test_zero_value_passes_through(self):
        # value 0, and values rounding down to it, carry no coordinate
        eps, m, W = 0.25, 1, 0.8
        assert arm_signature(point(0.0), W, eps, m) == (0,) * 16
        assert arm_signature(make_finite([0.0, 0.19], [0.1, 0.9]), W, eps, m) == (0,) * 16

    def test_large_values_collapse_mean_preserving(self):
        eps, m, W = 0.25, 1, 0.2
        v, q = 0.9, 0.1
        top = ptas_grid(eps, W)[-1]
        assert top == pytest.approx(W / eps, abs=EXACT)
        sig = arm_signature(make_finite([0.0, v], [1 - q, q]), W, eps, m)
        assert sig[-1] == units(v * q / top, eps, m) > units(q, eps, m)
        assert sig[:-1] == (0,) * 15

    def test_validates_params(self):
        with pytest.raises(ValueError):
            arm_signature(point(0.5), W=1.0, eps=0.6, m=1)
        with pytest.raises(ValueError):
            arm_signature(point(0.5), W=0.0, eps=0.25, m=1)

    def test_parts_at_one_value_merge(self):
        # 0.45 and 0.55 both round down to 0.4 and fire independently
        eps, m, W = 0.25, 1, 0.8
        d = make_finite([0.0, 0.45, 0.55], [0.2, 0.3, 0.5])
        q = d.probs / d.cum  # activation rates of the Bernoulli parts
        sig = arm_signature(d, W, eps, m)
        assert sig[1] == math.floor((-math.log1p(-q[1]) - math.log1p(-q[2])) * m / eps**4)
        assert sig[:1] + sig[2:] == (0,) * 15

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 0.45),
        st.integers(1, 8),
        st.floats(0.0, 1.0),
        st.sampled_from(["finite", "optimistic", "low-mean"]),
    )
    def test_matches_reference(self, seed, eps, m, w_frac, kind):
        # every row of the matrix's signatures is the reference signature of that row's law; each
        # arm's lowest part has q = 1, and low-mean arms with a small W put values above W/eps
        rng = np.random.default_rng(seed)
        if kind == "optimistic":
            obs = [rng.choice(np.round(rng.random(5), 3), size=int(rng.integers(1, 20))) for _ in range(m)]
            cdfs = dominant_cdfs(*count_matrix(obs), int(rng.integers(2, 1000)))
        elif kind == "finite":
            cdfs = CdfMatrix.of([random_finite(rng, max_support=8) for _ in range(m)])
        else:  # most mass at 0, the rest spread up to 1
            laws = [random_finite(rng, max_support=8) for _ in range(m)]
            cdfs = CdfMatrix.of([make_finite(np.append(0.0, d.support), np.append(0.9, 0.1 * d.probs)) for d in laws])
        # ptas_kmax scales the grid by a greedy value, which is at least every arm's mean
        mu = max(d.mean() for d in cdfs)
        W = max(mu + w_frac**2 * (1.0 - mu), 1e-3)
        sig = _signatures(cdfs, W, eps)
        assert sig.shape == (m, len(ptas_grid(eps, W)))
        for i, d in enumerate(cdfs):
            assert tuple(sig[i].tolist()) == reference_arm_signature(d, W, eps, m)


class TestSignatureOfArm:
    def test_frozen_unit_count(self):
        # -ln(0.5) * 2 / 0.3^4 = 171.14...
        eps, m, W = 0.3, 2, 1.0
        grid = ptas_grid(eps, W)
        sig = arm_signature(make_finite([0.0, float(grid[0])], [0.5, 0.5]), W, eps, m)
        assert sig == (171,) + (0,) * (len(grid) - 1)

    def test_certain_activation_hits_cap(self):
        eps, m, W = 0.3, 2, 1.0
        grid = ptas_grid(eps, W)
        sig = arm_signature(point(float(grid[2])), W, eps, m)
        assert sig[2] == signature_cap(eps, m) == 1189
        assert sig[:2] + sig[3:] == (0,) * (len(grid) - 1)

    def test_zero_activation_gives_zero_units(self):
        eps, m, W = 0.3, 2, 1.0
        grid = ptas_grid(eps, W)
        sig = arm_signature(FiniteDistribution([0.0, float(grid[1])], [1.0, 0.0]), W, eps, m)
        assert sig == (0,) * len(grid)


def states(levels) -> set:
    """The DP's levels as (chosen, first set) pairs, one per state."""
    return {(k, S) for k, level in enumerate(levels) for S in level.values()}


class TestDpFindSet:
    """The DP's levels: each reachable state of k arms and the first set reaching it.

    A state's first set determines its units, so two tables hold the same states with the same sets
    exactly when they hold the same (chosen, set) pairs.
    """

    def test_finds_identical_arm_sum(self):
        s = (3, 1)
        assert list(_reachable_sets([s, s, s], 2)[2].values()) == [(0, 1)]

    def test_unreachable_returns_none(self):
        assert list(_reachable_sets([(1, 0), (0, 1)], 1)[1].values()) == [(0,), (1,)]

    def test_exact_cardinality_required(self):
        levels = _reachable_sets([(2, 0), (0, 3)], 2)
        assert list(levels[2].values()) == [(0, 1)]  # needs both arms
        assert list(levels[1].values()) == [(0,), (1,)]

    def test_prefers_lexicographically_smallest(self):
        s = (5,)
        assert list(_reachable_sets([s, s, s], 1)[1].values()) == [(0,)]

    def test_keeps_set_with_smallest_largest_member(self):
        # {0, 3} and {1, 2} both reach units 5; arms enter in index order, so {1, 2} is first
        levels = _reachable_sets([(1,), (2,), (3,), (4,)], 2)
        assert (1, 2) in levels[2].values() and (0, 3) not in levels[2].values()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 12), st.integers(1, 8))
    def test_live_columns_match_full_width(self, seed, m, width, K):
        # most columns are zero in every row, and now and then all of them, and a column may sum past a
        # small field: the DP over packed live columns holds the reference's states with the same first sets
        rng = np.random.default_rng(seed)
        sig = rng.integers(0, 4, size=(m, width)) * (rng.random((m, width)) < rng.choice([0.0, 0.2, 0.6]))
        sig[:, rng.random(width) < 0.1] *= int(rng.integers(1, 2**40))
        levels = _reachable_sets(sig, min(K, m))
        want = reference_reachable_sets([tuple(row) for row in sig.tolist()], min(K, m))
        assert [len(level) for level in levels] == [sum(k == c for c, _ in want) for k in range(min(K, m) + 1)]
        assert states(levels) == {(k, S) for (k, _), S in want.items()}

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 6), st.integers(1, 8), st.integers(1, 80))
    def test_guard_trips_after_the_same_arm(self, seed, m, width, K, guard):
        # the guard adds up the states held after each arm: with the reference's table sizes after arms
        # 0..j, the DP on the first j + 1 arms trips exactly when 1 + their sum passes the guard
        rng = np.random.default_rng(seed)
        sig = rng.integers(0, 3, size=(m, width)) * (rng.random((m, width)) < 0.7)
        K = min(K, m)
        sizes = [len(reference_reachable_sets([tuple(row) for row in sig[: j + 1].tolist()], K)) for j in range(m)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cmab.oracles.SIGNATURE_DP_GUARD", guard)
            for j in range(m):
                if 1 + sum(sizes[: j + 1]) > guard:
                    with pytest.raises(GuardExceeded):
                        _reachable_sets(sig[: j + 1], K)
                    break
                _reachable_sets(sig[: j + 1], K)

    def test_state_guard(self, monkeypatch):
        monkeypatch.setattr("cmab.oracles.SIGNATURE_DP_GUARD", 10)
        with pytest.raises(GuardExceeded):
            _reachable_sets([(1,), (2,), (4,), (8,)], 4)


def reference_ptas(dists, K, eps):
    """ptas_kmax with its candidates scored one at a time by the reference loop."""
    seed = greedy_kmax(dists, K)
    laws = list(dists)
    W = expected_kmax(laws, seed)
    if W <= 0.0:
        return seed
    levels = _reachable_sets(_signatures(dists if isinstance(dists, CdfMatrix) else CdfMatrix.of(laws), W, eps), K)
    return reference_exhaustive(laws, [SuperArm(S) for S in levels[K].values()], kmax_spec())


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

    def test_continuous_arms_rejected(self):
        with pytest.raises(TypeError):
            ptas_kmax([point(0.5), random_piecewise(np.random.default_rng(0))], 1, 0.25)

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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(LAW_KINDS), st.integers(1, 5), st.integers(1, 3), st.sampled_from([0.05, 0.1]))
    def test_value_bound_bites(self, seed, kind, m, K, eps):
        # below eps = 1/8, opt - 8 eps W > 0 since greedy's W is at most opt: the additive bound constrains the answer
        dists = random_laws(np.random.default_rng(seed), kind, m)
        K = min(K, m)
        got = expected_kmax(dists, ptas_kmax(dists, K, eps))
        W = expected_kmax(dists, greedy_kmax(dists, K))
        opt = expected_kmax(dists, exhaustive_oracle(dists, FeasibleFamily.cardinality_at_most(K, m), kmax_spec()))
        assert opt - EXACT <= got + 8 * eps * W
        assert got <= opt + EXACT

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(LAW_KINDS), st.integers(1, 7), st.integers(1, 7), st.sampled_from([0.2, 0.3, 0.45]))
    def test_matches_reference_loop(self, seed, kind, m, K, eps):
        dists = random_laws(np.random.default_rng(seed), kind, m)
        K = min(K, m)
        assert ptas_kmax(dists, K, eps) == reference_ptas(dists, K, eps)
