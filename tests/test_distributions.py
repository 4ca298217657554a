"""Distribution layer: construction, CDFs, confidence bounds, binning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmab.distributions import (
    MASS_TOL,
    CdfMatrix,
    FiniteDistribution,
    PiecewiseDensity,
    bernoulli_decomposition,
    bin_index,
    bin_value,
    confidence_radius,
    discretize_interval,
    _checked_laws,
    _sorted_unique,
    dominant_cdfs,
    make_finite,
    sample,
)
from cmab.rng import substream
from util import (
    bruteforce_max_law,
    count_matrix,
    dicts_close,
    law_as_dict,
    random_counts,
    random_finite,
    random_piecewise,
    reference_cdf_matrix,
    reference_dominant_cdfs,
    reference_finite_laws,
    reference_inverse_cdf,
    reference_make_finite,
    value_pool,
)

EXACT = 1e-12
# sqrt(3 ln 100 / 200), frozen
RADIUS_100_100 = 0.2628260884878466


class TestMakeFinite:
    def test_basic_construction(self):
        d = make_finite([0.1, 0.5, 0.9], [0.2, 0.3, 0.5])
        assert np.array_equal(d.support, [0.1, 0.5, 0.9])
        assert np.array_equal(d.probs, [0.2, 0.3, 0.5])

    def test_sorts_support(self):
        d = make_finite([0.9, 0.1], [0.6, 0.4])
        assert np.array_equal(d.support, [0.1, 0.9])
        assert np.array_equal(d.probs, [0.4, 0.6])

    def test_merges_duplicates(self):
        d = make_finite([0.5, 0.5, 1.0], [0.2, 0.3, 0.5])
        assert np.array_equal(d.support, [0.5, 1.0])
        assert np.allclose(d.probs, [0.5, 0.5], atol=EXACT)

    def test_drops_zero_masses(self):
        d = make_finite([0.2, 0.4, 0.6], [0.5, 0.0, 0.5])
        assert np.array_equal(d.support, [0.2, 0.6])

    def test_rejects_bad_mass_total(self):
        with pytest.raises(ValueError):
            make_finite([0.5], [0.9])

    def test_rejects_out_of_range_support(self):
        with pytest.raises(ValueError):
            make_finite([1.5], [1.0])
        with pytest.raises(ValueError):
            make_finite([-0.1, 0.5], [0.5, 0.5])

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            make_finite([0.2, 0.8], [-0.1, 1.1])

    def test_rejects_near_duplicate_distinct_points(self):
        with pytest.raises(ValueError):
            make_finite([0.5, 0.5 + 1e-10], [0.5, 0.5])

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError):
            make_finite([], [])
        with pytest.raises(ValueError):
            make_finite([0.5], [0.5, 0.5])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_canonical_form(self, seed):
        d = random_finite(np.random.default_rng(seed))
        assert np.all(np.diff(d.support) > 0)
        assert np.all(d.probs > 0)
        assert abs(d.probs.sum() - 1.0) <= 1e-9
        assert 0.0 <= d.support[0] and d.support[-1] <= 1.0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_matches_reference(self, seed, ascending, near_duplicates):
        # ascending input takes the path without the merge; the rest is sorted and merged as before
        rng = np.random.default_rng(seed)
        support = rng.choice(value_pool(rng, near_duplicates), size=int(rng.integers(1, 9)))
        if ascending:
            support = np.unique(support)
        if rng.random() < 0.2:
            support[support == 0.0] = -0.0
        probs = rng.random(len(support)) * (rng.random(len(support)) < 0.8)
        if probs.sum() > 0.0:
            probs /= probs.sum()

        def outcome(make):
            try:
                d = make(support.copy(), probs.copy())
            except ValueError as e:
                return str(e)
            return [a.tobytes() for a in (d.support, d.probs, d.cum)]

        assert outcome(make_finite) == outcome(reference_make_finite)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_batch_matches_reference(self, seed, m):
        # m arms laid end to end: unsorted, with duplicates, zero masses, up to 12 points, totals within a
        # few ulps of 1 +- MASS_TOL, gaps below VALUE_TOL, and now and then a bad value; the batch gives each
        # arm's reference law, cum included, or the first bad arm's reference error with its name (a
        # malformed arm is the reader's to find: see TestArmReader in test_cli.py)
        rng = np.random.default_rng(seed)
        supports, masses = [], []
        for _ in range(m):
            support = rng.choice(value_pool(rng, rng.random() < 0.3), size=int(rng.integers(1, 13)))
            if rng.random() < 0.3:
                support = np.unique(support)
            probs = rng.random(len(support)) * (rng.random(len(support)) < 0.8)
            if probs.sum() > 0.0:
                probs /= probs.sum()
            if rng.random() < 0.3:
                probs *= 1.0 + rng.choice([-1.0, 1.0]) * MASS_TOL + int(rng.integers(-4, 5)) * 2.0**-52
            if rng.random() < 0.05:
                probs[rng.integers(len(probs))] = rng.choice([math.nan, math.inf, -0.25])
            if rng.random() < 0.05:
                support[rng.integers(len(support))] = rng.choice([math.nan, -math.inf, 1.5, -0.25])
            supports.append(support)
            masses.append(probs)
        names = [f"arm {i}: " for i in range(m)]
        try:
            want = reference_finite_laws(supports, masses, names)
        except ValueError as e:
            want = str(e)
        try:
            got = _checked_laws(np.concatenate(supports), np.concatenate(masses), [len(s) for s in supports], names)
        except ValueError as e:
            got = str(e)
        if isinstance(want, str):
            assert got == want
        else:
            assert [[a.tobytes() for a in (d.support, d.probs, d.cum)] for d in got] == [
                [a.tobytes() for a in (d.support, d.probs, d.cum)] for d in want
            ]


class TestFiniteDistribution:
    def test_cdf_staircase(self):
        d = make_finite([0.2, 0.8], [0.3, 0.7])
        assert d.cdf(0.0) == 0.0
        assert d.cdf(0.2) == pytest.approx(0.3, abs=EXACT)
        assert d.cdf(0.5) == pytest.approx(0.3, abs=EXACT)
        assert d.cdf(0.8) == pytest.approx(1.0, abs=EXACT)
        assert d.cdf(1.0) == pytest.approx(1.0, abs=EXACT)

    def test_cdf_vectorized(self):
        d = make_finite([0.2, 0.8], [0.3, 0.7])
        out = d.cdf(np.array([0.0, 0.2, 0.9]))
        assert np.allclose(out, [0.0, 0.3, 1.0], atol=EXACT)

    def test_mean(self):
        d = make_finite([0.2, 0.8], [0.25, 0.75])
        assert d.mean() == pytest.approx(0.65, abs=EXACT)

    def test_inverse_cdf_boundaries(self):
        d = make_finite([0.2, 0.8], [0.3, 0.7])
        assert d.inverse_cdf(0.0) == 0.2
        assert d.inverse_cdf(0.3) == 0.2
        assert d.inverse_cdf(0.3 + 1e-9) == 0.8
        assert d.inverse_cdf(1.0) == 0.8

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_inverse_cdf_is_quantile(self, seed):
        rng = np.random.default_rng(seed)
        d = random_finite(rng)
        u = rng.random()
        x = d.inverse_cdf(u)
        # smallest support point with F(x) >= u
        assert d.cdf(x) >= u - EXACT
        below = d.support[d.support < x - 1e-12]
        if len(below):
            assert d.cdf(float(below[-1])) < u


    def test_repr_lists_the_law(self):
        assert repr(make_finite([0.5, 0.0, 1.0], [0.25, 0.5, 0.25])) == "FiniteDistribution({0: 0.5, 0.5: 0.25, 1: 0.25})"


class TestPiecewiseDensity:
    def test_repr_lists_the_law(self):
        d = PiecewiseDensity([0.0, 0.5, 1.0], [0.6, 1.4])
        assert repr(d) == "PiecewiseDensity(breakpoints=[0.0, 0.5, 1.0], densities=[0.6, 1.4])"

    def test_uniform(self):
        u = PiecewiseDensity([0.0, 1.0], [1.0])
        assert u.cdf(0.25) == pytest.approx(0.25, abs=EXACT)
        assert u.mean() == pytest.approx(0.5, abs=EXACT)
        assert u.inverse_cdf(0.7) == pytest.approx(0.7, abs=EXACT)

    def test_tilted_density(self):
        d = PiecewiseDensity([0.0, 0.5, 1.0], [1.2, 0.8])
        assert d.cdf(0.5) == pytest.approx(0.6, abs=EXACT)
        assert d.cdf(1.0) == pytest.approx(1.0, abs=EXACT)
        # mean = 1.2 * 0.5^2/2 + 0.8 * (1 - 0.5^2)/2
        assert d.mean() == pytest.approx(0.45, abs=EXACT)
        assert d.inverse_cdf(0.6) == pytest.approx(0.5, abs=EXACT)
        assert d.inverse_cdf(0.8) == pytest.approx(0.75, abs=EXACT)

    def test_zero_density_segment(self):
        d = PiecewiseDensity([0.0, 0.5, 1.0], [2.0, 0.0])
        assert d.cdf(0.5) == pytest.approx(1.0, abs=EXACT)
        assert d.inverse_cdf(1.0) == pytest.approx(0.5, abs=EXACT)

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseDensity([0.0, 0.5], [2.0])  # does not end at 1
        with pytest.raises(ValueError):
            PiecewiseDensity([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0])  # flat step
        with pytest.raises(ValueError):
            PiecewiseDensity([0.0, 1.0], [-1.0])
        with pytest.raises(ValueError):
            PiecewiseDensity([0.0, 1.0], [0.5])  # integrates to 0.5


class TestConfidenceRadius:
    def test_frozen_value(self):
        assert confidence_radius(100, 100) == pytest.approx(RADIUS_100_100, abs=0.0)

    def test_formula(self):
        assert confidence_radius(8, 3) == pytest.approx(math.sqrt(1.5 * math.log(8) / 3), abs=0.0)

    def test_shrinks_with_count(self):
        assert confidence_radius(100, 200) < confidence_radius(100, 100)


def one_arm(observations, t, radius=None):
    values, counts = count_matrix([observations])
    return dominant_cdfs(values, counts, t, radius)[0]


class TestDominantCdf:
    def test_frozen_two_point_example(self):
        d = one_arm([0.0] * 60 + [1.0] * 40, 100)
        assert np.array_equal(d.support, [0.0, 1.0])
        assert d.cdf(0.0) == pytest.approx(0.6 - RADIUS_100_100, abs=0.0)
        assert d.probs[1] == pytest.approx(0.4 + RADIUS_100_100, abs=EXACT)

    def test_total_relocation_when_radius_large(self):
        d = one_arm([0.3], 2)  # radius > 1
        assert np.array_equal(d.support, [1.0])
        assert d.probs[0] == 1.0

    def test_override_radius(self):
        d = one_arm([0.0, 0.0, 1.0, 1.0], 2, radius=0.25)
        assert d.cdf(0.0) == pytest.approx(0.25, abs=EXACT)
        assert d.cdf(1.0) == 1.0

    def test_zero_radius_reproduces_empirical(self):
        d = one_arm([0.2, 0.4, 0.4, 0.8], 2, radius=0.0)
        # the grid point at 1 carries zero mass and is dropped
        assert np.array_equal(d.support, [0.2, 0.4, 0.8])
        assert np.allclose(d.probs, [0.25, 0.5, 0.25], atol=EXACT)
        for x, f in [(0.1, 0.0), (0.2, 0.25), (0.4, 0.75), (0.8, 1.0), (1.0, 1.0)]:
            assert d.cdf(x) == pytest.approx(f, abs=EXACT)

    def test_counts_and_cdf(self):
        values, counts = count_matrix([[0.2, 0.2, 0.8]])
        assert np.array_equal(values, [0.2, 0.8, 1.0])
        assert np.array_equal(counts, [[2, 1, 0]])
        d = dominant_cdfs(values, counts, 2, radius=0.0)[0]
        assert d.cdf(0.1) == 0.0
        assert d.cdf(0.2) == pytest.approx(2 / 3, abs=EXACT)
        assert d.cdf(1.0) == 1.0

    def test_one_radius_per_arm(self):
        values, counts = count_matrix([[0.0, 1.0], [0.0, 1.0]])
        a, b = dominant_cdfs(values, counts, 2, radius=[0.1, 0.3])
        assert a.cdf(0.0) == pytest.approx(0.4, abs=EXACT)
        assert b.cdf(0.0) == pytest.approx(0.2, abs=EXACT)

    @pytest.mark.parametrize("values", [[0.5, 0.2, 1.0], [math.nan, 1.0], [0.2, math.nan, 1.0], [-0.5, 1.0], [0.5, 0.5, 1.0]])
    def test_rejects_a_grid_not_ascending_in_unit_interval(self, values):
        with pytest.raises(ValueError, match="strictly ascending grid"):
            dominant_cdfs(values, [[1] * len(values)], 10, radius=0.0)

    def test_requires_observations_and_t(self):
        values, counts = count_matrix([[0.5], []])
        with pytest.raises(ValueError):
            dominant_cdfs(values, counts, 5)
        with pytest.raises(ValueError):
            dominant_cdfs(values, counts[:1], 1)

    def test_empty_arm_row_errors(self):
        # an arm never observed has no empirical CDF, whatever the radius
        values, counts = count_matrix([[0.2, 1.0], []])
        for radius in (0.0, 0.5, [0.0, 0.0]):
            with pytest.raises(ValueError):
                dominant_cdfs(values, counts, 5, radius=radius)

    def test_rejects_negative_or_nan_radius(self):
        values, counts = count_matrix([[0.2, 1.0], [0.5]])
        for radius in (-0.1, math.nan, [0.1, -0.1]):
            with pytest.raises(ValueError, match="radius must be >= 0"):
                dominant_cdfs(values, counts, 5, radius=radius)

    def test_rejects_grid_without_one_or_misshapen_counts(self):
        with pytest.raises(ValueError):
            dominant_cdfs(np.array([0.2, 0.5]), np.array([[1, 1]]), 5)
        with pytest.raises(ValueError):
            dominant_cdfs(np.array([0.5, 1.0]), np.array([[1, 1, 1]]), 5)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 10**6), st.sampled_from(["t", "scalar", "per-arm"]))
    def test_matches_per_arm_reference(self, seed, t, radius_kind):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 6))
        values, counts = random_counts(rng, m)
        radius = {
            "t": None,
            "scalar": float(rng.uniform(0.0, 1.5)),
            "per-arm": rng.uniform(0.0, 1.5, size=m),
        }[radius_kind]
        got = dominant_cdfs(values, counts, t, radius)
        want = reference_dominant_cdfs(values, counts, t, radius)
        assert len(got) == len(want) == m
        for g, w in zip(got, want):
            assert np.array_equal(g.support, w.support)
            assert np.array_equal(g.probs, w.probs)
            assert np.array_equal(g.cum, w.cum)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 500))
    def test_dominates_empirical(self, seed, t):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        values, counts = count_matrix([np.round(rng.random(n), 3)])
        d = dominant_cdfs(values, counts, t)[0]
        assert abs(d.probs.sum() - 1.0) <= 1e-9
        assert d.cdf(1.0) == pytest.approx(1.0, abs=EXACT)
        for x in np.linspace(0, 1, 23):
            empirical = counts[0, values <= x].sum() / n
            assert d.cdf(float(x)) <= empirical + EXACT
        # dominance raises the mean
        assert d.mean() >= values @ counts[0] / n - EXACT


class TestCdfMatrix:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_sorted_unique_is_np_unique(self, seed, near_duplicates):
        # the deduplication behind CdfMatrix.of and the quadrature edges keeps np.unique's values bit for bit
        rng = np.random.default_rng(seed)
        x = rng.choice(value_pool(rng, near_duplicates), size=int(rng.integers(1, 40)))
        got, want = _sorted_unique(x), np.unique(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 10**6), st.sampled_from(["t", "scalar", "per-arm"]), st.booleans())
    def test_invariants(self, seed, t, radius_kind, near_duplicates):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 6))
        pool = value_pool(rng, near_duplicates)
        values, counts = count_matrix([rng.choice(pool, size=int(rng.integers(1, 12))) for _ in range(m)])
        radius = {
            "t": None,
            "scalar": float(rng.uniform(0.0, 1.5)),
            "per-arm": rng.uniform(0.0, 1.5, size=m),
        }[radius_kind]
        cdfs = dominant_cdfs(values, counts, t, radius)
        laws = reference_dominant_cdfs(values, counts, t, radius)
        assert len(cdfs) == m
        assert np.array_equal(cdfs.values, np.unique(np.concatenate([d.support for d in laws])))
        assert np.all(np.any(np.diff(cdfs.F, axis=1, prepend=0.0) > 0.0, axis=0))
        assert np.all(cdfs.F[:, -1] == 1.0)
        for row, d in zip(cdfs.F, laws):
            # the exact CDF at each value
            at = np.searchsorted(d.support, cdfs.values, side="right")
            assert np.array_equal(row, np.concatenate(([0.0], d.cum))[at])
        # the matrix greedy builds from a list of the same laws
        rebuilt = CdfMatrix.of(laws)
        assert np.array_equal(rebuilt.values, cdfs.values)
        assert np.array_equal(rebuilt.F, cdfs.F)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 30))
    def test_of_matches_reference(self, seed, m, s):
        # laws from make_finite, and laws with a supplied cum: binned finite and continuous laws, and
        # the rows of an optimistic matrix
        rng = np.random.default_rng(seed)
        rows = dominant_cdfs(*random_counts(rng, m), int(rng.integers(2, 1000)))
        kinds = [
            lambda i: random_finite(rng, max_support=10),
            lambda i: discretize_interval(random_finite(rng), s),
            lambda i: discretize_interval(random_piecewise(rng), s),
            lambda i: rows[i],
        ]
        laws = [kinds[int(rng.integers(len(kinds)))](i) for i in range(m)]
        got, want = CdfMatrix.of(laws), reference_cdf_matrix(laws)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.F.tobytes() == want.F.tobytes()

    def test_exact_where_finite_cdf_merges(self):
        values, counts = count_matrix([[0.3, 0.3 + 4e-10]])
        cdfs = dominant_cdfs(values, counts, 2, radius=0.0)
        assert np.array_equal(cdfs.values, [0.3, 0.3 + 4e-10])
        assert np.array_equal(cdfs.F, [[0.5, 1.0]])
        # FiniteDistribution.cdf reads the same exact CDF, without the mass 4e-10 above 0.3
        assert cdfs[0].cdf(0.3) == 0.5

    def test_sequence_of_arm_laws(self):
        values, counts = count_matrix([[0.2, 0.6], [0.6], [0.4]])
        cdfs = dominant_cdfs(values, counts, 2, radius=0.0)
        assert np.array_equal(cdfs.values, [0.2, 0.4, 0.6])
        laws = list(cdfs)
        assert [d.support.tolist() for d in laws] == [[0.2, 0.6], [0.6], [0.4]]
        assert np.array_equal(cdfs[-1].support, laws[2].support)
        with pytest.raises(IndexError):
            cdfs[3]
        with pytest.raises(TypeError):
            cdfs[0:2]


class TestBinning:
    def test_bin_index_table(self):
        # I_1 = [0, 1/s], I_j = ((j-1)/s, j/s]
        assert bin_index(0.0, 4) == 1
        assert bin_index(0.25, 4) == 1
        assert bin_index(0.25 + 1e-12, 4) == 2
        assert bin_index(0.5, 4) == 2
        assert bin_index(1.0, 4) == 4
        assert bin_index(0.0, 1) == 1 and bin_index(1.0, 1) == 1

    def test_bin_value(self):
        assert bin_value(0.25, 10) == pytest.approx(0.3, abs=0.0)
        assert bin_value(0.0, 7) == pytest.approx(1 / 7, abs=0.0)
        assert bin_value(1.0, 3) == 1.0

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.floats(0.0, 1.0, allow_nan=False), st.integers(1, 200))
    def test_bin_brackets_input(self, x, s):
        j = bin_index(x, s)
        assert 1 <= j <= s
        assert x <= j / s + EXACT
        if j > 1:
            assert x > (j - 1) / s - 1e-9


class TestDiscretizeInterval:
    def test_uniform_grid(self):
        u = PiecewiseDensity([0.0, 1.0], [1.0])
        d = discretize_interval(u, 4)
        assert np.array_equal(d.support, [0.25, 0.5, 0.75, 1.0])
        assert np.allclose(d.probs, 0.25, atol=EXACT)

    def test_finite_mass_moves_to_right_endpoints(self):
        src = make_finite([0.0, 0.3, 0.55, 1.0], [0.1, 0.2, 0.3, 0.4])
        d = discretize_interval(src, 2)
        # 0.0 and 0.3 land in (0, 0.5]; 0.55 and 1.0 in (0.5, 1]
        assert np.array_equal(d.support, [0.5, 1.0])
        assert np.allclose(d.probs, [0.3, 0.7], atol=EXACT)

    def test_finite_cum_floats_copied_verbatim(self):
        src = make_finite([0.05, 0.3, 0.8], [0.125, 0.25, 0.625])
        d = discretize_interval(src, 3)
        for c in d.cum:
            assert c in set(src.cum)

    def test_mean_shift_bounded_by_bin_width(self):
        src = make_finite([0.12, 0.49, 0.77], [0.3, 0.4, 0.3])
        for s in (1, 2, 5, 10):
            d = discretize_interval(src, s)
            shift = d.mean() - src.mean()
            assert -EXACT <= shift <= 1 / s + EXACT

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            discretize_interval(make_finite([0.5], [1.0]), 0)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_mass_conserved_on_grid(self, seed, s):
        src = random_finite(np.random.default_rng(seed))
        d = discretize_interval(src, s)
        assert abs(d.probs.sum() - src.probs.sum()) <= EXACT
        for v in d.support:
            assert v * s == pytest.approx(round(v * s), abs=1e-9)


class TestSampling:
    def test_sample_consumes_one_uniform(self):
        d = make_finite([0.2, 0.8], [0.3, 0.7])
        r1 = substream(7, 0, 0)
        r2 = substream(7, 0, 0)
        xs = [sample(d, r1) for _ in range(5)]
        expected = [d.inverse_cdf(r2.random()) for _ in range(5)]
        assert xs == expected

    def test_sample_continuous(self):
        u = PiecewiseDensity([0.0, 1.0], [1.0])
        r1 = substream(7, 0, 1)
        r2 = substream(7, 0, 1)
        assert sample(u, r1) == u.inverse_cdf(r2.random())

    def test_point_mass_sampling(self):
        d = make_finite([0.4], [1.0])
        rng = substream(0, 0, 0)
        assert all(sample(d, rng) == 0.4 for _ in range(10))

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.lists(st.floats(0.0, 1.0), max_size=8))
    def test_inverse_cdf_matches_searchsorted(self, seed, s, us):
        # every draw lands where np.searchsorted on cum put it, which keeps criterion 09's
        # coupling of binned and unbinned sampling; u sits on, just below and just above
        # each cum entry, at 0, and above a cum[-1] that falls short of 1
        rng = np.random.default_rng(seed)
        finite, dens = random_finite(rng), random_piecewise(rng)
        short = make_finite([0.3, 0.9], [0.4, 0.6 - 5e-13])
        gap = PiecewiseDensity([0.0, 0.2, 0.5, 0.8, 0.9, 1.0], [0.0, 2.0, 0.0, 4.0, 0.0])  # no mass on three segments
        laws = (finite, dens, short, gap, discretize_interval(finite, s), discretize_interval(dens, s))
        # and one call on all of them as an array gives the same values entry by entry
        for d in laws:
            cum = d.cum
            edges = np.concatenate([cum, np.nextafter(cum, -1.0), np.nextafter(cum, 2.0)])
            points = [0.0, 1.0 - 1e-13, 1.0 - 2.0**-53, *edges[(edges >= 0.0) & (edges <= 1.0)].tolist(), *rng.random(5).tolist(), *us]
            want = [reference_inverse_cdf(d, u) for u in points]
            got = [d.inverse_cdf(u) for u in points]
            assert got == want and all(type(x) is float for x in got), d
            assert d.inverse_cdf(np.array(points)).tolist() == want, d


class TestBernoulliDecomposition:
    def test_activation_rates(self):
        d = make_finite([0.1, 0.5, 0.9], [0.2, 0.3, 0.5])
        pairs = bernoulli_decomposition(d)
        assert pairs[0] == (0.1, pytest.approx(1.0, abs=EXACT))
        assert pairs[1] == (0.5, pytest.approx(0.3 / 0.5, abs=EXACT))
        assert pairs[2] == (0.9, pytest.approx(0.5 / 1.0, abs=EXACT))

    def test_max_law_matches_input(self):
        d = make_finite([0.0, 0.25, 0.6, 1.0], [0.4, 0.1, 0.3, 0.2])
        law = bruteforce_max_law(bernoulli_decomposition(d))
        assert dicts_close(law, law_as_dict(d), EXACT)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_max_law_matches_input_random(self, seed):
        d = random_finite(np.random.default_rng(seed))
        law = bruteforce_max_law(bernoulli_decomposition(d))
        assert dicts_close(law, law_as_dict(d), EXACT)
