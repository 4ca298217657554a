"""End-to-end acceptance checks, one test per criterion with a runtime budget.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test pins its own tolerances and asserts a wall-clock
budget; criterion 8 dominates the total (a full four-environment regret
sweep at T = 10^4 with 20 runs each).
"""

import math
import subprocess
import sys
import time

import numpy as np

from cmab import (
    PolicyFactory,
    builtin_env,
    confidence_radius,
    dominant_cdfs,
    expected_kmax,
    expected_kmax_continuous,
    expected_reward,
    greedy_kmax,
    kmax_spec,
    make_finite,
    ptas_kmax,
    run_many,
    utility_spec,
)
from cmab.distributions import PiecewiseDensity, bernoulli_decomposition, discretize_interval
from cmab.harness import Environment, run_one
from cmab.rewards import SuperArm

from util import bruteforce_best_subset, bruteforce_max_law, count_matrix, dicts_close, law_as_dict, random_finite

EXACT = 1e-12


def _finish(n, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    print(f"[criterion {n:02d}] PASS ({elapsed:.2f}s)")


def test_criterion_01_bernoulli_decomposition_exact():
    """Max of the decomposed two-point parts reproduces the input law mass-by-mass."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    for _ in range(500):
        dist = random_finite(rng, max_support=6)
        pairs = bernoulli_decomposition(dist)
        got = bruteforce_max_law(pairs)
        want = law_as_dict(dist)
        if 0.0 not in want:
            # an inactive decomposition realizes 0; a zero-support input already has it
            assert got.get(0.0, 0.0) <= EXACT
            got.pop(0.0, None)
        assert dicts_close(got, want, EXACT)
    _finish(1, t0, 5.0)


def test_criterion_02_greedy_guarantee():
    """Greedy subset value lands in [(1-1/e) OPT, OPT] against exhaustive search."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    factor = 1.0 - 1.0 / math.e
    for _ in range(200):
        m = int(rng.integers(2, 9))
        K = int(rng.integers(1, min(4, m) + 1))
        dists = [random_finite(rng, max_support=4) for _ in range(m)]
        opt_set, opt = bruteforce_best_subset(dists, K, lambda c: expected_kmax(dists, SuperArm(c)))
        g = expected_kmax(dists, greedy_kmax(dists, K))
        assert factor * opt - EXACT <= g <= opt + EXACT, (opt_set, opt, g)
    _finish(2, t0, 60.0)


def test_criterion_03_ptas_bound():
    """PTAS value is within the 8*eps*W additive guarantee of the brute-force optimum."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    eps = 0.25
    for _ in range(50):
        m = int(rng.integers(2, 6))
        K = int(rng.integers(1, min(3, m) + 1))
        dists = [random_finite(rng, max_support=3) for _ in range(m)]
        _, opt = bruteforce_best_subset(dists, K, lambda c: expected_kmax(dists, SuperArm(c)))
        W = expected_kmax(dists, greedy_kmax(dists, K))
        got = expected_kmax(dists, ptas_kmax(dists, K, eps))
        assert got >= opt - 8.0 * eps * W - 1e-9
        assert got <= opt + EXACT
    _finish(3, t0, 600.0)


def test_criterion_04_discretization_error():
    """Rounding outcomes up to s bins moves the expected max by at most |S|/s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    for trial in range(200):
        m = int(rng.integers(2, 7))
        s = int(rng.integers(2, 31))
        continuous = trial % 4 == 0
        if continuous:
            arms = []
            for _ in range(m):
                b = float(rng.uniform(0.2, 0.8))
                d1 = float(rng.uniform(0.1, min(1.2, 0.95 / b)))
                d2 = (1.0 - d1 * b) / (1.0 - b)
                arms.append(PiecewiseDensity([0.0, b, 1.0], [d1, d2]))
        else:
            arms = [random_finite(rng, max_support=6) for _ in range(m)]
        size = int(rng.integers(1, m + 1))
        S = SuperArm(rng.choice(m, size=size, replace=False).tolist())
        members = [arms[i] for i in S.members]
        tilde = [discretize_interval(a, s) for a in members]
        all_of = SuperArm(range(len(members)))
        r_orig = expected_kmax_continuous(members, all_of) if continuous else expected_kmax(arms, S)
        r_disc = expected_kmax(tilde, all_of)
        assert abs(r_orig - r_disc) <= len(S) / s + EXACT
        assert r_disc >= r_orig - EXACT  # rounding up never lowers the max
    _finish(4, t0, 10.0)


def test_criterion_05_dkw_coverage():
    """Empirical CDFs of n=100 uniforms exceed a 0.15 sup-gap in <= 3% of trials."""
    t0 = time.perf_counter()
    n, eps, trials = 100, 0.15, 10_000
    rng = np.random.default_rng(12345)
    samples = np.sort(rng.random((trials, n)), axis=1)
    ranks = np.arange(1, n + 1)
    # sup_x |F_hat - x| for a uniform sample is attained at an order statistic
    sup = np.maximum(ranks / n - samples, samples - (ranks - 1) / n).max(axis=1)
    # cross-check the order statistics against the package's empirical CDF
    for row in samples[:5]:
        ecdf = dominant_cdfs(*count_matrix([row]), t=2, radius=0.0)[0]
        assert all(ecdf.cdf(x) == i / n for i, x in zip(ranks, row))
    violation = float(np.mean(sup >= eps))
    assert violation <= 0.03, violation
    _finish(5, t0, 30.0)


def test_criterion_06_dominance_inequalities():
    """Dominant distributions raise monotone rewards, by at most 2M sum(Lambda_i)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    square = utility_spec("square", bound_M=9.0, lipschitz_C=6.0)
    specs = [kmax_spec(), square]
    grid = np.arange(7) / 6
    for _ in range(200):
        m = int(rng.integers(2, 5))
        base, dominant, lam = [], [], []
        for _ in range(m):
            counts = rng.integers(1, 6, size=rng.integers(2, 5))
            values = rng.choice(grid, size=len(counts), replace=False)
            vals, tally = count_matrix([np.repeat(values, counts)])
            lam_i = float(rng.uniform(0.01, 0.5))
            base.append(make_finite(vals, tally[0] / tally.sum()))
            dominant.append(dominant_cdfs(vals, tally, t=10, radius=lam_i)[0])
            lam.append(lam_i)
        size = int(rng.integers(1, min(3, m) + 1))
        S = SuperArm(rng.choice(m, size=size, replace=False).tolist())
        cap = 2.0 * sum(lam[i] for i in S.members)
        for spec in specs:
            r_base = expected_reward(base, S, spec)
            r_dom = expected_reward(dominant, S, spec)
            assert r_dom >= r_base - EXACT
            assert r_dom - r_base <= spec.bound_M * cap + EXACT
    _finish(6, t0, 30.0)


def test_criterion_07_dominant_mean_is_ucb():
    """The dominant mean sandwiches the true mean: mu <= nu <= mu + 2 radius."""
    t0 = time.perf_counter()
    count_rows = [(3, 1, 1), (1, 1, 1), (10, 0, 2), (0, 4, 4), (7, 2, 1)]
    for counts in count_rows:
        record = (np.array([0.0, 0.5, 1.0]), np.array([counts]))
        n = sum(counts)
        emp_mean = (0.5 * counts[1] + 1.0 * counts[2]) / n
        p0 = counts[0] / n
        for t in (2, 5, 10, 100, 10_000):
            r = confidence_radius(t, n)
            nu = dominant_cdfs(*record, t)[0].mean()
            # true distributions within sup-norm radius r of the empirical CDF:
            # move delta <= r of the mass at zero up to one
            for delta in (0.0, min(r, p0) / 2, min(r, p0)):
                mu = emp_mean + delta
                assert mu <= nu + EXACT, (counts, t, delta)
                assert nu <= mu + 2.0 * r + EXACT, (counts, t, delta)
    _finish(7, t0, 5.0)


def test_criterion_08_regret_comparison():
    """Dominant-CDF learning beats the adversarial baseline on every bundled env."""
    t0 = time.perf_counter()
    T, runs, seed_base = 10_000, 20, 42
    ratios = {}
    for name in ("dist1", "dist2", "dist3", "dist4"):
        env = builtin_env(name)
        policy = "lazy-sdcb" if name == "dist4" else "sdcb"
        avg_sdcb, _ = run_many(env, PolicyFactory(policy, oracle="greedy"), T, runs, seed_base)
        avg_osm, _ = run_many(env, PolicyFactory("osm"), T, runs, seed_base)
        final_sdcb = avg_sdcb.cum_regret[-1]
        final_osm = avg_osm.cum_regret[-1]
        assert final_sdcb < final_osm, (name, final_sdcb, final_osm)
        ratios[name] = final_sdcb / final_osm
        # average regret per round must shrink with the horizon
        assert avg_sdcb.cum_regret[9_999] / 10_000 < avg_sdcb.cum_regret[999] / 1_000, name
    assert ratios["dist1"] < 0.8, ratios
    _finish(8, t0, 900.0)


def test_criterion_09_lazy_equivalence():
    """Binning outcomes online equals learning on the pre-discretized instance."""
    t0 = time.perf_counter()
    for name in ("dist1", "dist4"):
        env = builtin_env(name)
        for T in (16, 100):
            s = math.isqrt(T)
            if s * s < T:
                s += 1
            tilde = Environment(
                [discretize_interval(a, s) for a in env.arms], env.family, env.spec
            )
            for seed in (0, 1):
                lazy = run_one(env, PolicyFactory("lazy-sdcb"), T=T, seed=seed)
                plain = run_one(tilde, PolicyFactory("sdcb"), T=T, seed=seed)
                assert lazy.super_arms == plain.super_arms, (name, T, seed)
    _finish(9, t0, 10.0)


def test_criterion_10_cli_determinism(tmp_path):
    """Identical `cmab run` invocations produce byte-identical CSV files."""
    t0 = time.perf_counter()
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "cmab", "run",
                "--env", "dist1", "--policy", "lazy-sdcb", "--oracle", "greedy",
                "--T", "300", "--runs", "3", "--seed", "123", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"round,expected_reward,cum_regret\n")
    _finish(10, t0, 60.0)
