"""Shared test helpers: independent brute-force evaluators and generators.

Everything here re-derives results from first principles (joint
enumeration over product supports, activation-pattern enumeration), so
library outputs are checked against logic the library does not share.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from cmab.distributions import VALUE_TOL, FiniteDistribution, PiecewiseDensity, bernoulli_decomposition, make_finite
from cmab.oracles import ptas_grid, signature_cap
from cmab.policies import lazy_sdcb_known_T
from cmab.rewards import expected_reward

COARSE_GRID = np.round(np.linspace(0.0, 1.0, 201), 6)


def random_finite(rng: np.random.Generator, max_support: int = 6) -> FiniteDistribution:
    """Random finite distribution with well-separated support points."""
    k = int(rng.integers(1, max_support + 1))
    support = rng.choice(COARSE_GRID, size=k, replace=False)
    probs = rng.random(k) + 0.05
    probs /= probs.sum()
    return make_finite(support, probs)


def joint_expected(dists, members, reward_fn) -> float:
    """E[reward_fn(outcome vector)] by enumerating the product law."""
    pairs = [list(zip(dists[i].support, dists[i].probs)) for i in members]
    total = 0.0
    for combo in itertools.product(*pairs):
        p = 1.0
        for _, pj in combo:
            p *= pj
        total += p * reward_fn([v for v, _ in combo])
    return total


def bruteforce_kmax(dists, members) -> float:
    return joint_expected(dists, members, max)


def bruteforce_max_law(pairs) -> dict[float, float]:
    """Distribution of max of independent (value, q) Bernoullis.

    Enumerates all activation patterns; an inactive variable contributes 0,
    so the empty pattern yields max 0.
    """
    out: dict[float, float] = {}
    for mask in itertools.product((0, 1), repeat=len(pairs)):
        p = 1.0
        top = 0.0
        for (v, q), on in zip(pairs, mask):
            p *= q if on else 1.0 - q
            if on and v > top:
                top = v
        if p > 0.0:
            out[top] = out.get(top, 0.0) + p
    return out


def reference_arm_signature(dist, W, eps, m) -> tuple[int, ...]:
    """PTAS signature of one arm, read off the max law of its parts on the grid.

    Every part (v, q) of the Bernoulli decomposition moves to a grid value:
    above W/eps to the top one with activation q v eps / W, else down to a
    multiple of eps W; parts at value 0 carry no coordinate.  A grid value's
    activation is the chance that the max of its parts is that value.
    """
    grid = ptas_grid(eps, W)
    parts = [[] for _ in grid]
    for v, q in bernoulli_decomposition(dist):
        if v > W / eps:
            parts[-1].append((float(grid[-1]), q * v * eps / W))
        elif (k := math.floor(v / (eps * W) + 1e-9)) > 0:
            parts[k - 1].append((float(grid[k - 1]), q))
    cap = signature_cap(eps, m)
    out = []
    for value, at_value in zip(grid, parts):
        q = bruteforce_max_law(at_value).get(float(value), 0.0)
        out.append(cap if q >= 1.0 else min(math.floor(-math.log1p(-q) * m / eps**4), cap))
    return tuple(out)


def bruteforce_best_subset(dists, K, value_fn):
    """(best members, best value) over all subsets of size 1..K."""
    m = len(dists)
    best, best_val = None, -math.inf
    for k in range(1, K + 1):
        for combo in itertools.combinations(range(m), k):
            v = value_fn(combo)
            if v > best_val + 1e-15:
                best, best_val = combo, v
    return best, best_val


def reference_exhaustive(dists, sets, spec):
    """Best of ``sets`` by a per-set enumerate-and-compare loop, as the exhaustive oracle first did it.

    Ties go to the lexicographically smallest member set, over all sizes together.
    """
    dists = list(dists)
    best = None
    best_val = -math.inf
    for S in sets:
        v = expected_reward(dists, S, spec)
        if v > best_val or (v == best_val and (best is None or S.members < best.members)):
            best, best_val = S, v
    return best


def count_matrix(observations):
    """(values, counts) for per-arm observation lists, laid out like ``Sdcb``'s arm state.

    ``values`` is the sorted set of every observed value plus 1.0;
    ``counts[i, k]`` is how often arm i observed ``values[k]``.
    """
    values = np.unique(np.concatenate([np.asarray(obs, dtype=float) for obs in observations] + [[1.0]]))
    counts = np.array([np.bincount(np.searchsorted(values, obs), minlength=len(values)) for obs in observations])
    return values, counts


def random_counts(rng: np.random.Generator, m: int):
    """(values, counts) of m arms on a random grid ending at 1, every arm observed.

    Counts are sparse, so some grid columns hold no observation at all, and
    the column at 1 is observed or not.
    """
    grid = np.sort(rng.choice(COARSE_GRID[:-1], size=int(rng.integers(0, 8)), replace=False))
    values = np.append(grid, 1.0)
    counts = rng.integers(0, 4, size=(m, len(values))) * (rng.random((m, len(values))) < 0.5)
    counts[np.arange(m), rng.integers(0, len(values), size=m)] += 1
    return values, counts


def value_pool(rng: np.random.Generator, near_duplicates: bool) -> np.ndarray:
    """1-7 values off ``COARSE_GRID``; with ``near_duplicates``, a second one less than VALUE_TOL above each."""
    pool = rng.choice(COARSE_GRID, size=int(rng.integers(1, 8)), replace=False)
    if near_duplicates:
        pool = np.concatenate([pool, pool + VALUE_TOL * rng.uniform(0.1, 0.9, size=len(pool))])
        pool = pool[pool <= 1.0]
    return pool


def reference_dominant_cdfs(values, counts, t, radius=None):
    """One arm at a time over the values that arm observed, as SDCB first computed it."""
    radii = [None] * len(counts) if radius is None else np.broadcast_to(np.asarray(radius, dtype=float), len(counts))
    out = []
    for row, r in zip(counts, radii):
        seen = row > 0
        vals = values[seen]
        count = int(row.sum())
        cumcounts = np.cumsum(row[seen], dtype=float)
        if r is None:
            r = math.sqrt(1.5 * math.log(t) / count)
        low = np.maximum(cumcounts / count - r, 0.0)
        if vals[-1] == 1.0:
            support = vals
        else:
            support = np.append(vals, 1.0)
            low = np.append(low, 0.0)
        low[-1] = 1.0
        probs = np.diff(low, prepend=0.0)
        keep = probs > 0.0
        out.append(FiniteDistribution(support[keep], probs[keep], cum=low[keep]))
    return out


def law_as_dict(dist: FiniteDistribution) -> dict[float, float]:
    return {float(v): float(p) for v, p in zip(dist.support, dist.probs)}


def dicts_close(a: dict[float, float], b: dict[float, float], tol: float) -> bool:
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in keys)


def reference_inverse_cdf(dist, u: float) -> float:
    """``dist.inverse_cdf(u)`` by ``np.searchsorted`` on ``cum``, as arm outcomes were first drawn."""
    if isinstance(dist, FiniteDistribution):
        idx = min(int(np.searchsorted(dist.cum, u, side="left")), len(dist.support) - 1)
        return float(dist.support[idx])
    seg = min(int(np.searchsorted(dist.cum[1:], u, side="left")), len(dist.densities) - 1)
    d = dist.densities[seg]
    if d <= 0.0:
        return float(dist.breakpoints[seg])
    x = dist.breakpoints[seg] + (u - dist.cum[seg]) / d
    return float(min(max(x, 0.0), 1.0))


def random_piecewise(rng: np.random.Generator, max_segments: int = 5) -> PiecewiseDensity:
    """Random piecewise-constant density on [0, 1]; some segments may carry no mass."""
    inner = np.sort(rng.choice(COARSE_GRID[1:-1], size=int(rng.integers(0, max_segments)), replace=False))
    bp = np.concatenate(([0.0], inner, [1.0]))
    dens = rng.random(len(bp) - 1) * (rng.random(len(bp) - 1) < 0.8)
    dens[int(rng.integers(len(dens)))] += 0.5
    return PiecewiseDensity(bp, dens / float(np.sum(dens * np.diff(bp))))


class ReferenceOsm:
    """OSM as K separate Exp3 weight vectors, as it was first written.

    Each round draws with one ``rng.choice(m, p=...)`` per instance, and
    each instance's update recomputes its probabilities from its own
    weights, multiplies the drawn arm's weight, rescales by the max and
    floors at 1e-300.
    """

    def __init__(self, m: int, K: int, gamma: float, rng: np.random.Generator):
        self.gamma = gamma
        self.rng = rng
        self.weights = [np.ones(m) for _ in range(K)]
        self.last_draws: tuple[int, ...] = ()

    def probs(self, w: np.ndarray) -> np.ndarray:
        return (1.0 - self.gamma) * w / w.sum() + self.gamma / len(w)

    def select(self) -> tuple[int, ...]:
        self.last_draws = tuple(int(self.rng.choice(len(w), p=self.probs(w))) for w in self.weights)
        return self.last_draws

    def observe(self, outcomes) -> None:
        running = 0.0
        for w, arm in zip(self.weights, self.last_draws):
            gain = max(running, outcomes[arm]) - running
            p = float(self.probs(w)[arm])
            w[arm] *= math.exp(self.gamma * (gain / p) / len(w))
            w /= w.max()
            np.maximum(w, 1e-300, out=w)
            running += gain


class ReferenceDoubling:
    """Horizon-free lazy SDCB as first written: a wrapper that builds a fresh known-horizon policy per epoch.

    The first epoch spans rounds 1..2^q with horizon 2^q, q = ceil(log2 m);
    epoch k >= q spans rounds 2^k + 1 .. 2^(k+1) with horizon 2^k.  Each
    epoch runs a new ``lazy_sdcb_known_T`` instance, ``inner``, on
    epoch-local round indices.
    """

    def __init__(self, family, spec, oracle):
        self.family = family
        self.spec = spec
        self.oracle = oracle
        q = (family.m - 1).bit_length()
        self.epoch_start = 1
        self.epoch_end = 2**q
        self.inner = lazy_sdcb_known_T(family, spec, oracle, self.epoch_end)

    def advance_epoch(self) -> None:
        horizon = self.epoch_end  # next epoch doubles the covered range
        self.epoch_start = self.epoch_end + 1
        self.epoch_end = 2 * self.epoch_end
        self.inner = lazy_sdcb_known_T(self.family, self.spec, self.oracle, horizon)

    def select(self, t):
        if t > self.epoch_end:
            self.advance_epoch()
        return self.inner.select(t - self.epoch_start + 1)

    def observe(self, t, S, outcomes) -> None:
        self.inner.observe(t - self.epoch_start + 1, S, outcomes)

    @property
    def epoch(self) -> tuple[int, int]:
        return self.epoch_start, self.epoch_end
