"""Shared test helpers: independent brute-force evaluators and generators.

Everything here re-derives results from first principles (joint
enumeration over product supports, activation-pattern enumeration), so
library outputs are checked against logic the library does not share.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left

import numpy as np

from cmab.cli import _ConfigError
from cmab.distributions import (
    _DRAW_BLOCK,
    MASS_TOL,
    VALUE_TOL,
    CdfMatrix,
    FiniteDistribution,
    PiecewiseDensity,
    _draws,
    bernoulli_decomposition,
    bin_value,
    confidence_radius,
    make_finite,
)
from cmab.errors import check_count
from cmab.harness import _oracle_handle
from cmab.oracles import FeasibleFamily, ptas_grid, signature_cap
from cmab.policies import lazy_sdcb_known_T
from cmab.rewards import SuperArm, expected_reward
from cmab.rng import ARM_STREAM, POLICY_STREAM, substream

COARSE_GRID = np.round(np.linspace(0.0, 1.0, 201), 6)


def random_finite(rng: np.random.Generator, max_support: int = 6) -> FiniteDistribution:
    """Random finite distribution with well-separated support points."""
    k = int(rng.integers(1, max_support + 1))
    support = rng.choice(COARSE_GRID, size=k, replace=False)
    probs = rng.random(k) + 0.05
    probs /= probs.sum()
    return make_finite(support, probs)


def reference_make_finite(support, probs) -> FiniteDistribution:
    """``make_finite`` as it was before sorted, duplicate-free input skipped the merge: every input is sorted and merged."""
    support = np.asarray(support, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if support.ndim != 1 or len(support) == 0 or support.shape != probs.shape:
        raise ValueError("support and probs must be nonempty lists of equal length")
    if not (np.all(np.isfinite(support)) and np.all(np.isfinite(probs))):
        raise ValueError("support values and masses must be finite")
    if np.any(support < 0.0) or np.any(support > 1.0):
        raise ValueError("support values must lie in [0, 1]")
    if np.any(probs < 0.0):
        raise ValueError("masses must be nonnegative")
    total = float(np.sum(probs))
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"masses sum to {total!r}, expected 1 within {MASS_TOL}")

    order = np.argsort(support, kind="stable")
    support = support[order]
    probs = probs[order]
    # merge exact duplicates
    uniq, inverse = np.unique(support, return_inverse=True)
    merged = np.zeros(len(uniq))
    np.add.at(merged, inverse, probs)
    keep = merged > 1e-15
    uniq, merged = uniq[keep], merged[keep]
    if len(uniq) == 0:
        raise ValueError("all masses are zero")
    gaps = np.diff(uniq)
    if np.any(gaps < VALUE_TOL):
        raise ValueError(f"distinct support points closer than {VALUE_TOL}")
    return FiniteDistribution(uniq, merged)


def reference_finite_laws(supports, masses, names) -> list[FiniteDistribution]:
    """The finite laws of per-arm (support, masses) arrays, one ``reference_make_finite`` each: the first bad
    arm's error, prefixed by its entry of ``names``."""
    laws = []
    for name, support, probs in zip(names, supports, masses):
        try:
            laws.append(reference_make_finite(support, probs))
        except ValueError as e:
            raise ValueError(name + str(e)) from None
    return laws


def _reference_real_field(name: str, value) -> float:
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):  # not a number, or an int too large for a float
        pass
    raise _ConfigError(f"{name}: expected a finite number, got {value!r}")


def _reference_real_list(name: str, value) -> list[float]:
    if not isinstance(value, list):
        raise _ConfigError(f"{name}: expected a list of numbers, got {value!r}")
    return [_reference_real_field(name, v) for v in value]


def _reference_arm_fields(doc, index: int):
    if not isinstance(doc, dict):
        raise _ConfigError(f"arm {index}: expected an object")
    for kind, keys in (("finite", ("support", "probs")), ("continuous", ("breakpoints", "densities"))):
        if keys[0] in doc or keys[1] in doc:
            if keys[0] not in doc or keys[1] not in doc:
                raise _ConfigError(f"arm {index}: {kind} arms need both {keys[0]!r} and {keys[1]!r}")
            if len(doc) > 2:
                raise _ConfigError(f"arm {index}: unknown field {min(doc.keys() - set(keys))!r}")
            return kind == "finite", *(_reference_real_list(f"arm {index}: {key}", doc[key]) for key in keys)
    raise _ConfigError(f"arm {index}: need 'support'/'probs' or 'breakpoints'/'densities'")


def reference_parse_arms(docs) -> list:
    """``cli._parse_arms`` as it was before the one-pass reader: each number checked on its own, a finite law
    built per arm (here by ``reference_make_finite``), the first bad arm's error in index order."""
    laws, finite, supports, masses = [], [], [], []
    try:
        for i, doc in enumerate(docs):
            is_finite, first, second = _reference_arm_fields(doc, i)
            if is_finite:
                laws.append(None)
                finite.append(i)
                supports.append(first)
                masses.append(second)
                continue
            try:
                laws.append(PiecewiseDensity(first, second))
            except ValueError as e:
                raise _ConfigError(f"arm {i}: {e}") from None
    except _ConfigError:
        reference_finite_laws(supports, masses, [f"arm {j}: " for j in finite])  # an earlier arm's error comes first
        raise
    for i, law in zip(finite, reference_finite_laws(supports, masses, [f"arm {j}: " for j in finite])):
        laws[i] = law
    return laws


def reference_parse_sets(sets, m: int) -> FeasibleFamily:
    """An explicit family's JSON sets read one set at a time, member by member: the family, or the first bad set's
    error in index order (a list of JSON integers, nonempty, each member in [0, m))."""
    if not sets:
        raise ValueError("explicit family must be nonempty")
    super_arms = []
    for s in sets:
        if not isinstance(s, list):
            raise ValueError(f"family: each explicit set must be a list of arms, got {s!r}")
        for i in s:
            if isinstance(i, bool) or not isinstance(i, int):
                raise ValueError(f"family: set member: expected an integer, got {i!r}")
        S = SuperArm(s)  # nonempty, nonnegative
        if S.members[-1] >= m:
            raise ValueError(f"arm {S.members[-1]} out of range for m={m}")
        super_arms.append(S)
    return FeasibleFamily.explicit(super_arms, m)


def reference_cdf_matrix(dists) -> CdfMatrix:
    """``CdfMatrix.of`` as it was first written: each arm's CDF read at every union value by a search."""
    values = np.unique(np.concatenate([d.support for d in dists]))
    at = [np.searchsorted(d.support, values, side="right") for d in dists]
    return CdfMatrix(values, np.vstack([np.append(0.0, d.cum)[k] for d, k in zip(dists, at)]))


def reference_reachable_sets(signatures, K: int) -> dict:
    """The PTAS's signature dynamic program as it was first written, over every signature coordinate."""
    reach = {(0, (0,) * len(signatures[0])): ()}
    for j, sig in enumerate(signatures):
        for (chosen, units), members in list(reach.items()):
            if chosen == K:
                continue
            state = (chosen + 1, tuple(map(operator.add, units, sig)))
            if state not in reach:
                reach[state] = members + (j,)
    return reach


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


def reference_expected_kmax(dists, S: SuperArm) -> float:
    """``expected_kmax`` as it was before the batched scorer became it: a ``@`` on the member columns, a singleton's mean."""
    if isinstance(dists, CdfMatrix):
        if len(S) == 1:
            return dists[S.members[0]].mean()
        F = dists.F[list(S.members)]
        keep = (np.diff(F, axis=1, prepend=0.0) > 0.0).any(0)  # the columns where a member has mass
        cdfs = CdfMatrix(dists.values[keep], F[:, keep])
    else:
        arms = [dists[i] for i in S.members]
        if not all(isinstance(a, FiniteDistribution) for a in arms):
            raise TypeError("expected_kmax requires finite-support distributions")
        if len(arms) == 1:
            return arms[0].mean()
        cdfs = CdfMatrix.of(arms)
    return float(cdfs.values @ np.diff(cdfs.F.prod(0), prepend=0.0))


def reference_expected_kmax_continuous(dists, S: SuperArm) -> float:
    """``expected_kmax_continuous`` as it was before the batched scorer became it: a per-segment loop over the members.

    The members' breakpoints (and atoms of finite members) split [0, 1] into segments on which the CDF
    product is a polynomial of degree at most |S|; ceil((|S|+1)/2) Gauss-Legendre nodes integrate each exactly.
    """
    arms = [dists[i] for i in S.members]
    pts = [np.array([0.0, 1.0])]
    for a in arms:
        pts.append(a.breakpoints if isinstance(a, PiecewiseDensity) else a.support)
    edges = np.unique(np.concatenate(pts))
    edges = edges[(edges >= 0.0) & (edges <= 1.0)]
    nodes, weights = np.polynomial.legendre.leggauss(math.ceil((len(arms) + 1) / 2))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = (b - a) / 2.0
        if half <= 1e-15:
            continue
        xs = (a + b) / 2.0 + half * nodes
        prod = np.ones(len(xs))
        for arm in arms:
            prod *= arm.cdf(xs)
        total += half * float(weights @ (1.0 - prod))
    return total


def reference_expected_utility(dists, S: SuperArm, spec) -> float:
    """``expected_reward`` of a utility of the sum as it was before the batched scorer became it.

    The members' laws are convolved exactly in a dict keyed by round(value * 1e9), and the
    utility is summed over the keys in ascending order.
    """
    acc = {0: 1.0}
    for a in [dists[i] for i in S.members]:
        keys = [round(v * 1e9) for v in a.support]
        nxt: dict[int, float] = {}
        for k0, p0 in acc.items():
            for k1, p1 in zip(keys, a.probs):
                k = k0 + k1
                nxt[k] = nxt.get(k, 0.0) + p0 * p1
        acc = nxt
    return float(sum(p * spec.utility(k / 1e9) for k, p in sorted(acc.items())))


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


def reference_greedy_matrix(cdfs, K):
    """Greedy on a CDF matrix as it was first vectorized: every step scores the boolean-masked rows times a running product."""
    V = cdfs.values
    C = cdfs.F
    m = len(C)
    # E[max] = sum_k V_k (P_k - P_{k-1}) = P @ w with w_k = V_k - V_{k+1}, w_last = V_last
    w = np.empty(len(V))
    w[:-1] = V[:-1] - V[1:]
    w[-1] = V[-1]
    prod = np.ones(len(V))
    chosen: list[int] = []
    avail = np.ones(m, dtype=bool)
    for _ in range(K):
        vals = (C[avail] * prod) @ w
        idx = np.flatnonzero(avail)
        j = int(idx[np.argmax(vals)])
        chosen.append(j)
        avail[j] = False
        prod = prod * C[j]
    return SuperArm(chosen)


def count_matrix(observations):
    """(values, counts) for per-arm observation lists, laid out like ``Sdcb``'s arm state.

    ``values`` is the sorted set of every observed value plus 1.0;
    ``counts[i, k]`` is how often arm i observed ``values[k]``.
    """
    values = np.unique(np.concatenate([np.asarray(obs, dtype=float) for obs in observations] + [[1.0]]))
    counts = np.array([np.bincount(np.searchsorted(values, obs), minlength=len(values)) for obs in observations])
    return values, counts


def run_grid(pol, r: int = 0):
    """(values, counts) of run r of an ``Sdcb``, laid out as ``count_matrix`` lays them out.

    ``values`` is run r's grid columns where some arm's count steps up, plus 1.0;
    ``counts[i, k]`` is how often arm i observed ``values[k]``.
    """
    cum = pol.cum[r]
    steps = np.logical_or.reduce(cum[:, 1:] > cum[:, :-1], axis=0)
    steps[-1] = True
    return pol.grid_values[r, 1:][steps], np.diff(cum)[:, steps]


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


def random_arm_list(rng, kind, m):
    """m arm laws: finite, their CdfMatrix, continuous, or a mix of finite and continuous with at least one of each
    kind when m > 1."""
    if kind in ("finite", "matrix"):
        laws = [random_finite(rng, max_support=4) for _ in range(m)]
        return CdfMatrix.of(laws) if kind == "matrix" else laws
    if kind == "continuous":
        return [random_piecewise(rng) for _ in range(m)]
    continuous = rng.random(m) < 0.5
    first, *second = rng.permutation(m)[:2]
    continuous[first] = True
    continuous[second] = False
    return [random_piecewise(rng) if c else random_finite(rng, max_support=4) for c in continuous]

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


# One-run policies and run loop, as they were before runs were stepped in lockstep: each policy holds one
# run's state and ``reference_run_one`` plays one seed.  Lockstep batches are checked against them byte for byte.


def one_run_optimistic(values: np.ndarray, cum: np.ndarray, n: np.ndarray, radius: np.ndarray) -> CdfMatrix:
    low = cum / n[:, None]
    low -= radius[:, None]
    np.maximum(low, 0.0, out=low)
    low[:, -1] = 1.0
    # a column no arm has mass at repeats the column before it in every row; a > b is a - b > 0 for finite doubles
    keep = np.empty(len(values), dtype=bool)
    keep[0] = (low[:, 0] > 0.0).any()
    keep[1:] = (low[:, 1:] > low[:, :-1]).any(0)
    return CdfMatrix(values[keep], low[:, keep])


class OneRunPolicy:
    _round = 0  # the last round selected
    _open = False  # whether that round still awaits its observe

    def select(self, t: int) -> SuperArm:
        if self._open:
            raise ValueError("observe() for the previous round is missing")
        if t != self._round + 1:
            raise ValueError(f"expected round {self._round + 1}, got {t}")
        self._round, self._open = t, True
        return self._select(t)

    def observe(self, t: int, S: SuperArm, outcomes) -> None:
        if set(outcomes) != set(S.members):
            raise ValueError("outcomes must cover exactly the members of the played super arm")
        for arm, x in outcomes.items():
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"outcome {x!r} for arm {arm} outside [0, 1]")
        if not self._open or t != self._round:
            raise ValueError(f"observe({t}) does not follow select({t})")
        self._open = False
        self._observe(outcomes)


class OneRunSdcb(OneRunPolicy):
    def __init__(self, family, spec, oracle, outcome_bins: int | None = None):
        self.family = family
        self.spec = spec
        self.oracle = oracle
        self._restart(outcome_bins)

    def _restart(self, outcome_bins: int | None) -> None:
        self.outcome_bins = outcome_bins
        self._grid = [1.0]  # ``values`` as a list, bisected per outcome
        self.values = np.array(self._grid)
        self.cum = np.zeros((self.family.m, 1), dtype=np.int64)

    def _select(self, t: int) -> SuperArm:
        if t <= self.family.m:
            return self.family.smallest_containing(t - 1)
        n = self.cum[:, -1]  # every arm was observed in its initialization round
        return self.oracle(one_run_optimistic(self.values, self.cum, n, confidence_radius(t, n)))

    def _observe(self, outcomes) -> None:
        s, grid = self.outcome_bins, self._grid
        for arm, x in outcomes.items():
            v = float(x) if s is None else bin_value(x, s)
            k = bisect_left(grid, v)
            if grid[k] != v:  # a new value: rare once the grid has filled
                grid.insert(k, v)
                self.values = np.array(grid)
                self.cum = np.insert(self.cum, k, self.cum[:, k - 1] if k else 0, axis=1)
            self.cum[arm, k:] += 1


def _one_run_ceil_sqrt(T: int) -> int:
    return math.isqrt(T - 1) + 1


def one_run_lazy_sdcb_known_T(family, spec, oracle, T: int) -> OneRunSdcb:
    return OneRunSdcb(family, spec, oracle, outcome_bins=_one_run_ceil_sqrt(check_count(T, "horizon T")))


class OneRunLazySdcbDoubling(OneRunSdcb):
    def __init__(self, family, spec, oracle):
        end = 2 ** (family.m - 1).bit_length()
        super().__init__(family, spec, oracle, outcome_bins=_one_run_ceil_sqrt(end))
        self.epoch = (1, end)

    def _select(self, t: int) -> SuperArm:
        start, end = self.epoch
        if t > end:  # the next epoch doubles the covered range, binned for horizon `end`
            self._restart(_one_run_ceil_sqrt(end))
            start, end = self.epoch = (end + 1, 2 * end)
        return super()._select(t - start + 1)


class OneRunCucb(OneRunPolicy):
    def __init__(self, family, spec, oracle):
        self.family = family
        self.spec = spec
        self.oracle = oracle
        self.sums = np.zeros(family.m)
        self.counts = np.zeros(family.m, dtype=int)

    def _select(self, t: int) -> SuperArm:
        if t <= self.family.m:
            return self.family.smallest_containing(t - 1)
        mu = self.sums / self.counts
        ucb = np.minimum(mu + confidence_radius(t, self.counts), 1.0)
        values = np.unique(ucb)
        # the point mass at u has CDF 1 from u on
        return self.oracle(CdfMatrix(values, (ucb[:, None] <= values).astype(float)))

    def _observe(self, outcomes) -> None:
        for arm, x in outcomes.items():
            self.sums[arm] += x
            self.counts[arm] += 1


class OneRunOsm(OneRunPolicy):
    def __init__(self, family, T: int, rng: np.random.Generator):
        if family.kind != "cardinality":
            raise ValueError("this policy needs a cardinality constraint family")
        check_count(T, "horizon T")
        m = family.m
        self.family = family
        self.rng = rng
        self.gamma = 1.0 if m <= 1 else min(1.0, math.sqrt(m * math.log(m) / ((math.e - 1.0) * T)))
        self.weights = np.ones((family.K, m))
        self.last_draws: tuple[int, ...] = ()
        # each round's K uniforms as a (K, 1) column: the B rows of a random((B, K)) block are B random(K) calls
        self._uniforms = itertools.chain.from_iterable(map(rng.random, itertools.repeat((_DRAW_BLOCK, family.K, 1))))

    def probs(self) -> np.ndarray:
        W = self.weights
        P = W * (1.0 - self.gamma)
        P /= W.sum(1, keepdims=True)
        P += self.gamma / W.shape[1]
        return P

    def _select(self, t: int) -> SuperArm:
        self._probs = P = self.probs()
        # rng.choice(m, p=P[i]) per row: the same cumsum, division and
        # right-side search, on uniforms equal to K single draws
        C = np.cumsum(P, 1)
        C /= C[:, -1:]
        self.last_draws = tuple((C <= next(self._uniforms)).sum(1).tolist())
        return SuperArm(self.last_draws)

    def _observe(self, outcomes) -> None:
        W, P, gamma = self.weights, self._probs, self.gamma
        m = W.shape[1]
        running = 0.0
        for i, arm in enumerate(self.last_draws):
            gain = max(running, outcomes[arm]) - running
            W[i, arm] *= math.exp(gamma * (gain / P[i, arm]) / m)
            running += gain
        W /= W.max(1, keepdims=True)  # rescaling leaves probabilities unchanged
        np.maximum(W, 1e-300, out=W)  # keep strictly positive


def one_run_policy(name: str, oracle: str, family, spec, T: int, rng: np.random.Generator):
    """The one-run policy ``PolicyFactory(name, oracle)`` stood for, with the library's oracle handles."""
    if name == "osm":
        return OneRunOsm(family, T, rng)
    handle = _oracle_handle(oracle, family, spec, 0.25)
    if name == "sdcb":
        return OneRunSdcb(family, spec, handle)
    if name == "lazy-sdcb":
        return one_run_lazy_sdcb_known_T(family, spec, handle, T)
    if name == "lazy-sdcb-doubling":
        return OneRunLazySdcbDoubling(family, spec, handle)
    if name == "cucb":
        return OneRunCucb(family, spec, handle)
    raise ValueError(f"unknown policy {name!r}")


def reference_run_one(env, name: str, oracle: str, T: int, seed: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """(super arms, rewards) of one run, played by the one-run loop."""
    draws = [_draws(arm, substream(seed, ARM_STREAM, i)) for i, arm in enumerate(env.arms)]
    policy = one_run_policy(name, oracle, env.family, env.spec, T, substream(seed, POLICY_STREAM, 0))
    rewards = np.empty(T)
    played: list[tuple[int, ...]] = []
    for t in range(1, T + 1):
        S = policy.select(t)
        if not env.family.is_feasible(S):
            raise RuntimeError(f"policy played infeasible super arm {S!r} in round {t}")
        outcomes = {i: next(draws[i]) for i in S.members}
        policy.observe(t, S, outcomes)
        rewards[t - 1] = env.score(S)
        played.append(S.members)
    return played, rewards


class ReferenceMatrixOsm(OneRunOsm):
    """``Osm`` as it was before its uniforms came in blocks: one ``rng.random(K)`` per round, and the probabilities
    as one expression."""

    def probs(self) -> np.ndarray:
        W = self.weights
        return (1.0 - self.gamma) * W / W.sum(1, keepdims=True) + self.gamma / W.shape[1]

    def _select(self, t: int) -> SuperArm:
        self._probs = P = self.probs()
        C = np.cumsum(P, 1)
        C /= C[:, -1:]
        draws = (C <= self.rng.random(len(C))[:, None]).sum(1)
        self.last_draws = tuple(draws.tolist())
        return SuperArm(self.last_draws)

    def _observe(self, outcomes) -> None:
        W, P, gamma = self.weights, self._probs, self.gamma
        m = W.shape[1]
        running = 0.0
        for i, arm in enumerate(self.last_draws):
            gain = max(running, outcomes[arm]) - running
            W[i, arm] *= math.exp(gamma * (gain / P[i, arm]) / m)
            running += gain
        W /= W.max(1, keepdims=True)
        np.maximum(W, 1e-300, out=W)
