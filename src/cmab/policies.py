"""Online learning policies over combinatorial arm sets.

Every policy keeps one round contract, owned by a private base class:
``select(t)`` opens round t (rounds are 1-based and advance by exactly
one) and returns the super arm to play, and ``observe(t, S, outcomes)``
checks the outcome of every member of S (semi-bandit feedback, as a
mapping arm -> value in [0, 1]) and then closes the round.  Rounds must
alternate select/observe.  An ``observe`` that rejects its outcomes
changes nothing, so a corrected retry of the same round is accepted.
A policy itself implements only ``_select(t)`` and ``_observe(outcomes)``.

Policies never see the true distributions or exact expected rewards;
their only inputs are the feasible family, the reward spec, an offline
oracle, and their own observations.  The oracle is called with m arm
laws: a list or a :class:`CdfMatrix`; SDCB and CUCB both pass a
:class:`CdfMatrix`.  Lazy SDCB is SDCB on binned outcomes; its
horizon-free variant is an ``Sdcb`` that restarts its own counts on
doubling epochs.  OSM, the adversarial baseline, uses no oracle: its
K Exp3 instances are the rows of one weight matrix, drawn from with the
policy's own generator.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left

import numpy as np

from .distributions import _DRAW_BLOCK, CdfMatrix, _optimistic, bin_value, confidence_radius
from .errors import check_count
from .oracles import FeasibleFamily
from .rewards import RewardSpec, SuperArm


class _Policy:
    """The round contract; a subclass implements ``_select(t)`` and ``_observe(outcomes)``."""

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


class Sdcb(_Policy):
    """Stochastically dominant confidence bound policy.

    Keeps one cumulative count matrix: ``cum[i, k]`` is how often arm i
    returned a value at or below ``values[k]``, over the sorted grid of
    every value observed so far plus 1; ``counts`` reads the per-value
    counts off it.  The first m rounds initialize: round i plays the
    lexicographically smallest feasible super arm containing arm i - 1.
    Afterwards every arm's empirical CDF ``cum[i] / cum[i, -1]`` is shifted
    down by the confidence radius sqrt(3 ln t / 2 T_i) (mass relocated to
    1), and the offline oracle is asked for the best super arm under that
    optimistic product law, built by :func:`dominant_cdfs`'s kernel.

    With ``outcome_bins=s`` every observation is snapped to the right
    endpoint of its interval under the s-fold split of [0, 1] before
    storage, which keeps the grid at s points or fewer.
    """

    def __init__(self, family: FeasibleFamily, spec: RewardSpec, oracle, outcome_bins: int | None = None):
        self.family = family
        self.spec = spec
        self.oracle = oracle
        self._restart(outcome_bins)

    def _restart(self, outcome_bins: int | None) -> None:
        """Forget every observation; later ones are binned into ``outcome_bins`` intervals."""
        self.outcome_bins = outcome_bins
        self._grid = [1.0]  # ``values`` as a list, bisected per outcome
        self.values = np.array(self._grid)
        self.cum = np.zeros((self.family.m, 1), dtype=np.int64)

    def _select(self, t: int) -> SuperArm:
        if t <= self.family.m:
            return self.family.smallest_containing(t - 1)
        n = self.cum[:, -1]  # every arm was observed in its initialization round
        return self.oracle(_optimistic(self.values, self.cum, n, confidence_radius(t, n)))

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

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.cum, prepend=0)

    @property
    def pull_counts(self):
        return self.cum[:, -1].tolist()


def _ceil_sqrt(T: int) -> int:
    """ceil(sqrt(T)) for an integer T >= 1, in exact integer arithmetic."""
    return math.isqrt(T - 1) + 1


def lazy_sdcb_known_T(family: FeasibleFamily, spec: RewardSpec, oracle, T: int) -> Sdcb:
    """SDCB over outcomes binned to the grid {1/s, ..., 1}, s = ceil(sqrt(T))."""
    return Sdcb(family, spec, oracle, outcome_bins=_ceil_sqrt(check_count(T, "horizon T")))


class LazySdcbDoubling(Sdcb):
    """Horizon-free variant: lazy SDCB restarted on doubling epochs.

    ``epoch`` is the current epoch's first and last round.  The first epoch
    spans rounds 1..2^q with horizon 2^q, q = ceil(log2 m); epoch k >= q
    spans rounds 2^k + 1 .. 2^(k+1) with horizon 2^k.  Each epoch starts
    from empty counts binned for its horizon, replays the initialization
    rounds, and runs on epoch-local round indices, which also set its
    confidence radius; ``pull_counts`` covers the current epoch only.
    """

    def __init__(self, family: FeasibleFamily, spec: RewardSpec, oracle):
        end = 2 ** (family.m - 1).bit_length()
        super().__init__(family, spec, oracle, outcome_bins=_ceil_sqrt(end))
        self.epoch = (1, end)

    def _select(self, t: int) -> SuperArm:
        start, end = self.epoch
        if t > end:  # the next epoch doubles the covered range, binned for horizon `end`
            self._restart(_ceil_sqrt(end))
            start, end = self.epoch = (end + 1, 2 * end)
        return super()._select(t - start + 1)


class Cucb(_Policy):
    """Mean-based UCB baseline.

    Tracks per-arm running means; after initialization it clamps
    mu_hat + sqrt(3 ln t / 2 T_i) at 1 and feeds point masses at those
    upper bounds, as a CDF matrix, to the same distribution oracle the
    other policies use.
    For max-type rewards this is a deliberate mis-specification (the mean
    carries no tail information), which is exactly the ablation it
    exists to demonstrate.
    """

    def __init__(self, family: FeasibleFamily, spec: RewardSpec, oracle):
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

    @property
    def pull_counts(self):
        return self.counts.tolist()


class Osm(_Policy):
    """Online greedy submodular maximization on adversarial-bandit instances.

    Runs K Exp3 instances, one row each of the ``(K, m)`` weight matrix
    ``weights``, with the exploration rate ``gamma`` =
    min{1, sqrt(m ln m / ((e - 1) T))}.  Each round draws one arm from
    every instance (duplicates allowed) and plays the union.  After
    observing outcomes, instance i receives the marginal gain of its draw
    in draw order: f(first i draws) - f(first i-1 draws), where f of a set
    is the maximum observed outcome in it, and raises that draw's weight
    by exp(gamma * gain / (p m)).
    """

    def __init__(self, family: FeasibleFamily, T: int, rng: np.random.Generator):
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
        """Each instance's exploration-mixed draw probabilities, one row per instance."""
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
