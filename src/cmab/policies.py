"""Online learning policies over combinatorial arm sets.

All policies share one interface: ``select(t)`` returns the super arm to
play in round t (rounds are 1-based), and ``observe(t, S, outcomes)``
feeds back the outcome of every member of S (semi-bandit feedback, as a
mapping arm -> value).  Rounds must alternate select/observe and advance
by exactly one.  An ``observe`` that rejects its outcomes changes nothing,
so a corrected retry of the same round is accepted.

Policies never see the true distributions or exact expected rewards;
their only inputs are the feasible family, the reward spec, an offline
oracle, and their own observations.  The oracle is called with m arm
laws: a list or a :class:`CdfMatrix`; SDCB and CUCB both pass a
:class:`CdfMatrix`.  OSM, the adversarial baseline, uses no oracle: its
K Exp3 instances are the rows of one weight matrix, drawn from with the
policy's own generator.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .distributions import CdfMatrix, bin_value, confidence_radius, dominant_cdfs
from .oracles import FeasibleFamily
from .rewards import RewardSpec, SuperArm


class _RoundClock:
    """Enforces the select/observe alternation contract."""

    __slots__ = ("t", "awaiting_observe")

    def __init__(self):
        self.t = 0
        self.awaiting_observe = False

    def on_select(self, t: int) -> None:
        if self.awaiting_observe:
            raise ValueError("observe() for the previous round is missing")
        if t != self.t + 1:
            raise ValueError(f"expected round {self.t + 1}, got {t}")
        self.t = t
        self.awaiting_observe = True

    def on_observe(self, t: int) -> None:
        if not self.awaiting_observe or t != self.t:
            raise ValueError(f"observe({t}) does not follow select({t})")
        self.awaiting_observe = False


def _check_outcomes(S: SuperArm, outcomes) -> None:
    if set(outcomes) != set(S.members):
        raise ValueError("outcomes must cover exactly the members of the played super arm")
    for arm, x in outcomes.items():
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"outcome {x!r} for arm {arm} outside [0, 1]")


class Sdcb:
    """Stochastically dominant confidence bound policy.

    Keeps one count matrix: ``counts[i, k]`` is how often arm i returned
    ``values[k]``, over the sorted grid ``values`` of every value observed
    so far plus 1.  The first m rounds initialize: round i plays the
    lexicographically smallest feasible super arm containing arm i - 1.
    Afterwards every arm's empirical CDF is shifted down by
    the confidence radius sqrt(3 ln t / 2 T_i) (mass relocated to 1) and
    the offline oracle is asked for the best super arm under that
    optimistic product law.

    With ``outcome_bins=s`` every observation is snapped to the right
    endpoint of its interval under the s-fold split of [0, 1] before
    storage, which keeps the grid at s points or fewer.
    """

    def __init__(self, family: FeasibleFamily, spec: RewardSpec, oracle, outcome_bins: int | None = None):
        self.family = family
        self.spec = spec
        self.oracle = oracle
        self.outcome_bins = outcome_bins
        self.values = np.array([1.0])
        self.counts = np.zeros((family.m, 1), dtype=np.int64)
        self._clock = _RoundClock()

    def select(self, t: int) -> SuperArm:
        self._clock.on_select(t)
        m = self.family.m
        if t <= m:
            return self.family.smallest_containing(t - 1)
        return self.oracle(dominant_cdfs(self.values, self.counts, t))

    def observe(self, t: int, S: SuperArm, outcomes) -> None:
        _check_outcomes(S, outcomes)
        self._clock.on_observe(t)
        s = self.outcome_bins
        for arm, x in outcomes.items():
            v = float(x) if s is None else bin_value(x, s)
            k = int(np.searchsorted(self.values, v))
            if self.values[k] != v:  # a new value: rare once the grid has filled
                self.values = np.insert(self.values, k, v)
                self.counts = np.insert(self.counts, k, 0, axis=1)
            self.counts[arm, k] += 1

    @property
    def pull_counts(self):
        return self.counts.sum(1).tolist()


def lazy_sdcb_known_T(family: FeasibleFamily, spec: RewardSpec, oracle, T: int) -> Sdcb:
    """SDCB over outcomes binned to the grid {1/s, ..., 1}, s = ceil(sqrt(T))."""
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    s = math.isqrt(T)
    if s * s < T:
        s += 1
    return Sdcb(family, spec, oracle, outcome_bins=s)


class LazySdcbDoubling:
    """Horizon-free variant: restart the known-horizon policy on doubling epochs.

    The first epoch spans rounds 1..2^q with horizon 2^q, q = ceil(log2 m);
    epoch k >= q spans rounds 2^k + 1 .. 2^(k+1) with horizon 2^k.  Each
    epoch runs a fresh instance with its own initialization rounds and
    epoch-local round indices, which also set its confidence radius.
    """

    def __init__(self, family: FeasibleFamily, spec: RewardSpec, oracle):
        self.family = family
        self.spec = spec
        self.oracle = oracle
        q = (family.m - 1).bit_length()
        self._epoch_start = 1
        self._epoch_end = 2**q
        self._inner = lazy_sdcb_known_T(family, spec, oracle, self._epoch_end)
        self._clock = _RoundClock()

    def _advance_epoch(self) -> None:
        horizon = self._epoch_end  # next epoch doubles the covered range
        self._epoch_start = self._epoch_end + 1
        self._epoch_end = 2 * self._epoch_end
        self._inner = lazy_sdcb_known_T(self.family, self.spec, self.oracle, horizon)

    def select(self, t: int) -> SuperArm:
        self._clock.on_select(t)
        if t > self._epoch_end:
            self._advance_epoch()
        return self._inner.select(t - self._epoch_start + 1)

    def observe(self, t: int, S: SuperArm, outcomes) -> None:
        _check_outcomes(S, outcomes)
        self._clock.on_observe(t)
        self._inner.observe(t - self._epoch_start + 1, S, outcomes)

    @property
    def epoch(self) -> tuple[int, int]:
        return self._epoch_start, self._epoch_end


class Cucb:
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
        self._clock = _RoundClock()

    def select(self, t: int) -> SuperArm:
        self._clock.on_select(t)
        if t <= self.family.m:
            return self.family.smallest_containing(t - 1)
        mu = self.sums / self.counts
        ucb = np.minimum(mu + confidence_radius(t, self.counts), 1.0)
        values = np.unique(ucb)
        # the point mass at u has CDF 1 from u on
        return self.oracle(CdfMatrix(values, (ucb[:, None] <= values).astype(float)))

    def observe(self, t: int, S: SuperArm, outcomes) -> None:
        _check_outcomes(S, outcomes)
        self._clock.on_observe(t)
        for arm, x in outcomes.items():
            self.sums[arm] += x
            self.counts[arm] += 1

    @property
    def pull_counts(self):
        return self.counts.tolist()


class Osm:
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
        if isinstance(T, bool) or not isinstance(T, numbers.Integral) or T < 1:
            raise ValueError("horizon T must be >= 1")
        m = family.m
        self.family = family
        self.rng = rng
        self.gamma = 1.0 if m <= 1 else min(1.0, math.sqrt(m * math.log(m) / ((math.e - 1.0) * T)))
        self.weights = np.ones((family.K, m))
        self.last_draws: tuple[int, ...] = ()
        self._clock = _RoundClock()

    def probs(self) -> np.ndarray:
        """Each instance's exploration-mixed draw probabilities, one row per instance."""
        W = self.weights
        return (1.0 - self.gamma) * W / W.sum(1, keepdims=True) + self.gamma / W.shape[1]

    def select(self, t: int) -> SuperArm:
        self._clock.on_select(t)
        self._probs = P = self.probs()
        # rng.choice(m, p=P[i]) per row: the same cumsum, division and
        # right-side search, on a block of uniforms equal to K single draws
        C = np.cumsum(P, 1)
        C /= C[:, -1:]
        draws = (C <= self.rng.random(len(C))[:, None]).sum(1)
        self.last_draws = tuple(draws.tolist())
        return SuperArm(self.last_draws)

    def observe(self, t: int, S: SuperArm, outcomes) -> None:
        _check_outcomes(S, outcomes)
        self._clock.on_observe(t)
        W, P, gamma = self.weights, self._probs, self.gamma
        m = W.shape[1]
        running = 0.0
        for i, arm in enumerate(self.last_draws):
            gain = max(running, outcomes[arm]) - running
            W[i, arm] *= math.exp(gamma * (gain / P[i, arm]) / m)
            running += gain
        W /= W.max(1, keepdims=True)  # rescaling leaves probabilities unchanged
        np.maximum(W, 1e-300, out=W)  # keep strictly positive
