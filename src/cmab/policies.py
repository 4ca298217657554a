"""Online learning policies over combinatorial arm sets, stepping a batch of runs in lockstep.

A policy plays R independent runs at once (R = 1 by default): its state
is held in arrays with a leading run axis, and every round is one call
for all runs.  Every policy keeps one round contract, owned by a private
base class: ``select_batch(t)`` opens round t for every run (rounds are
1-based and advance by exactly one) and returns each run's super arm,
and ``observe_batch(t, arms, outcomes)`` checks every run's outcomes
(semi-bandit feedback: one mapping arm -> value in [0, 1] per run,
covering exactly the members of that run's super arm) and only then
closes the round.  Rounds must alternate select/observe.  An observe
that rejects any run's outcomes changes no run, so a corrected retry of
the same round is accepted.  ``select(t)`` and ``observe(t, S,
outcomes)`` are the same calls for a one-run policy.  A policy itself
implements only ``_select(t)`` and ``_observe(outcomes)``.

Policies never see the true distributions or exact expected rewards;
their only inputs are the feasible family, the reward spec, an offline
oracle, and their own observations.  The oracle is called once per run
with m arm laws: a list or a :class:`CdfMatrix`; SDCB and CUCB both pass
a :class:`CdfMatrix`.  Lazy SDCB is SDCB on binned outcomes; its
horizon-free variant is an ``Sdcb`` that restarts its own counts on
doubling epochs.  OSM, the adversarial baseline, uses no oracle: its
K Exp3 instances per run are the rows of one weight matrix, drawn from
with the run's own generator.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left

import numpy as np

from .distributions import _DRAW_BLOCK, CdfMatrix, _optimistic, _sorted_unique, bin_index, confidence_radius
from .errors import check_count
from .oracles import FeasibleFamily
from .rewards import RewardSpec, SuperArm


class _Policy:
    """The round contract over ``runs`` runs; a subclass implements ``_select(t)`` and ``_observe(outcomes)``."""

    _round = 0  # the last round selected
    _open = False  # whether that round still awaits its observe

    def __init__(self, runs: int):
        self.runs = check_count(runs, "runs")

    def select_batch(self, t: int) -> list[SuperArm]:
        if self._open:
            raise ValueError("observe() for the previous round is missing")
        if t != self._round + 1:
            raise ValueError(f"expected round {self._round + 1}, got {t}")
        self._round, self._open = t, True
        return self._select(t)

    def observe_batch(self, t: int, arms, outcomes) -> None:
        if len(arms) != self.runs or len(outcomes) != self.runs:
            raise ValueError(f"expected {self.runs} super arms and outcome maps, got {len(arms)} and {len(outcomes)}")
        for S, run_outcomes in zip(arms, outcomes):
            if run_outcomes.keys() != set(S.members):
                raise ValueError("outcomes must cover exactly the members of the played super arm")
            for arm, x in run_outcomes.items():
                if not 0.0 <= x <= 1.0:
                    raise ValueError(f"outcome {x!r} for arm {arm} outside [0, 1]")
        if not self._open or t != self._round:
            raise ValueError(f"observe({t}) does not follow select({t})")
        self._open = False
        self._observe(outcomes)

    def _one_run(self) -> None:
        if self.runs != 1:
            raise ValueError(f"a one-run call on a policy that steps {self.runs} runs")

    def select(self, t: int) -> SuperArm:
        """``select_batch`` of a one-run policy: its one super arm."""
        self._one_run()
        return self.select_batch(t)[0]

    def observe(self, t: int, S: SuperArm, outcomes) -> None:
        """``observe_batch`` of a one-run policy, on its one super arm and outcome map."""
        self._one_run()
        self.observe_batch(t, (S,), (outcomes,))


class Sdcb(_Policy):
    """Stochastically dominant confidence bound policy.

    Keeps one cumulative count array: ``cum[r, i, k]`` is how often arm i
    of run r returned a value at or below that run's k-th grid value.  An
    unbinned run's grid is the sorted list of every value it observed so
    far plus 1; the grids are right-aligned in ``cum`` and in ``grid_values``,
    with at least one column of zero counts left of the longest, so a
    run's cumulative counts start from 0 at the column before its grid.
    The first m rounds initialize: round i plays the lexicographically
    smallest feasible super arm containing arm i - 1.  Afterwards every
    arm's empirical CDF ``cum[r, i] / cum[r, i, -1]`` is shifted down by
    the confidence radius sqrt(3 ln t / 2 T_i) (mass relocated to 1), and
    the offline oracle is asked, once per run, for the best super arm
    under that optimistic product law, built by :func:`dominant_cdfs`'s
    kernel.  Arm i of run r has been pulled ``cum[r, i, -1]`` times.

    With ``outcome_bins=s`` every observation is snapped to the right
    endpoint of its interval under the s-fold split of [0, 1] before
    storage.  A binned run's grid holds every bin, preallocated: column j
    of ``cum`` and ``grid_values`` is bin j's right end j / s, column 0
    the zero column, so an outcome in bin j adds 1 from column j on.  A
    bin nobody observed repeats its left neighbour, and the kernel drops
    it as it drops the columns left of an unbinned grid.
    """

    def __init__(
        self, family: FeasibleFamily, spec: RewardSpec, oracle, outcome_bins: int | None = None, runs: int = 1
    ):
        super().__init__(runs)
        self.family = family
        self.spec = spec
        self.oracle = oracle
        self._restart(outcome_bins)

    def _restart(self, outcome_bins: int | None) -> None:
        """Forget every run's observations; later ones are binned into ``outcome_bins`` intervals."""
        self.outcome_bins = s = outcome_bins
        R = self.runs
        if s is None:
            self._grids = [[1.0] for _ in range(R)]  # each run's grid as a list, bisected per outcome
            self.grid_values = np.ones((R, 2))  # column 0 is padding
        else:  # the bits bin_value gives, j / s at column j
            self.grid_values = np.broadcast_to(np.arange(s + 1) / s, (R, s + 1))
        self.cum = np.zeros((R, self.family.m, self.grid_values.shape[1]), dtype=np.int64)

    def _select(self, t: int) -> list[SuperArm]:
        if t <= self.family.m:
            return [self.family.smallest_containing(t - 1)] * self.runs
        n = self.cum[..., -1]  # every arm was observed in its initialization round
        return list(map(self.oracle, _optimistic(self.grid_values, self.cum, n, confidence_radius(t, n))))

    def _observe(self, outcomes) -> None:
        s = self.outcome_bins
        if s is not None:
            for cum, run_outcomes in zip(self.cum, outcomes):
                for arm, x in run_outcomes.items():
                    cum[arm, bin_index(x, s) :] += 1
            return
        for r, run_outcomes in enumerate(outcomes):
            grid, cum = self._grids[r], self.cum[r]
            for arm, x in run_outcomes.items():
                k = bisect_left(grid, v := float(x))
                if grid[k] != v:  # a new value: rare once the grid has filled
                    self._insert(r, k, v)
                    cum = self.cum[r]
                cum[arm, k - len(grid) :] += 1

    def _insert(self, r: int, k: int, v: float) -> None:
        """Insert ``v`` at index k of run r's grid, with the cumulative counts of its left neighbour."""
        grid = self._grids[r]
        grid.insert(k, v)
        cum, vals = self.cum, self.grid_values
        if len(grid) == cum.shape[-1]:  # run r reached the padding column: every run gets one more
            self.cum = cum = np.concatenate((np.zeros_like(cum[..., :1]), cum), axis=-1)
            self.grid_values = vals = np.concatenate((vals[:, :1], vals), axis=1)
        # the grid's first k columns move one left; its old column k - 1 (or the zeros left of the grid) stays
        # behind as the new value's, which holds the counts at or below its left neighbour
        start = cum.shape[-1] - len(grid)
        cum[r, :, start : start + k] = cum[r, :, start + 1 : start + k + 1]
        vals[r, start : start + k] = vals[r, start + 1 : start + k + 1]
        vals[r, start + k] = v


def _ceil_sqrt(T: int) -> int:
    """ceil(sqrt(T)) for an integer T >= 1, in exact integer arithmetic."""
    return math.isqrt(T - 1) + 1


def lazy_sdcb_known_T(family: FeasibleFamily, spec: RewardSpec, oracle, T: int, runs: int = 1) -> Sdcb:
    """SDCB over outcomes binned to the grid {1/s, ..., 1}, s = ceil(sqrt(T))."""
    return Sdcb(family, spec, oracle, outcome_bins=_ceil_sqrt(check_count(T, "horizon T")), runs=runs)


class LazySdcbDoubling(Sdcb):
    """Horizon-free variant: lazy SDCB restarted on doubling epochs.

    ``epoch`` is the current epoch's first and last round.  The first epoch
    spans rounds 1..2^q with horizon 2^q, q = ceil(log2 m); epoch k >= q
    spans rounds 2^k + 1 .. 2^(k+1) with horizon 2^k.  Each epoch starts
    from empty counts binned for its horizon, replays the initialization
    rounds, and runs on epoch-local round indices, which also set its
    confidence radius; ``cum`` covers the current epoch only.
    The epochs depend on t alone, so every run of a batch restarts at once.
    """

    def __init__(self, family: FeasibleFamily, spec: RewardSpec, oracle, runs: int = 1):
        end = 2 ** (family.m - 1).bit_length()
        super().__init__(family, spec, oracle, outcome_bins=_ceil_sqrt(end), runs=runs)
        self.epoch = (1, end)

    def _select(self, t: int) -> list[SuperArm]:
        start, end = self.epoch
        if t > end:  # the next epoch doubles the covered range, binned for horizon `end`
            self._restart(_ceil_sqrt(end))
            start, end = self.epoch = (end + 1, 2 * end)
        return super()._select(t - start + 1)


class Cucb(_Policy):
    """Mean-based UCB baseline.

    Tracks per-arm running means, one row of ``sums`` and ``counts`` per
    run; after initialization it clamps mu_hat + sqrt(3 ln t / 2 T_i) at 1
    and feeds point masses at those upper bounds, as a CDF matrix, to the
    same distribution oracle the other policies use.
    For max-type rewards this is a deliberate mis-specification (the mean
    carries no tail information), which is exactly the ablation it
    exists to demonstrate.
    """

    def __init__(self, family: FeasibleFamily, spec: RewardSpec, oracle, runs: int = 1):
        super().__init__(runs)
        self.family = family
        self.spec = spec
        self.oracle = oracle
        self.sums = np.zeros((runs, family.m))
        self.counts = np.zeros((runs, family.m), dtype=int)

    def _select(self, t: int) -> list[SuperArm]:
        if t <= self.family.m:
            return [self.family.smallest_containing(t - 1)] * self.runs
        mu = self.sums / self.counts
        ucb = np.minimum(mu + confidence_radius(t, self.counts), 1.0)
        arms = []
        for u in ucb:
            values = _sorted_unique(u)
            # the point mass at u has CDF 1 from u on
            arms.append(self.oracle(CdfMatrix(values, (u[:, None] <= values).astype(float))))
        return arms

    def _observe(self, outcomes) -> None:
        sums, counts = self.sums, self.counts
        for r, run_outcomes in enumerate(outcomes):
            for arm, x in run_outcomes.items():
                sums[r, arm] += x
                counts[r, arm] += 1


def _uniform_block(rngs, K: int) -> np.ndarray:
    """The next ``_DRAW_BLOCK`` rounds' uniforms, ``(B, R K, 1)``: every run's ``random((B, K, 1))`` block, side by side.

    The B rows of a run's block are that run's next B ``random(K)`` calls.
    """
    return np.concatenate([rng.random((_DRAW_BLOCK, K, 1)) for rng in rngs], axis=1)


class Osm(_Policy):
    """Online greedy submodular maximization on adversarial-bandit instances.

    Runs K Exp3 instances per run, one row each of the ``(R K, m)``
    weight matrix ``weights`` (run r's are rows r K .. r K + K - 1), with
    the exploration rate ``gamma`` = min{1, sqrt(m ln m / ((e - 1) T))}.
    Each round draws one arm from every instance (duplicates allowed) and
    plays each run's union.  After observing outcomes, instance i of a run
    receives the marginal gain of its draw in draw order: f(first i draws)
    - f(first i-1 draws), where f of a set is the maximum observed outcome
    in it, and raises that draw's weight by exp(gamma * gain / (p m)).
    Run r draws with ``rngs[r]``: ``Osm(family, T, rng)`` is one run, with
    the ``(K, m)`` matrix of one run.
    """

    def __init__(self, family: FeasibleFamily, T: int, *rngs: np.random.Generator):
        super().__init__(len(rngs))
        if family.kind != "cardinality":
            raise ValueError("this policy needs a cardinality constraint family")
        check_count(T, "horizon T")
        m = family.m
        self.family = family
        self.gamma = 1.0 if m <= 1 else min(1.0, math.sqrt(m * math.log(m) / ((math.e - 1.0) * T)))
        self.weights = np.ones((len(rngs) * family.K, m))
        self.last_draws: list[list[int]] = []
        # each round's (R K, 1) uniforms, a row of one block
        self._uniforms = itertools.chain.from_iterable(map(_uniform_block, itertools.repeat(rngs), itertools.repeat(family.K)))

    def probs(self) -> np.ndarray:
        """Each instance's exploration-mixed draw probabilities, one row per instance."""
        W = self.weights
        P = W * (1.0 - self.gamma)
        P /= W.sum(1, keepdims=True)
        P += self.gamma / W.shape[1]
        return P

    def _select(self, t: int) -> list[SuperArm]:
        self._probs = P = self.probs()
        # rng.choice(m, p=P[i]) per row: the same cumsum, division and
        # right-side search, on uniforms equal to K single draws per run
        C = np.cumsum(P, 1)
        C /= C[:, -1:]
        self.last_draws = (C <= next(self._uniforms)).sum(1).reshape(self.runs, -1).tolist()  # each run's K draws
        return list(map(SuperArm, self.last_draws))

    def _observe(self, outcomes) -> None:
        W, P, gamma = self.weights, self._probs, self.gamma
        m = W.shape[1]
        row = 0
        for draws, run_outcomes in zip(self.last_draws, outcomes):
            running = 0.0
            for arm in draws:
                gain = max(running, run_outcomes[arm]) - running
                W[row, arm] *= math.exp(gamma * (gain / P[row, arm]) / m)
                running += gain
                row += 1
        W /= W.max(1, keepdims=True)  # rescaling leaves probabilities unchanged
        np.maximum(W, 1e-300, out=W)  # keep strictly positive
