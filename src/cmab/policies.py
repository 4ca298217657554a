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
the same round is accepted.  The harness hands its own draws, taken
from checked laws for the played super arms, to ``_observe_drawn(t,
outcomes)``, which keeps only the round-state check; ``observe_batch``
checks the outcomes and then calls it.  ``select(t)`` and ``observe(t, S,
outcomes)`` are the same calls for a one-run policy.  A policy itself
implements only ``_select(t)`` and ``_observe(outcomes)``.

Policies never see the true distributions or exact expected rewards;
their only inputs are the feasible family, the reward spec, an offline
oracle, and their own observations.  An oracle is called once per run
with m arm laws, a list or a :class:`CdfMatrix`, and CUCB passes a
:class:`CdfMatrix`.  So does SDCB, unless the oracle has a private batch
entry ``_batch(values, low, keep)``, as the greedy handle does: then SDCB
makes one call a round with its kernel's arrays for every run.  Lazy SDCB
is SDCB on binned outcomes; its horizon-free variant is an ``Sdcb`` that
restarts its own counts on doubling epochs.  OSM, the adversarial baseline, uses no oracle: its
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
        self._observe_drawn(t, outcomes)

    def _observe_drawn(self, t: int, outcomes) -> None:
        """``observe_batch`` of outcomes known to fit the round's super arms: the harness's draws from checked laws.

        Only the round-state check runs, and it runs before any run changes.
        """
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

    Keeps one count array: ``counts[r, i, k]`` is how often arm i of run r
    returned that run's k-th grid value.  An unbinned run's grid is the
    sorted list of every value it observed so far plus 1; the grids are
    right-aligned in ``counts`` and in ``grid_values``, with at least one
    column of zero counts left of the longest.  The zero columns double in
    number when a grid reaches the last, and ``_select`` reads only the
    longest grid's columns and one zero column.  The first m rounds
    initialize: round i plays the lexicographically smallest feasible super
    arm containing arm i - 1.  Afterwards each round cumulates the counts
    once into every arm's empirical CDF, shifts it down by the confidence
    radius sqrt(3 ln t / 2 T_i) (mass relocated to 1), and asks the offline
    oracle for every run's best super arm under that optimistic product
    law, built by :func:`dominant_cdfs`'s kernel: in one call with the
    kernel's arrays if the oracle has a ``_batch`` entry, else once per run
    with the run's :class:`CdfMatrix`.  Arm i of run r has been pulled
    ``counts[r, i].sum()`` times.

    With ``outcome_bins=s`` every observation is snapped to the right
    endpoint of its interval under the s-fold split of [0, 1] before
    storage.  A binned run's grid holds every bin, preallocated: column j
    of ``counts`` and ``grid_values`` is bin j's right end j / s, column 0
    the zero column, so an outcome in bin j adds 1 at column j.  A bin
    nobody observed has no count, and the kernel drops it as it drops the
    columns left of an unbinned grid.
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
            self._live = 2  # the longest grid and one zero column, the columns _select reads
            self.grid_values = np.ones((R, 2))  # column 0 is padding
        else:  # the bits bin_value gives, j / s at column j
            self.grid_values = np.broadcast_to(np.arange(s + 1) / s, (R, s + 1))
        self.counts = np.zeros((R, self.family.m, self.grid_values.shape[1]), dtype=np.int64)

    def _select(self, t: int) -> list[SuperArm]:
        if t <= self.family.m:
            return [self.family.smallest_containing(t - 1)] * self.runs
        counts, values = self.counts, self.grid_values
        if self.outcome_bins is None:
            counts, values = counts[..., -self._live :], values[:, -self._live :]
        # every partial sum is an integer below 2^53, so exact in floats
        cum = counts.cumsum(-1, dtype=float)
        n = cum[..., -1].copy()  # every arm was observed in its initialization round
        low, keep = _optimistic(cum, n, confidence_radius(t, n))
        batch = getattr(self.oracle, "_batch", None)
        if batch is not None:
            return batch(values, low, keep)
        return [self.oracle(CdfMatrix(v[k], F[:, k])) for v, F, k in zip(values, low, keep)]

    def _observe(self, outcomes) -> None:
        s = self.outcome_bins
        if s is not None:
            for counts, run_outcomes in zip(self.counts, outcomes):
                for arm, x in run_outcomes.items():
                    counts[arm, bin_index(x, s)] += 1
            return
        for r, run_outcomes in enumerate(outcomes):
            grid, counts = self._grids[r], self.counts[r]
            for arm, x in run_outcomes.items():
                k = bisect_left(grid, v := float(x))
                if grid[k] != v:  # a new value: rare once the grid has filled
                    self._insert(r, k, v)
                    counts = self.counts[r]
                counts[arm, k - len(grid)] += 1

    def _insert(self, r: int, k: int, v: float) -> None:
        """Insert ``v`` at index k of run r's grid, with zero counts."""
        grid = self._grids[r]
        grid.insert(k, v)
        counts, vals = self.counts, self.grid_values
        self._live = max(self._live, len(grid) + 1)
        if self._live > counts.shape[-1]:  # run r reached the last zero column: every run's width doubles
            self.counts = counts = np.concatenate((np.zeros_like(counts), counts), axis=-1)
            self.grid_values = vals = np.concatenate((np.zeros_like(vals), vals), axis=1)
        # the grid's first k columns move one left, onto the zero column left of the grid, and free column k
        start = counts.shape[-1] - len(grid)
        counts[r, :, start : start + k] = counts[r, :, start + 1 : start + k + 1]
        counts[r, :, start + k] = 0
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
    confidence radius; ``counts`` covers the current epoch only.
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
        P /= np.add.reduce(W, 1, keepdims=True)
        P += self.gamma / W.shape[1]
        return P

    def _select(self, t: int) -> list[SuperArm]:
        self._probs = P = self.probs()
        # rng.choice(m, p=P[i]) per row: the same cumsum, division and
        # right-side search, on uniforms equal to K single draws per run
        C = P.cumsum(1)
        C /= C[:, -1:]
        self.last_draws = np.add.reduce(C <= next(self._uniforms), 1).reshape(self.runs, -1).tolist()  # each run's K draws
        return [SuperArm._trusted(tuple(sorted(set(draws)))) for draws in self.last_draws]

    def _observe(self, outcomes) -> None:
        W, gamma = self.weights, self.gamma
        P = self._probs.tolist()
        m = W.shape[1]
        row = 0
        for draws, run_outcomes in zip(self.last_draws, outcomes):
            running = 0.0
            for arm in draws:
                gain = max(running, run_outcomes[arm]) - running
                W[row, arm] *= math.exp(gamma * (gain / P[row][arm]) / m)
                running += gain
                row += 1
        W /= np.maximum.reduce(W, 1, keepdims=True)  # rescaling leaves probabilities unchanged
        np.maximum(W, 1e-300, out=W)  # keep strictly positive
