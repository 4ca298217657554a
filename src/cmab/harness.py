"""Experiment harness: environments, regret accounting, batch runs, CSV.

An :class:`Environment` bundles the true arm distributions, the feasible
family, and the reward spec, and caches its exact optimum.  Regret is
accounted in expectation: each round records the exact expected reward of
the played super arm, so traces are deterministic functions of the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .distributions import Distribution, PiecewiseDensity, _draws, make_finite
from .errors import check_count, check_real
from .oracles import FeasibleFamily, _Greedy, check_epsilon, exhaustive_oracle, ptas_kmax
from .policies import Cucb, LazySdcbDoubling, Osm, Sdcb, lazy_sdcb_known_T
from .rewards import RewardSpec, SuperArm, _laws, expected_reward, kmax_spec
from .rng import ARM_STREAM, POLICY_STREAM, run_seed, substream

POLICIES = ("sdcb", "lazy-sdcb", "lazy-sdcb-doubling", "cucb", "osm")
ORACLES = ("exhaustive", "greedy", "ptas")


class Environment:
    """A bandit instance: arms, feasible family, reward spec, cached optimum."""

    def __init__(self, arms: Sequence[Distribution], family: FeasibleFamily, spec: RewardSpec, name: str = ""):
        if family.m != len(arms):
            raise ValueError(f"family expects {family.m} arms, got {len(arms)}")
        self.arms = list(arms)
        self.family = family
        self.spec = spec
        self.name = name
        self._scores: dict[tuple[int, ...], float] = {}
        self._laws = _laws(self.arms, spec)  # the list's one input for its reward, built here once
        self.optimal_arm = exhaustive_oracle(self._laws, family, spec)
        self.optimal_value = self.score(self.optimal_arm)

    def score(self, S: SuperArm) -> float:
        """Exact expected reward of S, cached per member set."""
        key = S.members
        v = self._scores.get(key)
        if v is None:
            v = expected_reward(self._laws, S, self.spec)
            self._scores[key] = v
        return v

    def __repr__(self):
        label = self.name or f"{self.family.m} arms"
        return f"Environment({label}, optimum={self.optimal_arm!r})"


@dataclass
class RegretTrace:
    """Per-round expected rewards and cumulative regret of one run (or average)."""

    rewards: np.ndarray
    cum_regret: np.ndarray
    super_arms: list[tuple[int, ...]] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return len(self.rewards)


def _check_name(value, names: tuple, what: str) -> None:
    if value not in names:
        raise ValueError(f"unknown {what} {value!r}; choose from {', '.join(names)}")


def _check_alpha(alpha) -> None:
    """The approximation level of the regret column: a finite real number in (0, 1]."""
    if not 0.0 < check_real(alpha, "alpha") <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")


def _oracle_handle(kind: str, family: FeasibleFamily, spec: RewardSpec, epsilon: float) -> Callable:
    """The oracle named ``kind``, its name and ``epsilon`` checked whichever oracle it is."""
    _check_name(kind, ORACLES, "oracle")
    check_epsilon(epsilon)
    if kind == "exhaustive":
        return partial(exhaustive_oracle, family=family, spec=spec)
    if family.kind != "cardinality" or spec.kind != "kmax":
        raise ValueError(f"the {kind} oracle needs a cardinality family and the kmax reward")
    if kind == "greedy":
        return _Greedy(family.K, family.m)
    return partial(ptas_kmax, K=family.K, eps=epsilon)


@dataclass(frozen=True)
class PolicyFactory:
    """Builds one fresh policy per batch of runs, from the batch's policy generators; picklable for parallel runs.

    ``factory(family, spec, T, rngs)`` returns a policy stepping ``len(rngs)`` runs, run r drawing from
    ``rngs[r]``: it has ``select_batch(t)`` and ``observe_batch(t, arms, outcomes)``.  The policy name, the
    oracle name and ``epsilon`` are checked at construction, whichever policy and oracle run.
    """

    policy: str
    oracle: str = "exhaustive"
    epsilon: float = 0.25

    def __post_init__(self):
        _check_name(self.policy, POLICIES, "policy")
        _check_name(self.oracle, ORACLES, "oracle")
        check_epsilon(self.epsilon)

    def __call__(self, family: FeasibleFamily, spec: RewardSpec, T: int, rngs: Sequence[np.random.Generator]):
        if self.policy == "osm":
            return Osm(family, T, *rngs)
        oracle = _oracle_handle(self.oracle, family, spec, self.epsilon)
        runs = len(rngs)
        if self.policy == "sdcb":
            return Sdcb(family, spec, oracle, runs=runs)
        if self.policy == "lazy-sdcb":
            return lazy_sdcb_known_T(family, spec, oracle, T, runs=runs)
        if self.policy == "lazy-sdcb-doubling":
            return LazySdcbDoubling(family, spec, oracle, runs=runs)
        return Cucb(family, spec, oracle, runs=runs)  # "cucb", the one name __post_init__ leaves


def _run_batch(env: Environment, policy_factory, T: int, seeds: Sequence[int], alpha: float = 1.0) -> list[RegretTrace]:
    """One deterministic run per seed, stepped in lockstep: select, sample outcomes, observe, account.

    One policy holds every run's state and plays all runs each round.
    Outcomes are i.i.d. draws from the environment's arms restricted to
    a run's played super arm; arm i's j-th pull in a run is ``sample`` of
    the j-th uniform of that run's own substream, drawn a block at a time,
    so each trace is a pure function of its seed.  Each run's
    ``runtime_s`` is the batch's wall time over its size.
    """
    check_count(T, "horizon T")
    _check_alpha(alpha)
    t0 = time.perf_counter()
    draws = [[_draws(arm, substream(seed, ARM_STREAM, i)) for i, arm in enumerate(env.arms)] for seed in seeds]
    policy = policy_factory(env.family, env.spec, T, [substream(seed, POLICY_STREAM, 0) for seed in seeds])
    family = env.family
    # this package's policies take the draws below unchecked: each covers its run's super arm, from a checked law
    drawn = getattr(policy, "_observe_drawn", None)
    rounds = []  # each round's super arms, one per run
    for t in range(1, T + 1):
        arms = policy.select_batch(t)
        outcomes = []
        for S, run_draws in zip(arms, draws):
            if not family.is_feasible(S):
                raise RuntimeError(f"policy played infeasible super arm {S!r} in round {t}")
            outcomes.append({i: next(run_draws[i]) for i in S.members})
        if drawn is None:
            policy.observe_batch(t, arms, outcomes)
        else:
            drawn(t, outcomes)
        rounds.append(arms)
    played = [[S.members for S in run] for run in zip(*rounds)]
    rewards = np.array([[env.score(S) for S in run] for run in zip(*rounds)])
    cum_regret = np.cumsum(alpha * env.optimal_value - rewards, axis=1)
    runtime_s = (time.perf_counter() - t0) / len(seeds)
    name = getattr(policy_factory, "policy", type(policy).__name__)
    return [
        RegretTrace(
            rewards[r],
            cum_regret[r],
            played[r],
            {
                "policy": name,
                "oracle": getattr(policy_factory, "oracle", ""),
                "alpha": alpha,
                "seed": seed,
                "T": T,
                "runtime_s": runtime_s,
            },
        )
        for r, seed in enumerate(seeds)
    ]


def run_one(
    env: Environment,
    policy_factory,
    T: int,
    seed: int,
    alpha: float = 1.0,
) -> RegretTrace:
    """One deterministic run: the lockstep batch of one seed."""
    return _run_batch(env, policy_factory, T, [seed], alpha)[0]


def _send_chunk(send, batch, seeds) -> None:
    """A worker's body: step one chunk and send back its traces, or the exception its batch raised."""
    try:
        result = batch(seeds)
    except Exception as e:
        result = e
    send.send(result)


def run_many(
    env: Environment,
    policy_factory,
    T: int,
    runs: int,
    seed_base: int,
    alpha: float = 1.0,
    n_jobs: int = 1,
) -> tuple[RegretTrace, list[RegretTrace]]:
    """Averaged trace over ``runs`` independent runs plus the per-run traces.

    Run r uses seed ``seed_base + r``.  The runs are split into
    ``min(n_jobs, runs)`` contiguous chunks, each stepped in lockstep as
    one batch.  The caller steps the first chunk itself, and one worker
    process per other chunk steps that chunk and sends its traces back; a
    worker's error is re-raised in the caller, and a worker that exits
    without sending is a ``RuntimeError``.  Every run's trace is the one
    ``run_one`` gives for its seed, whatever the chunking.
    """
    check_count(T, "horizon T")  # before any worker starts; each batch checks T and alpha again
    _check_alpha(alpha)
    check_count(runs, "runs")
    check_count(n_jobs, "n_jobs")
    seeds = [run_seed(seed_base, r) for r in range(runs)]  # checks the seed before any worker starts
    batch = partial(_run_batch, env, policy_factory, T, alpha=alpha)
    workers = min(n_jobs, runs)
    chunks = [seeds[w * runs // workers : (w + 1) * runs // workers] for w in range(workers)]
    procs = []  # (worker, receive end of its pipe) per chunk after the first
    if workers > 1:
        import multiprocessing  # here, not at module level: about 7 ms of a serial run's cold start
    try:
        for chunk in chunks[1:]:
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_send_chunk, args=(send, batch, chunk), daemon=True)
            proc.start()
            send.close()  # the worker holds the only send end, so its exit ends a wait on recv
            procs.append((proc, recv))
        traces = batch(chunks[0])
        for proc, recv in procs:
            try:
                result = recv.recv()
            except EOFError:
                proc.join()
                code = proc.exitcode
                raise RuntimeError(f"a run_many worker exited with code {code} before sending its traces") from None
            if isinstance(result, Exception):
                raise result
            traces += result
    except BaseException:
        for proc, _ in procs:
            proc.terminate()
        raise
    finally:
        for proc, recv in procs:
            proc.join()
            recv.close()
    for r, trace in enumerate(traces):
        trace.metadata["run"] = r
    avg = RegretTrace(
        rewards=np.mean([tr.rewards for tr in traces], axis=0),
        cum_regret=np.mean([tr.cum_regret for tr in traces], axis=0),
        metadata={
            "policy": getattr(policy_factory, "policy", ""),
            "oracle": getattr(policy_factory, "oracle", ""),
            "alpha": alpha,
            "seed_base": seed_base,
            "runs": runs,
            "T": T,
        },
    )
    return avg, traces


_GRID = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
# the built-in arm laws, as (constructor, its two arrays); built with their environment
_GOOD = (make_finite, _GRID, [0.1] * 5 + [0.5])
_WEAK = (make_finite, _GRID, [0.5] + [0.1] * 5)
_MID = (make_finite, _GRID, [0.12] * 5 + [0.4])
_LOW = (make_finite, _GRID, [0.16] * 5 + [0.2])
_UNIFORM = (PiecewiseDensity, [0.0, 1.0], [1.0])
_TILTED = (PiecewiseDensity, [0.0, 0.5, 1.0], [1.2, 0.8])

# name -> (description, ((arm law, arm count), ...))
_BUILTINS = {
    "dist1": ("9 finite arms; three heavy at 1 (p=0.5), six heavy at 0 (p=0.5)", ((_GOOD, 3), (_WEAK, 6))),
    "dist2": ("9 finite arms; three heavy at 1 (p=0.5), six mildly good (p(1)=0.4)", ((_GOOD, 3), (_MID, 6))),
    "dist3": ("9 finite arms; p(1) tiers 0.5 / 0.4 / 0.2, three arms each tier", ((_GOOD, 3), (_MID, 3), (_LOW, 3))),
    "dist4": ("9 continuous arms; three uniform, six with density 1.2 below 0.5", ((_UNIFORM, 3), (_TILTED, 6))),
}


def builtin_env(name: str) -> Environment:
    """One of the four bundled 9-arm, K=3 expected-max environments."""
    try:
        _, tiers = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown environment {name!r}; choose from {sorted(_BUILTINS)}") from None
    arms = [law for (make, *arrays), n in tiers for law in [make(*arrays)] * n]
    return Environment(arms, FeasibleFamily.cardinality_at_most(3, 9), kmax_spec(), name=name)


def builtin_env_names() -> list[tuple[str, str]]:
    return [(name, desc) for name, (desc, _) in _BUILTINS.items()]


def _csv_rows(trace: RegretTrace, suffix: str = "") -> str:
    """``round,expected_reward,cum_regret`` lines of a trace, each ended by ``suffix`` and LF."""
    return "".join(
        f"{t},{r:.12g},{c:.12g}{suffix}\n"
        for t, r, c in zip(range(1, trace.rounds + 1), trace.rewards.tolist(), trace.cum_regret.tolist())
    )


def write_csv(trace_or_traces, path) -> None:
    """Write a trace (or list of per-run traces) as CSV.

    Averaged/single traces get ``round,expected_reward,cum_regret``; a
    list adds a ``run`` column.  Rounds are numbered from 1; floats carry
    12 significant digits; line endings are LF.
    """
    try:
        with open(path, "w", newline="\n") as f:
            if isinstance(trace_or_traces, RegretTrace):
                f.write("round,expected_reward,cum_regret\n" + _csv_rows(trace_or_traces))
            else:
                f.write("round,expected_reward,cum_regret,run\n")
                for idx, tr in enumerate(trace_or_traces):
                    f.write(_csv_rows(tr, f",{tr.metadata.get('run', idx)}"))
    except OSError as e:
        raise OSError(f"cannot write trace CSV to {path!r}: {e}") from e
