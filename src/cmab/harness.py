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

from .distributions import Distribution, PiecewiseDensity, make_finite, sample
from .errors import check_count
from .oracles import FeasibleFamily, exhaustive_oracle, greedy_kmax, ptas_kmax
from .policies import Cucb, LazySdcbDoubling, Osm, Sdcb, lazy_sdcb_known_T
from .rewards import RewardSpec, SuperArm, expected_reward, kmax_spec
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
        self.optimal_arm = exhaustive_oracle(self.arms, family, spec)
        self.optimal_value = self.score(self.optimal_arm)

    def score(self, S: SuperArm) -> float:
        """Exact expected reward of S, cached per member set."""
        key = S.members
        v = self._scores.get(key)
        if v is None:
            v = expected_reward(self.arms, S, self.spec)
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


def _oracle_handle(kind: str, family: FeasibleFamily, spec: RewardSpec, epsilon: float) -> Callable:
    if kind == "exhaustive":
        return partial(exhaustive_oracle, family=family, spec=spec)
    if kind in ("greedy", "ptas"):
        if family.kind != "cardinality" or spec.kind != "kmax":
            raise ValueError(f"the {kind} oracle needs a cardinality family and the kmax reward")
        if kind == "greedy":
            return partial(greedy_kmax, K=family.K)
        return partial(ptas_kmax, K=family.K, eps=epsilon)
    raise ValueError(f"unknown oracle {kind!r}")


@dataclass
class PolicyFactory:
    """Builds a fresh policy instance per run; picklable for parallel runs."""

    policy: str
    oracle: str = "exhaustive"
    epsilon: float = 0.25

    def __call__(self, family: FeasibleFamily, spec: RewardSpec, T: int, rng: np.random.Generator):
        if self.policy == "osm":
            return Osm(family, T, rng)
        oracle = _oracle_handle(self.oracle, family, spec, self.epsilon)
        if self.policy == "sdcb":
            return Sdcb(family, spec, oracle)
        if self.policy == "lazy-sdcb":
            return lazy_sdcb_known_T(family, spec, oracle, T)
        if self.policy == "lazy-sdcb-doubling":
            return LazySdcbDoubling(family, spec, oracle)
        if self.policy == "cucb":
            return Cucb(family, spec, oracle)
        raise ValueError(f"unknown policy {self.policy!r}")


def run_one(
    env: Environment,
    policy_factory,
    T: int,
    seed: int,
    alpha: float = 1.0,
) -> RegretTrace:
    """One deterministic run: select, sample outcomes, observe, account.

    Outcomes are i.i.d. draws from the environment's arms restricted to
    the played super arm; each arm consumes one uniform per pull from its
    own substream, so the trace is a pure function of ``seed``.
    """
    check_count(T, "horizon T")
    t0 = time.perf_counter()
    m = env.family.m
    arm_rngs = [substream(seed, ARM_STREAM, i) for i in range(m)]
    policy = policy_factory(env.family, env.spec, T, substream(seed, POLICY_STREAM, 0))
    rewards = np.empty(T)
    played: list[tuple[int, ...]] = []
    for t in range(1, T + 1):
        S = policy.select(t)
        if not env.family.is_feasible(S):
            raise RuntimeError(f"policy played infeasible super arm {S!r} in round {t}")
        outcomes = {i: sample(env.arms[i], arm_rngs[i]) for i in S.members}
        policy.observe(t, S, outcomes)
        rewards[t - 1] = env.score(S)
        played.append(S.members)
    cum_regret = np.cumsum(alpha * env.optimal_value - rewards)
    meta = {
        "policy": getattr(policy_factory, "policy", type(policy).__name__),
        "oracle": getattr(policy_factory, "oracle", ""),
        "alpha": alpha,
        "seed": seed,
        "T": T,
        "runtime_s": time.perf_counter() - t0,
    }
    return RegretTrace(rewards, cum_regret, played, meta)


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

    Run r uses seed ``seed_base + r``; with ``n_jobs > 1`` the runs are
    spread over that many worker processes (at most one per run), and the
    results are identical to a serial execution.
    """
    check_count(runs, "runs")
    check_count(n_jobs, "n_jobs")
    seeds = [run_seed(seed_base, r) for r in range(runs)]
    worker = partial(run_one, env, policy_factory, T, alpha=alpha)
    workers = min(n_jobs, runs)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(worker, seeds))
    else:
        traces = [worker(s) for s in seeds]
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


def _format_value(v: float) -> str:
    return format(float(v), ".12g")


def write_csv(trace_or_traces, path) -> None:
    """Write a trace (or list of per-run traces) as CSV.

    Averaged/single traces get ``round,expected_reward,cum_regret``; a
    list adds a ``run`` column.  Rounds are numbered from 1; floats carry
    12 significant digits; line endings are LF.
    """
    try:
        with open(path, "w", newline="\n") as f:
            if isinstance(trace_or_traces, RegretTrace):
                f.write("round,expected_reward,cum_regret\n")
                tr = trace_or_traces
                for t in range(tr.rounds):
                    f.write(f"{t + 1},{_format_value(tr.rewards[t])},{_format_value(tr.cum_regret[t])}\n")
            else:
                f.write("round,expected_reward,cum_regret,run\n")
                for idx, tr in enumerate(trace_or_traces):
                    run = tr.metadata.get("run", idx)
                    for t in range(tr.rounds):
                        f.write(
                            f"{t + 1},{_format_value(tr.rewards[t])},{_format_value(tr.cum_regret[t])},{run}\n"
                        )
    except OSError as e:
        raise OSError(f"cannot write trace CSV to {path!r}: {e}") from e
