"""Regret workloads: timed ``cmab run`` calls and their traced replica.

End-to-end numbers come from ``cmab.cli.main(["run", ...])``, the user's own
entry point, with no tracing.  Per-layer numbers come from a replica of
``harness.run_one`` written here: it makes the same public calls in the same
order (substreams, policy construction, select, sample, observe, score) with
a span around each, and is checked against the program's own ``run_many``
trace by trace, so the replica cannot drift from what it measures.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass

import numpy as np

from calibrate import Calibrated
from checks import Checks, sha256_file

GOLDEN_T = 300
GOLDEN_RUNS = 2
GOLDEN_CMAB_SEED = 42
SDCB_FAMILY = ("sdcb", "lazy-sdcb", "lazy-sdcb-doubling")

# Spans whose time counts as attributed inside ``harness.run``.
LAYER_SPANS = (
    "rng.substream",
    "policies.init",
    "policies.select",
    "distributions.sample",
    "policies.observe",
    "harness.score",
)


@dataclass(frozen=True)
class RegretWorkload:
    envs: tuple[str, ...]
    policies: tuple[tuple[str, str | None], ...]  # (policy, oracle or None)
    T: int
    runs: int
    jobs: int

    def calls(self):
        return [(env, pol, orc) for env in self.envs for pol, orc in self.policies]


WORKLOADS = {
    # The finite half of the paper's regret race at --jobs 1: dominant-CDF
    # builds and the greedy oracle dominate; scoring hits its cache.
    "regret_finite": RegretWorkload(
        envs=("dist1", "dist2", "dist3"),
        policies=(("sdcb", "greedy"), ("osm", None)),
        T=2000,
        runs=2,
        jobs=1,
    ),
    # Continuous arms: inverse-CDF draws, binned observations, optimistic
    # CDFs with up to ceil(sqrt(T)) = 45 support points, doubling restarts,
    # and run_many's --jobs 2 branch.
    "regret_continuous": RegretWorkload(
        envs=("dist4",),
        policies=(("lazy-sdcb", "greedy"), ("lazy-sdcb-doubling", "greedy"), ("osm", None)),
        T=2000,
        runs=2,
        jobs=2,
    ),
}


def run_argv(env, policy, oracle, T, runs, seed, jobs, out) -> list[str]:
    argv = ["run", "--env", env, "--policy", policy]
    if oracle is not None:
        argv += ["--oracle", oracle]
    return argv + ["--T", str(T), "--runs", str(runs), "--seed", str(seed), "--jobs", str(jobs), "--out", str(out)]


def call_key(env, policy, oracle) -> str:
    return f"{env}/{policy}/{oracle or '-'}"


def cli_run(cli, argv) -> tuple[int, float]:
    """One in-process ``cmab run``; returns (exit code, wall seconds)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    return rc, dt


def read_cum_regret(path) -> np.ndarray:
    with open(path) as f:
        header = f.readline().strip()
        if header != "round,expected_reward,cum_regret":
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = [line.split(",") for line in f]
    rounds = [int(r[0]) for r in rows]
    if rounds != list(range(1, len(rows) + 1)):
        raise ValueError("round column is not 1..T")
    return np.array([float(r[2]) for r in rows])


def check_cycle(checks: Checks, wl: RegretWorkload, final: dict, label: str) -> None:
    """Seed-independent invariants across one cycle's calls."""
    for env in wl.envs:
        osm = final.get((env, "osm"))
        for pol, _ in wl.policies:
            if pol in SDCB_FAMILY and osm is not None and (env, pol) in final:
                checks.expect(
                    final[(env, pol)] < osm,
                    f"{label}: {pol} final regret {final[(env, pol)]:.4g} not below osm {osm:.4g} on {env}",
                )


def check_csv(checks: Checks, path, T: int, label: str):
    """Final cumulative regret of a CSV with T rows and non-decreasing regret."""
    try:
        cum = read_cum_regret(path)
    except (OSError, ValueError) as e:
        checks.expect(False, f"{label}: unreadable CSV: {e}")
        return None
    if not checks.expect(len(cum) == T, f"{label}: {len(cum)} rows, expected {T}"):
        return None
    if not checks.expect(bool(np.all(np.diff(cum) >= 0.0)), f"{label}: cum_regret decreases"):
        return None
    return float(cum[-1])


def golden_digests(cli, wl: RegretWorkload, name: str, work, checks: Checks) -> dict[str, str]:
    """Digest of every call's averaged CSV at the golden seed and size."""
    digests = {}
    for env, pol, orc in wl.calls():
        out = work / "golden.csv"
        rc, _ = cli_run(cli, run_argv(env, pol, orc, GOLDEN_T, GOLDEN_RUNS, GOLDEN_CMAB_SEED, wl.jobs, out))
        key = f"{name}/{call_key(env, pol, orc)}"
        if checks.op(rc == 0, f"golden {key}: exit code {rc}"):
            digests[key] = sha256_file(out)
            check_csv(checks, out, GOLDEN_T, f"golden {key}")
    return digests


def more_cycles(start: float, seconds: float, done: int) -> bool:
    """Start another cycle only if it is expected to end nearer ``seconds`` than not."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


def cycle_seed(seed: int, cycle: int) -> int:
    return int(np.random.default_rng([seed, cycle]).integers(0, 2**31 - 1))


def timed_cycles(cli, wl: RegretWorkload, seed: int, seconds: float, work, checks: Checks):
    """Complete cycles of untraced calls for about ``seconds``.

    Returns the calibrated duration of each successful call and the cycle count.
    """
    call_s = Calibrated(block_s=0.5)
    start = time.perf_counter()
    c = 0
    while c == 0 or more_cycles(start, seconds, c):
        s = cycle_seed(seed, c)
        final = {}
        for env, pol, orc in wl.calls():
            out = work / "run.csv"
            rc, dt = cli_run(cli, run_argv(env, pol, orc, wl.T, wl.runs, s, wl.jobs, out))
            label = f"seed {s} {call_key(env, pol, orc)}"
            if not checks.op(rc == 0, f"{label}: exit code {rc}"):
                continue
            call_s.add(dt)
            last = check_csv(checks, out, wl.T, label)
            if last is not None:
                final[(env, pol)] = last
        check_cycle(checks, wl, final, f"seed {s}")
        c += 1
    call_s.flush()
    return call_s, c


# ---------------------------------------------------------------- tracing


class _Ids:
    """Span name ids, resolved once per tracer."""

    def __init__(self, tr):
        for attr, name in (
            ("run", "harness.run"),
            ("round", "harness.round"),
            ("env_build", "harness.env_build"),
            ("score", "harness.score"),
            ("write_csv", "harness.write_csv"),
            ("substream", "rng.substream"),
            ("init", "policies.init"),
            ("select", "policies.select"),
            ("observe", "policies.observe"),
            ("sample", "distributions.sample"),
            ("greedy", "oracles.greedy"),
            ("exhaustive", "oracles.exhaustive"),
            ("expected_reward", "rewards.expected_reward"),
            ("kmax_continuous", "rewards.kmax_continuous"),
            ("parse", "cli.parse"),
        ):
            setattr(self, attr, tr.name_id(name))


class RegretTracer:
    """Traced replica of ``run_one`` plus counters the spans cannot hold."""

    def __init__(self, cmab, tr):
        self.cmab = cmab
        self.tr = tr
        self.ids = _Ids(tr)
        self.support_points = 0
        self.oracle_dists = 0
        self.score_calls = 0
        self.score_hits = 0
        self.exhaustive_sets = []
        self.runtime_sum_s = 0.0
        self.run_many_wall_s = 0.0
        self.rounds = 0  # per timed side: run_many and the traced replica
        self.traced_wall_s = 0.0
        self.csv_bytes = []

    def _greedy(self, K):
        greedy_kmax = self.cmab.oracles.greedy_kmax
        tr, gid = self.tr, self.ids.greedy

        def oracle(dists):
            h = tr.begin(gid)
            S = greedy_kmax(dists, K)
            tr.end_span(h)
            self.support_points += sum(len(d.support) for d in dists)
            self.oracle_dists += len(dists)
            return S

        return oracle

    def _policy(self, name, oracle_kind, env, T, rng):
        pol = self.cmab.policies
        if name == "osm":
            return pol.Osm(env.family, T, rng)
        if oracle_kind != "greedy":
            raise ValueError(f"the traced replica covers the greedy oracle only, not {oracle_kind!r}")
        oracle = self._greedy(env.family.K)
        if name == "sdcb":
            return pol.Sdcb(env.family, env.spec, oracle)
        if name == "lazy-sdcb":
            return pol.lazy_sdcb_known_T(env.family, env.spec, oracle, T)
        if name == "lazy-sdcb-doubling":
            return pol.LazySdcbDoubling(env.family, env.spec, oracle)
        raise ValueError(f"no replica for policy {name!r}")

    def metrics(self, t, checks: Checks) -> dict[str, float]:
        """Counter-based metrics, and the span coverage check on ``harness.run``."""
        covered = t.covered_fraction("harness.run", LAYER_SPANS)
        checks.expect(covered >= 0.9, f"layer spans cover only {covered:.3f} of harness.run time")
        untraced = self.rounds / self.run_many_wall_s
        return {
            "distributions.dominant_support_mean": self.support_points / self.oracle_dists if self.oracle_dists else 0.0,
            "harness.score_calls": self.score_calls,
            "harness.score_hit_ratio": self.score_hits / self.score_calls,
            "harness.run_unattributed_frac": 1.0 - covered,
            "harness.csv_bytes": float(np.mean(self.csv_bytes)),
            "harness.jobs_overlap": self.runtime_sum_s / self.run_many_wall_s,
            "harness.untraced_rounds_per_s": untraced,
            "trace.overhead_rounds_per_s": self.rounds / self.traced_wall_s - untraced,
            "rewards.kmax_continuous_ms": t.total_ms("rewards.kmax_continuous") / len(self.exhaustive_sets),
            "oracles.exhaustive_sets": float(np.mean(self.exhaustive_sets)),
        }

    def build_env(self, name):
        tr, ids = self.tr, self.ids
        h = tr.begin(ids.env_build)
        env = self.cmab.harness.builtin_env(name)
        tr.end_span(h)
        return env

    def check_env(self, env, checks: Checks) -> None:
        """Replay the environment's optimum search with a span per call."""
        tr, ids = self.tr, self.ids
        cmab = self.cmab
        h = tr.begin(ids.exhaustive)
        S = cmab.oracles.exhaustive_oracle(env.arms, env.family, env.spec)
        tr.end_span(h)
        self.exhaustive_sets.append(env.family.count())
        finite = all(isinstance(a, cmab.distributions.FiniteDistribution) for a in env.arms)
        evaluate = cmab.rewards.expected_reward if finite else cmab.rewards.expected_kmax_continuous
        span = ids.expected_reward if finite else ids.kmax_continuous
        best, best_val = None, -np.inf
        for cand in env.family:
            h = tr.begin(span)
            v = evaluate(env.arms, cand, env.spec) if finite else evaluate(env.arms, cand)
            tr.end_span(h)
            if v > best_val or (v == best_val and cand.members < best.members):
                best, best_val = cand, v
        checks.expect(S == env.optimal_arm, f"{env.name}: exhaustive_oracle disagrees with the cached optimum")
        checks.expect(
            best == env.optimal_arm and best_val == env.optimal_value,
            f"{env.name}: enumerated optimum {best!r}={best_val!r} differs from {env.optimal_arm!r}",
        )

    def run(self, env, seen: set, policy, oracle_kind, T, seed):
        """One traced run; returns (super_arms, rewards) like ``run_one``."""
        cmab, tr, ids = self.cmab, self.tr, self.ids
        substream = cmab.rng.substream
        sample = cmab.distributions.sample
        tr.run_id = seed
        h_run = tr.begin(ids.run)
        m = env.family.m
        arm_rngs = []
        for i in range(m):
            h = tr.begin(ids.substream)
            arm_rngs.append(substream(seed, cmab.rng.ARM_STREAM, i))
            tr.end_span(h)
        h = tr.begin(ids.substream)
        policy_rng = substream(seed, cmab.rng.POLICY_STREAM, 0)
        tr.end_span(h)
        h = tr.begin(ids.init)
        pol = self._policy(policy, oracle_kind, env, T, policy_rng)
        tr.end_span(h)
        rewards = np.empty(T)
        played = []
        arms, family = env.arms, env.family
        for t in range(1, T + 1):
            h_round = tr.begin(ids.round)
            h = tr.begin(ids.select)
            S = pol.select(t)
            tr.end_span(h)
            if not family.is_feasible(S):
                raise RuntimeError(f"policy played infeasible super arm {S!r} in round {t}")
            outcomes = {}
            for i in S.members:
                h = tr.begin(ids.sample)
                outcomes[i] = sample(arms[i], arm_rngs[i])
                tr.end_span(h)
            h = tr.begin(ids.observe)
            pol.observe(t, S, outcomes)
            tr.end_span(h)
            key = S.members
            h = tr.begin(ids.score)
            rewards[t - 1] = env.score(S)
            tr.end_span(h)
            self.score_calls += 1
            if key in seen:
                self.score_hits += 1
            else:
                seen.add(key)
            played.append(key)
            tr.end_span(h_round)
        tr.end_span(h_run)
        tr.run_id = -1
        return played, rewards

    def call(self, wl: RegretWorkload, env_name, policy, oracle, seed, work, checks: Checks) -> float | None:
        """One ``cmab run`` call: the program's run_many, then the traced replica.

        Returns the final cumulative regret of the averaged CSV, or None if a
        check failed.
        """
        cmab, tr, ids = self.cmab, self.tr, self.ids
        label = f"traced seed {seed} {call_key(env_name, policy, oracle)}"
        checks.begin()
        argv = run_argv(env_name, policy, oracle, wl.T, wl.runs, seed, wl.jobs, work / "traced.csv")
        h = tr.begin(ids.parse)
        cmab.cli.build_parser().parse_args(argv)
        tr.end_span(h)

        env = cmab.harness.builtin_env(env_name)
        factory = cmab.harness.PolicyFactory(policy=policy, oracle=oracle or "exhaustive")
        t0 = time.perf_counter()
        avg, traces = cmab.harness.run_many(env, factory, wl.T, wl.runs, seed, n_jobs=wl.jobs)
        self.run_many_wall_s += time.perf_counter() - t0
        self.runtime_sum_s += sum(tr_.metadata["runtime_s"] for tr_ in traces)
        self.rounds += wl.T * wl.runs
        cmab.harness.write_csv(avg, work / "program.csv")

        renv = self.build_env(env_name)
        seen = {renv.optimal_arm.members}
        rep_rewards, rep_regret = [], []
        t0 = time.perf_counter()
        for r in range(wl.runs):
            s = cmab.rng.run_seed(seed, r)
            played, rewards = self.run(renv, seen, policy, oracle, wl.T, s)
            checks.expect(
                played == traces[r].super_arms and np.array_equal(rewards, traces[r].rewards),
                f"{label} run {r}: replica differs from run_one",
            )
            rep_rewards.append(rewards)
            rep_regret.append(np.cumsum(renv.optimal_value - rewards))
        self.traced_wall_s += time.perf_counter() - t0
        rep_avg = cmab.harness.RegretTrace(
            rewards=np.mean(rep_rewards, axis=0), cum_regret=np.mean(rep_regret, axis=0)
        )
        out = work / "traced.csv"
        h = tr.begin(ids.write_csv)
        cmab.harness.write_csv(rep_avg, out)
        tr.end_span(h)
        self.csv_bytes.append(out.stat().st_size)
        checks.expect(
            sha256_file(out) == sha256_file(work / "program.csv"), f"{label}: replica CSV differs from run_many's"
        )
        return check_csv(checks, out, wl.T, label)


def traced_cycles(cmab, wl: RegretWorkload, seed: int, seconds: float, work, checks: Checks, tr):
    rt = RegretTracer(cmab, tr)
    for env_name in wl.envs:
        rt.check_env(rt.build_env(env_name), checks)
    start = time.perf_counter()
    c = 0
    while c == 0 or more_cycles(start, seconds, c):
        s = cycle_seed(seed, c)
        final = {}
        for env, pol, orc in wl.calls():
            last = rt.call(wl, env, pol, orc, s, work, checks)
            if last is not None:
                final[(env, pol)] = last
        check_cycle(checks, wl, final, f"traced seed {s}")
        c += 1
    return rt
