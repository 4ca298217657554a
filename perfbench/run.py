"""The cmab benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload regret_finite --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the workload's untraced calls into ``cmab.cli.main`` are timed
and the end-to-end metrics of BENCHMARK.json are printed, in reference
seconds (see calibrate.py); with ``--trace 1``
a traced replica of the same calls gives the per-layer metrics.  Every output
is checked (recorded digests at the golden seed, invariants at every seed).
Human-readable lines go first; the last line of stdout is the result object.
Scratch files go to ``.bench_work/`` under the root.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import offline
import regret
from calibrate import Calibrated
from checks import Checks
from tracer import SpanTable, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_FILE = HERE / "golden.json"
WORKLOAD_NAMES = ("regret_finite", "regret_continuous", "offline_solve")
SETUP_REPS = 11

# Runs in a fresh interpreter: cold import of the package plus the first
# build of each named environment (each build computes its exact optimum).
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cmab.cli
from cmab.harness import builtin_env
for name in sys.argv[2:]:
    builtin_env(name)
print(repr(time.perf_counter() - t0))
"""


def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "joblib_importable": importlib.util.find_spec("joblib") is not None,
        "loadavg_at_start": os.getloadavg(),
    }


def measure_setup(envs) -> Calibrated:
    """Seconds for a cold import plus first environment builds, per fresh process."""
    out = Calibrated(block_s=0.0)
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), *envs],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        out.add(float(proc.stdout.strip()))
    return out


def quantile(xs, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics.  The
    regret workloads time a few dozen calls of two or three very different
    lengths; there the sample median sits between two extreme order
    statistics and jumps from run to run, while this estimate averages the
    calls around that rank.
    """
    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    p = q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    u = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u) + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf))))
    cdf /= cdf[-1]
    w = np.diff(np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], u)), cdf, right=1.0))
    return float(w @ x)


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


E2E_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "call_ms_p50": "ms", "call_ms_p90": "ms"}


def timing_metrics(setup_s, call_s, work_units: int) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "throughput_per_s": work_units / sum(call_s),
        "call_ms_p50": 1e3 * quantile(call_s, 50),
        "call_ms_p90": 1e3 * quantile(call_s, 90),
    }


def e2e_metrics(setup: Calibrated, calls: Calibrated, work_units: int) -> dict:
    """End-to-end metrics in reference seconds (see calibrate.py).

    Prints the same metrics in wall-clock seconds, with the kernel's median
    time, for comparison.
    """
    wall = timing_metrics(setup.raw, calls.raw, work_units)
    wall["kernel_ms_median"] = 1e3 * statistics.median(calls.kernel_s)
    print("wall clock:", json.dumps(wall))
    ref = timing_metrics(setup.values, calls.values, work_units)
    return {name: metric(value, E2E_UNITS[name]) for name, value in ref.items()}


def regret_workload(name, args, cmab, work, checks, tracer):
    wl = regret.WORKLOADS[name]
    print(f"{name}: T={wl.T} runs={wl.runs} jobs={wl.jobs} calls={[regret.call_key(*c) for c in wl.calls()]}")
    if tracer:
        return regret.traced_cycles(cmab, wl, args.seed, args.seconds, work, checks, tracer)
    setup = measure_setup(wl.envs)
    calls, n_cycles = regret.timed_cycles(cmab.cli, wl, args.seed, args.seconds, work, checks)
    rounds = len(calls.values) * wl.T * wl.runs
    print(f"{name}: {n_cycles} cycles, {len(calls.values)} timed `cmab run` calls, {rounds} rounds")
    return e2e_metrics(setup, calls, rounds)


def offline_workload(args, cmab, work, checks, tracer):
    if tracer:
        return offline.traced_cycles(cmab, args.seed, args.seconds, work, checks, tracer)
    setup = measure_setup(())
    solves, n_cycles = offline.timed_cycles(cmab.cli, args.seed, args.seconds, work, checks)
    n = len(solves.values)
    beyond = sum(1 for x in solves.values if x > quantile(solves.values, 90))
    print(f"offline_solve: {n} timed `cmab offline` calls in {n_cycles} cycles; {beyond} beyond p90")
    return e2e_metrics(setup, solves, n)


# Per-layer metrics and their units, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "policies.select_self_us": "us",
    "distributions.dominant_support_mean": "count",
    "oracles.greedy_us": "us",
    "oracles.greedy_calls": "count",
    "distributions.sample_us": "us",
    "policies.observe_us": "us",
    "harness.score_us": "us",
    "harness.score_calls": "count",
    "harness.score_hit_ratio": "ratio",
    "rng.substream_us": "us",
    "harness.run_ms_p50": "ms",
    "harness.round_us_p50": "us",
    "harness.round_us_p99": "us",
    "harness.run_unattributed_frac": "ratio",
    "harness.write_csv_ms": "ms",
    "harness.csv_bytes": "bytes",
    "harness.jobs_overlap": "ratio",
    "harness.untraced_rounds_per_s": "1/s",
    "trace.overhead_rounds_per_s": "1/s",
    "harness.env_build_ms": "ms",
    "rewards.kmax_continuous_ms": "ms",
    "oracles.exhaustive_ms": "ms",
    "oracles.exhaustive_sets": "count",
    "oracles.ptas_ms": "ms",
    "rewards.expected_reward_us": "us",
    "rewards.expected_reward_calls": "count",
    "cli.parse_ms": "ms",
}


def span_metrics(t) -> dict[str, float]:
    """Metrics read straight off the spans; 0 for a layer with no spans."""
    return {
        "policies.select_self_us": t.self_mean_us("policies.select"),
        "oracles.greedy_us": t.mean_us("oracles.greedy"),
        "oracles.greedy_calls": t.count("oracles.greedy"),
        "distributions.sample_us": t.mean_us("distributions.sample"),
        "policies.observe_us": t.mean_us("policies.observe"),
        "harness.score_us": t.mean_us("harness.score"),
        "rng.substream_us": t.mean_us("rng.substream"),
        "harness.run_ms_p50": t.percentile_us("harness.run", 50) / 1e3,
        "harness.round_us_p50": t.percentile_us("harness.round", 50),
        "harness.round_us_p99": t.percentile_us("harness.round", 99),
        "harness.write_csv_ms": t.mean_us("harness.write_csv") / 1e3,
        "harness.env_build_ms": t.mean_us("harness.env_build") / 1e3,
        "oracles.exhaustive_ms": t.mean_us("oracles.exhaustive") / 1e3,
        "oracles.ptas_ms": t.mean_us("oracles.ptas") / 1e3,
        "rewards.expected_reward_us": t.mean_us("rewards.expected_reward"),
        "rewards.expected_reward_calls": t.count("rewards.expected_reward"),
        "cli.parse_ms": t.mean_us("cli.parse") / 1e3,
    }


def layer_metrics(traced, tr, checks) -> dict:
    """Every per-layer metric; 0 where the workload never runs the layer."""
    t = SpanTable(tr)
    values = {**span_metrics(t), **traced.metrics(t, checks)}
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"metrics missing from PER_LAYER_UNITS: {sorted(unknown)}")
    return {name: metric(values.get(name, 0.0), unit) for name, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true", help="rewrite the workload's golden digests")
    args = ap.parse_args(argv)

    if not (SRC / "cmab" / "__init__.py").is_file():
        print(f"perfbench: no cmab package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cmab
    import cmab.cli

    if not Path(cmab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported cmab from {cmab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print("machine:", json.dumps(machine_facts()))
    checks = Checks()
    tracer = Tracer() if args.trace else None
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        digests = golden_digests(args.workload, cmab, work, checks)
        golden = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.is_file() else {}
        if args.record_golden:
            if not checks.correct:
                print("\n".join(checks.errors), file=sys.stderr)
                return 1
            golden.update(digests)
            GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            return 0
        for key, digest in digests.items():
            checks.expect(golden.get(key) == digest, f"golden {key}: output digest differs from the recorded one")
        if args.workload == "offline_solve":
            result = offline_workload(args, cmab, work, checks, tracer)
        else:
            result = regret_workload(args.workload, args, cmab, work, checks, tracer)
        if tracer:
            metrics = layer_metrics(result, tracer, checks)
            tracer.save(work_root / f"spans_{args.workload}.npz")
        else:
            metrics = result
            metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for err in checks.errors[:20]:
        print("check failed:", err, file=sys.stderr)
    print(f"checks: {checks.attempted} operations, {checks.failed} failed, {len(checks.errors)} errors")
    print(
        json.dumps(
            {"correct": checks.correct, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}
        )
    )
    return 0


def golden_digests(name, cmab, work, checks) -> dict[str, str]:
    """Output digests of the workload's golden pass, which also warms the program up."""
    if name == "offline_solve":
        return offline.golden_digests(cmab.cli, work, checks)
    return regret.golden_digests(cmab.cli, regret.WORKLOADS[name], name, work, checks)


if __name__ == "__main__":
    sys.exit(main())
