"""Per-round cost of serial ``run_many`` calls for a fixed table of policies, oracles and run counts, as JSON.

    python3 scripts/round_costs.py [--parent-rev <rev>]

Run from the repository root.  Each row is the best of 3 ``run_many`` calls,
seed bases 42-44, in one process, in µs per run-round: the call's time over
T times its runs.  A one-run row is ``run_one``'s cost; the rows at 2 and 20
runs show what stepping the runs of a call together saves, and the sdcb and
lazy-sdcb rows at 4 and 8 runs where greedy's stacked width groups
(``oracles._STACK_RUNS``) start to pay.  The explicit rows play sdcb +
exhaustive on a seeded 20-arm instance whose explicit family holds 60 or
1000 sets of 2-3 arms, where the harness's feasibility check of each
run-round grows with the family if it scans its sets.  The rows marked
``--jobs 2`` pass ``n_jobs = 2``, the others 1: osm at T = 10 is mostly the
fixed cost of a ``--jobs 2`` call.  Beside its cost a row gives the minor
page faults per run-round of the calling process (``ru_minflt``, the least
over the three calls; a worker's faults are not counted).  Each
measurement runs in a fresh process that imports ``cmab`` from one tree's
``src/``: the working tree, and with ``--parent-rev`` that commit as
``scripts/bench_pairs.py`` exports it, ``PROCESSES`` per tree.  The two
trees' processes run in pairs, and the tree that runs first alternates
from pair to pair.  A row reports every process's value and their
minimum; with ``--parent-rev`` the working tree's row also gives each
pair's change/parent ratio, their median, and how many pairs the change
won, since the host drifts by more than a 10% change between processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import ROOT, export

SEEDS = (42, 43, 44)
PROCESSES = 6
# (label, environment, policy, oracle, T, runs, n_jobs)
ROWS = (
    ("sdcb + greedy, dist1, T = 2000", "dist1", "sdcb", "greedy", 2000, 1, 1),
    ("cucb + greedy, dist1, T = 2000", "dist1", "cucb", "greedy", 2000, 1, 1),
    ("osm, dist1, T = 2000", "dist1", "osm", "exhaustive", 2000, 1, 1),
    ("lazy-sdcb + greedy, dist4, T = 2000", "dist4", "lazy-sdcb", "greedy", 2000, 1, 1),
    ("sdcb + exhaustive, dist1, T = 300", "dist1", "sdcb", "exhaustive", 300, 1, 1),
    ("sdcb + ptas, dist1, T = 300", "dist1", "sdcb", "ptas", 300, 1, 1),
    ("unbinned sdcb + greedy, dist4, T = 1000", "dist4", "sdcb", "greedy", 1000, 1, 1),
    ("unbinned sdcb + greedy, dist4, T = 2000", "dist4", "sdcb", "greedy", 2000, 1, 1),
    ("unbinned sdcb + greedy, dist4, T = 4000", "dist4", "sdcb", "greedy", 4000, 1, 1),
    ("sdcb + greedy, dist1, T = 2000, 2 runs", "dist1", "sdcb", "greedy", 2000, 2, 1),
    ("sdcb + greedy, dist1, T = 2000, 4 runs", "dist1", "sdcb", "greedy", 2000, 4, 1),
    ("sdcb + greedy, dist1, T = 2000, 8 runs", "dist1", "sdcb", "greedy", 2000, 8, 1),
    ("sdcb + greedy, dist1, T = 2000, 20 runs", "dist1", "sdcb", "greedy", 2000, 20, 1),
    ("osm, dist1, T = 2000, 2 runs", "dist1", "osm", "exhaustive", 2000, 2, 1),
    ("osm, dist1, T = 2000, 20 runs", "dist1", "osm", "exhaustive", 2000, 20, 1),
    ("lazy-sdcb + greedy, dist4, T = 2000, 2 runs", "dist4", "lazy-sdcb", "greedy", 2000, 2, 1),
    ("lazy-sdcb + greedy, dist4, T = 2000, 4 runs", "dist4", "lazy-sdcb", "greedy", 2000, 4, 1),
    ("lazy-sdcb + greedy, dist4, T = 2000, 8 runs", "dist4", "lazy-sdcb", "greedy", 2000, 8, 1),
    ("lazy-sdcb + greedy, dist4, T = 2000, 20 runs", "dist4", "lazy-sdcb", "greedy", 2000, 20, 1),
    ("osm, dist4, T = 10, 2 runs, --jobs 2", "dist4", "osm", "exhaustive", 10, 2, 2),
    ("lazy-sdcb + greedy, dist4, T = 2000, 2 runs, --jobs 2", "dist4", "lazy-sdcb", "greedy", 2000, 2, 2),
    ("sdcb + exhaustive, 60 explicit sets, T = 300, 2 runs", "explicit-60", "sdcb", "exhaustive", 300, 2, 1),
    ("sdcb + exhaustive, 1000 explicit sets, T = 300, 2 runs", "explicit-1000", "sdcb", "exhaustive", 300, 2, 1),
)


def explicit_env(sets: int):
    """A 20-arm instance of finite arms, seeded by ``sets``, whose explicit family holds ``sets`` distinct sets of 2 or
    3 arms in random order; the first ten pairs cover every arm."""
    import numpy as np
    from cmab.distributions import make_finite
    from cmab.harness import Environment
    from cmab.oracles import FeasibleFamily
    from cmab.rewards import kmax_spec

    rng = np.random.default_rng(sets)
    m = 20
    arms = []
    for _ in range(m):
        support = np.sort(rng.choice(np.linspace(0.0, 1.0, 11), size=int(rng.integers(2, 4)), replace=False))
        probs = rng.random(len(support)) + 0.1
        arms.append(make_finite(support, probs / probs.sum()))
    family = {(i, i + 1) for i in range(0, m, 2)}
    while len(family) < sets:
        family.add(tuple(sorted(rng.choice(m, size=int(rng.integers(2, 4)), replace=False).tolist())))
    order = sorted(family)
    rng.shuffle(order)
    return Environment(arms, FeasibleFamily.explicit(order, m), kmax_spec(), name=f"{sets} explicit sets")


def measure(src: Path) -> dict:
    """(µs, minor page faults) per run-round of every row, with ``cmab`` imported from ``src``."""
    sys.path.insert(0, str(src))
    import cmab.harness as harness

    if not Path(harness.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported cmab from {harness.__file__}, not from {src}")
    costs = {}
    for label, env_name, policy, oracle, T, runs, n_jobs in ROWS:
        if env_name.startswith("explicit-"):
            env = explicit_env(int(env_name.split("-")[1]))
        else:
            env = harness.builtin_env(env_name)
        factory = harness.PolicyFactory(policy=policy, oracle=oracle)
        best = faults = float("inf")
        for seed in SEEDS:
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            harness.run_many(env, factory, T, runs, seed, n_jobs=n_jobs)
            best = min(best, time.perf_counter() - t0)
            faults = min(faults, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
        costs[label] = (1e6 * best / (T * runs), faults / (T * runs))
    return costs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent-rev", help="git revision to measure beside the working tree")
    ap.add_argument("--measure", type=Path, help=argparse.SUPPRESS)  # a child: measure with cmab from this src/
    args = ap.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0

    trees = {"change": ROOT}
    if args.parent_rev:
        trees = {"parent": export(args.parent_rev), **trees}
    runs = {side: [] for side in trees}
    for p in range(PROCESSES):
        for side in trees if p % 2 == 0 else reversed(trees):
            child = [sys.executable, __file__, "--measure", str(trees[side] / "src")]
            proc = subprocess.run(child, capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": ""})
            runs[side].append(json.loads(proc.stdout))
    report = {
        "unit": "us per run-round, best of seed bases 42-44 per process; minor page faults per run-round, least of them",
        "nproc": os.cpu_count(),
        "sides": {
            side: {
                "tree": str(trees[side].relative_to(ROOT)),
                "rows": {
                    label: {
                        "processes": [r[label][0] for r in rs],
                        "best": min(r[label][0] for r in rs),
                        "minflt": [r[label][1] for r in rs],
                    }
                    for label, *_ in ROWS
                },
            }
            for side, rs in runs.items()
        },
    }
    if args.parent_rev:  # each pair's change/parent ratio: the host drifts between pairs more than within one
        parent_rows = report["sides"]["parent"]["rows"]
        for label, row in report["sides"]["change"]["rows"].items():
            ratios = [c / p for p, c in zip(parent_rows[label]["processes"], row["processes"])]
            row["vs_parent"] = {"ratios": ratios, "median": statistics.median(ratios), "wins": sum(q < 1 for q in ratios)}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
