"""Per-round cost of serial ``run_many`` calls for a fixed table of policies, oracles and run counts, as JSON.

    python3 scripts/round_costs.py [--parent-rev <rev>]

Run from the repository root.  Each row is the best of 3 ``run_many`` calls,
seed bases 42-44, in one process, in µs per run-round: the call's time over
T times its runs.  A one-run row is ``run_one``'s cost; the rows at 2 and 20
runs show what stepping the runs of a call together saves.  The rows marked
``--jobs 2`` pass ``n_jobs = 2``, the others 1: osm at T = 10 is mostly the
fixed cost of a ``--jobs 2`` call.  Each measurement runs in a
fresh process that imports ``cmab`` from one tree's ``src/``: the working
tree, and with ``--parent-rev`` that commit as ``scripts/bench_pairs.py``
exports it, the two sides alternating, ``PROCESSES`` per tree.  A row
reports every process's value and their minimum.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import ROOT, export

SEEDS = (42, 43, 44)
PROCESSES = 3
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
    ("sdcb + greedy, dist1, T = 2000, 20 runs", "dist1", "sdcb", "greedy", 2000, 20, 1),
    ("osm, dist1, T = 2000, 2 runs", "dist1", "osm", "exhaustive", 2000, 2, 1),
    ("osm, dist1, T = 2000, 20 runs", "dist1", "osm", "exhaustive", 2000, 20, 1),
    ("lazy-sdcb + greedy, dist4, T = 2000, 2 runs", "dist4", "lazy-sdcb", "greedy", 2000, 2, 1),
    ("lazy-sdcb + greedy, dist4, T = 2000, 20 runs", "dist4", "lazy-sdcb", "greedy", 2000, 20, 1),
    ("osm, dist4, T = 10, 2 runs, --jobs 2", "dist4", "osm", "exhaustive", 10, 2, 2),
    ("lazy-sdcb + greedy, dist4, T = 2000, 2 runs, --jobs 2", "dist4", "lazy-sdcb", "greedy", 2000, 2, 2),
)


def measure(src: Path) -> dict:
    """µs per run-round of every row, with ``cmab`` imported from ``src``."""
    sys.path.insert(0, str(src))
    import cmab.harness as harness

    if not Path(harness.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported cmab from {harness.__file__}, not from {src}")
    costs = {}
    for label, env_name, policy, oracle, T, runs, n_jobs in ROWS:
        env = harness.builtin_env(env_name)
        factory = harness.PolicyFactory(policy=policy, oracle=oracle)
        best = float("inf")
        for seed in SEEDS:
            t0 = time.perf_counter()
            harness.run_many(env, factory, T, runs, seed, n_jobs=n_jobs)
            best = min(best, time.perf_counter() - t0)
        costs[label] = 1e6 * best / (T * runs)
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
        "unit": "us per run-round, best of seed bases 42-44 per process",
        "nproc": os.cpu_count(),
        "sides": {
            side: {
                "tree": str(trees[side].relative_to(ROOT)),
                "rows": {
                    label: {"processes": [r[label] for r in rs], "best": min(r[label] for r in rs)} for label, *_ in ROWS
                },
            }
            for side, rs in runs.items()
        },
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
