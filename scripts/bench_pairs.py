"""Benchmark a parent commit against the working tree, in pairs, as one BENCH file.

    python3 scripts/bench_pairs.py --parent-rev <rev> --seeds 10 [--first-seed 1] --out BENCH_<n>.json [--criterion08 1]

Run from the repository root.  The parent commit is exported with
``git archive`` into ``.bench_work/parent-<rev>/``.  The file names each
side's measured code by the git tree ids of ``src/`` and ``perfbench/``
(for the working tree, as the files stand, committed or not), which
``git rev-parse <commit>:src`` reproduces once the change is committed.  For every workload in
BENCHMARK.json and N seeds, ``perfbench/run.py --trace 0`` runs once in
each tree, and the side that runs first alternates from seed to seed.  Per
end-to-end metric the file records both sides' runs, medians and
quartiles, and how many pairs the change won (ties count for neither).
``--criterion08 R`` also times acceptance criterion 08 R times per side,
alternating, as wall-clock seconds of its pytest run.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CRITERION_08 = "tests/test_acceptance.py::test_criterion_08_regret_comparison"
MEASURED = ("src", "perfbench")


def export(rev: str) -> Path:
    dest = ROOT / ".bench_work" / f"parent-{rev}"
    if not dest.is_dir():
        dest.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def git(*args: str, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, check=True).stdout.strip()


def tree_ids(rev: str | None) -> dict:
    """Git tree id of each measured directory at ``rev``, or in the working tree if None."""
    if rev is not None:
        return {d: git("rev-parse", f"{rev}:{d}") for d in MEASURED}
    env = {**os.environ, "GIT_INDEX_FILE": str(ROOT / ".bench_work" / "index")}
    git("read-tree", "HEAD", env=env)
    git("add", "-A", "--", *MEASURED, env=env)
    return {d: git("write-tree", f"--prefix={d}/", env=env) for d in MEASURED}


def bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(machine facts, result object) of one untraced perfbench run in ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run([*argv, "--seconds", str(seconds), "--trace", "0"], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name}: {workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    machine = next(json.loads(line.split(":", 1)[1]) for line in lines if line.startswith("machine:"))
    return machine, json.loads(lines[-1])


def criterion08_s(tree: Path) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", CRITERION_08],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name}: criterion 08 failed:\n{proc.stdout[-2000:]}")
    return elapsed


def summary(xs) -> dict:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return {"runs": list(xs), "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent-rev", required=True, help="git revision to compare the working tree against")
    ap.add_argument("--seeds", type=int, default=5, help="pairs per workload")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first pair; the rest follow it")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--criterion08", type=int, default=0, help="timed criterion 08 runs per side")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trees = {"parent": export(args.parent_rev), "change": ROOT}
    report = {
        "parent": {"rev": git("rev-parse", args.parent_rev), **tree_ids(args.parent_rev)},
        "change": {"working_tree_on": git("rev-parse", "HEAD"), **tree_ids(None)},
        "command": shlex.join(["python3", "scripts/bench_pairs.py", *(sys.argv[1:] if argv is None else argv)]),
        "seconds_per_run": spec["run_seconds"],
        "machine": None,
        "workloads": {},
    }
    for wl in spec["workloads"]:
        name = wl["name"]
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(range(args.first_seed, args.first_seed + args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                machine, result = bench(trees[side], name, seed, spec["run_seconds"])
                report["machine"] = report["machine"] or {k: v for k, v in machine.items() if k != "loadavg_at_start"}
                runs[side].append(result)
                print(f"{name} seed {seed} {side}: {json.dumps(result)}", flush=True)
        entry = {
            side: {"correct": all(r["correct"] for r in rs), "failed": sum(r["failed"] for r in rs)}
            for side, rs in runs.items()
        }
        for m in spec["end_to_end"]:
            key = m["name"]
            parent = [r["metrics"][key]["value"] for r in runs["parent"]]
            change = [r["metrics"][key]["value"] for r in runs["change"]]
            sign = 1.0 if m["better"] == "higher" else -1.0
            entry[key] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "parent": summary(parent),
                "change": summary(change),
                "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "median_ratio": float(np.median(change) / np.median(parent)),
            }
        report["workloads"][name] = entry
    if args.criterion08:
        times = {"parent": [], "change": []}
        for rep in range(args.criterion08):
            for side in ("parent", "change") if rep % 2 == 0 else ("change", "parent"):
                times[side].append(criterion08_s(trees[side]))
                print(f"criterion 08 {side}: {times[side][-1]:.1f} s", flush=True)
        report["criterion08_wall_s"] = times
    Path(args.out).write_text(json.dumps(report, indent=1, default=float) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
