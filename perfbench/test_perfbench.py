"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke tests run every workload for a fraction of a second (one complete
cycle), so they take about a minute in all.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import instances

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "0.1",
         "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_without_failures(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_instances_are_a_pure_function_of_the_seed():
    for i, shape in enumerate(instances.MIX):
        a = instances.instance_text((11, 0, i), shape)
        assert a == instances.instance_text((11, 0, i), shape)
        assert a != instances.instance_text((12, 0, i), shape)
    code = "import instances; print(instances.instance_text((11, 0, 0), instances.MIX[0]))"
    other = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=HERE, check=True)
    assert other.stdout.strip() == instances.instance_text((11, 0, 0), instances.MIX[0])


def test_instances_stay_under_the_library_guards():
    sys.path.insert(0, str(ROOT / "src"))
    from cmab.oracles import ENUMERATION_GUARD
    from cmab.rewards import CONVOLUTION_GUARD

    for i, shape in enumerate(instances.MIX):
        doc = instances.instance_doc((5, 0, i), shape)
        sets = instances.feasible_sets(doc)
        assert len(doc["arms"]) == shape.m
        assert len(sets) < ENUMERATION_GUARD
        assert shape.support ** max(len(s) for s in sets) < CONVOLUTION_GUARD
        covered = {a for s in sets for a in s}
        assert covered == set(range(shape.m))


def test_brute_force_value_matches_a_hand_computed_case():
    doc = {
        "arms": [{"support": [0.0, 1.0], "probs": [0.5, 0.5]}, {"support": [0.5], "probs": [1.0]}],
        "family": {"kind": "cardinality", "K": 2},
        "reward": {"kind": "kmax"},
    }
    assert instances.brute_force_value(doc, (0, 1)) == pytest.approx(0.75)
