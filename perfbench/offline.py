"""Offline workload: ``cmab offline`` on seeded random instance files.

Each cycle writes one instance per shape in ``instances.MIX`` and solves it
with every solver the shape lists, through ``cmab.cli.main(["offline", ...])``.
Outputs are checked against an independent brute-force evaluator and against
each other: greedy >= (1 - 1/e) exhaustive, ptas >= exhaustive - 8 eps W.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time

import numpy as np

import instances
from calibrate import Calibrated
from checks import Checks, sha256_text
from regret import more_cycles

GOLDEN_KEY = (0,)  # seed words of the golden instances
REL_TOL = 1e-9


def cli_offline(cli, path, solver) -> tuple[int, str, float]:
    """One in-process ``cmab offline``; returns (exit code, stdout, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["offline", "--instance", str(path), "--solver", solver, "--epsilon", str(instances.PTAS_EPS)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


def parse_output(text: str):
    """(members, value) from the ``set:`` and ``value:`` lines."""
    lines = text.splitlines()
    if len(lines) != 2 or not lines[0].startswith("set:") or not lines[1].startswith("value:"):
        raise ValueError(f"unexpected output {text!r}")
    members = tuple(int(x) for x in lines[0][len("set:") :].split())
    return members, float(lines[1][len("value:") :])


def check_instance(checks: Checks, results: dict, label: str) -> None:
    """Cross-solver bounds for one instance; ``results`` maps solver -> value."""
    exh = results.get("exhaustive")
    if exh is None:
        return
    tol = REL_TOL * max(1.0, abs(exh))
    for solver, v in results.items():
        checks.expect(v <= exh + tol, f"{label}: {solver} value {v!r} exceeds the exhaustive optimum {exh!r}")
    if "greedy" in results:
        g = results["greedy"]
        checks.expect(g >= (1.0 - 1.0 / math.e) * exh - tol, f"{label}: greedy {g!r} below (1-1/e) * {exh!r}")
        if "ptas" in results:
            # W is the greedy seed's value, which is exactly what greedy prints
            bound = exh - 8.0 * instances.PTAS_EPS * g
            checks.expect(results["ptas"] >= bound - tol, f"{label}: ptas {results['ptas']!r} below {bound!r}")


def solve_instance(cli, doc: dict, shape, path, checks: Checks, label: str, timings=None, digests=None):
    """Every solver of ``shape`` on one instance, with per-output checks."""
    feasible = set(instances.feasible_sets(doc))
    results = {}
    for solver in shape.solvers:
        rc, text, dt = cli_offline(cli, path, solver)
        key = f"{label}/{solver}"
        if not checks.op(rc == 0, f"{key}: exit code {rc}"):
            continue
        if timings is not None:
            timings.add(dt)
        if digests is not None:
            digests[key] = sha256_text(text)
        try:
            members, value = parse_output(text)
        except ValueError as e:
            checks.expect(False, f"{key}: {e}")
            continue
        checks.expect(members in feasible, f"{key}: set {members} is not feasible")
        if members in feasible:
            ref = instances.brute_force_value(doc, members)
            checks.expect(
                abs(ref - value) <= REL_TOL * max(1.0, abs(ref)), f"{key}: value {value!r}, brute force {ref!r}"
            )
        results[solver] = value
    check_instance(checks, results, label)


def write_instance(work, key, shape) -> tuple[dict, object]:
    path = work / f"{shape.label}.json"
    text = instances.instance_text(key, shape)
    path.write_text(text)
    return json.loads(text), path


def golden_digests(cli, work, checks: Checks) -> dict[str, str]:
    """Digest of every solver's output on the golden instances."""
    digests = {}
    for shape in instances.MIX:
        doc, path = write_instance(work, GOLDEN_KEY, shape)
        solve_instance(cli, doc, shape, path, checks, f"offline_solve/{shape.label}", digests=digests)
    return digests


def timed_cycles(cli, seed: int, seconds: float, work, checks: Checks):
    """Complete cycles of the mix for about ``seconds``.

    Returns the calibrated duration of each successful solve and the cycle count.
    """
    latencies = Calibrated(block_s=0.5)
    start = time.perf_counter()
    c = 0
    while c == 0 or more_cycles(start, seconds, c):
        for i, shape in enumerate(instances.MIX):
            doc, path = write_instance(work, (seed, c, i), shape)
            solve_instance(cli, doc, shape, path, checks, f"seed {seed} cycle {c} {shape.label}", latencies)
        c += 1
    latencies.flush()
    return latencies, c


# ---------------------------------------------------------------- tracing


class OfflineTracer:
    """Traced replica of ``cli.cmd_offline``: parse, solve, score, one span each."""

    def __init__(self, cmab, tr):
        self.cmab = cmab
        self.tr = tr
        self.ids = {
            n: tr.name_id(n)
            for n in (
                "cli.parse",
                "oracles.greedy",
                "oracles.exhaustive",
                "oracles.ptas",
                "rewards.expected_reward",
            )
        }
        self.exhaustive_sets: list[int] = []

    def metrics(self, t, checks: Checks) -> dict[str, float]:
        return {"oracles.exhaustive_sets": float(np.mean(self.exhaustive_sets))}

    def _parse(self, argv, path):
        """What ``cmd_offline`` does before solving, through public constructors."""
        cmab = self.cmab
        cmab.cli.build_parser().parse_args(argv)
        with open(path) as f:
            doc = json.load(f)
        arms = [cmab.distributions.make_finite(a["support"], a["probs"]) for a in doc["arms"]]
        fam = doc["family"]
        if fam["kind"] == "cardinality":
            family = cmab.oracles.FeasibleFamily.cardinality_at_most(int(fam["K"]), len(arms))
        else:
            family = cmab.oracles.FeasibleFamily.explicit(
                [cmab.rewards.SuperArm(s) for s in fam["sets"]], len(arms)
            )
        rew = doc["reward"]
        if rew["kind"] == "kmax":
            spec = cmab.rewards.kmax_spec()
        else:
            spec = cmab.rewards.utility_spec(rew["utility"], bound_M=float(rew["bound_M"]), lipschitz_C=1.0)
        return arms, family, spec

    def solve(self, path, solver, checks: Checks, label: str) -> None:
        cmab, tr, ids = self.cmab, self.tr, self.ids
        rc, text, _ = cli_offline(cmab.cli, path, solver)
        checks.begin()
        if not checks.expect(rc == 0, f"{label}: exit code {rc}"):
            return
        argv = ["offline", "--instance", str(path), "--solver", solver, "--epsilon", str(instances.PTAS_EPS)]
        h = tr.begin(ids["cli.parse"])
        arms, family, spec = self._parse(argv, path)
        tr.end_span(h)
        h = tr.begin(ids[f"oracles.{solver}"])
        if solver == "exhaustive":
            S = cmab.oracles.exhaustive_oracle(arms, family, spec)
            self.exhaustive_sets.append(family.count())
        elif solver == "greedy":
            S = cmab.oracles.greedy_kmax(arms, family.K)
        else:
            S = cmab.oracles.ptas_kmax(arms, family.K, instances.PTAS_EPS)
        tr.end_span(h)
        h = tr.begin(ids["rewards.expected_reward"])
        value = cmab.rewards.expected_reward(arms, S, spec)
        tr.end_span(h)
        expected = "set: " + " ".join(str(i) for i in S.members) + "\nvalue: " + format(value, ".12g") + "\n"
        checks.expect(text == expected, f"{label}: replica output {expected!r} differs from {text!r}")
        if solver == "exhaustive":
            best, best_val = None, -np.inf
            for cand in family:
                h = tr.begin(ids["rewards.expected_reward"])
                v = cmab.rewards.expected_reward(arms, cand, spec)
                tr.end_span(h)
                if v > best_val or (v == best_val and cand.members < best.members):
                    best, best_val = cand, v
            checks.expect(best == S, f"{label}: enumerated optimum {best!r} differs from {S!r}")


def traced_cycles(cmab, seed: int, seconds: float, work, checks: Checks, tr) -> OfflineTracer:
    ot = OfflineTracer(cmab, tr)
    start = time.perf_counter()
    c = 0
    while c == 0 or more_cycles(start, seconds, c):
        for i, shape in enumerate(instances.MIX):
            _, path = write_instance(work, (seed, c, i), shape)
            for solver in shape.solvers:
                ot.solve(path, solver, checks, f"traced seed {seed} cycle {c} {shape.label}/{solver}")
        c += 1
    return ot
