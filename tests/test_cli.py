"""Command-line interface: subcommands, config merging, exit codes."""

import collections
import contextlib
import io
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmab import cli
from cmab.cli import main
from cmab.distributions import MASS_TOL, CdfMatrix, FiniteDistribution, PiecewiseDensity, make_finite
from cmab.harness import Environment, PolicyFactory, run_many, write_csv
from cmab.oracles import FeasibleFamily, exhaustive_oracle
from cmab.rewards import SuperArm, _SupportTable, expected_reward, kmax_spec
from util import (
    joint_expected,
    reference_expected_kmax_continuous,
    reference_parse_arms,
    reference_parse_sets,
    value_pool,
)


def run_csv_lines(path):
    return path.read_text().splitlines()


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


CARD = {"kind": "cardinality", "K": 2}
LINEAR = {"kind": "linear", "bound_M": 2.0}
UTILITY = {"kind": "utility", "utility": "sqrt", "bound_M": 2.0, "lipschitz_C": 1.0}

TINY_ARMS = [
    {"support": [0.0, 1.0], "probs": [0.5, 0.5]},
    {"support": [0.0, 1.0], "probs": [0.8, 0.2]},
    {"support": [0.5], "probs": [1.0]},
]

# JSON values of the wrong type, or numbers that are not finite: (subcommand, document fields)
BAD_FIELDS = {
    "K-inf": ("offline", {"family": {**CARD, "K": math.inf}}),
    "K-list": ("offline", {"family": {**CARD, "K": [1]}}),
    "K-fraction": ("offline", {"family": {**CARD, "K": 2.7}}),
    "K-bool": ("offline", {"family": {**CARD, "K": True}}),
    "set-member-inf": ("offline", {"family": {"kind": "explicit", "sets": [[0, math.inf], [1, 2]]}}),
    "set-not-list": ("offline", {"family": {"kind": "explicit", "sets": [0]}}),
    "set-member-bool": ("offline", {"family": {"kind": "explicit", "sets": [[0, 1], [True, 2]]}}),
    "bound_M-list": ("offline", {"reward": {**LINEAR, "bound_M": [1]}}),
    "bound_M-bool": ("offline", {"reward": {**LINEAR, "bound_M": True}}),
    "bound_M-nan": ("offline", {"reward": {**UTILITY, "bound_M": math.nan}}),
    "lipschitz_C-inf": ("offline", {"reward": {**UTILITY, "lipschitz_C": math.inf}}),
    "lipschitz_C-string": ("offline", {"reward": {**UTILITY, "lipschitz_C": "1"}}),
    "T-inf": ("run", {"T": math.inf}),
    "T-fraction": ("run", {"T": 2.9}),
    "T-bool": ("run", {"T": True}),
    "runs-string": ("run", {"runs": "2"}),
    "seed-fraction": ("run", {"seed": 1.5}),
    "epsilon-nan": ("run", {"epsilon": math.nan}),
    "epsilon-negative": ("run", {"epsilon": -0.25}),
    "epsilon-zero": ("run", {"epsilon": 0}),
    "epsilon-half": ("run", {"epsilon": 0.5}),
    "alpha-bool": ("run", {"alpha": True}),
    "out-number": ("run", {"out": 1}),
    "out-null": ("run", {"out": None}),
    "env-list": ("run", {"env": ["dist1"]}),
    "support-object": ("offline", {"arms": [{"support": {"x": 1}, "probs": [1.0]}, *TINY_ARMS[1:]]}),
    "support-huge": ("offline", {"arms": [{"support": [10**400], "probs": [1.0]}, *TINY_ARMS[1:]]}),
    "probs-string": ("offline", {"arms": [{"support": [0.5], "probs": ["1.0"]}, *TINY_ARMS[1:]]}),
    "probs-bool": ("offline", {"arms": [{"support": [0.5], "probs": [True]}, *TINY_ARMS[1:]]}),
    "breakpoints-object": ("offline", {"arms": [{"breakpoints": {"x": 1}, "densities": [1.0]}, *TINY_ARMS[1:]]}),
    "utility-point-number": ("offline", {"reward": {**UTILITY, "utility": [1, 2]}}),
    "utility-point-null": ("offline", {"reward": {**UTILITY, "utility": [[0, 0], [1, None]]}}),
    "utility-point-huge": ("offline", {"reward": {**UTILITY, "utility": [[0, 0], [1, 10**400]]}}),
}

TINY_INSTANCE = {
    "arms": TINY_ARMS,
    "family": {"kind": "cardinality", "K": 2},
    "reward": {"kind": "kmax"},
}


# documents reaching each rejection of the config and instance readers: (subcommand, document, message)
CONFIG_ERRORS = {
    "config-not-object": ("run", [1], "config: expected a JSON object"),
    "config-unknown-policy": ("run", {"env": "dist1", "policy": "thompson"}, "unknown policy 'thompson'"),
    "config-unknown-oracle": ("run", {"env": "dist1", "policy": "sdcb", "oracle": "lp"}, "unknown oracle 'lp'"),
    "config-unknown-field": ("run", {"env": "dist1", "policy": "sdcb", "orcale": "greedy"}, "config: unknown field 'orcale'"),
    "config-env-and-arms": ("run", {**TINY_INSTANCE, "env": "dist1", "policy": "cucb"}, "config: 'arms' given with a named"),
    "config-env-and-reward": ("run", {"env": "dist1", "policy": "cucb", "reward": {"kind": "kmax"}}, "config: 'reward' given"),
    "no-environment": ("run", {"policy": "sdcb"}, "no environment"),
    "instance-not-object": ("offline", [1], "instance: expected a JSON object"),
    "instance-unknown-field": ("offline", {**TINY_INSTANCE, "solver": "greedy"}, "instance: unknown field 'solver'"),
    "no-arms": ("offline", {"family": CARD}, "instance: need a nonempty 'arms' list"),
    "no-family": ("offline", {"arms": TINY_ARMS}, "instance: missing 'family'"),
    "family-without-kind": ("offline", {"arms": TINY_ARMS, "family": {"K": 2}}, "family: expected an object with"),
    "family-without-K": ("offline", {"arms": TINY_ARMS, "family": {"kind": "cardinality"}}, "family: cardinality needs"),
    "family-without-sets": ("offline", {"arms": TINY_ARMS, "family": {"kind": "explicit"}}, "family: explicit needs"),
    "family-unknown-kind": ("offline", {"arms": TINY_ARMS, "family": {"kind": "matroid"}}, "family: unknown kind"),
    "family-cardinality-sets": (
        "offline",
        {"arms": TINY_ARMS, "family": {**CARD, "sets": [[0]]}},
        "family: unknown field 'sets' for kind 'cardinality'",
    ),
    "family-explicit-K": (
        "offline",
        {"arms": TINY_ARMS, "family": {"kind": "explicit", "sets": [[0, 1, 2]], "K": 3}},
        "family: unknown field 'K' for kind 'explicit'",
    ),
    "sets-empty": ("offline", {"arms": TINY_ARMS, "family": {"kind": "explicit", "sets": []}}, "explicit family must be"),
    "set-empty": ("offline", {"arms": TINY_ARMS, "family": {"kind": "explicit", "sets": [[0, 1, 2], []]}}, "super arm must"),
    "set-member-negative": ("offline", {"arms": TINY_ARMS, "family": {"kind": "explicit", "sets": [[0, -1]]}}, "arm indices"),
    "set-member-past-m": ("offline", {"arms": TINY_ARMS, "family": {"kind": "explicit", "sets": [[2, 1, 0], [5, 3]]}}, "arm 5 out"),
    "set-member-huge": ("offline", {"arms": TINY_ARMS, "family": {"kind": "explicit", "sets": [[0, 1, 2, 10**30]]}}, "arm 1000"),
    "arm-uncovered": ("offline", {"arms": TINY_ARMS, "family": {"kind": "explicit", "sets": [[2, 0, 2]]}}, "arms [1] appear in"),
    "sets-first-bad": ("offline", {"arms": TINY_ARMS[:1], "family": {"kind": "explicit", "sets": [[99], []]}}, "arm 99 out of range for m=1"),
    "reward-not-object": ("offline", {"arms": TINY_ARMS, "family": CARD, "reward": "kmax"}, "reward: expected an object"),
    "reward-unread-field": (
        "offline",
        {"arms": TINY_ARMS, "family": CARD, "reward": {"reward": {"kind": "linear"}}},
        "reward: unknown field 'reward' for kind 'kmax'",
    ),
    "arm-not-object": ("offline", {"arms": [[0.5]], "family": CARD}, "arm 0: expected an object"),
    "arm-without-probs": ("offline", {"arms": [{"support": [0.5]}]}, "arm 0: finite arms need both"),
    "arm-without-densities": ("offline", {"arms": [{"breakpoints": [0, 1]}]}, "arm 0: continuous arms need both"),
    "arm-without-fields": ("offline", {"arms": [{}]}, "arm 0: need 'support'/'probs' or 'breakpoints'/'densities'"),
    "arm-unknown-field": ("offline", {"arms": [TINY_ARMS[0], {**TINY_ARMS[1], "weights": [1]}]}, "arm 1: unknown field 'weights'"),
    "arm-mixed-pairs": ("offline", {"arms": [{**TINY_ARMS[0], "breakpoints": [0, 1]}]}, "arm 0: unknown field 'breakpoints'"),
}

# instances whose arms go bad in more than one place, and the error reported, the first bad arm's:
# (arms, message); the finite arms' values are checked in one batch after every arm's fields are read
BAD_MASS = {"support": [0.2, 0.8], "probs": [0.5, 0.4]}
UNIFORM = {"breakpoints": [0.0, 1.0], "densities": [1.0]}
FIRST_BAD_ARM = {
    "mass-before-non-number": ([BAD_MASS, {"support": [0.5], "probs": ["1.0"]}], "arm 0: masses sum to 0.9, expected 1"),
    "mass-before-malformed": ([BAD_MASS, {"support": [0.5], "probs": [0.5, 0.5]}], "arm 0: masses sum to 0.9,"),
    "mass-before-bad-range": ([BAD_MASS, {"support": [1.5], "probs": [1.0]}], "arm 0: masses sum to 0.9,"),
    "mass-before-bad-density": ([BAD_MASS, {"breakpoints": [0.0, 1.0], "densities": [0.5]}], "arm 0: masses sum to"),
    "mass-before-missing-field": ([BAD_MASS, {"breakpoints": [0.0, 1.0]}], "arm 0: masses sum to 0.9,"),
    "non-number-before-mass": ([{"support": [0.5], "probs": [None]}, BAD_MASS], "arm 0: probs: expected a finite"),
    "bad-density-before-mass": ([{"breakpoints": [0.0, 1.0], "densities": [0.5]}, BAD_MASS], "arm 0: density integrates"),
    "gap-before-mass": ([{"support": [0.5, 0.5 + 1e-10], "probs": [0.5, 0.5]}, BAD_MASS], "arm 0: distinct support"),
    "malformed-before-mass": ([{"support": [], "probs": []}, BAD_MASS], "arm 0: support and probs must be nonempty"),
    "mass-after-good": ([TINY_ARMS[0], BAD_MASS, {"support": [-0.5], "probs": [1.0]}], "arm 1: masses sum to 0.9,"),
    "mass-after-continuous": ([UNIFORM, BAD_MASS], "arm 1: masses sum to 0.9,"),
    "range-after-continuous": ([UNIFORM, TINY_ARMS[0], {"support": [1.5], "probs": [1.0]}], "arm 2: support values must"),
    "too-few-breakpoints": ([TINY_ARMS[0], {"breakpoints": [0.0], "densities": []}], "arm 1: need at least two break"),
    "density-per-segment": ([{"breakpoints": [0.0, 0.5, 1.0], "densities": [1.0]}], "arm 0: need one density per segm"),
}

# flags whose range the library checks, and the message it raises: (flags, message)
COUNT_ERRORS = {
    "T-zero": (["--T", "0"], "horizon T must be >= 1"),
    "runs-zero": (["--runs", "0"], "runs must be >= 1"),
    "jobs-zero": (["--jobs", "0"], "n_jobs must be >= 1"),
    "seed-negative": (["--seed", "-1"], "seed must be a nonnegative integer"),
}

# instances whose continuous arm the requested evaluation cannot read: (subcommand, extra flags, reward)
CONTINUOUS_ARMS = {"arms": [{"breakpoints": [0.0, 0.5, 1.0], "densities": [1.5, 0.5]}, *TINY_INSTANCE["arms"][1:]]}
FINITE_ONLY = {
    "offline-ptas": ("offline", ["--solver", "ptas"], {"kind": "kmax"}),
    "offline-utility": ("offline", [], UTILITY),
    "run-utility": ("run", [], UTILITY),
}


class TestEnvs:
    def test_lists_all_builtins(self, capsys):
        assert main(["envs"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in out] == ["dist1", "dist2", "dist3", "dist4"]
        assert all("  " in line for line in out)


class TestRun:
    def test_writes_trace_and_reports(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            ["run", "--env", "dist1", "--policy", "cucb", "--T", "15", "--runs", "2", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        msg = capsys.readouterr().out
        assert "env=dist1 policy=cucb oracle=exhaustive T=15 runs=2" in msg
        lines = run_csv_lines(out)
        assert lines[0] == "round,expected_reward,cum_regret"
        assert len(lines) == 16

    def test_deterministic_given_seed(self, tmp_path, capsys):
        args = ["run", "--env", "dist2", "--policy", "sdcb", "--oracle", "greedy", "--T", "25", "--runs", "2", "--seed", "11"]
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(c)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_per_run_output(self, tmp_path, capsys):
        out, per = tmp_path / "avg.csv", tmp_path / "runs.csv"
        code = main(
            ["run", "--env", "dist1", "--policy", "cucb", "--T", "5", "--runs", "3",
             "--out", str(out), "--per-run-out", str(per)]
        )
        assert code == 0
        capsys.readouterr()
        lines = run_csv_lines(per)
        assert lines[0] == "round,expected_reward,cum_regret,run"
        assert len(lines) == 16

    def test_config_file_supplies_everything(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        cfg = write_config(
            tmp_path, {"env": "dist1", "policy": "cucb", "T": 8, "runs": 1, "seed": 3, "out": str(out)}
        )
        assert main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert len(run_csv_lines(out)) == 9

    def test_flags_override_config(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        cfg = write_config(
            tmp_path, {"env": "dist1", "policy": "cucb", "T": 30, "runs": 1, "out": str(out)}
        )
        assert main(["run", "--config", str(cfg), "--T", "10"]) == 0
        msg = capsys.readouterr().out
        assert "T=10" in msg
        assert len(run_csv_lines(out)) == 11

    def test_inline_arms_in_config(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        cfg = write_config(
            tmp_path,
            {**TINY_INSTANCE, "policy": "sdcb", "T": 6, "runs": 1, "out": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert len(run_csv_lines(out)) == 7

    def test_inline_explicit_family(self, tmp_path, capsys):
        # sets read as one int array run as the same sets built one SuperArm at a time: the same trace
        sets = [[2, 0, 2], [1], [1, 2]]
        out = tmp_path / "trace.csv"
        family = {"kind": "explicit", "sets": sets}
        cfg = write_config(tmp_path, {**TINY_INSTANCE, "family": family, "policy": "sdcb", "T": 12, "runs": 2, "out": str(out)})
        assert main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        arms = [make_finite(a["support"], a["probs"]) for a in TINY_ARMS]
        env = Environment(arms, FeasibleFamily.explicit([SuperArm(S) for S in sets], 3), kmax_spec())
        avg, _ = run_many(env, PolicyFactory("sdcb"), 12, 2, 42)
        write_csv(avg, tmp_path / "library.csv")
        assert run_csv_lines(out) == run_csv_lines(tmp_path / "library.csv")


class TestParserReuse:
    def test_state_does_not_leak_between_calls(self, tmp_path, capsys):
        # main reuses one parser: a failed call leaves no values behind for the next
        inst = write_config(tmp_path, TINY_INSTANCE, "inst.json")
        missing = tmp_path / "missing.json"
        assert main(["offline", "--instance", str(missing), "--solver", "greedy", "--epsilon", "0.5"]) == 1
        assert "cmab: error:" in capsys.readouterr().err
        out = tmp_path / "trace.csv"
        assert main(["run", "--env", "dist1", "--policy", "osm", "--T", "5", "--runs", "1", "--out", str(out)]) == 0
        assert "env=dist1 policy=osm" in capsys.readouterr().out
        assert len(run_csv_lines(out)) == 6
        assert main(["offline", "--instance", str(inst)]) == 0
        assert capsys.readouterr().out.splitlines() == ["set: 0 2", "value: 0.75"]
        args = cli._parser().parse_args(["offline", "--instance", str(inst)])
        assert (args.solver, args.epsilon) == ("exhaustive", 0.25)
        assert cli._parser() is cli._parser()


class TestOffline:
    def test_explicit_sets_read_as_rows(self):
        # members in any order and repeated: each set is a sorted, repeat-free row, padded with m, in document order
        family = cli._parse_family({"kind": "explicit", "sets": [[2, 0, 2], [1], [3, 1]]}, 4)
        assert family.K == 2 and family.count() == 3
        assert family.index_rows().tolist() == [[0, 2], [1, 4], [1, 3]]
        assert tuple(family) == (SuperArm([0, 2]), SuperArm([1]), SuperArm([1, 3]))
        assert family.is_feasible(SuperArm([1, 3])) and not family.is_feasible(SuperArm([0, 1]))
        assert family.smallest_containing(3) == SuperArm([1, 3])

    def test_exhaustive_set_and_value(self, tmp_path, capsys):
        inst = write_config(tmp_path, TINY_INSTANCE, "inst.json")
        assert main(["offline", "--instance", str(inst), "--solver", "exhaustive"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "set: 0 2"
        assert out[1] == "value: 0.75"

    def test_greedy_and_ptas_agree_here(self, tmp_path, capsys):
        inst = write_config(tmp_path, TINY_INSTANCE, "inst.json")
        for solver in ("greedy", "ptas"):
            assert main(["offline", "--instance", str(inst), "--solver", solver, "--epsilon", "0.25"]) == 0
            out = capsys.readouterr().out.splitlines()
            assert out[0] == "set: 0 2"

    def test_explicit_family_and_utility_reward(self, tmp_path, capsys):
        payload = {
            "arms": TINY_INSTANCE["arms"][:2],
            "family": {"kind": "explicit", "sets": [[0], [1], [0, 1]]},
            "reward": {"kind": "linear"},
        }
        inst = write_config(tmp_path, payload, "inst.json")
        assert main(["offline", "--instance", str(inst), "--solver", "exhaustive"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "set: 0 1"
        assert out[1] == "value: 0.7"

    def test_reward_defaults_to_kmax(self, tmp_path, capsys):
        doc = {key: value for key, value in TINY_INSTANCE.items() if key != "reward"}
        for payload in (doc, TINY_INSTANCE):
            assert main(["offline", "--instance", str(write_config(tmp_path, payload))]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == out[2:] == ["set: 0 2", "value: 0.75"]

    @pytest.mark.parametrize("solver", ["exhaustive", "greedy", "ptas"])
    def test_kmax_reads_one_matrix(self, tmp_path, capsys, monkeypatch, solver):
        # the instance's CDF matrix is built once, and neither the solver nor the value builds a law from it
        built, laws = [], []
        of, getitem = CdfMatrix.of.__func__, CdfMatrix.__getitem__
        monkeypatch.setattr(CdfMatrix, "of", classmethod(lambda cls, dists: built.append(len(dists)) or of(cls, dists)))
        monkeypatch.setattr(CdfMatrix, "__getitem__", lambda self, i: laws.append(i) or getitem(self, i))
        inst = write_config(tmp_path, TINY_INSTANCE, "inst.json")
        assert main(["offline", "--instance", str(inst), "--solver", solver]) == 0
        assert capsys.readouterr().out.splitlines() == ["set: 0 2", "value: 0.75"]
        assert built == [3] and laws == []

    def test_utility_reads_one_support_table(self, tmp_path, capsys, monkeypatch):
        # the instance's support table is built once, from the laws' matrix, for the solver and the value alike
        arms = [make_finite(a["support"], a["probs"]) for a in TINY_INSTANCE["arms"]]
        spec = cli._parse_reward(UTILITY)
        S = exhaustive_oracle(arms, FeasibleFamily.cardinality_at_most(2, 3), spec)
        want = [f"set: {' '.join(map(str, S.members))}", f"value: {expected_reward(arms, S, spec):.12g}"]
        built = []
        init = _SupportTable.__init__
        monkeypatch.setattr(_SupportTable, "__init__", lambda self, dists: built.append(len(dists)) or init(self, dists))
        inst = write_config(tmp_path, {**TINY_INSTANCE, "reward": UTILITY}, "inst.json")
        assert main(["offline", "--instance", str(inst)]) == 0
        assert capsys.readouterr().out.splitlines() == want
        assert built == [3]

    def test_greedy_rejects_explicit_family(self, tmp_path, capsys):
        payload = {
            "arms": TINY_INSTANCE["arms"][:2],
            "family": {"kind": "explicit", "sets": [[0], [1]]},
            "reward": {"kind": "kmax"},
        }
        inst = write_config(tmp_path, payload, "inst.json")
        assert main(["offline", "--instance", str(inst), "--solver", "greedy"]) == 1


def random_arm_docs(rng, m):
    """m arm documents as JSON gives them, and now and then one made bad.

    Finite arms: unsorted supports with repeats and near repeats, zero masses, totals a few ulps off 1 +- MASS_TOL,
    some entries JSON integers; continuous arms: densities that may not integrate to 1.  A bad arm has a junk entry
    or array, a dropped key, an array inside an object, an entry inside a list, unequal or empty lists, an extra key
    (the other kind's among them), or is not an object.
    """
    docs = []
    for _ in range(m):
        if rng.random() < 0.25:
            inner = np.sort(rng.choice(GRID[1:-1], size=int(rng.integers(0, 3)), replace=False))
            breakpoints = [0, *inner.tolist(), 1]
            weights = rng.integers(0, 5, size=len(breakpoints) - 1)
            weights[int(rng.integers(len(weights)))] += 1
            widths = np.diff(breakpoints)
            densities = (weights / (weights @ widths) if rng.random() < 0.9 else weights).tolist()
            doc = {"breakpoints": breakpoints, "densities": densities}
        else:
            support = rng.choice(value_pool(rng, rng.random() < 0.3), size=int(rng.integers(1, 7))).tolist()
            probs = rng.random(len(support)) * (rng.random(len(support)) < 0.9)
            probs = probs / probs.sum() if probs.sum() > 0.0 else probs
            if rng.random() < 0.3:
                probs = probs * (1.0 + rng.choice([-1.0, 1.0]) * MASS_TOL + int(rng.integers(-4, 5)) * 2.0**-52)
            support = [int(v) if v in (0.0, 1.0) and rng.random() < 0.5 else v for v in support]
            doc = {"support": support, "probs": probs.tolist()}
        if rng.random() < 0.15:
            key = str(rng.choice(sorted(doc)))
            at = int(rng.integers(len(doc[key]))) if doc[key] else 0
            how = int(rng.integers(9))
            if how == 0 and doc[key]:
                doc[key][at] = JUNK[int(rng.integers(len(JUNK)))]
            elif how == 1:
                doc[key] = JUNK[int(rng.integers(len(JUNK)))]
            elif how == 2:
                del doc[key]
            elif how == 3:
                doc[key] = {"0": doc[key]}
            elif how == 4 and doc[key]:
                doc[key][at] = [doc[key][at]]
            elif how == 5:
                doc[key] = doc[key][1:]
            elif how == 6:
                doc = {key: [] for key in doc}
            elif how == 7:
                doc[str(rng.choice(["weights", "support" if "breakpoints" in doc else "breakpoints"]))] = [1.0]
            else:
                doc = [doc, None, "arm"][int(rng.integers(3))]
        docs.append(doc)
    return docs


class TestArmReader:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_matches_reference(self, seed, m):
        # where the reference reader, each number checked on its own and a law built per arm, gives laws, the
        # one-pass reader gives the same laws bit for bit; where it raises, the reader raises its message
        docs = random_arm_docs(np.random.default_rng(seed), m)
        try:
            want = reference_parse_arms(json.loads(json.dumps(docs)))
        except (ValueError, cli._ConfigError) as e:
            want = str(e)
        try:
            got = cli._parse_arms(json.loads(json.dumps(docs)))
        except (ValueError, cli._ConfigError) as e:
            got = str(e)
        if isinstance(want, str):
            assert got == want
            return
        fields = lambda law: [law.support, law.probs] if isinstance(law, FiniteDistribution) else [law.breakpoints, law.densities]
        assert [type(law) for law in got] == [type(law) for law in want]
        assert [[a.tobytes() for a in (*fields(law), law.cum)] for law in got] == [
            [a.tobytes() for a in (*fields(law), law.cum)] for law in want
        ]


def random_sets(rng, m):
    """An explicit family's sets over m arms as JSON gives them, members in any order and repeated, some arm perhaps
    in no set, and up to three sets made bad: not a list, a junk, negative or out-of-range member, or emptied."""
    sets = [rng.integers(0, m, size=int(rng.integers(1, 4))).tolist() for _ in range(int(rng.integers(1, 6)))]
    for _ in range([0, 0, 1, 2, 3][int(rng.integers(5))]):
        j = int(rng.integers(len(sets)))
        how = int(rng.integers(3))
        if how == 0:
            sets[j] = [{"0": 1}, 1, None, "0"][int(rng.integers(4))]
        elif how == 1 and isinstance(sets[j], list) and sets[j]:
            member = [True, 1.0, 1.5, "1", None, [1], math.inf, -1, m, 99, 10**30][int(rng.integers(11))]
            sets[j][int(rng.integers(len(sets[j])))] = member
        else:
            sets[j] = []
    return sets


class TestSetReader:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_matches_reference(self, tmp_path_factory, seed, m):
        # the reader exits as the per-set reference reads: 1 with the first bad set's error in index order, or 0 on
        # the family whose rows the reference builds
        sets = random_sets(np.random.default_rng(seed), m)
        try:
            want = reference_parse_sets(json.loads(json.dumps(sets)), m)
        except ValueError as e:
            want = str(e)
        doc = {"arms": TINY_ARMS[:1] * m, "family": {"kind": "explicit", "sets": sets}}
        path = tmp_path_factory.mktemp("sets") / "instance.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["offline", "--instance", str(path)])
        if isinstance(want, str):
            assert (code, out.getvalue(), err.getvalue()) == (1, "", f"cmab: error: {want}\n")
            return
        assert code == 0 and err.getvalue() == ""
        got = cli._parse_family(json.loads(json.dumps(doc["family"])), m)
        assert got.index_rows().tolist() == want.index_rows().tolist()


class TestExitCodes:
    def test_unknown_policy_is_usage_error(self, capsys):
        assert main(["run", "--env", "dist1", "--policy", "thompson"]) == 1

    def test_missing_policy(self, capsys):
        assert main(["run", "--env", "dist1"]) == 1

    def test_unknown_env(self, capsys):
        assert main(["run", "--env", "dist9", "--policy", "sdcb"]) == 1

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 1

    def test_bad_horizon(self, capsys):
        assert main(["run", "--env", "dist1", "--policy", "sdcb", "--T", "0"]) == 1

    @pytest.mark.parametrize("command, doc, message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
    def test_config_error(self, tmp_path, capsys, command, doc, message):
        out = tmp_path / "t.csv"
        if command == "run":
            argv = ["run", "--config", str(write_config(tmp_path, doc)), "--T", "3", "--runs", "1", "--out", str(out)]
        else:
            argv = ["offline", "--instance", str(write_config(tmp_path, doc))]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"cmab: error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("arms, message", FIRST_BAD_ARM.values(), ids=FIRST_BAD_ARM.keys())
    def test_first_bad_arm_reported(self, tmp_path, capsys, arms, message):
        inst = write_config(tmp_path, {"arms": arms, "family": {"kind": "cardinality", "K": 1}})
        assert main(["offline", "--instance", str(inst)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"cmab: error: {message}")

    @pytest.mark.parametrize("flags, message", COUNT_ERRORS.values(), ids=COUNT_ERRORS.keys())
    def test_count_rejected_by_library(self, tmp_path, capsys, flags, message):
        out = tmp_path / "t.csv"
        assert main(["run", "--env", "dist1", "--policy", "cucb", "--T", "2", *flags, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"cmab: error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--T", "0"], "horizon T must be >= 1"), (["--seed", "-1"], "seed must be a nonnegative integer")],
        ids=["horizon", "seed"],
    )
    def test_bad_argument_starts_no_worker(self, tmp_path, capsys, monkeypatch, flags, message):
        # run_many imports multiprocessing lazily and starts each worker through multiprocessing.Process
        monkeypatch.setattr(multiprocessing, "Process", lambda *args, **kwargs: pytest.fail("a worker was started"))
        out = tmp_path / "t.csv"
        argv = ["run", "--env", "dist1", "--policy", "cucb", "--T", "2", "--runs", "2", "--jobs", "2", *flags]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"cmab: error: {message}")
        assert not out.exists()

    def test_bad_alpha(self, capsys):
        assert main(["run", "--env", "dist1", "--policy", "sdcb", "--alpha", "1.5"]) == 1
        assert capsys.readouterr().err.startswith("cmab: error: alpha")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_bad_jobs(self, tmp_path, capsys, jobs):
        out = tmp_path / "t.csv"
        code = main(["run", "--env", "dist1", "--policy", "cucb", "--T", "2", "--jobs", jobs, "--out", str(out)])
        assert code == 1
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "arms",
        [
            [{"support": [0.5], "probs": [1.0]}, {"support": [0.2, float("nan")], "probs": [0.5, 0.5]}],
            [{"support": [float("nan")], "probs": [1.0]}],
        ],
        ids=["two-arms", "one-arm"],
    )
    def test_non_finite_instance(self, tmp_path, capsys, arms):
        inst = write_config(tmp_path, {"arms": arms, "family": {"kind": "cardinality", "K": 1}}, "nan.json")
        assert main(["offline", "--instance", str(inst)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cmab: error:") and "finite" in captured.err

    @pytest.mark.parametrize("command, flags, reward", FINITE_ONLY.values(), ids=FINITE_ONLY.keys())
    def test_continuous_arm_needs_finite_evaluator(self, tmp_path, capsys, command, flags, reward):
        out = tmp_path / "t.csv"
        doc = {**TINY_INSTANCE, **CONTINUOUS_ARMS, "reward": reward}
        if command == "offline":
            argv = ["offline", "--instance", str(write_config(tmp_path, doc)), *flags]
        else:
            config = {**doc, "policy": "sdcb", "T": 5, "runs": 1, "out": str(out)}
            argv = ["run", "--config", str(write_config(tmp_path, config))]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cmab: error: arm 0:") and "finite arms" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command, fields", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
    def test_bad_number(self, tmp_path, capsys, command, fields):
        out = tmp_path / "t.csv"
        if command == "offline":
            doc = write_config(tmp_path, {**TINY_INSTANCE, **fields})
            argv = ["offline", "--instance", str(doc)]
        else:
            base = {"env": "dist1", "policy": "cucb", "T": 3, "runs": 1, "out": str(out)}
            argv = ["run", "--config", str(write_config(tmp_path, {**base, **fields}))]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cmab: error:")
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-0.25", "0", "0.5"])
    def test_epsilon_out_of_range_with_any_solver(self, tmp_path, capsys, epsilon):
        # epsilon tunes only ptas, but an unusable value is rejected whichever solver runs
        inst = write_config(tmp_path, TINY_INSTANCE)
        assert main(["offline", "--instance", str(inst), "--solver", "greedy", "--epsilon", epsilon]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("cmab: error: epsilon")

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "no" / "dir" / "t.csv"
        code = main(["run", "--env", "dist1", "--policy", "cucb", "--T", "2", "--runs", "1", "--out", str(out)])
        assert code == 1

    @pytest.mark.parametrize(
        "reward, message",
        [
            ({"kind": "quadratic"}, "cmab: error: reward: unknown kind 'quadratic'"),
            ({"kind": "utility", "bound_M": 2.0}, "cmab: error: reward: utility kind needs a 'utility' curve"),
        ],
        ids=["unknown-kind", "utility-without-curve"],
    )
    def test_bad_reward(self, tmp_path, capsys, reward, message):
        inst = write_config(tmp_path, {**TINY_INSTANCE, "reward": reward})
        assert main(["offline", "--instance", str(inst)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message)

    @pytest.mark.parametrize("sizes, code", [((1000, 1000), 2), ((999, 1001), 0)], ids=["at-guard", "under-guard"])
    def test_convolution_guard(self, tmp_path, capsys, sizes, code):
        # the set {0, 1} has sizes[0] * sizes[1] product points, against CONVOLUTION_GUARD = 10^6
        arms = [{"support": [k / 1000 for k in range(n)], "probs": [1 / n] * n} for n in sizes]
        doc = {"arms": arms, "family": {"kind": "explicit", "sets": [[0, 1]]}, "reward": UTILITY}
        assert main(["offline", "--instance", str(write_config(tmp_path, doc))]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == "" and captured.err.startswith("cmab: guard exceeded:")
        else:
            assert captured.out.startswith("set: 0 1\n")

    def test_guard_violation_exits_two(self, tmp_path, capsys):
        # 40 arms with K=20 explodes the exhaustive subset count guard
        payload = {
            "arms": [{"support": [0.0, 1.0], "probs": [0.5, 0.5]}] * 40,
            "family": {"kind": "cardinality", "K": 20},
            "reward": {"kind": "kmax"},
        }
        inst = write_config(tmp_path, payload, "big.json")
        assert main(["offline", "--instance", str(inst), "--solver", "exhaustive"]) == 2
        assert "guard" in capsys.readouterr().err


# instance fuzzing: valid documents, and documents with one read field made invalid or one unread field added
GRID = [0.0, 0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.0]
JUNK = [math.nan, math.inf, -math.inf, -0.25, 1.5, 10**400, [], [1.5], {"x": 1}, "0.5", None, True]
CURVES = {"identity": lambda y: y, "sqrt": math.sqrt, "square": lambda y: y * y, "saturating": lambda y: 1 - math.exp(-y)}
TABLE = [[0.0, 0.0], [1.0, 0.8], [4.0, 1.0]]


REWARDS = [{"kind": "kmax"}, {"kind": "linear"}, {"kind": "utility", "utility": TABLE}] + [
    {"kind": "utility", "utility": name} for name in CURVES
]


@st.composite
def arm_docs(draw, continuous=True):
    """A finite arm on GRID, or, unless ``continuous`` is false, one time in four a continuous one with breakpoints
    on GRID and no density near 1.5."""
    if continuous and draw(st.integers(0, 3)) == 0:
        inner = draw(st.lists(st.sampled_from(GRID[1:-1]), max_size=3, unique=True))
        breakpoints = [0.0, *sorted(inner), 1.0]
        weights = draw(st.lists(st.integers(0, 9), min_size=len(breakpoints) - 1, max_size=len(breakpoints) - 1))
        total = sum(w * (b - a) for w, a, b in zip(weights, breakpoints, breakpoints[1:]))
        assume(total > 0)
        densities = [w / total for w in weights]
        assume(all(abs(d - 1.5) > 1e-6 for d in densities))  # a JUNK entry of 1.5 must unbalance the total
        return {"breakpoints": breakpoints, "densities": densities}
    support = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
    return {"support": support, "probs": [w / sum(weights) for w in weights]}


@st.composite
def instance_docs(draw):
    """(document, solver, whether one field was made invalid)."""
    arms = draw(st.lists(arm_docs(), min_size=1, max_size=5))
    m = len(arms)
    if draw(st.booleans()):
        family = {"kind": "cardinality", "K": draw(st.integers(1, m))}
    else:
        family = explicit_family(draw, m)
    reward = dict(draw(st.sampled_from(REWARDS)))  # a copy: a mutation must not reach the strategy's own dict
    doc = {"arms": arms, "family": family, "reward": reward}
    solver = draw(st.sampled_from(["exhaustive", "greedy", "ptas"]))
    if draw(st.booleans()):
        return doc, solver, False
    mutate = draw(st.sampled_from([junk_value, junk_value, drop_key, wrong_container, unknown_kind, extra_key]))
    mutate(draw, doc)
    return doc, solver, True


def explicit_family(draw, m):
    """An explicit family over m arms: one set holding each arm, then up to three more."""
    sets = [[i, *draw(st.lists(st.integers(0, m - 1), max_size=2))] for i in range(m)]
    return {"kind": "explicit", "sets": sets + draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1, max_size=3), max_size=3))}


def junk_value(draw, doc):
    """One field the program reads made junk: an arm array or one entry of it, K or a set member, or a utility table entry."""
    arms, family, reward = doc["arms"], doc["family"], doc["reward"]
    sites = [("arm", i, key) for i in range(len(arms)) for key in arms[i]]
    sites += [("family",)] + [("reward",)] * isinstance(reward.get("utility"), list)
    site = draw(st.sampled_from(sites))
    junk = draw(st.sampled_from(JUNK))
    if site[0] == "arm":
        values = arms[site[1]][site[2]]
        if draw(st.booleans()):
            arms[site[1]][site[2]] = junk
        else:
            values[draw(st.integers(0, len(values) - 1))] = junk
    elif site[0] == "family":
        if family["kind"] == "cardinality":
            family["K"] = junk
        else:
            family["sets"][draw(st.integers(0, len(arms) - 1))][0] = junk
    else:
        reward["utility"] = [*TABLE[:2], [4.0, junk]]


def drop_key(draw, doc):
    """A required key deleted: an arm's array, the arms, the family, its kind, K or its sets."""
    sites = [(arm, key) for arm in doc["arms"] for key in arm] + [(doc, "arms"), (doc, "family")]
    sites += [(doc["family"], key) for key in doc["family"]]
    owner, key = draw(st.sampled_from(sites))
    del owner[key]


def wrong_container(draw, doc):
    """A value in the wrong container: an array as an object, an entry or K inside a list, a set as an object, or
    the arms, the family or the reward inside an object or a list."""
    arms, family = doc["arms"], doc["family"]
    site = draw(st.sampled_from(["array", "entry", "family-field", "arms", "family", "reward"]))
    if site in ("array", "entry"):
        arm = draw(st.sampled_from(arms))
        key = draw(st.sampled_from(sorted(arm)))
        at = draw(st.integers(0, len(arm[key]) - 1))
        if site == "array":
            arm[key] = {str(at): arm[key][at]}
        else:
            arm[key][at] = [arm[key][at]]
    elif site == "family-field":
        if family["kind"] == "cardinality":
            family["K"] = [family["K"]]
        else:
            at = draw(st.integers(0, len(family["sets"]) - 1))
            family["sets"][at] = {str(j): i for j, i in enumerate(family["sets"][at])}
    else:
        doc[site] = draw(st.sampled_from([{"0": doc[site]}, [doc[site]]]))


def unknown_kind(draw, doc):
    """The family's or the reward's kind a string that names no kind."""
    owner = doc[draw(st.sampled_from(["family", "reward"]))]
    owner["kind"] = draw(st.sampled_from(["", "matroid", "Kmax", "explicit-sets", "utility_of_sum"]))


def extra_key(draw, doc):
    """A field that nothing reads added: to the instance, an arm, the family or the reward, the other kind's field
    among those of an arm or a family."""
    site = draw(st.sampled_from(["instance", "arm", "family", "reward"]))
    if site == "instance":
        owner, keys = doc, ["solver", "arm", "rewards"]  # none of them a run config's field either
    elif site == "arm":
        owner = draw(st.sampled_from(doc["arms"]))
        keys = ["weights", "support" if "breakpoints" in owner else "breakpoints"]
    elif site == "family":
        owner = doc["family"]
        keys = ["weights", "sets" if owner["kind"] == "cardinality" else "K"]
    else:
        owner, keys = doc["reward"], ["weights", "arms"]
    owner[draw(st.sampled_from(keys))] = [1]


def brute_force_value(doc, members):
    reward = doc["reward"]
    if any("breakpoints" in a for a in doc["arms"]):  # a K-MAX or linear reward: utility rejects continuous arms
        dists = [
            PiecewiseDensity(a["breakpoints"], a["densities"]) if "breakpoints" in a else make_finite(a["support"], a["probs"])
            for a in doc["arms"]
        ]
        if reward["kind"] == "kmax":
            return reference_expected_kmax_continuous(dists, SuperArm(members))
        return sum(dists[i].mean() for i in members)
    dists = [make_finite(a["support"], a["probs"]) for a in doc["arms"]]
    if reward["kind"] == "kmax":
        return joint_expected(dists, members, max)
    if reward["kind"] == "linear":
        return joint_expected(dists, members, sum)
    u = reward["utility"]
    curve = CURVES[u] if isinstance(u, str) else lambda y: float(np.interp(y, *zip(*u)))
    return joint_expected(dists, members, lambda xs: curve(sum(xs)))


def finite_only(doc, solver) -> bool:
    """Whether the instance has a continuous arm that the reward or the solver cannot take."""
    return any("breakpoints" in a for a in doc["arms"]) and (doc["reward"]["kind"] == "utility" or solver == "ptas")


def family_sets(doc):
    fam = doc["family"]
    if fam["kind"] == "explicit":
        return [tuple(sorted(set(s))) for s in fam["sets"]]
    m = len(doc["arms"])
    return [S for k in range(1, fam["K"] + 1) for S in itertools.combinations(range(m), k)]


class TestOfflineFuzz:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(instance_docs())
    def test_exit_contract(self, tmp_path_factory, case):
        doc, solver, bad = case
        path = tmp_path_factory.mktemp("fuzz") / "instance.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["offline", "--instance", str(path), "--solver", solver])
        assert code in (0, 1, 2)
        if bad:
            assert code == 1 and out.getvalue() == "" and err.getvalue().startswith("cmab: error:")
            return
        kmax_card = doc["family"]["kind"] == "cardinality" and doc["reward"]["kind"] == "kmax"
        assert code == (0 if (solver == "exhaustive" or kmax_card) and not finite_only(doc, solver) else 1)
        if code:
            assert out.getvalue() == "" and err.getvalue().startswith("cmab: error:")
            return
        set_line, value_line = out.getvalue().splitlines()
        members = tuple(int(i) for i in set_line.split()[1:])
        assert members in family_sets(doc)
        value = float(value_line.split()[1])
        assert value == pytest.approx(brute_force_value(doc, members), rel=1e-10, abs=1e-12)
        if solver == "exhaustive":
            best = max(brute_force_value(doc, S) for S in family_sets(doc))
            assert value == pytest.approx(best, rel=1e-10, abs=1e-12)


# run config fuzzing: valid documents, and documents with one field made NaN, Inf, negative, empty, of the wrong type
# or misspelled
NUMBER_JUNK = [math.nan, math.inf, -math.inf, -3, -0.25, 1.5, "1", "", [], [1], {"x": 1}, None, True]
STRING_JUNK = [math.nan, math.inf, -3, 0.5, "", [], ["dist1"], {"x": 1}, None, True]
NUMBER_FIELDS = ("epsilon", "T", "runs", "seed", "alpha")


@st.composite
def run_docs(draw):
    """(config document without ``out``, whether it was made invalid: one field junk or re-nested, the policy or the
    environment dropped, or a misspelled field added)."""
    doc = {
        "policy": draw(st.sampled_from(cli.POLICIES)),
        "oracle": draw(st.sampled_from(cli.ORACLES)),
        "epsilon": draw(st.sampled_from([0.1, 0.25, 0.4])),
        "T": draw(st.integers(1, 30)),
        "runs": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 2**32)),
        "alpha": draw(st.sampled_from([0.5, 0.9, 1.0])),
    }
    sites = [*NUMBER_FIELDS, "policy", "oracle", "out"]
    if draw(st.booleans()):
        doc["env"] = draw(st.sampled_from(["dist1", "dist2", "dist3", "dist4"]))
        sites.append("env")
    elif draw(st.integers(0, 3)) == 0:  # a run that completes on an explicit family: finite arms, no osm, exhaustive
        arms = draw(st.lists(arm_docs(continuous=False), min_size=1, max_size=5))
        doc.update(arms=arms, family=explicit_family(draw, len(arms)), reward=dict(draw(st.sampled_from(REWARDS))))
        doc.update(policy=draw(st.sampled_from(["sdcb", "lazy-sdcb", "cucb"])), oracle="exhaustive")
        sites += ["arms", "family", "reward"]
    else:
        instance, _, bad = draw(instance_docs())  # bad: an arm array or entry, K, a set member or a table entry
        doc.update(instance)
        if bad:
            return doc, True
        sites += ["arms", "family", "reward"]
    if draw(st.booleans()):
        return doc, False
    mutation = draw(st.sampled_from(["junk", "junk", "drop", "nest", "misspell"]))
    if mutation == "drop":  # a field without a default: the policy, or the environment, named or inline
        for key in draw(st.sampled_from([("policy",), ("env", "arms")])):
            doc.pop(key, None)
        return doc, True
    if mutation == "misspell":  # a field that nothing reads, next to the one it was meant to be
        doc[draw(st.sampled_from(["orcale", "polcy", "Runs", "seeds", "eps", "jobs", "instance"]))] = doc["oracle"]
        return doc, True
    site = draw(st.sampled_from(sites))
    if mutation == "nest":  # the field's value, or an out path, inside a list or an object
        value = doc.get(site, "trace.csv")
        doc[site] = draw(st.sampled_from([[value], {site: value}]))
    elif site in NUMBER_FIELDS:
        doc[site] = draw(st.sampled_from(NUMBER_JUNK))
    elif site in ("policy", "oracle", "out", "env"):
        doc[site] = draw(st.sampled_from(STRING_JUNK))
    elif site == "arms":
        doc["arms"] = draw(st.sampled_from([[], math.nan, "x", {"x": 1}, None, True]))
    elif site == "family":
        doc["family"] = draw(st.sampled_from([math.nan, None, [], "cardinality", -3, {}]))
    else:
        doc["reward"] = draw(st.sampled_from([math.nan, [], "kmax", 3, True, {"kind": None}, {"kind": ""}, {"kind": 3}]))
    return doc, True


class TestRunFuzz:
    completed = collections.Counter()  # test_exit_contract's runs that exit 0: "env", or the inline family's kind

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(run_docs())
    def test_exit_contract(self, tmp_path_factory, case):
        doc, bad = case
        work = tmp_path_factory.mktemp("runfuzz")
        trace = work / "trace.csv"
        doc.setdefault("out", str(trace))
        config = work / "config.json"
        config.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(config)])
        if bad:
            assert code == 1 and out.getvalue() == "" and err.getvalue().startswith("cmab: error:")
            return
        if "env" not in doc:  # osm needs a cardinality family, greedy and ptas also the kmax reward; utility finite arms
            cardinality = doc["family"]["kind"] == "cardinality"
            kmax_card = cardinality and doc["reward"]["kind"] == "kmax"
            usable = cardinality if doc["policy"] == "osm" else doc["oracle"] == "exhaustive" or kmax_card
            if not usable or finite_only(doc, None):
                assert code == 1 and out.getvalue() == "" and err.getvalue().startswith("cmab: error:")
                return
        assert code == 0 and out.getvalue().startswith("wrote ")
        lines = trace.read_text().splitlines()
        assert lines[0] == "round,expected_reward,cum_regret" and len(lines) == doc["T"] + 1
        TestRunFuzz.completed["env" if "env" in doc else doc["family"]["kind"]] += 1

    def test_exit_contract_completes_explicit_family_runs(self, tmp_path_factory):
        # the fuzz plays some runs to their horizon on an inline explicit family, not only on cardinality families
        if not self.completed:  # run on its own: draw the examples here
            self.test_exit_contract(tmp_path_factory)
        assert self.completed["explicit"] > 0


class TestEntryPoints:
    def test_module_invocation(self):
        # the subprocess imports cmab from the directory this process imported it from, installed or not
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "cmab", "envs"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "dist4" in proc.stdout

    def test_cold_start_leaves_out_numpy_ma(self):
        # np.unique imports numpy.ma on its first call; the CLI, the four built-in environments and a short run of
        # every policy do without it
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = (
            "import sys, cmab.cli\n"
            "from cmab.harness import POLICIES, PolicyFactory, builtin_env, run_many\n"
            "for name in ('dist1', 'dist2', 'dist3', 'dist4'):\n"
            "    builtin_env(name)\n"
            "for policy in POLICIES:\n"
            "    run_many(builtin_env('dist1'), PolicyFactory(policy, 'greedy'), 20, 2, 0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_console_script(self):
        proc = subprocess.run(["cmab", "envs"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "dist1" in proc.stdout
