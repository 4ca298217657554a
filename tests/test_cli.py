"""Command-line interface: subcommands, config merging, exit codes."""

import contextlib
import io
import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmab import cli
from cmab.cli import main
from cmab.distributions import make_finite
from util import joint_expected


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

    def test_env_name_beats_inline_arms(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        cfg = write_config(
            tmp_path,
            {**TINY_INSTANCE, "env": "dist1", "policy": "cucb", "T": 4, "runs": 1, "out": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert "env=dist1" in capsys.readouterr().out


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

    def test_greedy_rejects_explicit_family(self, tmp_path, capsys):
        payload = {
            "arms": TINY_INSTANCE["arms"][:2],
            "family": {"kind": "explicit", "sets": [[0], [1]]},
            "reward": {"kind": "kmax"},
        }
        inst = write_config(tmp_path, payload, "inst.json")
        assert main(["offline", "--instance", str(inst), "--solver", "greedy"]) == 1


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

    def test_bad_alpha(self, capsys):
        assert main(["run", "--env", "dist1", "--policy", "sdcb", "--alpha", "1.5"]) == 1

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


# instance fuzzing: valid documents, and documents with one field the program reads made invalid
GRID = [0.0, 0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.0]
JUNK = [math.nan, math.inf, -math.inf, -0.25, 1.5, 10**400, [], [1.5], {"x": 1}, "0.5", None, True]
CURVES = {"identity": lambda y: y, "sqrt": math.sqrt, "square": lambda y: y * y, "saturating": lambda y: 1 - math.exp(-y)}
TABLE = [[0.0, 0.0], [1.0, 0.8], [4.0, 1.0]]


@st.composite
def arm_docs(draw):
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
        sets = [[i, *draw(st.lists(st.integers(0, m - 1), max_size=2))] for i in range(m)]
        family = {"kind": "explicit", "sets": sets + draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1, max_size=3), max_size=3))}
    reward = draw(
        st.sampled_from(
            [{"kind": "kmax"}, {"kind": "linear"}, {"kind": "utility", "utility": TABLE}]
            + [{"kind": "utility", "utility": name} for name in CURVES]
        )
    )
    doc = {"arms": arms, "family": family, "reward": reward}
    solver = draw(st.sampled_from(["exhaustive", "greedy", "ptas"]))
    # one field the program reads: an arm array or one entry of it, K or a set member, or a utility table entry
    sites = [("arm", i, key) for i in range(m) for key in ("support", "probs")]
    sites += [("family",)] + [("reward",)] * isinstance(reward.get("utility"), list)
    if draw(st.booleans()):
        return doc, solver, False
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
            family["sets"][draw(st.integers(0, m - 1))][0] = junk
    else:
        reward["utility"] = [*TABLE[:2], [4.0, junk]]
    return doc, solver, True


def brute_force_value(doc, members):
    dists = [make_finite(a["support"], a["probs"]) for a in doc["arms"]]
    reward = doc["reward"]
    if reward["kind"] == "kmax":
        return joint_expected(dists, members, max)
    if reward["kind"] == "linear":
        return joint_expected(dists, members, sum)
    u = reward["utility"]
    curve = CURVES[u] if isinstance(u, str) else lambda y: float(np.interp(y, *zip(*u)))
    return joint_expected(dists, members, lambda xs: curve(sum(xs)))


def family_sets(doc):
    fam = doc["family"]
    if fam["kind"] == "explicit":
        return [tuple(sorted(set(s))) for s in fam["sets"]]
    m = len(doc["arms"])
    return [S for k in range(1, fam["K"] + 1) for S in itertools.combinations(range(m), k)]


class TestOfflineFuzz:
    @settings(derandomize=True, max_examples=400, deadline=None)
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
        assert code == (0 if solver == "exhaustive" or kmax_card else 1)
        if code:
            return
        set_line, value_line = out.getvalue().splitlines()
        members = tuple(int(i) for i in set_line.split()[1:])
        assert members in family_sets(doc)
        value = float(value_line.split()[1])
        assert value == pytest.approx(brute_force_value(doc, members), rel=1e-10, abs=1e-12)
        if solver == "exhaustive":
            best = max(brute_force_value(doc, S) for S in family_sets(doc))
            assert value == pytest.approx(best, rel=1e-10, abs=1e-12)


# run config fuzzing: valid documents, and documents with one field made NaN, Inf, negative, empty or of the wrong type
NUMBER_JUNK = [math.nan, math.inf, -math.inf, -3, -0.25, 1.5, "1", "", [], [1], {"x": 1}, None, True]
STRING_JUNK = [math.nan, math.inf, -3, 0.5, "", [], ["dist1"], {"x": 1}, None, True]
NUMBER_FIELDS = ("epsilon", "T", "runs", "seed", "alpha")


@st.composite
def run_docs(draw):
    """(config document without ``out``, whether one field was made invalid)."""
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
    else:
        instance, _, bad = draw(instance_docs())  # bad: an arm array or entry, K, a set member or a table entry
        doc.update(instance)
        if bad:
            return doc, True
        sites += ["arms", "family", "reward"]
    if draw(st.booleans()):
        return doc, False
    site = draw(st.sampled_from(sites))
    if site in NUMBER_FIELDS:
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
    @settings(derandomize=True, max_examples=300, deadline=None)
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
        if "env" not in doc:  # osm needs a cardinality family, greedy and ptas also the kmax reward
            cardinality = doc["family"]["kind"] == "cardinality"
            kmax_card = cardinality and doc["reward"]["kind"] == "kmax"
            if not (cardinality if doc["policy"] == "osm" else doc["oracle"] == "exhaustive" or kmax_card):
                assert code == 1 and out.getvalue() == "" and err.getvalue().startswith("cmab: error:")
                return
        assert code == 0 and out.getvalue().startswith("wrote ")
        lines = trace.read_text().splitlines()
        assert lines[0] == "round,expected_reward,cum_regret" and len(lines) == doc["T"] + 1


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "cmab", "envs"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "dist4" in proc.stdout

    def test_console_script(self):
        proc = subprocess.run(["cmab", "envs"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "dist1" in proc.stdout
