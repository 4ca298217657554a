"""Command-line interface: subcommands, config merging, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from cmab.cli import main


def run_csv_lines(path):
    return path.read_text().splitlines()


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


CARD = {"kind": "cardinality", "K": 2}
LINEAR = {"kind": "linear", "bound_M": 2.0}
UTILITY = {"kind": "utility", "utility": "sqrt", "bound_M": 2.0, "lipschitz_C": 1.0}

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
    "alpha-bool": ("run", {"alpha": True}),
    "out-number": ("run", {"out": 1}),
    "out-null": ("run", {"out": None}),
    "env-list": ("run", {"env": ["dist1"]}),
}

TINY_INSTANCE = {
    "arms": [
        {"support": [0.0, 1.0], "probs": [0.5, 0.5]},
        {"support": [0.0, 1.0], "probs": [0.8, 0.2]},
        {"support": [0.5], "probs": [1.0]},
    ],
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


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "cmab", "envs"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "dist4" in proc.stdout

    def test_console_script(self):
        proc = subprocess.run(["cmab", "envs"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "dist1" in proc.stdout
