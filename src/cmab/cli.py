"""Command line front end.

Three subcommands:

* ``cmab run``      simulate a policy on an environment, write CSV traces
* ``cmab offline``  solve a one-shot instance file with a chosen solver
* ``cmab envs``     list the bundled environments

Exit codes: 0 on success, 1 on configuration errors (bad flags, bad JSON,
invalid instances), 2 when a runtime guard trips (search spaces beyond the
exact evaluators' limits).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .distributions import PiecewiseDensity, make_finite
from .errors import GuardExceeded
from .harness import (
    ORACLES,
    POLICIES,
    Environment,
    PolicyFactory,
    _oracle_handle,
    builtin_env,
    builtin_env_names,
    run_many,
    write_csv,
)
from .oracles import FeasibleFamily
from .rewards import SuperArm, expected_reward, kmax_spec, linear_spec, utility_spec

_RUN_DEFAULTS = {
    "env": None,
    "policy": None,
    "oracle": "exhaustive",
    "epsilon": 0.25,
    "T": 10000,
    "runs": 20,
    "seed": 42,
    "alpha": 1.0,
    "out": "trace.csv",
}


class _ConfigError(Exception):
    """Unusable flags, config files, or instance documents."""


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors surface as exit code 1, not argparse's 2."""

    def error(self, message):
        raise _ConfigError(message)


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise _ConfigError(f"cannot read {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise _ConfigError(f"invalid JSON in {path!r}: {e}") from e


def _int_field(name: str, value) -> int:
    """A JSON integer; bools, floats and anything else are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _ConfigError(f"{name}: expected an integer, got {value!r}")
    return value


def _str_field(name: str, value) -> str:
    """A JSON string; null, numbers, lists and anything else are rejected."""
    if not isinstance(value, str):
        raise _ConfigError(f"{name}: expected a string, got {value!r}")
    return value


def _real_field(name: str, value) -> float:
    """A finite JSON number; bools, NaN, infinities and anything else are rejected."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):  # not a number, or an int too large for a float
        pass
    raise _ConfigError(f"{name}: expected a finite number, got {value!r}")


def _epsilon(value) -> float:
    """The ptas accuracy, checked whichever oracle runs: a finite number in (0, 1/2)."""
    eps = _real_field("epsilon", value)
    if not 0.0 < eps < 0.5:
        raise _ConfigError(f"epsilon must lie in (0, 1/2), got {eps!r}")
    return eps


def _real_list(name: str, value) -> list[float]:
    """A JSON list of finite numbers."""
    if not isinstance(value, list):
        raise _ConfigError(f"{name}: expected a list of numbers, got {value!r}")
    return [_real_field(name, v) for v in value]


def _parse_arm(doc, index: int):
    if not isinstance(doc, dict):
        raise _ConfigError(f"arm {index}: expected an object")
    if "support" in doc or "probs" in doc:
        if "support" not in doc or "probs" not in doc:
            raise _ConfigError(f"arm {index}: finite arms need both 'support' and 'probs'")
        return make_finite(*(_real_list(f"arm {index}: {key}", doc[key]) for key in ("support", "probs")))
    if "breakpoints" in doc or "densities" in doc:
        if "breakpoints" not in doc or "densities" not in doc:
            raise _ConfigError(f"arm {index}: continuous arms need both 'breakpoints' and 'densities'")
        return PiecewiseDensity(*(_real_list(f"arm {index}: {key}", doc[key]) for key in ("breakpoints", "densities")))
    raise _ConfigError(f"arm {index}: need 'support'/'probs' or 'breakpoints'/'densities'")


def _parse_family(doc, m: int) -> FeasibleFamily:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise _ConfigError("family: expected an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "cardinality":
        if "K" not in doc:
            raise _ConfigError("family: cardinality needs 'K'")
        return FeasibleFamily.cardinality_at_most(_int_field("family: K", doc["K"]), m)
    if kind == "explicit":
        if "sets" not in doc or not isinstance(doc["sets"], list):
            raise _ConfigError("family: explicit needs a 'sets' list")
        sets = []
        for s in doc["sets"]:
            if not isinstance(s, list):
                raise _ConfigError(f"family: each explicit set must be a list of arms, got {s!r}")
            sets.append(SuperArm([_int_field("family: set member", i) for i in s]))
        return FeasibleFamily.explicit(sets, m)
    raise _ConfigError(f"family: unknown kind {kind!r}")


def _parse_reward(doc):
    if doc is None:
        return kmax_spec()
    if not isinstance(doc, dict):
        raise _ConfigError("reward: expected an object")
    kind = doc.get("kind", "kmax")
    if kind == "kmax":
        return kmax_spec()
    if kind == "linear":
        return linear_spec(bound_M=_real_field("reward: bound_M", doc.get("bound_M", 1.0)))
    if kind == "utility":
        if "utility" not in doc:
            raise _ConfigError("reward: utility kind needs a 'utility' curve (name or [[y, u(y)], ...])")
        utility = doc["utility"]
        if isinstance(utility, list):
            for p in utility:
                if not isinstance(p, list) or len(p) != 2:
                    raise _ConfigError(f"reward: a utility table point must be [y, u(y)], got {p!r}")
            utility = [tuple(_real_field("reward: utility table", v) for v in p) for p in utility]
        return utility_spec(
            utility,
            bound_M=_real_field("reward: bound_M", doc.get("bound_M", 1.0)),
            lipschitz_C=_real_field("reward: lipschitz_C", doc.get("lipschitz_C", 1.0)),
        )
    raise _ConfigError(f"reward: unknown kind {kind!r}")


def _parse_instance(doc):
    """Arms, family, and reward spec from an inline JSON document."""
    if not isinstance(doc, dict):
        raise _ConfigError("instance: expected a JSON object")
    if "arms" not in doc or not isinstance(doc["arms"], list) or not doc["arms"]:
        raise _ConfigError("instance: need a nonempty 'arms' list")
    arms = [_parse_arm(a, i) for i, a in enumerate(doc["arms"])]
    if "family" not in doc:
        raise _ConfigError("instance: missing 'family'")
    family = _parse_family(doc["family"], len(arms))
    spec = _parse_reward(doc.get("reward"))
    if spec.kind == "utility_of_sum":
        _require_finite(arms, "a utility reward")
    return arms, family, spec


def _require_finite(arms, what: str) -> None:
    """Reject continuous arms where only finite ones can be evaluated."""
    for i, a in enumerate(arms):
        if isinstance(a, PiecewiseDensity):
            raise _ConfigError(f"arm {i}: {what} needs finite arms ('support'/'probs'), not 'breakpoints'/'densities'")


def cmd_run(args) -> int:
    config = _load_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise _ConfigError("config: expected a JSON object")

    def pick(key):
        flag = getattr(args, key)
        if flag is not None:
            return flag
        if key in config:
            return config[key]
        return _RUN_DEFAULTS[key]

    policy = pick("policy")
    if policy is None:
        raise _ConfigError("no policy given (use --policy or a 'policy' config entry)")
    policy = _str_field("policy", policy)
    if policy not in POLICIES:
        raise _ConfigError(f"unknown policy {policy!r}; choose from {', '.join(POLICIES)}")
    oracle = _str_field("oracle", pick("oracle"))
    if oracle not in ORACLES:
        raise _ConfigError(f"unknown oracle {oracle!r}; choose from {', '.join(ORACLES)}")
    T = _int_field("T", pick("T"))
    runs = _int_field("runs", pick("runs"))
    seed = _int_field("seed", pick("seed"))
    epsilon = _epsilon(pick("epsilon"))
    alpha = _real_field("alpha", pick("alpha"))
    out = _str_field("out", pick("out"))
    if T < 1:
        raise _ConfigError("T must be >= 1")
    if runs < 1:
        raise _ConfigError("runs must be >= 1")
    if seed < 0:
        raise _ConfigError("seed must be >= 0")
    if args.jobs < 1:
        raise _ConfigError("jobs must be >= 1")
    if not 0.0 < alpha <= 1.0:
        raise _ConfigError("alpha must be in (0, 1]")

    env_name = pick("env")
    if env_name is not None:
        env = builtin_env(_str_field("env", env_name))
    elif "arms" in config:
        arms, family, spec = _parse_instance(config)
        env = Environment(arms, family, spec, name="inline")
    else:
        raise _ConfigError("no environment: pass --env or put arms in the config file")

    factory = PolicyFactory(policy=policy, oracle=oracle, epsilon=epsilon)
    avg, traces = run_many(env, factory, T, runs, seed, alpha=alpha, n_jobs=args.jobs)
    write_csv(avg, out)
    if args.per_run_out:
        write_csv(traces, args.per_run_out)
    print(f"wrote {out}: env={env.name or 'inline'} policy={policy} oracle={oracle} T={T} runs={runs}")
    return 0


def cmd_offline(args) -> int:
    doc = _load_json(args.instance)
    arms, family, spec = _parse_instance(doc)
    solve = _oracle_handle(args.solver, family, spec, _epsilon(args.epsilon))
    if args.solver == "ptas":
        _require_finite(arms, "the ptas solver")
    S = solve(arms)
    value = expected_reward(arms, S, spec)
    print("set:", " ".join(str(i) for i in S.members))
    print("value:", format(value, ".12g"))
    return 0


def cmd_envs(args) -> int:
    for name, desc in builtin_env_names():
        print(f"{name}  {desc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cmab", description="Combinatorial bandit simulation and offline solvers.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="{run,offline,envs}")

    run = sub.add_parser("run", help="simulate a policy and write a CSV regret trace")
    run.add_argument("--env", choices=[n for n, _ in builtin_env_names()], help="bundled environment name")
    run.add_argument("--policy", choices=POLICIES, help="learning policy")
    run.add_argument("--oracle", choices=ORACLES, help="offline oracle used by UCB-style policies (default exhaustive)")
    run.add_argument("--epsilon", type=float, help="accuracy parameter for the ptas oracle (default 0.25)")
    run.add_argument("--T", type=int, help="horizon in rounds (default 10000)")
    run.add_argument("--runs", type=int, help="independent runs to average (default 20)")
    run.add_argument("--seed", type=int, help="base seed; run r uses seed + r (default 42)")
    run.add_argument("--alpha", type=float, help="approximation level in the regret column (default 1.0)")
    run.add_argument("--out", help="averaged trace CSV path (default trace.csv)")
    run.add_argument("--per-run-out", help="optional CSV with one block per run")
    run.add_argument("--config", help="JSON config file; explicit flags override its entries")
    run.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1 (default 1; results identical)")
    run.set_defaults(func=cmd_run)

    offline = sub.add_parser("offline", help="solve one instance file and print the chosen set")
    offline.add_argument("--instance", required=True, help="JSON instance with arms, family, and reward")
    offline.add_argument("--solver", choices=ORACLES, default="exhaustive")
    offline.add_argument("--epsilon", type=float, default=0.25, help="accuracy parameter for the ptas solver")
    offline.set_defaults(func=cmd_offline)

    envs = sub.add_parser("envs", help="list bundled environments")
    envs.set_defaults(func=cmd_envs)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares: building it costs ten parses, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _ConfigError as e:
        print(f"cmab: error: {e}", file=sys.stderr)
        return 1
    except GuardExceeded as e:
        print(f"cmab: guard exceeded: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"cmab: error: {e}", file=sys.stderr)
        return 1
