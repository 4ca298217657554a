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
import itertools
import json
import math
import sys

import numpy as np

from .distributions import _SHAPE_ERROR, PiecewiseDensity, _checked_laws
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
from .rewards import UTILITY_OF_SUM, SuperArm, _laws, expected_reward, kmax_spec, linear_spec, utility_spec

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


_ARM_KEYS = (("finite", ("support", "probs")), ("continuous", ("breakpoints", "densities")))


def _arm_fields(doc, index: int):
    """(whether finite, first list, second list): an arm's support and probs, or its breakpoints and densities."""
    if not isinstance(doc, dict):
        raise _ConfigError(f"arm {index}: expected an object")
    for kind, keys in _ARM_KEYS:
        if keys[0] in doc or keys[1] in doc:
            if keys[0] not in doc or keys[1] not in doc:
                raise _ConfigError(f"arm {index}: {kind} arms need both {keys[0]!r} and {keys[1]!r}")
            return kind == "finite", *(_real_list(f"arm {index}: {key}", doc[key]) for key in keys)
    raise _ConfigError(f"arm {index}: need 'support'/'probs' or 'breakpoints'/'densities'")


def _parse_arms(docs) -> list:
    """Each arm's law, read in one pass over arrays.

    Every arm's lists are gathered into flat lists whose numbers are
    type-checked (``int`` or ``float``, not ``bool``), converted and
    checked finite at once, and the finite arms are checked and built in
    one batch.  Only when a check fails are the arms walked one by one to
    report the first bad arm in index order, whether its fields, its
    numbers or its values are at fault.
    """
    laws = _read_arms(docs)
    if laws is None:
        _raise_first_bad_arm(docs)
    return laws


def _read_arms(docs):
    """The arms' laws, or None when a field, a number, the shape of a finite arm or a continuous law is bad.

    A bad finite law raises the first such arm's error, as the walk would.
    """
    supports, masses, breakpoints, densities = lists = ([], [], [], [])
    finite, continuous = [], []
    for i, doc in enumerate(docs):
        if not isinstance(doc, dict):
            return None
        is_finite = "support" in doc or "probs" in doc
        keys = _ARM_KEYS[not is_finite][1]
        first, second = doc.get(keys[0]), doc.get(keys[1])
        if not (isinstance(first, list) and isinstance(second, list)):
            return None
        if is_finite:
            if not len(first) == len(second) > 0:
                return None
            finite.append(i)
            supports += first
            masses += second
        else:
            continuous.append((i, len(first), len(second)))
            breakpoints += first
            densities += second
    numbers = list(itertools.chain(*lists))
    if not set(map(type, numbers)) <= {int, float}:  # bool, str, None, list and dict are refused
        return None
    try:
        values = np.array(numbers, dtype=float)
    except OverflowError:  # an int too large for a float
        return None
    if not np.isfinite(values).all():
        return None
    laws = [None] * len(docs)
    a = b = 2 * len(supports)  # the continuous arms' breakpoints, then their densities, follow the finite arms
    b += len(breakpoints)
    for i, n_bp, n_dens in continuous:
        try:
            laws[i] = PiecewiseDensity(values[a : a + n_bp], values[b : b + n_dens])
        except ValueError:
            return None
        a, b = a + n_bp, b + n_dens
    if finite:
        n = len(supports)
        sizes = [len(docs[i]["support"]) for i in finite]
        for i, law in zip(finite, _checked_laws(values[:n], values[n : 2 * n], sizes, [f"arm {i}: " for i in finite])):
            laws[i] = law
    return laws


def _raise_first_bad_arm(docs) -> None:
    """Raise the first bad arm's error, checking each arm field by field and number by number."""
    for i, doc in enumerate(docs):
        is_finite, first, second = _arm_fields(doc, i)
        try:
            if not is_finite:
                PiecewiseDensity(first, second)
            elif len(first) != len(second) or not first:
                raise ValueError(_SHAPE_ERROR)
            else:
                _checked_laws(np.array(first), np.array(second), [len(first)], ("",))
        except ValueError as e:
            raise _ConfigError(f"arm {i}: {e}") from None


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
        return _parse_sets(doc["sets"], m)
    raise _ConfigError(f"family: unknown kind {kind!r}")


def _parse_sets(sets: list, m: int) -> FeasibleFamily:
    """An explicit family's sets, read as one int array.

    Every set must be a nonempty list of JSON integers (not bools) within
    [0, m); they are checked all at once.  Only when a check fails are the
    sets walked one by one, member by member, to report the first error.
    """
    sizes = [len(s) if isinstance(s, list) else 0 for s in sets]
    if sets and min(sizes) > 0:
        members = list(itertools.chain.from_iterable(sets))
        if set(map(type, members)) == {int} and 0 <= min(members) and max(members) < m:
            table = np.full((len(sets), max(sizes)), m)
            table[np.arange(table.shape[1]) < np.array(sizes)[:, None]] = members  # row by row, from the left
            return FeasibleFamily._of_rows(table, m)
    super_arms = []
    for s in sets:
        if not isinstance(s, list):
            raise _ConfigError(f"family: each explicit set must be a list of arms, got {s!r}")
        super_arms.append(SuperArm([_int_field("family: set member", i) for i in s]))
    return FeasibleFamily.explicit(super_arms, m)


# the fields each reward kind reads; any other field is an error, never ignored
_REWARD_FIELDS = {
    "kmax": {"kind"},
    "linear": {"kind", "bound_M"},
    "utility": {"kind", "utility", "bound_M", "lipschitz_C"},
}


def _parse_reward(doc):
    if doc is None:
        return kmax_spec()
    if not isinstance(doc, dict):
        raise _ConfigError("reward: expected an object")
    kind = doc.get("kind", "kmax")
    if isinstance(kind, str) and kind in _REWARD_FIELDS and not doc.keys() <= _REWARD_FIELDS[kind]:
        raise _ConfigError(f"reward: unknown field {min(doc.keys() - _REWARD_FIELDS[kind])!r} for kind {kind!r}")
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
    arms = _parse_arms(doc["arms"])
    if "family" not in doc:
        raise _ConfigError("instance: missing 'family'")
    family = _parse_family(doc["family"], len(arms))
    spec = _parse_reward(doc.get("reward"))
    if spec.kind == UTILITY_OF_SUM:
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
    arms = _laws(arms, spec)  # every solver and the value read this one input
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
