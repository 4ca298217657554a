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
import bisect
import functools
import itertools
import json
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
from .rewards import UTILITY_OF_SUM, _laws, expected_reward, kmax_spec, linear_spec, utility_spec

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


def _str_field(name: str, value) -> str:
    """A JSON string; null, numbers, lists and anything else are rejected."""
    if not isinstance(value, str):
        raise _ConfigError(f"{name}: expected a string, got {value!r}")
    return value


def _reals(numbers: list) -> np.ndarray | None:
    """``numbers`` as one float array, or None if one of them is not a finite JSON number."""
    if set(map(type, numbers)) <= {int, float}:  # bool, str, None, list and dict are refused
        try:
            values = np.array(numbers, dtype=float)
        except OverflowError:  # an int too large for a float
            return None
        if np.isfinite(values).all():
            return values
    return None


# the fields each JSON object reads, by object or by kind; any other field is an error, never ignored
_FIELDS = {
    "config": {*_RUN_DEFAULTS, "arms", "family", "reward"},
    "instance": {"arms", "family", "reward"},
    "finite": ("support", "probs"),  # arms: the two lists, in the order they are read
    "continuous": ("breakpoints", "densities"),
    "cardinality": {"kind", "K"},  # families
    "explicit": {"kind", "sets"},
    "kmax": {"kind"},  # rewards
    "linear": {"kind", "bound_M"},
    "utility": {"kind", "utility", "bound_M", "lipschitz_C"},
}


def _known_fields(name: str, doc: dict, fields, kind=None) -> None:
    """Reject a field of ``doc`` outside ``fields``, naming it (the least such name)."""
    unknown = doc.keys() - fields
    if unknown:
        raise _ConfigError(f"{name}: unknown field {min(unknown)!r}" + ("" if kind is None else f" for kind {kind!r}"))


def _arm_keys(doc, i: int) -> tuple[str, str]:
    """Arm i's two list fields, ``support`` and ``probs`` or ``breakpoints`` and ``densities``, its fields checked."""
    if not isinstance(doc, dict):
        raise _ConfigError(f"arm {i}: expected an object")
    kind = "finite" if "support" in doc or "probs" in doc else "continuous"
    keys = _FIELDS[kind]
    if keys[0] not in doc or keys[1] not in doc:
        if keys[0] not in doc and keys[1] not in doc:  # no key of either pair
            raise _ConfigError(f"arm {i}: need 'support'/'probs' or 'breakpoints'/'densities'")
        raise _ConfigError(f"arm {i}: {kind} arms need both {keys[0]!r} and {keys[1]!r}")
    if len(doc) > 2:
        _known_fields(f"arm {i}", doc, keys)
    return keys


def _parse_arms(docs: list) -> list:
    """Each arm's law, read in one pass over arrays.

    The arms are checked in stages: fields; numbers, type-checked and
    converted at once; continuous laws, one by one; finite shapes; finite
    laws, in one batch.  A stage that fails re-reads the arms before its
    first bad arm, so the error raised is the first bad arm's in index order.
    """
    keys, lists, finite, continuous = [], [], [], []  # each arm's two keys and its two lists; the arms by kind
    for i, doc in enumerate(docs):
        try:
            keys.append(_arm_keys(doc, i))
        except _ConfigError:
            _parse_arms(docs[:i])
            raise
        (finite if keys[i][0] == "support" else continuous).append(i)
        for key in keys[i]:
            lists.append(doc[key] if isinstance(doc[key], list) else [None])  # None fails _reals
    # the finite arms' supports, then their masses, then the continuous arms' lists
    laid = [lists[2 * i + j] for j in (0, 1) for i in finite] + [lists[2 * i + j] for i in continuous for j in (0, 1)]
    values = _reals(list(itertools.chain.from_iterable(laid)))
    if values is None:  # the first bad entry in arm order, k, ends the longest prefix that passes; it is in list q
        numbers = list(itertools.chain.from_iterable(lists))
        k = bisect.bisect_left(range(len(numbers)), True, key=lambda n: _reals(numbers[: n + 1]) is None)
        starts = list(itertools.accumulate(map(len, lists), initial=0))
        q = bisect.bisect_right(starts, k) - 1
        i, key = q // 2, keys[q // 2][q % 2]
        _parse_arms(docs[:i])
        if isinstance(docs[i][key], list):
            raise _ConfigError(f"arm {i}: {key}: expected a finite number, got {docs[i][key][k - starts[q]]!r}")
        raise _ConfigError(f"arm {i}: {key}: expected a list of numbers, got {docs[i][key]!r}")
    laws = [None] * len(docs)
    for i in continuous:
        try:
            laws[i] = PiecewiseDensity(lists[2 * i], lists[2 * i + 1])
        except ValueError as e:
            _parse_arms(docs[:i])
            raise _ConfigError(f"arm {i}: {e}") from None
    sizes = [len(lists[2 * i]) for i in finite]
    for i, size in zip(finite, sizes):
        if not size == len(lists[2 * i + 1]) > 0:
            _parse_arms(docs[:i])
            raise _ConfigError(f"arm {i}: {_SHAPE_ERROR}")
    if finite:  # the laws, or the first bad one's error; the supports lead the values, then the masses
        half, names = sum(sizes), [f"arm {i}: " for i in finite]
        for i, law in zip(finite, _checked_laws(values[:half], values[half : 2 * half], sizes, names)):
            laws[i] = law
    return laws


def _parse_family(doc, m: int) -> FeasibleFamily:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise _ConfigError("family: expected an object with a 'kind' field")
    kind = doc["kind"]
    if kind not in ("cardinality", "explicit"):
        raise _ConfigError(f"family: unknown kind {kind!r}")
    _known_fields("family", doc, _FIELDS[kind], kind)
    if kind == "cardinality":
        if "K" not in doc:
            raise _ConfigError("family: cardinality needs 'K'")
        return FeasibleFamily.cardinality_at_most(doc["K"], m)
    if "sets" not in doc or not isinstance(doc["sets"], list):
        raise _ConfigError("family: explicit needs a 'sets' list")
    if not doc["sets"]:
        raise _ConfigError("explicit family must be nonempty")
    return FeasibleFamily._of_rows(_set_rows(doc["sets"], m), m)


def _set_rows(sets: list, m: int) -> np.ndarray:
    """An explicit family's sets as the rows of one int table, padded with m.

    Checked in stages, as the arms are: each set is a nonempty list, of JSON
    integers (not bools), within [0, m).  A stage that fails re-reads the sets
    before its first bad set, so the error raised is the first bad set's.
    """
    sizes = [len(s) if isinstance(s, list) else -1 for s in sets]
    if min(sizes, default=1) < 1:
        j = next(j for j, size in enumerate(sizes) if size < 1)
        _set_rows(sets[:j], m)
        if sizes[j] == 0:
            raise _ConfigError("super arm must be nonempty")
        raise _ConfigError(f"family: each explicit set must be a list of arms, got {sets[j]!r}")
    ends = list(itertools.accumulate(sizes))  # member k belongs to set bisect_right(ends, k)
    members = list(itertools.chain.from_iterable(sets))
    if not set(map(type, members)) <= {int}:
        k = next(k for k, i in enumerate(members) if type(i) is not int)
        _set_rows(sets[: bisect.bisect_right(ends, k)], m)
        raise _ConfigError(f"family: set member: expected an integer, got {members[k]!r}")
    if members and not (0 <= min(members) and max(members) < m):  # the last stage: the sets before pass them all
        s = sets[bisect.bisect_right(ends, next(k for k, i in enumerate(members) if not 0 <= i < m))]
        raise _ConfigError(f"arm {max(s)} out of range for m={m}" if min(s) >= 0 else "arm indices must be nonnegative")
    table = np.full((len(sets), max(sizes, default=0)), m)
    table[np.arange(table.shape[1]) < np.array(sizes, dtype=int)[:, None]] = members  # row by row, from the left
    return table


def _parse_reward(doc):
    if doc is None:
        return kmax_spec()
    if not isinstance(doc, dict):
        raise _ConfigError("reward: expected an object")
    kind = doc.get("kind", "kmax")
    if kind in ("kmax", "linear", "utility"):
        _known_fields("reward", doc, _FIELDS[kind], kind)
    if kind == "kmax":
        return kmax_spec()
    if kind == "linear":
        return linear_spec(bound_M=doc.get("bound_M", 1.0))
    if kind == "utility":
        if "utility" not in doc:
            raise _ConfigError("reward: utility kind needs a 'utility' curve (name or [[y, u(y)], ...])")
        utility = doc["utility"]
        if isinstance(utility, list):
            for p in utility:
                if not isinstance(p, list) or len(p) != 2:
                    raise _ConfigError(f"reward: a utility table point must be [y, u(y)], got {p!r}")
        return utility_spec(utility, bound_M=doc.get("bound_M", 1.0), lipschitz_C=doc.get("lipschitz_C", 1.0))
    raise _ConfigError(f"reward: unknown kind {kind!r}")


def _parse_instance(doc):
    """Arms, family, and reward spec from an inline JSON document."""
    if not isinstance(doc, dict):
        raise _ConfigError("instance: expected a JSON object")
    _known_fields("instance", doc, _FIELDS["instance"])
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
    _known_fields("config", config, _FIELDS["config"])

    def pick(key):
        flag = getattr(args, key)
        if flag is not None:
            return flag
        if key in config:
            return config[key]
        return _RUN_DEFAULTS[key]

    if pick("policy") is None:
        raise _ConfigError("no policy given (use --policy or a 'policy' config entry)")
    factory = PolicyFactory(policy=pick("policy"), oracle=pick("oracle"), epsilon=pick("epsilon"))
    out = _str_field("out", pick("out"))

    env_name = pick("env")
    instance = {key: config[key] for key in _FIELDS["instance"] if key in config}
    if env_name is not None:
        if instance:
            raise _ConfigError(f"config: {min(instance)!r} given with a named environment; give one or the other")
        env = builtin_env(_str_field("env", env_name))
    elif "arms" in instance:
        env = Environment(*_parse_instance(instance), name="inline")
    else:
        raise _ConfigError("no environment: pass --env or put arms in the config file")

    T, runs = pick("T"), pick("runs")
    avg, traces = run_many(env, factory, T, runs, pick("seed"), alpha=pick("alpha"), n_jobs=args.jobs)
    write_csv(avg, out)
    if args.per_run_out:
        write_csv(traces, args.per_run_out)
    print(f"wrote {out}: env={env.name or 'inline'} policy={factory.policy} oracle={factory.oracle} T={T} runs={runs}")
    return 0


def cmd_offline(args) -> int:
    doc = _load_json(args.instance)
    arms, family, spec = _parse_instance(doc)
    solve = _oracle_handle(args.solver, family, spec, args.epsilon)
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
