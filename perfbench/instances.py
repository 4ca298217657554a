"""Seeded random instance documents for ``cmab offline``.

Every instance is a pure function of (seed, shape): the same pair always
gives the same JSON text.  Support values sit on a 0.05 grid so distinct
points never fall within the library's value tolerance, and every mass is
at least a few percent so none is dropped as zero.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

GRID_POINTS = 21  # support values k / 20, k = 0..20


@dataclass(frozen=True)
class Shape:
    """One kind of offline instance and the solvers run on it."""

    label: str
    m: int
    K: int
    support: int
    family: str  # "cardinality" or "explicit"
    reward: str  # "kmax" or a utility curve name
    solvers: tuple[str, ...]
    n_sets: int = 0  # explicit families only


# The mix of one offline cycle.  Sizes stay far below the library's guards
# (ENUMERATION_GUARD, SIGNATURE_DP_GUARD, CONVOLUTION_GUARD): at most 469
# enumerated sets, a few thousand signature states, and 5^4 sum points.
MIX = (
    Shape("card-kmax-12", 12, 3, 4, "cardinality", "kmax", ("greedy", "exhaustive", "ptas")),
    Shape("card-kmax-14", 14, 3, 5, "cardinality", "kmax", ("greedy", "exhaustive", "ptas")),
    Shape("card-util-10", 10, 3, 3, "cardinality", "saturating", ("exhaustive",)),
    Shape("expl-kmax-12", 12, 4, 4, "explicit", "kmax", ("exhaustive",), n_sets=60),
    Shape("expl-util-10", 10, 4, 4, "explicit", "sqrt", ("exhaustive",), n_sets=40),
)

PTAS_EPS = 0.25

_UTILITY = {
    "saturating": lambda y: -math.expm1(-y),
    "sqrt": math.sqrt,
}


def _arm(rng: np.random.Generator, n_support: int) -> dict:
    support = np.sort(rng.choice(GRID_POINTS, size=n_support, replace=False)) / (GRID_POINTS - 1)
    w = rng.random(n_support) + 0.05
    return {"support": [float(v) for v in support], "probs": [float(p) for p in w / w.sum()]}


def _explicit_sets(rng: np.random.Generator, m: int, K: int, n_sets: int) -> list[list[int]]:
    """Sets of size 2..K; arm i is in set i, so every arm is covered."""
    sets: list[tuple[int, ...]] = []
    while len(sets) < n_sets:
        anchor = len(sets) % m
        size = int(rng.integers(2, K + 1))
        others = rng.choice([j for j in range(m) if j != anchor], size=size - 1, replace=False)
        members = tuple(sorted({anchor, *(int(j) for j in others)}))
        if members not in sets:
            sets.append(members)
    return [list(s) for s in sets]


def instance_doc(key: tuple[int, ...], shape: Shape) -> dict:
    """The instance document for ``shape`` drawn from the seed words ``key``."""
    rng = np.random.default_rng(list(key))
    arms = [_arm(rng, shape.support) for _ in range(shape.m)]
    if shape.family == "cardinality":
        family = {"kind": "cardinality", "K": shape.K}
    else:
        family = {"kind": "explicit", "sets": _explicit_sets(rng, shape.m, shape.K, shape.n_sets)}
    if shape.reward == "kmax":
        reward = {"kind": "kmax"}
    else:
        reward = {"kind": "utility", "utility": shape.reward, "bound_M": _UTILITY[shape.reward](shape.K)}
    return {"arms": arms, "family": family, "reward": reward}


def instance_text(key: tuple[int, ...], shape: Shape) -> str:
    return json.dumps(instance_doc(key, shape), sort_keys=True)


def feasible_sets(doc: dict) -> list[tuple[int, ...]]:
    """Every feasible member set of an instance document."""
    m = len(doc["arms"])
    fam = doc["family"]
    if fam["kind"] == "explicit":
        return [tuple(s) for s in fam["sets"]]
    return [c for k in range(1, fam["K"] + 1) for c in itertools.combinations(range(m), k)]


def brute_force_value(doc: dict, members) -> float:
    """Expected reward of ``members`` by enumerating every joint outcome.

    Independent of the library's evaluators: a plain sum over the product
    of the member arms' supports.
    """
    arms = [doc["arms"][i] for i in members]
    reward = doc["reward"]
    u = None if reward["kind"] == "kmax" else _UTILITY[reward["utility"]]
    total = 0.0
    for combo in itertools.product(*(zip(a["support"], a["probs"]) for a in arms)):
        p = 1.0
        for _, q in combo:
            p *= q
        vals = [v for v, _ in combo]
        total += p * (max(vals) if u is None else u(sum(vals)))
    return total
