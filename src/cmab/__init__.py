"""Combinatorial bandit laboratory.

Learning policies that maintain per-arm distribution estimates (empirical
CDFs tightened into stochastically dominant confidence bounds), exact and
approximate offline solvers for the expected-maximum objective, classical
baselines, and a seeded experiment harness with regret accounting.

Everything is numpy-based and deterministic given a seed.  Arms are
indexed from 0; outcomes live in [0, 1].

The package root re-exports the everyday entry points; everything else is
imported from its submodule (``cmab.distributions``, ``cmab.rewards``,
``cmab.oracles``, ``cmab.policies``, ``cmab.harness``, ``cmab.rng``).
"""

from .distributions import PiecewiseDensity, confidence_radius, dominant_cdfs, make_finite
from .errors import GuardExceeded
from .harness import PolicyFactory, builtin_env, run_many, write_csv
from .oracles import FeasibleFamily, exhaustive_oracle, greedy_kmax, ptas_kmax
from .rewards import (
    SuperArm,
    expected_kmax,
    expected_reward,
    kmax_spec,
    linear_spec,
    utility_spec,
)
from .rng import substream

__version__ = "0.1.0"

__all__ = [
    "FeasibleFamily",
    "GuardExceeded",
    "PiecewiseDensity",
    "PolicyFactory",
    "SuperArm",
    "builtin_env",
    "confidence_radius",
    "dominant_cdfs",
    "exhaustive_oracle",
    "expected_kmax",
    "expected_reward",
    "greedy_kmax",
    "kmax_spec",
    "linear_spec",
    "make_finite",
    "ptas_kmax",
    "run_many",
    "substream",
    "utility_spec",
    "write_csv",
]
