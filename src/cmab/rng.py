"""Deterministic, splittable random streams.

Every experiment run owns a family of independent generators derived from a
single integer seed.  The split is positional, so adding more runs or more
arms never perturbs the streams of existing ones:

* run ``r`` of a batch uses seed ``base + r``;
* within a run, stream ``(kind, index)`` is ``SeedSequence(seed,
  spawn_key=(kind, index))``.

Kind 0 is reserved for per-arm outcome streams (index = arm), kind 1 for the
policy's own randomness (index 0).
"""

from __future__ import annotations

import numbers

import numpy as np

ARM_STREAM = 0
POLICY_STREAM = 1


def _check_seed(seed: int, name: str = "seed") -> int:
    """``seed`` as an int, if it is an integer >= 0 (bools excluded); else ValueError, never a truncation.

    The same rule holds a run number and a stream's kind and index, under their ``name``.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {seed!r}")
    return int(seed)


def run_seed(base: int, run: int) -> int:
    """Seed for run number ``run`` (0-based) of a batch; ``base`` must be nonnegative."""
    return _check_seed(base) + _check_seed(run, "run")


def substream(seed: int, kind: int, index: int) -> np.random.Generator:
    """Independent generator for stream ``(kind, index)`` under ``seed``."""
    seq = np.random.SeedSequence(_check_seed(seed), spawn_key=(_check_seed(kind, "kind"), _check_seed(index, "index")))
    return np.random.default_rng(seq)
