"""Offline computation oracles for the expected-max objective.

Three solvers with different cost/guarantee trade-offs:

* :func:`exhaustive_oracle` — exact argmax by enumeration (guarded),
* :func:`greedy_kmax` — marginal-gain greedy, a (1 - 1/e) approximation,
* :func:`ptas_kmax` — the signature-based approximation scheme: discretize
  each arm's Bernoulli decomposition onto a value grid, quantize activation
  rates into integer signatures, enumerate reachable set signatures with a
  dynamic program, and score one recovered candidate per signature exactly.

Signatures use exact integer arithmetic so set equality is never a float
comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    FiniteDistribution,
    bernoulli_decomposition,
)
from .errors import GuardExceeded
from .rewards import (
    RewardSpec,
    SuperArm,
    expected_kmax,
    expected_reward,
    kmax_spec,
)

ENUMERATION_GUARD = 10**6
SIGNATURE_DP_GUARD = 10**7
VALUE_NUDGE = 1e-9


class FeasibleFamily:
    """The constraint family of playable super arms.

    Either every nonempty subset of at most K of the m arms
    (``cardinality_at_most``) or an explicit list.  Every arm must belong
    to at least one feasible super arm so that initialization rounds can
    observe it.
    """

    __slots__ = ("kind", "m", "K", "sets")

    def __init__(self, kind, m, K, sets=None):
        self.kind = kind
        self.m = m
        self.K = K
        self.sets = sets

    @classmethod
    def cardinality_at_most(cls, K: int, m: int) -> "FeasibleFamily":
        if not 1 <= K <= m:
            raise ValueError("need 1 <= K <= m")
        return cls("cardinality", m, K)

    @classmethod
    def explicit(cls, super_arms: Sequence[SuperArm], m: int) -> "FeasibleFamily":
        sets = tuple(S if isinstance(S, SuperArm) else SuperArm(S) for S in super_arms)
        if not sets:
            raise ValueError("explicit family must be nonempty")
        covered = set()
        for S in sets:
            if S.members[-1] >= m:
                raise ValueError(f"arm {S.members[-1]} out of range for m={m}")
            covered.update(S.members)
        if covered != set(range(m)):
            missing = sorted(set(range(m)) - covered)
            raise ValueError(f"arms {missing} appear in no feasible super arm")
        K = max(len(S) for S in sets)
        return cls("explicit", m, K, sets)

    def count(self) -> int:
        if self.kind == "cardinality":
            return sum(math.comb(self.m, k) for k in range(1, self.K + 1))
        return len(self.sets)

    def __iter__(self):
        if self.kind == "cardinality":
            for k in range(1, self.K + 1):
                for combo in itertools.combinations(range(self.m), k):
                    yield SuperArm(combo)
        else:
            yield from self.sets

    def is_feasible(self, S: SuperArm) -> bool:
        if self.kind == "cardinality":
            return len(S) <= self.K and S.members[-1] < self.m
        return S in self.sets

    def smallest_containing(self, arm: int) -> SuperArm:
        """Lexicographically smallest feasible super arm containing ``arm``."""
        if not 0 <= arm < self.m:
            raise ValueError(f"arm {arm} out of range")
        if self.kind == "cardinality":
            return SuperArm((arm,))
        best = min((S for S in self.sets if arm in S), default=None)
        if best is None:
            raise ValueError(f"arm {arm} appears in no feasible super arm")
        return best

    def __repr__(self):
        if self.kind == "cardinality":
            return f"FeasibleFamily.cardinality_at_most(K={self.K}, m={self.m})"
        return f"FeasibleFamily.explicit({len(self.sets)} sets, m={self.m})"


def exhaustive_oracle(dists, family: FeasibleFamily, spec: RewardSpec) -> SuperArm:
    """Exact argmax of expected reward over the family (enumeration guard).

    Ties go to the lexicographically smallest member set.
    """
    n = family.count()
    if n > ENUMERATION_GUARD:
        raise GuardExceeded(
            f"exhaustive oracle would enumerate {n} super arms; the guard is {ENUMERATION_GUARD}"
        )
    best = None
    best_val = -math.inf
    for S in family:
        v = expected_reward(dists, S, spec)
        if v > best_val or (v == best_val and (best is None or S.members < best.members)):
            best, best_val = S, v
    return best


def greedy_kmax(dists, K: int) -> SuperArm:
    """Greedy expected-max maximization under a cardinality constraint.

    Adds the arm with the best marginal gain K times; ties go to the
    lowest arm index.  The objective is monotone submodular, so the value
    is at least (1 - 1/e) times the optimum over K-subsets.
    """
    m = len(dists)
    if not 1 <= K <= m:
        raise ValueError("need 1 <= K <= m")
    if all(isinstance(d, FiniteDistribution) for d in dists):
        return _greedy_kmax_finite(dists, K)
    chosen: list[int] = []
    for _ in range(K):
        best_j, best_val = -1, -math.inf
        for j in range(m):
            if j in chosen:
                continue
            v = expected_reward(dists, SuperArm(chosen + [j]), kmax_spec())
            if v > best_val:
                best_j, best_val = j, v
        chosen.append(best_j)
    return SuperArm(chosen)


def _greedy_kmax_finite(dists, K: int) -> SuperArm:
    m = len(dists)
    V = np.unique(np.concatenate([d.support for d in dists]))
    C = np.vstack([d.cdf(V) for d in dists])  # (m, |V|) member CDFs
    # E[max] = sum_k V_k (P_k - P_{k-1}) = P @ w with w_k = V_k - V_{k+1}, w_last = V_last
    w = np.empty(len(V))
    w[:-1] = V[:-1] - V[1:]
    w[-1] = V[-1]
    prod = np.ones(len(V))
    chosen: list[int] = []
    avail = np.ones(m, dtype=bool)
    for _ in range(K):
        vals = (C[avail] * prod) @ w
        idx = np.flatnonzero(avail)
        j = int(idx[np.argmax(vals)])
        chosen.append(j)
        avail[j] = False
        prod = prod * C[j]
    return SuperArm(chosen)


@dataclass(frozen=True)
class Signature:
    """Integer activation-rate summary of a discretized arm or arm set.

    ``units[j]`` counts units of size eps^4/m quantizing -ln(1 - q_j) for
    the grid value at position j (value 0 carries no coordinate).
    """

    units: tuple[int, ...]
    unit_size: float
    cap_units: int


def signature_cap(eps: float, m: int) -> int:
    """Per-coordinate unit cap floor(ln(1/eps^4) * m / eps^4)."""
    return math.floor(math.log(1.0 / eps**4) * m / eps**4)


def ptas_grid(eps: float, W: float) -> np.ndarray:
    """Nonzero discretization values {eps W, 2 eps W, ..., W/eps}.

    When 1/eps^2 is not an integer the endpoint W/eps is appended as an
    extra grid point.
    """
    n_full = math.floor(1.0 / (eps * eps) + VALUE_NUDGE)
    grid = np.arange(1, n_full + 1) * (eps * W)
    if 1.0 / (eps * eps) - n_full > VALUE_NUDGE:
        grid = np.append(grid, W / eps)
    return grid


def _validate_ptas_params(W: float, eps: float) -> None:
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if W <= 0.0:
        raise ValueError("W must be positive")


def discretize_bernoullis(pairs, W: float, eps: float) -> list[tuple[float, float]]:
    """Project one arm's Bernoulli decomposition onto the value grid.

    Values above W/eps collapse to W/eps with the activation scaled to
    preserve the mean exactly; other values round down to the eps*W grid;
    value 0 passes through.
    """
    _validate_ptas_params(W, eps)
    thresh = W / eps
    step = eps * W
    out = []
    for v, q in pairs:
        if v > thresh:
            out.append((thresh, q * v * eps / W))
        elif v <= 0.0:
            out.append((0.0, q))
        else:
            k = math.floor(v / step + VALUE_NUDGE)
            out.append((k * step, q))
    return out


def ptas_discretize(dists, W: float, eps: float) -> list[list[tuple[float, float]]]:
    """Bernoulli decompositions of all arms, projected onto the grid."""
    return [discretize_bernoullis(bernoulli_decomposition(d), W, eps) for d in dists]


def recompose_max(pairs) -> FiniteDistribution:
    """Distribution of the max of independent two-point (value, q) variables."""
    active = sorted((v, q) for v, q in pairs if v > 0.0)
    values = [0.0]
    masses = [0.0]
    for v, q in active:
        if v != values[-1]:
            values.append(v)
            masses.append(0.0)
    # survival downward: mass at v = Pr[all above stay 0] * Pr[some at v fires]
    tail = 1.0
    for k in range(len(values) - 1, 0, -1):
        stay = 1.0
        for v, q in active:
            if v == values[k]:
                stay *= 1.0 - q
        masses[k] = tail * (1.0 - stay)
        tail *= stay
    masses[0] = tail
    support, probs, cum = [], [], []
    running = 0.0
    for v, p in zip(values, masses):
        running += p
        if p > 0.0:
            support.append(v)
            probs.append(p)
            cum.append(running)
    return FiniteDistribution(support, probs, cum=cum)


def signature_of_arm(disc_arm, eps: float, m: int, W: float) -> Signature:
    """Integer signature of one discretized arm.

    The discretized Bernoullis are recomposed into a single distribution
    on the grid and re-decomposed, giving one activation rate q_j per
    grid value; coordinate j is min(floor(-ln(1 - q_j) * m / eps^4), cap).
    """
    grid = ptas_grid(eps, W)
    cap = signature_cap(eps, m)
    unit = eps**4 / m
    units = [0] * len(grid)
    dist = recompose_max(disc_arm)
    for v, q in bernoulli_decomposition(dist):
        if v <= 0.0:
            continue
        j = int(np.argmin(np.abs(grid - v)))
        if abs(grid[j] - v) > 1e-9 * max(1.0, grid[j]):
            raise ValueError(f"value {v!r} is not on the discretization grid")
        if q >= 1.0 - 1e-15:
            units[j] = cap
        else:
            units[j] = min(math.floor(-math.log1p(-q) / unit), cap)
    return Signature(tuple(units), unit, cap)


def signature_value(sg: Signature, eps: float, W: float) -> float:
    """Val(sg): exact expected max of the Bernoullis the signature induces.

    Coordinate j with u units contributes an independent Bernoulli at the
    j-th grid value with activation 1 - exp(-u * unit_size).
    """
    grid = ptas_grid(eps, W)
    if len(grid) != len(sg.units):
        raise ValueError("signature length does not match the grid")
    dists = []
    for v, u in zip(grid, sg.units):
        q = -math.expm1(-u * sg.unit_size)
        if q <= 0.0:
            dists.append(FiniteDistribution([0.0], [1.0]))
        elif q >= 1.0:
            dists.append(FiniteDistribution([v], [1.0]))
        else:
            dists.append(FiniteDistribution([0.0, v], [1.0 - q, q]))
    return expected_kmax(dists, SuperArm(range(len(grid))))


def _reach_layers(signatures: Sequence[Signature], K: int, bound: Optional[Signature]):
    """Layered subset-sum reachability over arm signatures.

    ``layers[i]`` holds every (chosen, units) state attainable from the
    first i arms with at most K arms chosen; when ``bound`` is given,
    states exceeding it componentwise are pruned.
    """
    zero = (0, tuple([0] * len(signatures[0].units))) if signatures else (0, ())
    layers = [{zero}]
    total = 1
    for sig in signatures:
        prev = layers[-1]
        nxt = set(prev)
        for chosen, units in prev:
            if chosen == K:
                continue
            cand = tuple(a + b for a, b in zip(units, sig.units))
            if bound is not None and any(c > t for c, t in zip(cand, bound.units)):
                continue
            nxt.add((chosen + 1, cand))
        layers.append(nxt)
        total += len(nxt)
        if total > SIGNATURE_DP_GUARD:
            raise GuardExceeded(
                f"signature dynamic program exceeded {SIGNATURE_DP_GUARD} states; "
                "raise eps or reduce the number of arms"
            )
    return layers


def _backtrack(layers, signatures: Sequence[Signature], K: int, target_units) -> SuperArm:
    """Recover one K-subset summing to ``target_units``.

    Prefers excluding the arm under consideration, so smaller indices
    enter later states first and the recovered set is the
    lexicographically smallest the table admits.
    """
    chosen, units = K, target_units
    members = []
    for j in range(len(signatures), 0, -1):
        if (chosen, units) in layers[j - 1]:
            continue
        members.append(j - 1)
        units = tuple(a - b for a, b in zip(units, signatures[j - 1].units))
        chosen -= 1
    return SuperArm(members)


def dp_find_set(arm_signatures: Sequence[Signature], K: int, target: Signature) -> Optional[SuperArm]:
    """A set of exactly K arms whose signatures sum to ``target``, if any.

    The sum is exact integer equality.  Absence is a valid result (None).
    """
    if any(u > K * target.cap_units for u in target.units):
        raise ValueError("target coordinate exceeds K * cap_units")
    layers = _reach_layers(arm_signatures, K, bound=target)
    state = (K, target.units)
    if state not in layers[-1]:
        return None
    return _backtrack(layers, arm_signatures, K, target.units)


def ptas_kmax(dists, K: int, eps: float) -> SuperArm:
    """Approximation scheme for expected-max maximization over K-subsets.

    Runs the greedy solver to scale the value grid, discretizes every
    arm's Bernoulli decomposition, quantizes activation rates into integer
    signatures, enumerates the reachable signatures of K-subsets, recovers
    one candidate set per signature, and returns the candidate whose exact
    expected max (on the original distributions) is largest.  The output
    need not dominate the greedy seed, but its value is within an O(eps)
    fraction of the optimum.
    """
    m = len(dists)
    if not 1 <= K <= m:
        raise ValueError("need 1 <= K <= m")
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    seed = greedy_kmax(dists, K)
    W = expected_kmax(dists, seed)
    if W <= 0.0:
        return seed
    disc = ptas_discretize(dists, W, eps)
    sigs = [signature_of_arm(a, eps, m, W) for a in disc]
    layers = _reach_layers(sigs, K, bound=None)
    final = sorted({units for chosen, units in layers[-1] if chosen == K})
    best = None
    best_val = -math.inf
    for units in final:
        S = _backtrack(layers, sigs, K, units)
        v = expected_kmax(dists, S)
        if v > best_val or (v == best_val and (best is None or S.members < best.members)):
            best, best_val = S, v
    return best
