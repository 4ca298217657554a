"""Offline computation oracles: exact enumeration for any reward, and two K-MAX solvers.

Three solvers with different cost/guarantee trade-offs:

* :func:`exhaustive_oracle` — exact argmax by enumeration (guarded),
* :func:`greedy_kmax` — marginal-gain greedy, a (1 - 1/e) approximation,
* :func:`ptas_kmax` — the signature-based approximation scheme: move each
  arm's Bernoulli decomposition onto a value grid and quantize its
  activation rates into an integer signature, all arms in one pass over
  the CDF matrix, enumerate the reachable set signatures with a dynamic
  program that carries one candidate set per signature, and score every
  candidate exactly.

Each solver takes m arm laws: a list or a :class:`CdfMatrix`.  On finite
arms all three score K-MAX on the CDF matrix (a list is converted once):
greedy its marginal gains, exhaustive and the scheme all their candidate
sets in one batched pass whose scores are :func:`expected_kmax`'s values
bit for bit, so the best row is the answer.  Exhaustive scores a utility
of the sum on finite arms in one batched pass over the sets' product
points, then rescores the sets within rounding of the best with
:func:`expected_reward`.  From a matrix no K-MAX solver builds a per-arm
law; only the members of shortlisted utility sets are built.  Linear
rewards and continuous arms are scored one set at a time.

Signatures use exact integer arithmetic so set equality is never a float
comparison.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Sequence

import numpy as np

from .distributions import CdfMatrix, FiniteDistribution
from .errors import GuardExceeded
from .rewards import (
    _SCORE_BLOCK,
    _SUM_GRID,
    CONVOLUTION_GUARD,
    KMAX,
    UTILITY_OF_SUM,
    RewardSpec,
    SuperArm,
    _kmax_scores,
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

    __slots__ = ("kind", "m", "K", "sets", "_rows")

    def __init__(self, kind, m, K, sets=None):
        self.kind = kind
        self.m = m
        self.K = K
        self.sets = sets
        self._rows = None

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

    def index_rows(self) -> np.ndarray:
        """Every feasible set as a row of K arm indices, shorter sets padded with m; built once."""
        if self._rows is None:
            dtype = np.min_scalar_type(self.m)
            if self.kind == "cardinality":
                blocks = []
                for k in range(1, self.K + 1):
                    combos = itertools.chain.from_iterable(itertools.combinations(range(self.m), k))
                    block = np.full((math.comb(self.m, k), self.K), self.m, dtype=dtype)
                    block[:, :k] = np.fromiter(combos, dtype=dtype).reshape(-1, k)
                    blocks.append(block)
                self._rows = np.concatenate(blocks)
            else:
                pad = (self.m,) * self.K
                self._rows = np.array([(S.members + pad)[: self.K] for S in self.sets], dtype=dtype)
        return self._rows

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

    Ties go to the lexicographically smallest member set.  On finite
    arms every set is scored at once: K-MAX on the CDF matrix, a utility
    of the sum over each set's product points.
    """
    n = family.count()
    if n > ENUMERATION_GUARD:
        raise GuardExceeded(
            f"exhaustive oracle would enumerate {n} super arms; the guard is {ENUMERATION_GUARD}"
        )
    if len(dists) != family.m:
        raise ValueError(f"the family is over {family.m} arms, got {len(dists)} arm laws")
    if spec.kind == KMAX and _finite(dists):
        return _best_kmax(dists, family.index_rows())
    if spec.kind == UTILITY_OF_SUM and _finite(dists):
        return _best_utility(dists, family.index_rows(), spec)
    dists = list(dists)
    return min(family, key=lambda S: (-expected_reward(dists, S, spec), S.members))


def greedy_kmax(dists, K: int) -> SuperArm:
    """Greedy expected-max maximization under a cardinality constraint.

    Adds the arm with the best marginal gain K times; ties go to the
    lowest arm index only when the computed gains are bit-equal (gains
    equal in exact arithmetic may round apart).  The objective is
    monotone submodular, so the value is at least (1 - 1/e) times the
    optimum over K-subsets.  Finite arms are scored on their CDF matrix,
    read as given or built once.
    """
    m = len(dists)
    if not 1 <= K <= m:
        raise ValueError("need 1 <= K <= m")
    if _finite(dists):
        return _greedy_kmax_finite(_as_matrix(dists), K)
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


def _finite(dists) -> bool:
    return isinstance(dists, CdfMatrix) or all(isinstance(d, FiniteDistribution) for d in dists)


def _as_matrix(dists) -> CdfMatrix:
    return dists if isinstance(dists, CdfMatrix) else CdfMatrix.of(dists)


def _best_kmax(dists, rows: np.ndarray) -> SuperArm:
    """The row whose arms have the largest expected max; ties go to the smallest member set.

    A row's batched score is :func:`expected_kmax` of its set bit for bit,
    so the choice is the one a per-set loop makes, bit-equal ties included.
    """
    cdfs = _as_matrix(dists)
    scores = _kmax_scores(cdfs, rows)
    return min(SuperArm(row[row < len(cdfs)]) for row in rows[scores == scores.max()])


def _support_table(dists):
    """Each arm's support keys ``round(v * _SUM_GRID)`` and masses, left-aligned in (m + 1, S) arrays, and its size.

    Row m is a point mass at 0, the index-m pad.  A matrix row's masses
    are the positive steps of its CDF, as ``CdfMatrix.__getitem__`` reads
    them; columns past an arm's size hold key 0 and mass 0.
    """
    if isinstance(dists, CdfMatrix):
        steps = dists.F.copy()
        steps[:, 1:] -= dists.F[:, :-1]
        arm, col = np.nonzero(steps > 0.0)
        keys, masses = np.rint(dists.values * _SUM_GRID)[col], steps[arm, col]
    else:
        arm = np.repeat(np.arange(len(dists)), [len(d.support) for d in dists])
        keys = np.rint(np.concatenate([d.support for d in dists]) * _SUM_GRID)
        masses = np.concatenate([d.probs for d in dists])
    arm, keys, masses = np.append(arm, len(dists)), np.append(keys, 0.0), np.append(masses, 1.0)
    sizes = np.bincount(arm)
    at = np.arange(len(arm)) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # arm entries are contiguous
    key_table = np.zeros((len(sizes), sizes.max()), dtype=np.int64)
    mass_table = np.zeros(key_table.shape)
    key_table[arm, at] = keys
    mass_table[arm, at] = masses
    return key_table, mass_table, sizes


def _utility_scores(dists, rows: np.ndarray, spec: RewardSpec) -> tuple[np.ndarray, np.ndarray]:
    """Expected utility of the sum of the arms in each row, and a bound on its distance from ``expected_reward``.

    Every row expands into its product points, one member at a time in
    member order, each point carrying its sum key and its mass, the
    product of the member masses.  The utility is evaluated once per
    distinct key, and a row scores the sum of mass times utility over its
    points, in blocks of at most ``_SCORE_BLOCK`` points; a row with more
    points is summed over chunks of that many, in the same sequence.  Raises
    :class:`GuardExceeded` before any product point is built when a row
    has ``CONVOLUTION_GUARD`` points or more.
    """
    keys, masses, sizes = _support_table(dists)
    n_points = sizes[rows].prod(axis=1, dtype=float)  # exact below the guard, and at least the guard above it
    over = np.flatnonzero(n_points >= CONVOLUTION_GUARD)
    if len(over):
        row = rows[over[0]]
        raise GuardExceeded(
            f"sum-support convolution of super arm {row[row < len(dists)].tolist()} needs "
            f"{math.prod(sizes[row].tolist())} product points; the guard is {CONVOLUTION_GUARD}"
        )
    n_points = n_points.astype(np.int64)
    ends = np.cumsum(n_points)
    utility: dict[int, float] = {}
    scores, magnitudes = np.zeros(len(rows)), np.zeros(len(rows))
    start = 0
    while start < len(rows):
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] - n_points[start] + _SCORE_BLOCK, side="right")))
        block = rows[start:stop]
        if n_points[start] > _SCORE_BLOCK:  # a row alone: its points in chunks, the first member slowest
            row, total, B = block[:1].T, int(n_points[start]), _SCORE_BLOCK
            ats = (np.unravel_index(np.arange(a, min(a + B, total)), sizes[block[0]]) for a in range(0, total, B))
            # keys summed and masses multiplied member by member, as the one-chunk expansion below does
            points = ((0, sum(keys[row, at]), math.prod(masses[row, at])) for at in map(np.array, ats))
        else:
            owner = np.arange(len(block))
            key = np.zeros(len(block), dtype=np.int64)
            mass = np.ones(len(block))
            for j in range(block.shape[1]):
                arm = block[owner, j]
                n = sizes[arm]
                at = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
                owner, arm = np.repeat(owner, n), np.repeat(arm, n)
                key = np.repeat(key, n) + keys[arm, at]
                mass = np.repeat(mass, n) * masses[arm, at]
            points = [(owner, key, mass)]
        for owner, key, mass in points:
            distinct, inverse = np.unique(key, return_inverse=True)
            for k in distinct.tolist():
                if k not in utility:
                    utility[k] = spec.utility(k / _SUM_GRID)
            u = np.array([utility[k] for k in distinct.tolist()], dtype=float)[inverse]
            # each row's running total enters first, so a row split over chunks sums its points in one sequence
            bins = np.concatenate([np.arange(len(block)), np.broadcast_to(owner, key.shape)])
            for out, terms in ((scores, mass * u), (magnitudes, mass * np.abs(u))):
                out[start:stop] = np.bincount(bins, np.concatenate([out[start:stop], terms]), minlength=len(block))
        start = stop
    # Over a row of N points, a term of the batch is rounded at most K + N times (K products, one by
    # u, N - 1 additions), one of expected_reward's at most (K + 1) N times (a product and up to N - 1
    # merge additions in each of the K convolution steps, one by u, N - 1 additions).  So the two lie
    # within (K + 2)(N + 1) eps times the row's sum of |mass u|; doubled for second-order terms
    err = 2 * (rows.shape[1] + 2) * (n_points + 1) * np.finfo(float).eps * magnitudes
    return scores, err


def _best_utility(dists, rows: np.ndarray, spec: RewardSpec) -> SuperArm:
    """The row whose arms' sum has the largest expected utility; ties go to the smallest member set.

    Rows whose batched score lies within the two error bounds of the
    best one are rescored with :func:`expected_reward` on ``dists`` as the
    caller passed them, so the choice is the one a per-set loop makes,
    bit-equal ties included.
    """
    scores, err = _utility_scores(dists, rows, spec)
    shortlist = rows[scores + err >= (scores - err).max()]
    m = len(dists)
    sets = [SuperArm(row[row < m]) for row in shortlist]
    return min(sets, key=lambda S: (-expected_reward(dists, S, spec), S.members))


def _greedy_kmax_finite(cdfs: CdfMatrix, K: int) -> SuperArm:
    V = cdfs.values
    C = cdfs.F
    # E[max] = sum_k V_k (P_k - P_{k-1}) = P @ w with w_k = V_k - V_{k+1}, w_last = V_last
    w = np.append(V[:-1] - V[1:], V[-1])
    avail = list(range(len(C)))
    chosen = [avail.pop(int((C @ w).argmax()))]
    prod = C[chosen[0]]
    # score the remaining rows only, in index order: a gemv's bits depend on its row count
    for _ in range(K - 1):
        chosen.append(avail.pop(int((C[avail] * prod @ w).argmax())))
        prod = prod * C[chosen[-1]]
    return SuperArm(chosen)


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


def _signatures(cdfs: CdfMatrix, W: float, eps: float) -> np.ndarray:
    """Every arm's integer signature: one row per arm, one column per point of ``ptas_grid(eps, W)``.

    Arm i's Bernoulli decomposition has a part (v, q) at each value v where
    the arm has mass, q = (F_i(v) - F_i(v-)) / F_i(v).  Each part moves to a
    grid index: values above W/eps go to the top index with activation
    q v eps / W (which keeps the mean), the rest round down to the eps W
    grid, and parts rounding to value 0 drop out.  Independent parts at one
    value fire with probability 1 - prod(1 - q), so the coordinate is
    min(floor(sum(-ln(1 - q)) * m / eps^4), cap) over that value's parts,
    summed in ascending value order.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if W <= 0.0:
        raise ValueError("W must be positive")
    V, F = cdfs.values, cdfs.F
    m = len(F)
    top = len(ptas_grid(eps, W))
    step = F.copy()
    step[:, 1:] -= F[:, :-1]
    arm, col = np.nonzero(step > 0.0)  # row by row, each arm's values ascending
    q, v = step[arm, col] / F[arm, col], V[col]
    above = v > W / eps
    index = np.where(above, top, np.floor(v / (eps * W) + VALUE_NUDGE)).astype(np.intp)
    q = np.where(above, q * v * eps / W, q)
    rates = np.zeros((m, top + 1))  # summed -ln(1 - q) per grid index; index 0 is value 0
    # math.log1p, not np.log1p: numpy's may differ from it in the last bit
    np.add.at(rates, (arm, index), [math.inf if x >= 1.0 else -math.log1p(-x) for x in q.tolist()])
    return np.floor(np.minimum(rates[:, 1:] / (eps**4 / m), signature_cap(eps, m))).astype(np.int64)


def _reachable_sets(signatures, K: int) -> dict:
    """Every (chosen, units) state of at most K arms, mapped to the first set reaching it.

    ``signatures`` holds one row per arm.  A state's units are its sums over
    the live columns only, those where some arm's signature is nonzero: a
    column of zeros is 0 in every state, so dropping it maps the states one
    to one.  Arms enter in index order and a state keeps the set that
    reached it first, so its largest member is as small as possible, then
    its next largest, and so on.
    """
    table = np.asarray(signatures)
    live = [tuple(row) for row in table[:, table.any(axis=0)].tolist()]
    reach = {(0, (0,) * len(live[0])): ()}
    total = 1
    for j, sig in enumerate(live):
        for (chosen, units), members in list(reach.items()):
            if chosen == K:
                continue
            state = (chosen + 1, tuple(map(operator.add, units, sig)))
            if state not in reach:
                reach[state] = members + (j,)
        total += len(reach)
        if total > SIGNATURE_DP_GUARD:
            raise GuardExceeded(
                f"signature dynamic program exceeded {SIGNATURE_DP_GUARD} states; "
                "raise eps or reduce the number of arms"
            )
    return reach


def ptas_kmax(dists, K: int, eps: float) -> SuperArm:
    """Approximation scheme for expected-max maximization over K-subsets.

    Runs the greedy solver to scale the value grid, turns every arm into
    an integer signature, enumerates the reachable signatures of K-subsets
    with the set that first reaches each, and returns the candidate whose
    exact expected max (on the original distributions) is largest; ties go
    to the lexicographically smallest member set.  The output need not
    dominate the greedy seed, but its value is within an O(eps) fraction
    of the optimum.
    """
    if not 1 <= K <= len(dists):
        raise ValueError("need 1 <= K <= m")
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if not _finite(dists):
        raise TypeError("ptas_kmax requires finite-support distributions")
    cdfs = _as_matrix(dists)
    seed = _greedy_kmax_finite(cdfs, K)
    W = expected_kmax(cdfs, seed)
    if W <= 0.0:
        return seed
    reach = _reachable_sets(_signatures(cdfs, W, eps), K)
    rows = np.array([members for (chosen, _), members in reach.items() if chosen == K])
    return _best_kmax(cdfs, rows)
