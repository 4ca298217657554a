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

Each solver takes m arm laws, a list or a :class:`CdfMatrix`, and scores
on the list's one matrix: greedy its marginal gains, the scheme its
candidate sets, and exhaustive, for any reward, every feasible set, each
in one batch whose scores are :func:`expected_reward`'s values bit for
bit, so the best row is the answer.  From a matrix no solver builds a
per-arm law.

Signatures use exact integer arithmetic so set equality is never a float
comparison.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .distributions import CdfMatrix, _bernoulli_parts
from .errors import GuardExceeded, check_count, check_real
from .rewards import RewardSpec, SuperArm, _cdfs, _scores, expected_kmax, kmax_spec

ENUMERATION_GUARD = 10**6
SIGNATURE_DP_GUARD = 10**7
VALUE_NUDGE = 1e-9


class FeasibleFamily:
    """The constraint family of playable super arms.

    Either every nonempty subset of at most K of the m arms
    (``cardinality_at_most``) or an explicit list, held as its index rows.
    Every arm must belong to at least one feasible super arm so that
    initialization rounds can observe it.
    """

    __slots__ = ("kind", "m", "K", "_rows", "_members")

    def __init__(self, kind, m, K, rows=None):
        self.kind = kind
        self.m = m
        self.K = K
        self._rows = rows
        self._members = None  # an explicit family's member tuples, built by is_feasible on first use

    @classmethod
    def cardinality_at_most(cls, K: int, m: int) -> "FeasibleFamily":
        if check_count(K, "K") > check_count(m, "m"):
            raise ValueError("need 1 <= K <= m")
        return cls("cardinality", m, K)

    @classmethod
    def explicit(cls, super_arms: Sequence[SuperArm], m: int) -> "FeasibleFamily":
        rows = [(S if isinstance(S, SuperArm) else SuperArm(S)).members for S in super_arms]
        if not rows:
            raise ValueError("explicit family must be nonempty")
        for row in rows:
            if row[-1] >= m:
                raise ValueError(f"arm {row[-1]} out of range for m={m}")
        pad = (m,) * max(map(len, rows))
        return cls._of_rows(np.array([(row + pad)[: len(pad)] for row in rows]), m)

    @classmethod
    def _of_rows(cls, table: np.ndarray, m: int) -> "FeasibleFamily":
        """The explicit family of the sets in ``table``'s rows: arm indices below m in any order, repeats
        allowed, each row padded with m; at least one row, every row with an arm."""
        table = np.sort(table, axis=1)
        repeat = table[:, 1:] == table[:, :-1]
        if repeat.any():  # a repeat becomes a pad, and the pads sort last
            table[:, 1:][repeat] = m
            table.sort(axis=1)
        covered = np.zeros(m + 1, dtype=bool)
        covered[table] = True
        if not covered[:m].all():
            raise ValueError(f"arms {np.flatnonzero(~covered[:m]).tolist()} appear in no feasible super arm")
        K = int(np.count_nonzero(table < m, axis=1).max())
        return cls("explicit", m, K, table[:, :K].astype(np.min_scalar_type(m)))

    def count(self) -> int:
        if self.kind == "cardinality":
            return sum(math.comb(self.m, k) for k in range(1, self.K + 1))
        return len(self._rows)

    def __iter__(self):
        if self.kind == "cardinality":
            for k in range(1, self.K + 1):
                for combo in itertools.combinations(range(self.m), k):
                    yield SuperArm(combo)
        else:
            yield from (SuperArm(row[row < self.m]) for row in self._rows)

    def index_rows(self) -> np.ndarray:
        """Every feasible set as a row of K arm indices, shorter sets padded with m; built once."""
        if self._rows is None:
            dtype = np.min_scalar_type(self.m)
            blocks = []
            for k in range(1, self.K + 1):
                combos = itertools.chain.from_iterable(itertools.combinations(range(self.m), k))
                block = np.full((math.comb(self.m, k), self.K), self.m, dtype=dtype)
                block[:, :k] = np.fromiter(combos, dtype=dtype).reshape(-1, k)
                blocks.append(block)
            self._rows = np.concatenate(blocks)
        return self._rows

    def is_feasible(self, S: SuperArm) -> bool:
        if self.kind == "cardinality":
            return len(S) <= self.K and S.members[-1] < self.m
        if self._members is None:
            self._members = frozenset(X.members for X in self)
        return S.members in self._members

    def smallest_containing(self, arm: int) -> SuperArm:
        """Lexicographically smallest feasible super arm containing ``arm``."""
        if not 0 <= arm < self.m:
            raise ValueError(f"arm {arm} out of range")
        if self.kind == "cardinality":
            return SuperArm((arm,))
        return _smallest_row(self._rows[(self._rows == arm).any(axis=1)], self.m)

    def __repr__(self):
        if self.kind == "cardinality":
            return f"FeasibleFamily.cardinality_at_most(K={self.K}, m={self.m})"
        return f"FeasibleFamily.explicit({len(self._rows)} sets, m={self.m})"


def exhaustive_oracle(dists, family: FeasibleFamily, spec: RewardSpec) -> SuperArm:
    """Exact argmax of expected reward over the family (enumeration guard).

    Every set is scored at once, and ties go to the lexicographically
    smallest member set.
    """
    n = family.count()
    if n > ENUMERATION_GUARD:
        raise GuardExceeded(
            f"exhaustive oracle would enumerate {n} super arms; the guard is {ENUMERATION_GUARD}"
        )
    if len(dists) != family.m:
        raise ValueError(f"the family is over {family.m} arms, got {len(dists)} arm laws")
    return _best_row(dists, family.index_rows(), spec)


def greedy_kmax(dists, K: int) -> SuperArm:
    """Greedy expected-max maximization under a cardinality constraint.

    Adds the arm with the best marginal gain K times; ties go to the
    lowest arm index only when the computed gains are bit-equal (gains
    equal in exact arithmetic may round apart).  The objective is
    monotone submodular, so the value is at least (1 - 1/e) times the
    optimum over K-subsets.  The gains are one matrix-vector product a
    step on the arm list's matrix.
    """
    if check_count(K, "K") > len(dists):
        raise ValueError("need 1 <= K <= m")
    cdfs = _cdfs(dists)
    if isinstance(cdfs, CdfMatrix):
        return _greedy(cdfs.F, _kmax_weights(cdfs.values), K)
    return _greedy(cdfs.F, -cdfs.weights, K)  # E[max] = sum_n w_n (1 - P_n) is largest where P @ -w is


def _kmax_weights(V: np.ndarray) -> np.ndarray:
    """w along V's last axis with E[max] = P @ w: E[max] = sum_k V_k (P_k - P_{k-1}), so w_k = V_k - V_{k+1} and
    w_last = V_last."""
    w = V.copy()
    w[..., :-1] -= V[..., 1:]
    return w


def _greedy(C: np.ndarray, w: np.ndarray, K: int) -> SuperArm:
    """Greedy's K steps on C, one CDF row per arm, whose set values are the row products @ w; K <= len(C) trusted."""
    avail = list(range(len(C)))
    chosen = [avail.pop(C.dot(w).argmax())]  # ndarray.dot is @'s gemv, for less call overhead
    prod = C[chosen[0]]
    # score the remaining rows only, in index order: a gemv's bits depend on its row count
    for _ in range(K - 1):
        rest = C.take(avail, axis=0)
        rest *= prod  # each remaining arm's CDF times the chosen arms' product
        j = rest.dot(w).argmax()
        chosen.append(avail.pop(j))
        prod = rest[j]
    chosen.sort()
    return SuperArm._trusted(tuple(chosen))


def _greedy_stack(C: np.ndarray, w: np.ndarray, K: int) -> list[SuperArm]:
    """``_greedy`` of every item of a stack, C (g, m, n) and w (g, n), in one matmul a step.

    Each item of C must be Fortran-ordered, as ``low[r][:, keep[r]]`` is, and
    each step's gathered rows are C-ordered, as ``take``'s are: a stacked
    matmul then computes every item's gains with the bits of that item's
    own gemv, so every pick is ``_greedy``'s.
    """
    g, m, _ = C.shape
    runs = np.arange(g)
    w = w[:, :, None]
    avail = np.broadcast_to(np.arange(m), (g, m))
    chosen = np.empty((g, K), dtype=np.intp)
    rest = C
    for step in range(K):
        if step:
            prod = rest[runs, None, j]  # each item's chosen arms' product
            avail = avail[avail != chosen[:, step - 1, None]].reshape(g, -1)
            rest = C[runs[:, None], avail]
            rest *= prod
        j = (rest @ w)[..., 0].argmax(1)  # the first of bit-equal maxima, as argmax on one item
        chosen[:, step] = avail[runs, j]
    chosen.sort(axis=1)
    return [SuperArm._trusted(tuple(row)) for row in chosen.tolist()]


# a width group of this many runs or more is stepped as one stack (see scripts/round_costs.py)
_STACK_RUNS = 6


class _Greedy:
    """The greedy oracle of one cardinality family: ``greedy_kmax`` with K checked once, and a lockstep batch entry.

    ``_batch(values, low, keep)`` takes a batch's optimistic CDFs as
    :func:`~cmab.distributions._optimistic` leaves them and returns each
    run's ``greedy_kmax`` pick on ``CdfMatrix(values[r][keep[r]], low[r][:,
    keep[r]])``, building no matrix object.  Runs of one kept width form a
    group, and a group of ``_STACK_RUNS`` or more is stepped as one stack.
    """

    __slots__ = ("K",)

    def __init__(self, K: int, m: int):
        if check_count(K, "K") > m:
            raise ValueError("need 1 <= K <= m")
        self.K = K

    def __call__(self, dists) -> SuperArm:
        return greedy_kmax(dists, self.K)

    def _batch(self, values: np.ndarray, low: np.ndarray, keep: np.ndarray) -> list[SuperArm]:
        K = self.K
        arms = [None] * len(keep)
        if len(keep) >= _STACK_RUNS:
            widths = np.count_nonzero(keep, axis=1)
            sizes = np.bincount(widths)
            for width in np.flatnonzero(sizes >= _STACK_RUNS).tolist():
                group = np.flatnonzero(widths == width)
                k = keep[group]
                # the kept columns of every run, each a C-ordered (width, m) block: its transpose is the Fortran F
                C = low[group].transpose(0, 2, 1)[k].reshape(len(group), width, -1).transpose(0, 2, 1)
                V = values[group][k].reshape(len(group), width)
                for r, S in zip(group.tolist(), _greedy_stack(C, _kmax_weights(V), K)):
                    arms[r] = S
        for r, (v, F, k) in enumerate(zip(values, low, keep)):
            if arms[r] is None:
                arms[r] = _greedy(F[:, k], _kmax_weights(v[k]), K)
        return arms


def _best_row(dists, rows: np.ndarray, spec: RewardSpec) -> SuperArm:
    """The row whose set has the largest expected reward; ties go to the smallest member set.

    A row's batched score is :func:`expected_reward` of its set bit for
    bit, so the choice is the one a per-set loop makes, bit-equal ties
    included.
    """
    scores = _scores(dists, rows, spec)
    return _smallest_row(rows[scores == scores.max()], len(dists))


def _smallest_row(rows: np.ndarray, m: int) -> SuperArm:
    """The set of the smallest member tuple among ``rows``, sorted sets padded with m.

    With the pad read as -1, a set sorts before its extensions, so one
    ``lexsort`` puts the smallest member tuple first.
    """
    rows = rows.astype(np.intp)
    rows[rows == m] = -1
    best = rows[np.lexsort(rows.T[::-1])[0]]
    return SuperArm(best[best >= 0])


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
    check_epsilon(eps)
    if not check_real(W, "W") > 0.0:
        raise ValueError(f"W must be positive, got {W!r}")
    m = len(cdfs)
    top = len(ptas_grid(eps, W))
    arm, v, q = _bernoulli_parts(cdfs)
    above = v > W / eps
    index = np.where(above, top, np.floor(v / (eps * W) + VALUE_NUDGE)).astype(np.intp)
    q = np.where(above, q * v * eps / W, q)
    rates = np.zeros((m, top + 1))  # summed -ln(1 - q) per grid index; index 0 is value 0
    # math.log1p, not np.log1p: numpy's may differ from it in the last bit
    np.add.at(rates, (arm, index), [math.inf if x >= 1.0 else -math.log1p(-x) for x in q.tolist()])
    return np.floor(np.minimum(rates[:, 1:] / (eps**4 / m), signature_cap(eps, m))).astype(np.int64)


def _reachable_sets(signatures, K: int) -> list[dict]:
    """Every state of at most K arms, level by level: ``levels[k]`` maps each k-arm state to the first set reaching it.

    ``signatures`` holds one row per arm.  A state is its units, the sums
    of its arms' signatures over the live columns only, those where some
    arm's signature is nonzero: a column of zeros is 0 in every state, so
    dropping it maps the states one to one.  The units are packed into one
    int, a field per live column, every field as wide as the largest
    column sum over all arms, so a sum never carries into the next field
    and adding a packed signature adds its units.  Arms enter in index order and a
    state keeps the set that reached it first, so its largest member is as
    small as possible, then its next largest, and so on.  An arm extends
    the levels from K - 1 down to 0, so it never extends a state it made.
    """
    table = np.asarray(signatures)
    table = table[:, table.any(axis=0)]
    width = int(table.sum(axis=0).max(initial=0)).bit_length()
    keys = [sum(v << (width * c) for c, v in enumerate(row)) for row in table.tolist()]
    levels = [{0: ()}] + [{} for _ in range(K)]
    states = total = 1
    for j, sig in enumerate(keys):
        for k in range(min(j, K - 1), -1, -1):
            above = levels[k + 1]
            n = len(above)
            for units, members in levels[k].items():
                units += sig
                if units not in above:
                    above[units] = members + (j,)
            states += len(above) - n
        total += states
        if total > SIGNATURE_DP_GUARD:
            raise GuardExceeded(
                f"signature dynamic program exceeded {SIGNATURE_DP_GUARD} states; "
                "raise eps or reduce the number of arms"
            )
    return levels


def check_epsilon(eps) -> None:
    """The ptas accuracy, checked whichever oracle runs: a finite real number in (0, 1/2)."""
    if not 0.0 < check_real(eps, "epsilon") < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {eps!r}")


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
    if check_count(K, "K") > len(dists):
        raise ValueError("need 1 <= K <= m")
    check_epsilon(eps)
    cdfs = _cdfs(dists)
    if not isinstance(cdfs, CdfMatrix):
        raise TypeError("ptas_kmax requires finite-support distributions")
    seed = greedy_kmax(cdfs, K)
    W = expected_kmax(cdfs, seed)
    if W <= 0.0:
        return seed
    sets = _reachable_sets(_signatures(cdfs, W, eps), K)[K].values()
    rows = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.intp, count=K * len(sets)).reshape(-1, K)
    return _best_row(cdfs, rows, kmax_spec())
