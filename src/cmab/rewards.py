"""Reward functions over super arms and exact expected-reward evaluation.

Three reward families are supported:

* ``kmax``: R(x, S) = max_{i in S} x_i,
* ``utility_of_sum``: R(x, S) = u(sum_{i in S} x_i) for a monotone u,
* ``linear_sum``: R(x, S) = sum_{i in S} x_i.

Expected rewards r_D(S) are exact for product distributions.
:func:`_scores` scores many sets at once and :func:`expected_reward` is it
on one set's row, so a set's batched score is its value bit for bit.
Every reward reads the arm list's one matrix from :func:`_cdfs`: the
CDFs of finite laws, whose products give the max law, or once a law is
continuous a Gauss-Legendre quadrature of the integral of
1 - prod_i F_i.  :func:`expected_kmax` scores K-MAX on it for any arm
laws; a linear row sums means.  A utility of the sum is summed over each
set's product points, read from the support table of the finite laws'
matrix, whose masses are the steps of each arm's CDF, for a list as for a
matrix; :func:`_laws` gives a list's one input for any reward.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .distributions import CdfMatrix, Distribution, FiniteDistribution, PiecewiseDensity, _sorted_unique
from .errors import GuardExceeded

KMAX = "kmax"
UTILITY_OF_SUM = "utility_of_sum"
LINEAR_SUM = "linear_sum"

CONVOLUTION_GUARD = 10**6
_SCORE_BLOCK = 1 << 16  # elements of one block of candidate scoring: (sets, members, values), or product points
_SUM_GRID = 1e9  # support values are keyed round(v * 1e9), so sums of keys add exactly


class SuperArm:
    """Nonempty sorted set of arm indices."""

    __slots__ = ("members",)

    def __init__(self, members):
        mem = tuple(sorted({int(i) for i in members}))
        if not mem:
            raise ValueError("super arm must be nonempty")
        if mem[0] < 0:
            raise ValueError("arm indices must be nonnegative")
        self.members = mem

    def __eq__(self, other):
        return isinstance(other, SuperArm) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __lt__(self, other):
        return self.members < other.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, arm):
        return arm in self.members

    def __repr__(self):
        return f"SuperArm({list(self.members)})"


def identity_utility(y: float) -> float:
    return y


def square_utility(y: float) -> float:
    return y * y


def sqrt_utility(y: float) -> float:
    return math.sqrt(y)


def saturating_utility(y: float) -> float:
    """1 - exp(-y), saturating toward 1."""
    return -math.expm1(-y)


UTILITY_CURVES = {
    "identity": identity_utility,
    "square": square_utility,
    "sqrt": sqrt_utility,
    "saturating": saturating_utility,
}


def _check_curve(utility) -> None:
    """Reject a utility curve that is not callable, or not finite and non-decreasing on a grid over [0, 16]."""
    if not callable(utility):
        raise ValueError("utility_of_sum requires a curve name or callable")
    grid = np.linspace(0.0, 16.0, 257)
    vals = [utility(y) for y in grid]
    if not np.all(np.isfinite(vals)):
        raise ValueError("utility curve must be finite on [0, 16]")
    if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
        raise ValueError("utility curve must be non-decreasing")


for _curve in UTILITY_CURVES.values():  # the named curves, checked once
    _check_curve(_curve)
del _curve


class TabulatedUtility:
    """Piecewise-linear utility through the given (y, u) points."""

    def __init__(self, points: Sequence[tuple[float, float]]):
        pts = sorted((float(y), float(u)) for y, u in points)
        if len(pts) < 2:
            raise ValueError("need at least two table points")
        self.ys = np.array([y for y, _ in pts])
        self.us = np.array([u for _, u in pts])
        if not (np.all(np.isfinite(self.ys)) and np.all(np.isfinite(self.us))):
            raise ValueError("table points must be finite")
        if np.any(np.diff(self.ys) <= 0):
            raise ValueError("table abscissae must be strictly increasing")

    def __call__(self, y: float) -> float:
        return float(np.interp(y, self.ys, self.us))


class RewardSpec:
    """Which reward function is in force, with its bound M and Lipschitz C.

    For ``kmax`` both constants are fixed at 1.  Utility curves must be
    finite and non-decreasing; both are checked on a sampled grid, for a
    named curve once at import and for any other at construction.
    """

    __slots__ = ("kind", "utility", "bound_M", "lipschitz_C")

    def __init__(self, kind, utility=None, bound_M=1.0, lipschitz_C=1.0):
        if kind not in (KMAX, UTILITY_OF_SUM, LINEAR_SUM):
            raise ValueError(f"unknown reward kind {kind!r}")
        if not math.isfinite(bound_M) or bound_M <= 0:
            raise ValueError("bound_M must be positive and finite")
        if not math.isfinite(lipschitz_C):
            raise ValueError("lipschitz_C must be finite")
        if kind == KMAX:
            if utility is not None:
                raise ValueError("kmax takes no utility curve")
            bound_M, lipschitz_C = 1.0, 1.0
        elif kind == UTILITY_OF_SUM:
            if isinstance(utility, str):
                try:
                    utility = UTILITY_CURVES[utility]
                except KeyError:
                    raise ValueError(f"unknown utility curve {utility!r}") from None
            else:
                _check_curve(utility)
        else:
            if utility is not None:
                raise ValueError("linear_sum takes no utility curve")
        self.kind = kind
        self.utility = utility
        self.bound_M = float(bound_M)
        self.lipschitz_C = float(lipschitz_C)

    def __repr__(self):
        return f"RewardSpec(kind={self.kind!r}, bound_M={self.bound_M}, lipschitz_C={self.lipschitz_C})"


def kmax_spec() -> RewardSpec:
    return RewardSpec(KMAX)


def linear_spec(bound_M: float = 1.0) -> RewardSpec:
    return RewardSpec(LINEAR_SUM, bound_M=bound_M)


def utility_spec(utility, bound_M: float, lipschitz_C: float) -> RewardSpec:
    """Utility-of-sum spec.  ``utility`` is a curve name, a callable, or a
    point table for piecewise-linear interpolation.  The caller declares
    bound_M consistent with u on the reachable sum range; it is not
    inferred."""
    if isinstance(utility, (list, tuple)) and utility and not callable(utility):
        utility = TabulatedUtility(utility)
    return RewardSpec(UTILITY_OF_SUM, utility=utility, bound_M=bound_M, lipschitz_C=lipschitz_C)


@lru_cache(maxsize=32)
def _gauss_legendre(n: int):
    return np.polynomial.legendre.leggauss(n)  # numpy.polynomial is imported on first use


class _Quadrature:
    """m arm laws, one of them continuous or more, as their CDFs at quadrature nodes.

    ``F[i, n]`` is arm i's CDF at node n, and ``weights[n]`` the node's
    weight.  Each segment between consecutive breakpoints and atoms of all
    m arms wider than 2e-15 holds ceil((m + 1)/2) Gauss-Legendre nodes.
    There every CDF is constant or linear, so any set's CDF product has
    degree at most m, and sum_n weights[n] (1 - prod_i F[i, n]) integrates
    1 - prod_i F_i over [0, 1] exactly: it is the set's E[max].
    """

    __slots__ = ("F", "weights")

    def __init__(self, dists):
        pts = [d.breakpoints if isinstance(d, PiecewiseDensity) else d.support for d in dists]
        edges = _sorted_unique(np.concatenate([[0.0, 1.0], *pts]))
        half = (edges[1:] - edges[:-1]) / 2.0
        keep = half > 1e-15
        mid, half = ((edges[:-1] + edges[1:]) / 2.0)[keep, None], half[keep, None]
        nodes, weights = _gauss_legendre(math.ceil((len(dists) + 1) / 2))
        xs = (mid + half * nodes).ravel()
        self.F = np.vstack([np.interp(xs, d.breakpoints, d.cum) if isinstance(d, PiecewiseDensity) else d.cdf(xs) for d in dists])
        self.weights = (half * weights).ravel()

    def __len__(self) -> int:
        return len(self.F)


def _cdfs(dists):
    """The arm laws as one matrix, a function of the list alone: their :class:`CdfMatrix` when all are
    finite, else their :class:`_Quadrature`.  A matrix is passed through."""
    if isinstance(dists, (CdfMatrix, _Quadrature)):
        return dists
    if all(isinstance(d, FiniteDistribution) for d in dists):
        return CdfMatrix.of(dists)
    return _Quadrature(dists)


def _kmax_scores(cdfs, rows: np.ndarray) -> np.ndarray:
    """E[max] of the arms in each row, on a matrix from :func:`_cdfs`; index m is an all-ones pad.

    On a :class:`CdfMatrix`, with P_k the product of the row's CDFs at v_k,
    Pr[max = v_k] is P_k - P_{k-1} and E[max] sums v_k (P_k - P_{k-1}); a
    column where none of the row's arms has mass adds an exact +0.0, so its
    arms' rows alone give the same bits.  On a :class:`_Quadrature`, E[max]
    sums w_n (1 - P_n) over the nodes.  Either's terms are summed strictly
    left to right, so a score does not depend on its block.
    """
    C = cdfs.F
    if rows.max() == len(C):  # a padded row reads the all-ones row m
        C = np.vstack([C, np.ones(C.shape[1])])
    step = max(1, _SCORE_BLOCK // (rows.shape[1] * C.shape[1]))
    scores = []
    for a in range(0, len(rows), step):
        P = C[rows[a : a + step]].prod(1)
        if isinstance(cdfs, CdfMatrix):
            P[:, 1:] -= P[:, :-1]  # P_k - P_{k-1}: the overlapping operand is read as it was
            P *= cdfs.values
        else:
            np.subtract(1.0, P, out=P)
            P *= cdfs.weights
        scores.append(np.cumsum(P, axis=1)[:, -1])
    return np.concatenate(scores)


def _row(dists, S: SuperArm) -> np.ndarray:
    """S as the one row of a batched scorer; an index of m or more is refused, as m would read the pad."""
    if S.members[-1] >= len(dists):
        raise IndexError(f"arm {S.members[-1]} out of range for {len(dists)} arm laws")
    return np.array([S.members])


def expected_kmax(dists, S: SuperArm) -> float:
    """Exact E[max_{i in S} X_i] for any arm laws, finite or with piecewise-constant density, a list or a matrix.

    The value is the batched score of S by :func:`_kmax_scores` on the list's matrix, bit for bit.
    """
    return float(_kmax_scores(_cdfs(dists), _row(dists, S))[0])


expected_kmax_continuous = expected_kmax  # the evaluator's former name for continuous laws, still called by perfbench


class _SupportTable:
    """m finite arm laws as each arm's support keys ``round(v * _SUM_GRID)`` and masses, the utility scorer's input.

    Built from the laws' :class:`CdfMatrix`: an arm's support is the columns where its CDF steps up, and a mass is
    that step, as ``CdfMatrix.__getitem__`` reads it, so a list and its matrix give one table.  ``keys`` and
    ``masses`` are (m + 1, S), each row's ``sizes`` entries left-aligned and zeros after them; row m is a point mass
    at 0, the index-m pad.
    """

    __slots__ = ("keys", "masses", "sizes")

    def __init__(self, cdfs):
        if not isinstance(cdfs, CdfMatrix):
            raise TypeError("utility_of_sum requires finite-support distributions")
        steps = cdfs.F.copy()
        steps[:, 1:] -= cdfs.F[:, :-1]
        real = steps > 0.0
        sizes = np.append(np.count_nonzero(real, axis=1), 1)
        keys = np.append(np.broadcast_to(np.rint(cdfs.values * _SUM_GRID), real.shape)[real], 0.0)
        masses = np.append(steps[real], 1.0)
        real = np.arange(sizes.max()) < sizes[:, None]  # row-major, so an arm's entries fill its row from the left
        self.keys = np.zeros(real.shape, dtype=np.int64)
        self.masses = np.zeros(real.shape)
        self.keys[real] = keys
        self.masses[real] = masses
        self.sizes = sizes

    def __len__(self) -> int:
        return len(self.sizes) - 1


def _laws(dists, spec: RewardSpec):
    """The arm laws as the one input their reward is scored on, a function of the list alone: their matrix from
    :func:`_cdfs`, and for a utility of the sum that matrix's :class:`_SupportTable`.  A converted input is passed
    through."""
    if spec.kind != UTILITY_OF_SUM:
        return _cdfs(dists)
    return dists if isinstance(dists, _SupportTable) else _SupportTable(_cdfs(dists))


def _utility_scores(dists, rows: np.ndarray, spec: RewardSpec) -> np.ndarray:
    """Expected utility of the sum of the arms in each row; index m is the pad.

    Every row expands into its product points, one member at a time in
    member order, each point carrying its sum key and its mass, the
    product of the member masses.  The utility is evaluated once per
    distinct key, and a row scores the sum of mass times utility over its
    points, in blocks of at most ``_SCORE_BLOCK`` points; a row with more
    points is summed over chunks of that many, in the same sequence.  A
    row's sum starts at 0.0 and runs over its points in one order whatever
    its block or chunk, so its score is :func:`expected_reward` of its set
    bit for bit.  Raises :class:`GuardExceeded` before any product point is
    built when a row has ``CONVOLUTION_GUARD`` points or more.
    """
    table = _laws(dists, spec)
    keys, masses, sizes = table.keys, table.masses, table.sizes
    n_points = sizes[rows].prod(axis=1, dtype=float)  # exact below the guard, and at least the guard above it
    if n_points.max() >= CONVOLUTION_GUARD:
        row = rows[int(np.argmax(n_points >= CONVOLUTION_GUARD))]
        raise GuardExceeded(
            f"sum-support convolution of super arm {row[row < len(table)].tolist()} needs "
            f"{math.prod(sizes[row].tolist())} product points; the guard is {CONVOLUTION_GUARD}"
        )
    n_points = n_points.astype(np.int64)
    width = keys.shape[1]
    flat_keys, flat_masses = keys.ravel(), masses.ravel()  # (one flat take gathers faster than 2-d fancy indexing)
    ends = n_points.cumsum()
    utility: dict[int, float] = {}
    scores = np.zeros(len(rows))
    start = 0
    while start < len(rows):
        stop = max(start + 1, int(ends.searchsorted(ends[start] - n_points[start] + _SCORE_BLOCK, side="right")))
        block = rows[start:stop]
        if n_points[start] > _SCORE_BLOCK:  # a row alone: its points in chunks, the first member slowest
            row, total, B = block[:1].T, int(n_points[start]), _SCORE_BLOCK
            ats = (np.unravel_index(np.arange(a, min(a + B, total)), sizes[block[0]]) for a in range(0, total, B))
            # keys summed and masses multiplied member by member, as the one-chunk expansion below does
            points = (
                (np.zeros(at.shape[1], dtype=np.intp), sum(keys[row, at]), math.prod(masses[row, at]))
                for at in map(np.array, ats)
            )
        else:  # each point times each support point of its next member, read at flat table indices
            owner = np.arange(len(block))
            key = np.zeros(len(block), dtype=np.int64)
            mass = np.ones(len(block))
            for j in range(block.shape[1]):
                arm = block[:, j].take(owner)
                n = sizes.take(arm)
                at = (arm * width - (n.cumsum() - n)).repeat(n) + np.arange(n.sum())
                key = key.repeat(n) + flat_keys.take(at)
                mass = mass.repeat(n) * flat_masses.take(at)
                owner = owner.repeat(n)
            points = [(owner, key, mass)]
        for owner, key, mass in points:
            distinct, inverse = np.unique(key, return_inverse=True)
            for k in distinct.tolist():
                if k not in utility:
                    utility[k] = spec.utility(k / _SUM_GRID)
            u = np.array([utility[k] for k in distinct.tolist()], dtype=float)[inverse]
            # each row's running total enters first, so a row split over chunks sums its points in one sequence
            bins = np.concatenate([np.arange(len(block)), owner])
            scores[start:stop] = np.bincount(bins, np.concatenate([scores[start:stop], mass * u]), minlength=len(block))
        start = stop
    return scores


def _scores(dists, rows: np.ndarray, spec: RewardSpec) -> np.ndarray:
    """Every row's expected reward in one batch; index m is the pad.

    Each reward reads the list's one input from :func:`_laws`: K-MAX and
    linear rewards the list's matrix, a utility of the sum that matrix's
    support table.  A linear row sums its members' means left to
    right, each the K-MAX score of its arm alone; the pad's mean is 0 and
    adds an exact +0.0.
    """
    if spec.kind == UTILITY_OF_SUM:
        return _utility_scores(dists, rows, spec)
    cdfs = _cdfs(dists)
    if spec.kind == KMAX:
        return _kmax_scores(cdfs, rows)
    means = np.append(_kmax_scores(cdfs, np.arange(len(cdfs))[:, None]), 0.0)
    return np.cumsum(means[rows], axis=1)[:, -1]


def expected_reward(dists: Sequence[Distribution], S: SuperArm, spec: RewardSpec) -> float:
    """Exact expected reward r_D(S) of super arm S under the product law: :func:`_scores` of its one row."""
    return float(_scores(dists, _row(dists, S), spec)[0])
