"""Outcome distributions on [0, 1].

Two representations cover every arm law downstream:

* :class:`FiniteDistribution` for discrete laws with finite support,
* :class:`PiecewiseDensity` for continuous laws with piecewise-constant
  density.

Both are immutable after construction and safe to share.  A learning
policy's observations are not a distribution: they are counts over a
sorted value grid, which :func:`dominant_cdfs` turns into a
:class:`CdfMatrix`, every arm's optimistic CDF over one shared grid.  An
offline oracle takes m arm laws: a list or a :class:`CdfMatrix`.
Construct finite distributions through :func:`make_finite`, which
canonicalizes and validates; the class constructor itself trusts its
arrays and is meant for internal fast paths.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator, Sequence
from typing import Union

import numpy as np

MASS_TOL = 1e-12
VALUE_TOL = 1e-9
_DRAW_BLOCK = 256  # uniforms taken from a generator per call where draws come in blocks


class FiniteDistribution:
    """Discrete distribution with finite support inside [0, 1].

    ``support`` is strictly ascending, every mass is positive, and the
    masses sum to one within ``MASS_TOL``.  ``cum`` holds the CDF at each
    support point; it may be supplied by internal callers that need exact
    cumulative values (see :func:`discretize_interval`), otherwise it is
    the running sum of ``probs``.
    """

    __slots__ = ("support", "probs", "cum")

    def __init__(self, support, probs, cum=None):
        self.support = np.asarray(support, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        self.cum = np.cumsum(self.probs) if cum is None else np.asarray(cum, dtype=float)

    def __repr__(self):
        pts = ", ".join(f"{v:g}: {p:g}" for v, p in zip(self.support, self.probs))
        return f"FiniteDistribution({{{pts}}})"

    def cdf(self, x):
        """F(x) = total mass at support points <= x, read exactly."""
        idx = np.searchsorted(self.support, np.asarray(x, dtype=float), side="right")
        cum0 = np.concatenate(([0.0], self.cum))
        out = cum0[idx]
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def mean(self) -> float:
        return float(self.support @ self.probs)

    def inverse_cdf(self, u):
        """Smallest support value whose CDF reaches ``u``, the last one above ``cum[-1]``; one per entry of an array
        ``u``, a float for a scalar."""
        x = self.support[self.cum[:-1].searchsorted(u)]
        return float(x) if np.ndim(x) == 0 else x


class PiecewiseDensity:
    """Continuous distribution on [0, 1] with piecewise-constant density.

    ``breakpoints`` ascends from 0 to 1; ``densities`` gives one
    nonnegative level per segment, integrating to one within ``MASS_TOL``.
    The CDF is continuous piecewise-linear with F(0) = 0 and F(1) = 1.
    """

    __slots__ = ("breakpoints", "densities", "cum")

    def __init__(self, breakpoints: Sequence[float], densities: Sequence[float]):
        bp = np.asarray(breakpoints, dtype=float)
        dens = np.asarray(densities, dtype=float)
        if bp.ndim != 1 or len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if len(dens) != len(bp) - 1:
            raise ValueError("need one density per segment")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(dens))):
            raise ValueError("breakpoints and densities must be finite")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly ascending")
        if np.any(dens < 0):
            raise ValueError("densities must be nonnegative")
        total = float(np.sum(dens * np.diff(bp)))
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"density integrates to {total!r}, expected 1")
        self.breakpoints = bp
        self.densities = dens
        self.cum = np.concatenate(([0.0], np.cumsum(dens * np.diff(bp))))

    def __repr__(self):
        return f"PiecewiseDensity(breakpoints={self.breakpoints.tolist()}, densities={self.densities.tolist()})"

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        seg = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1, 0, len(self.densities) - 1)
        out = self.cum[seg] + self.densities[seg] * (x - self.breakpoints[seg])
        out = np.clip(out, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def mean(self) -> float:
        a = self.breakpoints[:-1]
        b = self.breakpoints[1:]
        return float(np.sum(self.densities * (b * b - a * a) / 2.0))

    def inverse_cdf(self, u):
        """The point where the CDF reaches ``u`` on the first segment whose right end reaches it, clipped to [0, 1],
        or that segment's left end where its density is 0; one per entry of an array ``u``, a float for a scalar."""
        u = np.asarray(u, dtype=float)
        seg = self.cum[1:-1].searchsorted(u)  # the last segment takes every u above the others' right ends
        d = self.densities[seg]
        q = np.zeros_like(d)  # stays 0 on a zero density, so x is the segment's left end
        np.divide(u - self.cum[seg], d, out=q, where=d > 0.0)
        x = np.minimum(np.maximum(self.breakpoints[seg] + q, 0.0), 1.0)
        return float(x) if x.ndim == 0 else x


Distribution = Union[FiniteDistribution, PiecewiseDensity]


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """The distinct values of a finite 1-d array, ascending: ``np.unique``'s values by a sort and an
    adjacent-difference mask, without the ``numpy.ma`` import ``np.unique`` makes on its first call."""
    x = np.sort(x)
    keep = np.empty(len(x), dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


class CdfMatrix(Sequence):
    """m finite arm laws as one CDF matrix over a shared value grid.

    ``values`` ascends and holds every value at which some arm has mass;
    ``F[i, k]`` is arm i's CDF at ``values[k]``, exactly as
    :meth:`FiniteDistribution.cdf` reads it there, so ``F[:, -1]`` is 1.
    K-MAX scores, the oracles' and :func:`~cmab.rewards.expected_kmax`'s,
    read ``F`` in place, and so do the PTAS's signatures and the utility
    scores, which read its steps.  ``len()`` is m, and ``[i]`` builds arm
    i's :class:`FiniteDistribution` on demand from row i; no K-MAX or
    utility evaluation calls it.  The constructor trusts its arrays.
    """

    __slots__ = ("values", "F")

    def __init__(self, values: np.ndarray, F: np.ndarray):
        self.values = values
        self.F = F

    @classmethod
    def of(cls, dists: Sequence[FiniteDistribution]) -> "CdfMatrix":
        """The matrix of finite laws over the union of their supports.

        Each arm's ``cum`` is written at its support's columns and carried
        right by a running maximum, which copies values and computes none:
        ``cum`` ascends, and a row is 0 before its arm's first point.
        """
        support = np.concatenate([d.support for d in dists])
        values = _sorted_unique(support)
        F = np.zeros((len(dists), len(values)))
        F[np.repeat(np.arange(len(dists)), [len(d.support) for d in dists]), np.searchsorted(values, support)] = (
            np.concatenate([d.cum for d in dists])
        )
        return cls(values, np.maximum.accumulate(F, axis=1, out=F))

    def __len__(self) -> int:
        return len(self.F)

    def __getitem__(self, i) -> FiniteDistribution:
        row = self.F[operator.index(i)]
        probs = row.copy()  # np.diff(row, prepend=0.0) at a fraction of its call cost
        probs[1:] -= row[:-1]
        keep = probs > 0.0
        return FiniteDistribution(self.values[keep], probs[keep], cum=row[keep])


def make_finite(support: Sequence[float], probs: Sequence[float]) -> FiniteDistribution:
    """Validated finite distribution; duplicates merged, zero masses dropped."""
    s, p = np.array(support, dtype=float), np.array(probs, dtype=float)  # copies: a law never shares the caller's arrays
    if s.ndim != 1 or len(s) == 0 or s.shape != p.shape:
        raise ValueError(_SHAPE_ERROR)
    return _checked_laws(s, p, [len(s)], ("",))[0]


_SHAPE_ERROR = "support and probs must be nonempty lists of equal length"
# make_finite's value checks in the order it makes them, by code
_FINITE_ERRORS = (
    "support values and masses must be finite",
    "support values must lie in [0, 1]",
    "masses must be nonnegative",
    f"masses sum to {{!r}}, expected 1 within {MASS_TOL}",
    f"distinct support points closer than {VALUE_TOL}",
)


def _checked_laws(s: np.ndarray, p: np.ndarray, sizes: Sequence[int], names: Sequence[str]) -> list[FiniteDistribution]:
    """The validated finite law of each arm, checked and built in one pass over flat arrays.

    Arm i's support and masses are the next ``sizes[i]`` entries of ``s``
    and ``p``, one nonempty run each, laid end to end.  Each arm is checked
    as :func:`make_finite` checks one: its values, then its mass total,
    which is the arm's ``probs.sum()`` bit for bit, then, with duplicates
    merged and zero masses dropped, the gaps of its support.  The error
    raised is the first bad arm's in index order, its message prefixed by
    that arm's entry of ``names``.  (An arm whose masses are all dropped as
    zero has failed its total.)  The laws are views of ``s`` and ``p``, or
    of their merged copies; each arm's ``cum`` is a row of one row-wise
    ``cumsum``, which adds left to right as the arm's own ``cumsum`` does.
    """
    n = len(sizes)
    ends = list(itertools.accumulate(sizes))
    lo, hi = np.minimum.reduce, np.maximum.reduce  # False on a NaN
    if not (lo(s) >= 0.0 and hi(s) <= 1.0 and lo(p) >= 0.0 and hi(p) < math.inf):
        entry = np.where(~(np.isfinite(s) & np.isfinite(p)), 0, np.where((s < 0.0) | (s > 1.0), 1, np.where(p < 0.0, 2, 3)))
        code = np.minimum.reduceat(entry, [0, *ends[:-1]])
        i = int(np.argmax(code < 3))
        if i:
            _checked_laws(s[: ends[i - 1]], p[: ends[i - 1]], sizes[:i], names)  # an earlier arm's error comes first
        raise ValueError(names[i] + _FINITE_ERRORS[code[i]])
    # arms of one size are the rows of one matrix, whose row sums are the arms' probs.sum()
    if len(set(sizes)) == 1:
        total = np.add.reduce(p.reshape(n, -1), axis=1).tolist()
    else:
        total = [float(np.add.reduce(q)) for q in np.split(p, ends[:-1])]
    code = [3 if abs(t - 1.0) > MASS_TOL else None for t in total]
    gaps = s[1:] - s[:-1]
    if n > 1:
        gaps[np.array(ends[:-1]) - 1] = 1.0  # from one arm's last point to the next arm's first
    if not lo(gaps, initial=1.0) >= VALUE_TOL:  # unsorted, duplicated or close points: sort and merge each arm
        arm = np.repeat(np.arange(n), sizes)
        order = np.lexsort((s, arm))
        s, p = s[order], p[order]
        new = np.ones(len(s), dtype=bool)
        new[1:] = (s[1:] != s[:-1]) | (arm[1:] != arm[:-1])
        merged = np.bincount(np.cumsum(new) - 1, p)  # duplicates summed in input order, from 0.0
        keep = merged > 1e-15
        s, p, arm = s[new][keep], merged[keep], arm[new][keep]
        for i in arm[1:][(s[1:] - s[:-1] < VALUE_TOL) & (arm[1:] == arm[:-1])].tolist():
            code[i] = code[i] or 4
        sizes = np.bincount(arm, minlength=n).tolist()
    elif not (keep := p > 1e-15).all():
        s, p = s[keep], p[keep]
        sizes = np.add.reduceat(keep, [0, *ends[:-1]]).tolist()
    for i, c in enumerate(code):
        if c:
            raise ValueError(names[i] + _FINITE_ERRORS[c].format(total[i]))
    ends = list(itertools.accumulate(sizes))
    starts = [0, *ends[:-1]]
    if len(set(sizes)) == 1:
        cum = np.cumsum(p.reshape(n, -1), axis=1)
    else:  # arm i's masses left-aligned in row i, zeros after them
        cum = np.zeros((n, max(sizes)))
        cum[np.arange(cum.shape[1]) < np.array(sizes)[:, None]] = p
        np.cumsum(cum, axis=1, out=cum)
    return [FiniteDistribution(s[a:b], p[a:b], cum[i, : b - a]) for i, (a, b) in enumerate(zip(starts, ends))]


def sample(dist: Distribution, rng: np.random.Generator) -> float:
    """One inverse-CDF draw from ``dist``, consuming a single uniform."""
    return dist.inverse_cdf(rng.random())


def _draws(dist: Distribution, rng: np.random.Generator) -> Iterator[float]:
    """Endless :func:`sample` draws from ``dist``, one inverse CDF per ``_DRAW_BLOCK`` uniforms.

    ``rng.random(n)`` yields the n uniforms that n single draws would, so
    the k-th value is the k-th ``sample(dist, rng)``.
    """
    while True:
        yield from dist.inverse_cdf(rng.random(_DRAW_BLOCK)).tolist()


def confidence_radius(t: int, count):
    """sqrt(3 ln t / (2 count)), the uniform CDF confidence radius; ``count`` may be an array."""
    return np.sqrt(1.5 * math.log(t) / count)


def dominant_cdfs(values, counts, t: int, radius=None) -> CdfMatrix:
    """Optimistic distributions whose CDFs sit a confidence radius below F-hat.

    Row i of ``counts`` holds arm i's observation counts over the sorted
    value grid ``values``, which ends at 1.  Each output CDF is
    max{F-hat_i(x) - radius_i, 0} below 1 and exactly 1 at x = 1, so it
    first-order stochastically dominates the arm's empirical distribution;
    the mass removed from low values is relocated to 1.  A grid value the
    arm never saw carries no mass.  ``Sdcb`` runs the same kernel on its
    cumulative counts.

    Args:
        values: strictly ascending grid of observed values in [0, 1], last entry 1.0.
        counts: (m, len(values)) integer counts, every row nonzero.
        t: current round index (>= 2); sets radius_i = sqrt(3 ln t / 2 T_i).
        radius: one radius >= 0 for all arms, or one per arm, in place of that.

    Returns:
        The optimistic CDFs at the grid values where some arm has mass
        (the other columns repeat their left neighbour); ``[i]`` is arm
        i's law, with the support and masses it has on the full grid.
    """
    values = np.asarray(values, dtype=float)
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[1] != len(values) or not len(values) or values[-1] != 1.0:
        raise ValueError("counts must be (m, len(values)) over a grid ending at 1")
    if not (values[0] >= 0.0 and np.all(values[1:] > values[:-1])):  # NaN fails both comparisons
        raise ValueError("values must be a strictly ascending grid in [0, 1]")
    # one run for the batch kernel, with the zero column it reads left of the grid
    cum = np.zeros((1, len(counts), len(values) + 1), dtype=np.result_type(counts, np.int64))
    np.cumsum(counts, axis=1, out=cum[0, :, 1:])
    if np.any(cum[..., -1] == 0):
        raise ValueError("dominant_cdfs requires at least one observation per arm")
    cum = cum.astype(float)  # the cast true_divide would make
    n = cum[..., -1].copy()
    if radius is None:
        if t < 2:
            raise ValueError("round index t must be >= 2")
        radius = confidence_radius(t, n)
    else:
        radius = np.broadcast_to(np.asarray(radius, dtype=float), n.shape[1:])[None]
        if not np.all(radius >= 0.0):
            raise ValueError("radius must be >= 0")
    (low,), (keep,) = _optimistic(cum, n, radius)
    return CdfMatrix(values[keep[1:]], low[:, keep])


def _optimistic(cum: np.ndarray, n: np.ndarray, radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each run's max{cum / n - radius, 0} and 1 at 1, ``low``, and the mask ``keep`` of the columns where some row
    has mass: run r's optimistic laws are ``CdfMatrix(values[r][keep[r]], low[r][:, keep[r]])``.

    Run r's cumulative counts ``cum[r]`` (R, m, w), as floats, are over its ascending grid ``values[r]`` (R, w),
    right-aligned with totals ``n``, a copy of ``cum[..., -1]`` > 0, and with zero counts at the columns left of the
    grid, one or more.  With ``radius`` >= 0 those columns stay 0, and the mask drops them as it drops a column
    without mass.  ``low`` is ``cum``, overwritten.
    """
    low = cum
    low /= n[..., None]
    low -= radius[..., None]
    np.maximum(low, 0.0, out=low)
    low[..., -1] = 1.0
    # a column no arm has mass at repeats the column before it in every row, and so do the zero columns left of
    # the grid; a > b is a - b > 0 for finite doubles
    keep = np.zeros((len(cum), cum.shape[-1]), dtype=bool)
    np.logical_or.reduce(low[..., 1:] > low[..., :-1], axis=1, out=keep[:, 1:])
    return low, keep


def bin_index(x: float, s: int) -> int:
    """1-based index of the interval of x under the s-fold split of [0, 1].

    Intervals are I_1 = [0, 1/s] and I_j = ((j-1)/s, j/s] for j >= 2.
    """
    return min(max(math.ceil(x * s), 1), s)


def bin_value(x: float, s: int) -> float:
    """Right endpoint j/s of the interval containing x."""
    return bin_index(x, s) / s


def discretize_interval(dist: Distribution, s: int) -> FiniteDistribution:
    """Project ``dist`` onto the grid {1/s, ..., 1}.

    Each outcome is replaced by the right endpoint of its interval, so bin
    j receives the source probability of I_j.  Mass never moves down and
    moves up by at most 1/s.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    if isinstance(dist, FiniteDistribution):
        # copy cumulative values verbatim so binned sampling stays exactly
        # coupled with sampling from the source distribution
        bins = np.array([bin_index(v, s) for v in dist.support])
        last_in_bin = np.nonzero(np.diff(bins, append=bins[-1] + 1))[0]
        support = bins[last_in_bin] / s
        cum = dist.cum[last_in_bin]
        probs = np.diff(cum, prepend=0.0)
        return FiniteDistribution(support, probs, cum=cum)
    grid = np.arange(1, s + 1) / s
    cumg = np.asarray(dist.cdf(grid), dtype=float)
    probs = np.diff(cumg, prepend=0.0)
    keep = probs > 0.0
    return FiniteDistribution(grid[keep], probs[keep], cum=cumg[keep])


def _bernoulli_parts(cdfs: CdfMatrix):
    """(arm, value, q) of every part of every row's Bernoulli decomposition, row by row, values ascending.

    Row i has a part at each value v where it has mass, with activation
    q = (F_i(v) - F_i(v-)) / F_i(v).
    """
    F = cdfs.F
    step = F.copy()
    step[:, 1:] -= F[:, :-1]
    arm, col = np.nonzero(step > 0.0)
    return arm, cdfs.values[col], step[arm, col] / F[arm, col]


def bernoulli_decomposition(dist: FiniteDistribution) -> list[tuple[float, float]]:
    """Rewrite ``dist`` as the max of independent two-point variables.

    Returns one (value, activation probability) pair per support point in
    ascending value order: q_j = p_j / (p_1 + ... + p_j).  The maximum of
    independent B(v_j, q_j) variables has exactly the input distribution.
    """
    _, values, q = _bernoulli_parts(CdfMatrix.of([dist]))
    return list(zip(values.tolist(), q.tolist()))
