"""
Watch the optimistic distribution collapse onto the truth as data accumulates.

An arm pays out on {0, 0.25, 0.75} with probabilities (0.5, 0.3, 0.2).
After T_i observations the learner builds a distribution whose CDF sits
a confidence radius below the empirical one, with the freed mass pushed
up to 1.  Its mean is an optimistic estimate of the arm's mean; the
table shows the optimism shrinking roughly like 1/sqrt(T_i).
"""

import numpy as np

from cmab import confidence_radius, dominant_cdfs, make_finite, substream

truth = make_finite([0.0, 0.25, 0.75], [0.5, 0.3, 0.2])
rng = substream(2026, 0, 0)

# the arm's record: how often each grid value was observed (the grid ends at 1)
values = np.append(truth.support, 1.0)
counts = np.zeros((1, len(values)), dtype=np.int64)
print(f"true mean: {truth.mean():.4f}")
print(f"{'T_i':>6} {'radius':>8} {'optimistic mean':>16} {'excess':>8}")

checkpoints = [3, 10, 30, 100, 300, 1000, 3000, 10000]
t_total = checkpoints[-1]  # pretend every pull happened by round t_total
drawn = 0
for T_i in checkpoints:
    while drawn < T_i:
        counts[0, np.searchsorted(values, truth.inverse_cdf(rng.random()))] += 1
        drawn += 1
    (opt,) = dominant_cdfs(values, counts, t_total)
    r = confidence_radius(t_total, T_i)
    print(f"{T_i:>6} {r:>8.4f} {opt.mean():>16.4f} {opt.mean() - truth.mean():>8.4f}")

# the optimistic distribution never sits below the empirical one
(opt,) = dominant_cdfs(values, counts, t_total)
(empirical,) = dominant_cdfs(values, counts, t_total, radius=0.0)
assert all(opt.cdf(v) <= empirical.cdf(v) + 1e-12 for v in values)
print("\ndominance check passed on every observed value")
