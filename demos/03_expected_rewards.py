"""
Three reward shapes over the same pair of arms, computed exactly.

Arm A pays 0.3 or 0.9, arm B pays 0.5 for sure.  The expected maximum
favors the volatile arm A in a way the linear reward cannot see, and a
concave utility of the sum penalizes it.  The same expected-maximum
evaluator takes continuous arms too.
"""

import numpy as np

from cmab import (
    PiecewiseDensity,
    SuperArm,
    expected_kmax,
    expected_reward,
    kmax_spec,
    linear_spec,
    make_finite,
    utility_spec,
)

A = make_finite([0.3, 0.9], [0.5, 0.5])
B = make_finite([0.5], [1.0])
arms = [A, B]
both = SuperArm([0, 1])

print(f"arm A mean: {A.mean():.3f}   arm B mean: {B.mean():.3f}")
print()

specs = [
    ("max of outcomes", kmax_spec()),
    ("sum of outcomes", linear_spec(bound_M=2.0)),
    ("sqrt of the sum", utility_spec("sqrt", bound_M=np.sqrt(2.0), lipschitz_C=5.0)),
]
for label, spec in specs:
    vals = [expected_reward(arms, SuperArm([i]), spec) for i in range(2)]
    pair = expected_reward(arms, both, spec)
    print(f"{label:<16}  {{A}}: {vals[0]:.4f}   {{B}}: {vals[1]:.4f}   {{A,B}}: {pair:.4f}")

# the max reward is where picking both arms pays: E[max] > each single mean
print()
uniform = PiecewiseDensity([0.0, 1.0], [1.0])
duo = expected_kmax([uniform, uniform], both)
trio = expected_kmax([uniform] * 3, SuperArm([0, 1, 2]))
print(f"max of 2 uniforms: {duo:.6f} (exact 2/3)")
print(f"max of 3 uniforms: {trio:.6f} (exact 3/4)")
assert abs(duo - 2 / 3) < 1e-9 and abs(trio - 0.75) < 1e-9
