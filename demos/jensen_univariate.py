"""Jensen's inequality as a convexity probe.

Estimates f(sum lambda_i x_i) and sum lambda_i f(x_i) through the overlap
gadget (which carries a known 1/4 factor, corrected before comparison) and
amplitude estimation.  A violation certifies non-convexity; consistency is
evidence at this particular weight/grid collection only.
"""

import numpy as np

from qshape import EstimatorConfig, Grid, Poly, WeightVector, test_convex_jensen

cfg = EstimatorConfig(eps=1e-3, seed=0, noise_mode="exact")
grid = Grid.from_points([-0.4, 0.4])
w = WeightVector.uniform(2)

print("== f = x^2, lambda = (1/2, 1/2), x = (-0.4, 0.4) ==")
v = test_convex_jensen(Poly([0, 0, 1.0]), grid, w, cfg)
print(f"outcome: {v.outcome}")
print(f"LHS f(0) = {v.estimates['jensen_lhs']:.6f}")
print(f"RHS mean = {v.estimates['jensen_rhs']:.6f}\n")

print("== f = -x^2: the inequality flips ==")
v = test_convex_jensen(Poly([0, 0, -1.0]), grid, w, cfg)
print(f"outcome: {v.outcome}")
print(f"LHS = {v.estimates['jensen_lhs']:.6f} > RHS = {v.estimates['jensen_rhs']:.6f}")
print(f"witness centre: {v.witness['center']}\n")

print("== uniform noise mode stays within eps after scale correction ==")
noisy = EstimatorConfig(eps=1e-3, seed=11, noise_mode="uniform")
v = test_convex_jensen(Poly([0.2, -0.5, 0.8]), Grid.uniform(8), WeightVector.uniform(8), noisy)
exact = test_convex_jensen(Poly([0.2, -0.5, 0.8]), Grid.uniform(8), WeightVector.uniform(8), cfg)
for key in ("jensen_lhs", "jensen_rhs"):
    print(f"{key}: noisy {v.estimates[key]:.6f}  exact {exact.estimates[key]:.6f}")
