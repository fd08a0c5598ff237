"""Multivariate Jensen testing.

Per-axis diagonal encodings are raised to powers of the box coordinate
x_j = c_j + w_j t_j (here the working domain itself, so x = t) and
multiplied across axes; one weighted LCU sums the terms under their
weights a_i into a diagonal encoding of f(x)/sum_i |a_i|.  The tracked
correction sum_i |a_i| is undone at estimation time, on the grid and on
the Jensen gadgets alike.
"""

import numpy as np

from qshape import (
    EstimatorConfig,
    Grid,
    MultiPoly,
    WeightVector,
    build_multivariate_M,
    encode_grid_values,
    test_convex_jensen,
)

cfg = EstimatorConfig(eps=1e-3, seed=0, noise_mode="exact")

print("== encoding fidelity: f(x, y) = 0.3xy + 0.5x^2 ==")
f = MultiPoly(((0.3, (1, 1)), (0.5, (2, 0))), 2)
pts = np.array([[0.4, 0.2], [-0.3, 0.1]])
encs = [encode_grid_values(pts[:, j]) for j in range(2)]
e, correction = build_multivariate_M(f, encs)
print(f"correction sum |a_i| = {correction}  (below K*max|a_i| = 2 * 0.5)")
print("entries * correction:", np.round(e.data * correction, 6))
print("direct evaluation:  ", np.round(f(pts), 6), "\n")

print("== convex paraboloid x^2 + y^2 ==")
f = MultiPoly(((1.0, (2, 0)), (1.0, (0, 2))), 2)
grid = Grid.uniform(8, dim=2)
v = test_convex_jensen(f, grid, WeightVector.uniform(8), cfg)
print(f"outcome: {v.outcome}")
print(f"LHS {v.estimates['jensen_lhs']:.6f} < RHS {v.estimates['jensen_rhs']:.6f}\n")

print("== saddle xy at a collection where Jensen happens to hold ==")
f = MultiPoly(((0.5, (1, 1)),), 2)
grid = Grid.from_points([[0.4, 0.4], [-0.4, -0.4]])
v = test_convex_jensen(f, grid, WeightVector.uniform(2), cfg)
print(f"outcome: {v.outcome}  (evidence at these points only; xy is not convex)")
