"""Convexity via consecutive first-derivative differences.

The test decides one masked diagonal encoding, (2I - S^dagger M1 S + M1)/4,
whose entries are 1/2 - (f'(x_{i+1}) - f'(x_i)) / (4P): M1 holds f'(x_i)/P,
its conjugate by the cyclic shift S holds f'(x_{i+1})/P, and one weighted
LCU combines them with the identity.  Its largest eigenvalue is compared
with the threshold 1/2.  The wrap-around entry is masked to zero so it
cannot fake a violation on a convex function.
"""

import numpy as np

import qshape.blockenc as be
from qshape import Bounds, EstimatorConfig, Grid, Poly, test_convex_first_derivative, transform

cfg = EstimatorConfig(eps=1e-3, seed=0, noise_mode="exact")
grid = Grid.from_points([-0.4, -0.2, 0.0, 0.2])

print("== the decided operator for f = x^2 ==")
f = Poly([0, 0, 1.0])
m1 = transform(grid.axis_encodings[0], f.derivative(), Bounds.from_poly(f).d1_sup)
e = be.product(grid.mask_complement, be.lcu([grid.identity, be.shift(m1), m1], [2, -1, 1]))
print("diagonal entries:", np.round(e.data, 6))
print("each below 1/2 by the difference over 4P; the last is the masked wrap-around term\n")

print("== f = x^2 / 4 on a uniform grid ==")
v = test_convex_first_derivative(Poly([0, 0, 0.25]), Grid.uniform(8), cfg)
print(f"outcome:  {v.outcome}")
print(f"estimate: {v.estimates['lambda_max']:.6f} vs threshold {v.estimates['threshold']:.6f}\n")

print("== f = -x^2 (concave): adjacent-pair witness ==")
v = test_convex_first_derivative(Poly([0, 0, -1.0]), Grid.uniform(8), cfg)
a, b = v.witness
print(f"outcome:  {v.outcome}")
print(f"witness:  f'({b:.4f}) - f'({a:.4f}) = {-2 * (b - a):.4f} < 0")
