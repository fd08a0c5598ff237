"""Convexity via consecutive first-derivative differences.

Builds the masked diagonal encoding of (f'(x_{i+1}) - f'(x_i)) / (2P) as the
difference of M1 (entries f'(x_i)/P) conjugated by the cyclic shift and M1
itself, and tests the spectrum of (I - M3)/2 against the threshold 1/2.  The
wrap-around difference is masked to zero so it cannot fake a violation on a
convex function.
"""

import numpy as np

from qshape import EstimatorConfig, Grid, Poly, build_M3, test_convex_first_derivative

cfg = EstimatorConfig(eps=1e-3, seed=0, noise_mode="exact")
grid = Grid.from_points([-0.4, -0.2, 0.0, 0.2])

print("== the masked difference encoding for f = x^2 ==")
e = build_M3(Poly([0, 0, 1.0]), grid)
print("diagonal entries:", np.round(e.data, 6))
print("last entry is the masked wrap-around term\n")

print("== f = x^2 / 4 on a uniform grid ==")
v = test_convex_first_derivative(Poly([0, 0, 0.25]), Grid.uniform(8), cfg)
print(f"outcome:  {v.outcome}")
print(f"estimate: {v.estimates['lambda_max']:.6f} vs threshold {v.estimates['threshold']:.6f}\n")

print("== f = -x^2 (concave): adjacent-pair witness ==")
v = test_convex_first_derivative(Poly([0, 0, -1.0]), Grid.uniform(8), cfg)
a, b = v.witness
print(f"outcome:  {v.outcome}")
print(f"witness:  f'({b:.4f}) - f'({a:.4f}) = {-2 * (b - a):.4f} < 0")
