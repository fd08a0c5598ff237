"""Classical simulation of grid-based convexity and monotonicity testing.

Builds block encodings of polynomial values on a grid, transforms them with
polynomial eigenvalue transformations, and decides convexity/monotonicity
through threshold eigenvalue and Jensen-inequality estimates, with full
resource accounting and a brute-force oracle for cross-checking.
"""

from .blockenc import BlockEnc, ResourceLedger, StatePrep
from .estimate import EstimatorConfig, amplitude_estimate, largest_eigenvalue, overlap_gadget
from .oracle import OracleResult, oracle_convex, oracle_monotone
from .poly import Bounds, MultiPoly, Poly, certified_sup, remap_domain
from .qsvt import MFamily, build_M_family, transform
from .tester import (
    Grid,
    Outcome,
    Verdict,
    WeightVector,
    build_multivariate_M,
    encode_grid_values,
    test_convex_first_derivative,
    test_convex_jensen,
    test_convex_second_derivative,
    test_monotone,
)

__all__ = [
    "BlockEnc",
    "ResourceLedger",
    "StatePrep",
    "EstimatorConfig",
    "amplitude_estimate",
    "largest_eigenvalue",
    "overlap_gadget",
    "OracleResult",
    "oracle_convex",
    "oracle_monotone",
    "Bounds",
    "MultiPoly",
    "Poly",
    "certified_sup",
    "remap_domain",
    "MFamily",
    "build_M_family",
    "transform",
    "Grid",
    "Outcome",
    "Verdict",
    "WeightVector",
    "build_multivariate_M",
    "encode_grid_values",
    "test_convex_first_derivative",
    "test_convex_jensen",
    "test_convex_second_derivative",
    "test_monotone",
]

__version__ = "0.1.0"
