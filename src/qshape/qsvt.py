"""Polynomial eigenvalue transformation of diagonal block encodings.

The transform is computed by applying the polynomial directly to the
stored diagonal, which holds the eigenvalues, while the
(1, a+2, 4d*sqrt(eps/alpha)) contract of the transformation is enforced
as metadata and query accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blockenc as be
from .blockenc import BlockEnc
from .poly import Bounds, Poly, certified_sup

__all__ = ["transform", "build_M_family", "MFamily"]

_SUP_TOL = 1e-9
# each coefficient of f.scaled(s) is within 2^-53 |c_k|/s of c_k/s; twice
# that also covers the rounding of the bound's own sum, as S <= sum |c_k|
_SCALED_SLACK = 2.0**-52


def _scaled_sup(f: Poly, scale: float) -> float:
    """Certified upper bound on sup |f.scaled(scale)| over [-1, 1], from
    S = certified_sup(f): (S + 2^-52 sum|c_k|)/scale, its quotient rounded
    up.  At scale 1 the scaled polynomial is f itself, and the bound is S."""
    sup = certified_sup(f)
    if scale == 1.0:
        return sup
    return math.nextafter((sup + _SCALED_SLACK * f.coefficient_sum) / scale, math.inf)


def transform(e: BlockEnc, f: Poly, scale: float = 1.0) -> BlockEnc:
    """Block encoding of P(A/alpha) for P = f.scaled(scale), provided
    |P(x)| <= 1/2 for all x in [-1, 1].

    The precondition is certified through f's own certified sup (see
    :func:`_scaled_sup`), which a caller that chose ``scale`` from it has
    already computed, so the rescaled copy is never sampled again.  Costs
    exactly deg(P) uses of the input encoding plus one controlled use; the
    output error bound is 4*deg(P)*sqrt(eps/alpha).
    """
    sup = _scaled_sup(f, scale)
    if sup > 0.5 + _SUP_TOL:
        raise ValueError(
            f"polynomial sup-norm precondition violated: certified sup {sup:.6g} > 1/2"
        )
    P = f if scale == 1.0 else f.scaled(scale)
    d = P.degree
    data = P(e.data / e.alpha)
    eps_out = 4.0 * d * np.sqrt(e.eps / e.alpha) if e.eps > 0 else 0.0
    ledger = e.ledger.merged(
        depth_units=d * (e.ancillas + 1),
        **{"base-encoding-queries": d, "controlled-base-encoding-queries": 1},
    )
    # no bound passes through P, so the output's own maximum is its bound
    return be._built(data, 1.0, e.ancillas + 2, eps_out, ledger, float(np.abs(data).max()))


@dataclass(frozen=True)
class MFamily:
    """Diagonal encodings of f, f'/P and f''/Q at the grid points."""

    M: BlockEnc
    M1: BlockEnc
    M2: BlockEnc


def build_M_family(f: Poly, grid_enc: BlockEnc, bounds: Bounds) -> MFamily:
    """Build the three diagonal encodings with entries f(x_i)/s_f,
    f'(x_i)/P and f''(x_i)/Q from an alpha-1 encoding of diag(x).

    For degree < 2 the second derivative vanishes identically and M2 is the
    zero encoding.
    """
    if abs(grid_enc.alpha - 1.0) > 1e-12:
        raise ValueError("grid encoding must be normalized to alpha = 1")
    M = transform(grid_enc, f, bounds.f_sup)
    M1 = transform(grid_enc, f.derivative(), bounds.d1_sup)
    M2 = transform(grid_enc, f.derivative(2), bounds.d2_sup)
    return MFamily(M=M, M1=M1, M2=M2)
