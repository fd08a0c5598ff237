"""Polynomial eigenvalue transformation of diagonal block encodings.

The transform is computed by applying the polynomial directly to the
stored diagonal, which holds the eigenvalues, while the
(1, a+2, 4d*sqrt(eps/alpha)) contract of the transformation is enforced
as metadata and query accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blockenc as be
from .blockenc import BlockEnc
from .poly import Bounds, Poly, certified_sup

__all__ = ["transform", "build_M_family", "MFamily"]

_SUP_TOL = 1e-9


def transform(e: BlockEnc, P: Poly) -> BlockEnc:
    """Block encoding of P(A/alpha), provided |P(x)| <= 1/2 for all x in
    [-1, 1].

    Costs exactly deg(P) uses of the input encoding plus one controlled use;
    the output error bound is 4*deg(P)*sqrt(eps/alpha).
    """
    sup = certified_sup(P)
    if sup > 0.5 + _SUP_TOL:
        raise ValueError(
            f"polynomial sup-norm precondition violated: certified sup {sup:.6g} > 1/2"
        )
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
    M = transform(grid_enc, f.scaled(bounds.f_sup))
    M1 = transform(grid_enc, f.derivative().scaled(bounds.d1_sup))
    M2 = transform(grid_enc, f.derivative(2).scaled(bounds.d2_sup))
    return MFamily(M=M, M1=M1, M2=M2)
