"""Brute-force classical reference for every verdict.

Evaluates derivative signs, consecutive-difference signs, and exact Jensen
sums directly from the polynomial coefficients; used as ground truth by the
property and acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import MultiPoly, Poly

__all__ = ["OracleResult", "oracle_convex", "oracle_monotone"]


@dataclass(frozen=True, eq=False)
class OracleResult:
    """A reference verdict, compared by identity: a Jensen witness holds an array."""

    verdict: str  # "convex" | "not_convex" | "monotone" | "not_monotone" | "jensen_consistent" | "jensen_violated"
    witness: object = None
    details: dict | None = None


def oracle_convex(f, points, weights=None, mode: str = "second") -> OracleResult:
    """Direct convexity evidence on the sampled points, an array of shape
    (n,) or (n, dim).

    Univariate without weights: the sign of min f''(x_i) (``mode="second"``)
    or of the minimum consecutive first-derivative difference
    (``mode="first"``).  With weights, an array of n convex weights (needed
    when multivariate): the exact Jensen pair (LHS, RHS).
    """
    pts = np.asarray(points, dtype=float)
    if weights is not None or isinstance(f, MultiPoly):
        lam = np.asarray(weights, dtype=float)
        n = len(lam)
        # one point per weight: a row of coordinates, or a number
        xs = pts.reshape(n, -1) if isinstance(f, MultiPoly) else pts.reshape(-1)
        center = lam @ xs
        # f at the points and the centre in one pass, the centre appended
        # last, so that the weighted sum reads the same leading block
        vals = f(np.concatenate((xs, center[None])))
        lhs = float(vals[n])
        rhs = float(lam @ vals[:n])
        verdict = "jensen_violated" if lhs > rhs else "jensen_consistent"
        witness = (center, lhs, rhs) if verdict == "jensen_violated" else None
        return OracleResult(verdict, witness, {"lhs": lhs, "rhs": rhs})

    xs = pts.reshape(-1)
    if mode == "second":
        vals = f.derivative(2)(xs)
        i = int(np.argmin(vals))
        if vals[i] < 0:
            return OracleResult("not_convex", float(xs[i]), {"min_second_derivative": float(vals[i])})
        return OracleResult("convex", None, {"min_second_derivative": float(vals[i])})
    if mode == "first":
        d1 = f.derivative()(xs)
        diffs = np.diff(d1)
        if diffs.size == 0:
            return OracleResult("convex", None, {"min_difference": 0.0})
        i = int(np.argmin(diffs))
        if diffs[i] < 0:
            return OracleResult(
                "not_convex", (float(xs[i]), float(xs[i + 1])), {"min_difference": float(diffs[i])}
            )
        return OracleResult("convex", None, {"min_difference": float(diffs[i])})
    raise ValueError(f"unknown mode {mode!r}")


def oracle_monotone(f: Poly, points, direction: str = "increasing") -> OracleResult:
    """Sign check of f' at every point of the array ``points`` for the
    requested direction."""
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"unknown direction {direction!r}")
    xs = np.asarray(points, dtype=float).reshape(-1)
    d1 = f.derivative()(xs)
    if direction == "increasing":
        bad = np.where(d1 < 0)[0]
        extreme = int(np.argmin(d1))
    else:
        bad = np.where(d1 > 0)[0]
        extreme = int(np.argmax(d1))
    if bad.size:
        return OracleResult("not_monotone", float(xs[extreme]), {"worst_derivative": float(d1[extreme])})
    return OracleResult("monotone", None, {"worst_derivative": float(d1[extreme])})
