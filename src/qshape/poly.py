"""Polynomial representations: derivatives, evaluation, the map of a
univariate polynomial's domain onto the working domain, and certified
sup-norm bounds.

All bounds are *certified*: the returned value is guaranteed to be an upper
bound on the true supremum (dense sampling plus a derivative-based slack,
falling back to the coefficient-sum bound when the slack cannot certify).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Poly",
    "MultiPoly",
    "Bounds",
    "certified_sup",
    "remap_domain",
]


def _trim(coeffs) -> tuple[float, ...]:
    c = [float(v) for v in coeffs]
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    if not c:
        c = [0.0]
    return tuple(c)


@dataclass(frozen=True)
class Poly:
    """Univariate real polynomial, coefficients in ascending powers."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    # The kernels below repeat numpy.polynomial's polyval, polyder and
    # polymul/polyadd operation for operation, so results (signed zeros
    # included) are the same bits without that module's per-call wrappers.

    def __call__(self, x):
        """Horner's rule, elementwise over x."""
        x = np.asarray(x, dtype=float)
        c = self.coeffs
        # in place; IEEE + and * commute, so these are polyval's bits
        out = x * 0
        out += c[-1]
        for a in c[-2::-1]:
            out *= x
            out += a
        return out

    def derivative(self, order: int = 1) -> "Poly":
        """Exact coefficient-level derivative of the given order; each
        polynomial is differentiated once, so f' and f'' are shared objects."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        p = self
        for _ in range(order):
            p = p._first_derivative
        return p

    # cached on the instance, never keyed on equality: Poly((0.0,)) equals
    # Poly((-0.0,)), but each differentiates to its own signed zero
    @functools.cached_property
    def _first_derivative(self) -> "Poly":
        c = np.array(self.coeffs)
        # a constant differentiates to c*0, which keeps the sign of c
        return Poly(c[1:] * np.arange(1, c.size) if c.size > 1 else c * 0.0)

    def compose_affine(self, c: float, w: float) -> "Poly":
        """Coefficients of p(c + w*t) as a polynomial in t, by Horner's rule
        on coefficient arrays."""
        inner = np.array([c, w], dtype=float)
        out = np.zeros(1)
        for a in self.coeffs[::-1]:
            out = np.convolve(out, inner)
            while out.size > 1 and out[-1] == 0.0:
                out = out[:-1]
            out[0] += a
        return Poly(out)

    def scaled(self, s: float) -> "Poly":
        return Poly(np.array(self.coeffs) / s)

    @functools.cached_property
    def coefficient_sum(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))


def _integer(v, what: str) -> int:
    """``v`` as an int; a bool, a non-number or a number with a fractional
    part is refused rather than truncated."""
    # an Integral is tested apart, since float() of a large int overflows
    if not isinstance(v, bool) and isinstance(v, numbers.Real):
        if isinstance(v, numbers.Integral) or float(v).is_integer():
            return int(v)
    raise ValueError(f"{what} {v!r} is not an integer")


@dataclass(frozen=True)
class MultiPoly:
    """Multivariate polynomial as a sum of monomials a_k * x1^k1 ... xd^kd."""

    terms: tuple[tuple[float, tuple[int, ...]], ...]
    dim: int

    def __init__(self, terms, dim: int):
        dim = _integer(dim, "dim")
        if dim < 1:
            raise ValueError("dim must be positive")
        seen: dict[tuple[int, ...], float] = {}
        for a, k in terms:
            # a plain int is taken as it is; anything else is read by _integer
            k = tuple(v if type(v) is int else _integer(v, "exponent") for v in k)
            if len(k) != dim:
                raise ValueError(f"exponent tuple {k} does not match dim={dim}")
            if any(v < 0 for v in k):
                raise ValueError("exponents must be nonnegative")
            seen[k] = seen.get(k, 0.0) + float(a)
        cleaned = tuple((a, k) for k, a in sorted(seen.items()) if a != 0.0)
        if not cleaned:
            cleaned = ((0.0, (0,) * dim),)
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "dim", dim)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    @property
    def max_exponent(self) -> int:
        return max(max(k) for _, k in self.terms)

    def __call__(self, x):
        """Evaluate at x of shape (dim,) or (m, dim).  Each (axis, exponent)
        power is computed once, and each term multiplies its factors in
        axis order."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(pts.shape[0])
        columns, powers = {}, {}
        for a, k in self.terms:
            # the bare coefficient until a * pw starts the term: the products
            # of np.full(m, a) *= pw, without the full array
            mono = a
            for j, kj in enumerate(k):
                if kj:
                    pw = powers.get((j, kj))
                    if pw is None:
                        if j not in columns:
                            columns[j] = np.ascontiguousarray(pts[:, j])
                        pw = powers[j, kj] = columns[j] ** kj
                    if mono is a:
                        mono = a * pw
                    else:
                        mono *= pw
            out += mono
        return out[0] if np.asarray(x).ndim == 1 else out


# The sample of every polynomial of degree <= 409, and the refinement's steps.
_SAMPLE = np.linspace(-1.0, 1.0, 4097)
_SAMPLE.setflags(write=False)
_REFINE = np.arange(1025.0)
_REFINE.setflags(write=False)


def _end_max(c: tuple[float, ...]) -> float:
    """max(|p(-1)|, |p(1)|) by Poly.__call__'s Horner steps on Python floats:
    the same IEEE operations, so the same bits, without an array's overhead."""
    ends = []
    for x in (-1.0, 1.0):
        out = x * 0
        out += c[-1]
        for a in c[-2::-1]:
            out *= x
            out += a
        ends.append(abs(out))
    return max(ends)


# One CLI call certifies the same few polynomials many times over (the
# remap, each method's Bounds, every transform precondition); a small cache
# keyed on the frozen Poly makes each distinct one cost a single sampling.
@functools.lru_cache(maxsize=64)
def _sup_univariate(p: Poly) -> float:
    if p.degree == 0:
        return abs(p.coeffs[0])
    csum = p.coefficient_sum
    m = max(10 * p.degree + 1, _SAMPLE.size)
    h = 2.0 / (m - 1)
    slack = p.derivative().coefficient_sum * h / 2.0
    # The sample holds both ends, and x + slack rounds monotonically in x, so
    # once an end plus the slack reaches a finite coefficient sum, the sampled
    # bound would reach it too and min() returns the sum.  A finite sum means
    # finite coefficients, so no sample is NaN.  (At a sample point inside,
    # sum |c_k| - |p(x)| exceeds the slack; only rounding lets one decide.)
    if math.isfinite(csum) and _end_max(p.coeffs) + slack >= csum:
        return float(csum)
    xs = _SAMPLE if m == _SAMPLE.size else np.linspace(-1.0, 1.0, m)
    vals = p(xs)
    np.abs(vals, out=vals)
    i = int(vals.argmax())
    vmax = float(vals[i])
    # local refinement around the coarse argmax tightens the sampled maximum;
    # fine is np.linspace(lo, hi, 1025), by linspace's own arithmetic
    lo, hi = max(-1.0, xs[i] - h), min(1.0, xs[i] + h)
    fine = _REFINE * ((hi - lo) / 1024)
    fine += lo
    fine[-1] = hi
    vals = p(fine)
    vmax = max(vmax, float(np.abs(vals, out=vals).max()))
    return float(min(vmax + slack, csum))


def certified_sup(p: Poly) -> float:
    """Certified upper bound on sup |p| over [-1, 1].

    Never exceeds the coefficient-sum bound and never undershoots the true
    supremum.
    """
    return _sup_univariate(p)


def remap_domain(p: Poly, a: float, b: float) -> tuple[Poly, float]:
    """Affine remap of p from [a, b] onto the working domain [-1/2, 1/2].

    Returns (q, s) with q(t) = p(c + w*t)/s, c = (a+b)/2, w = b-a.  The
    scale s = 2 * certified sup of |p(c + w*t)| over the working domain, so
    |q| <= 1/2 there with a factor-two safety margin.  Positive scaling
    preserves every derivative sign pattern.
    """
    if not a < b:
        raise ValueError(f"degenerate interval [{a}, {b}]")
    c, w = (a + b) / 2.0, float(b - a)
    # overflow is reported below as one error, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        composed = p.compose_affine(c, w)
        s = 2.0 * certified_sup(composed.compose_affine(0.0, 0.5))  # sup over [-1/2, 1/2]
        if s == 0.0:
            s = 1.0
        q = composed.scaled(s)
    if not (math.isfinite(s) and np.isfinite(q.coeffs).all()):
        raise ValueError(f"coefficients overflow when [{a}, {b}] is remapped onto the working domain")
    return q, s


@dataclass(frozen=True)
class Bounds:
    """Certified bounds used to normalize encodings of f, f', f''.

    Each field is at least the true supremum over [-1,1]; the factory
    doubles the certified sup so every normalized polynomial stays within
    1/2 on all of [-1,1], which the eigenvalue-transform precondition
    requires.
    """

    f_sup: float
    d1_sup: float
    d2_sup: float

    @classmethod
    def from_poly(cls, p: Poly) -> "Bounds":
        f_sup = max(2.0 * certified_sup(p), 1.0)
        d1 = max(2.0 * certified_sup(p.derivative()), 1e-300)
        d2 = max(2.0 * certified_sup(p.derivative(2)), 1e-300)
        return cls(f_sup=f_sup, d1_sup=d1, d2_sup=d2)
