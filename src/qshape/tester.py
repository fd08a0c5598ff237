"""End-to-end shape-testing pipelines over grids of sample points.

Four tests: second-derivative and monotonicity (the sign of f'' or of
+-f' at the grid points, through one pipeline), first-derivative
(consecutive differences of f' through the cyclic shift, decided as one
masked combination), and Jensen
(univariate and multivariate).  Every verdict is margin-aware: positive
verdicts are evidence at the sampled points, negative verdicts carry a
directly checkable witness, and estimates inside the 2*eps band around a
decision threshold come back Inconclusive.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import blockenc as be
from .blockenc import BlockEnc, ResourceLedger
from .estimate import GADGET_FACTOR, EstimatorConfig, amplitude_estimate, largest_eigenvalue, overlap_gadget
from .poly import Bounds, MultiPoly, Poly, certified_sup
from .qsvt import build_M_family, transform

__all__ = [
    "Grid",
    "WeightVector",
    "Verdict",
    "Outcome",
    "encode_grid_values",
    "test_convex_second_derivative",
    "test_convex_first_derivative",
    "test_convex_jensen",
    "test_monotone",
    "build_multivariate_M",
]

_HALF = 0.5
# the largest |t| a grid point or a Jensen centre may hold
_REACH = _HALF + 1e-9

# stable per-call-site noise salts (report determinism)
_SALT_SECOND = 11
_SALT_FIRST = 12
_SALT_MONO = 13
_SALT_JENSEN_LHS = 21
_SALT_JENSEN_RHS = 22


class Outcome:
    CONVEX_ON_GRID = "ConvexOnGrid"
    NOT_CONVEX = "NotConvex"
    MONOTONE_INCREASING = "MonotoneIncreasing"
    MONOTONE_DECREASING = "MonotoneDecreasing"
    NOT_MONOTONE = "NotMonotone"
    INCONCLUSIVE = "Inconclusive"


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


@dataclass(frozen=True)
class Grid:
    """Sample points in the working domain [-1/2, 1/2]^dim.

    ``n`` is always a power of two; grids padded up to that repeat the last
    point, and ``n_original`` remembers the unpadded count so downstream
    tests can mask the duplicates.
    """

    points: np.ndarray
    n_original: int

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] == 1 and pts.shape[1] > 1 and np.asarray(self.points).ndim == 1:
            pts = pts.T
        if pts.flags.writeable:
            pts = pts.copy()
            pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if pts.size == 0:
            raise ValueError("cannot build a grid from an empty point list")
        # written so that NaN coordinates fail it too
        if not np.max(np.abs(pts)) <= _REACH:
            raise ValueError("grid coordinates must lie in [-1/2, 1/2]")
        n = pts.shape[0]
        if n & (n - 1):
            raise ValueError(f"grid size {n} is not a power of two; pad first")
        if not 1 <= self.n_original <= n:
            raise ValueError("invalid original point count")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def x(self) -> np.ndarray:
        """Univariate coordinates as a flat array."""
        if self.dim != 1:
            raise ValueError("grid is multivariate")
        return self.points[:, 0]

    @property
    def original_points(self) -> np.ndarray:
        return self.points[: self.n_original]

    @functools.cached_property
    def axis_encodings(self) -> tuple[BlockEnc, ...]:
        """Each axis's :func:`encode_grid_values`, built once for every test."""
        return tuple(encode_grid_values(self.points[:, j]) for j in range(self.dim))

    @functools.cached_property
    def mask_complement(self) -> BlockEnc:
        """The first-derivative test's :func:`_mask_complement`, built once
        per grid for every call on it."""
        return _mask_complement(self)

    @functools.cached_property
    def identity(self) -> BlockEnc:
        """The identity on the grid's register, for the threshold shifts and
        the mask."""
        return be.identity(self.n)

    @functools.cached_property
    def multivariate_memo(self) -> "_BuildMemo":
        """The powers and term products that :func:`build_multivariate_M`
        builds from :attr:`axis_encodings`, kept for every call on the grid."""
        return _BuildMemo(self.axis_encodings)

    @classmethod
    def uniform(cls, n: int, dim: int = 1) -> "Grid":
        """The tensor product of midpoint grids: axis j takes b_j of the log2 n
        bits (split evenly, the first axes taking the rest) and holds the
        midpoints -1/2 + (i + 1/2)/2^{b_j}.  One shared instance per (n, dim)."""
        if n < 2 or n.bit_length() - 1 < dim:  # 2^dim itself may be too long to write
            least = f"2^{dim} = {1 << dim}" if dim <= 64 else f"2^{dim}"
            raise ValueError(f"a uniform grid of dim {dim} needs at least {least} points; got {n}")
        if n & (n - 1):
            raise ValueError(f"n = {n} is not a power of two")
        return _uniform_grid(n, dim)

    @classmethod
    def from_points(cls, points) -> "Grid":
        """The grid of ``points``, the last repeated up to a power of two."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 1 and np.asarray(points).ndim == 1:
            pts = pts.T
        m = pts.shape[0]
        pts = np.vstack([pts, np.repeat(pts[-1:], _next_pow2(m) - m, axis=0)])
        return cls(points=pts, n_original=m)


# How many uniform grids and default weight vectors a process keeps.  Each
# is frozen and holds only read-only arrays, so every caller can share it.
_INTERNED = 8


@functools.lru_cache(maxsize=_INTERNED)
def _uniform_grid(n: int, dim: int) -> Grid:
    """:meth:`Grid.uniform`'s grid.  Interned, so that its encodings, mask
    and identities are built once per process for each (n, dim)."""
    bits = n.bit_length() - 1
    axes = [-_HALF + (np.arange(m) + 0.5) / m
            for m in (1 << (bits // dim + (j < bits % dim)) for j in range(dim))]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(n, dim)
    return Grid(points=points, n_original=n)


@dataclass(frozen=True)
class WeightVector:
    """Convex weights: nonnegative, summing to one."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if not np.isfinite(lam).all():
            raise ValueError("weights must be finite")
        low = np.min(lam)
        if low < -1e-15:
            raise ValueError("weights must be nonnegative")
        if abs(float(np.sum(lam)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        if low < 0.0:
            # a rounding residue below zero is stored as 0.0 (a -0.0 keeps its bytes)
            lam = np.where(lam < 0.0, 0.0, lam)
        elif lam.flags.writeable:
            lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]

    @functools.cached_property
    def sqrt_state(self) -> be.StatePrep:
        """|sqrt(lambda)>, the state through which Jensen reads its gadgets."""
        return be.encode_state(np.sqrt(self.lambdas))

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        """Equal weights 1/n, one shared instance per n."""
        return _uniform_weights(n)

    @classmethod
    def normalized(cls, raw) -> "WeightVector":
        raw = np.asarray(raw, dtype=float)
        total = float(np.sum(raw))
        if total <= 0:
            raise ValueError("weights must have positive total")
        return cls(raw / total)

    def padded(self, n: int) -> "WeightVector":
        if n < self.n:
            raise ValueError("cannot pad to a smaller size")
        if n == self.n:
            return self
        out = np.zeros(n)
        out[: self.n] = self.lambdas
        return WeightVector(out)


@functools.lru_cache(maxsize=_INTERNED)
def _uniform_weights(n: int) -> WeightVector:
    """Equal weights 1/n; interned, so that |sqrt(lambda)> is built once."""
    return WeightVector(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class Verdict:
    outcome: str
    estimates: dict
    margin: float
    ledger: ResourceLedger
    witness: object = None
    grid_semantics: str = "evidence at sampled points"


# --------------------------------------------------------------------------
# grid encoding


def encode_grid_values(values: np.ndarray) -> BlockEnc:
    """Alpha-1 diagonal encoding of classically known values x: amplitude
    encoding of x/||x||, diagonalization, then a rescale by ||x||: scaled
    down by 1/||x|| when ||x|| < 1, amplified by ||x|| when ||x|| > 1."""
    v = np.asarray(values, dtype=float)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("cannot encode a grid whose points all sit at the domain's centre "
                         "(working coordinate 0) along an axis")
    diag = be.diag_from_state(be.encode_state(v / nrm))
    if nrm < 1.0:
        return be.scale_down(diag, 1.0 / nrm)
    if nrm == 1.0:
        return diag
    # The ledger keeps the amplification's uses, but its depth is charged as
    # log2 N, this construction's stated O(log N) cost.  The O(log N) encoding
    # of uniform grids (ROADMAP item 3) removes this charge.
    return be._amplify(diag, nrm, v.shape[0].bit_length() - 1)


# --------------------------------------------------------------------------
# the decision shared by all four tests, and the threshold pipeline shared
# by the second-derivative, first-derivative and monotonicity tests

# (below the band, above it) for the three convexity tests
_CONVEXITY = (Outcome.CONVEX_ON_GRID, Outcome.NOT_CONVEX)
# the value each threshold test compares its largest eigenvalue with
_THRESHOLD = 0.5


def _verdict(value: float, threshold: float, outcomes: tuple[str, str], witness_fn,
             estimates: dict, ledger: ResourceLedger, eps: float) -> Verdict:
    """Compare an estimated ``value`` with ``threshold`` under a 2*eps band:
    below the band is ``outcomes[0]``, above it ``outcomes[1]`` with the
    witness ``witness_fn()``, and inside it Inconclusive.  The margin is the
    distance from the band's edge."""
    band = 2.0 * eps
    if band == math.inf:  # the margin would be -inf
        raise ValueError(f"eps = {eps!r} is too large for a verdict: the band 2 eps overflows")
    below, above = outcomes
    if value < threshold - band:
        outcome = below
    elif value > threshold + band:
        outcome = above
    else:
        outcome = Outcome.INCONCLUSIVE
    return Verdict(
        outcome=outcome,
        estimates=estimates,
        margin=abs(value - threshold) - band,
        ledger=ledger,
        witness=witness_fn() if outcome == above else None,
    )


def _threshold_test(shifted: BlockEnc, outcomes: tuple[str, str], witness_fn, bound_name: str,
                    bound: float, cfg: EstimatorConfig, salt: int, scale: float = 1.0) -> Verdict:
    """Estimate the largest eigenvalue of ``shifted`` at eps = cfg.eps/scale
    and decide it against the threshold 1/2 with :func:`_verdict` at eps."""
    est = largest_eigenvalue(shifted, cfg, salt=salt, scale=scale)
    estimates = {"lambda_max": est.value, "threshold": _THRESHOLD, bound_name: bound}
    return _verdict(est.value, _THRESHOLD, outcomes, witness_fn, estimates, est.ledger, cfg.eps / scale)


# --------------------------------------------------------------------------
# second-derivative and monotonicity tests


def _derivative_sign_test(f: Poly, grid: Grid, cfg: EstimatorConfig, order: int, sign: int,
                          outcomes: tuple[str, str], bound_name: str, salt: int) -> Verdict:
    """Sign of sign*f^(order) at the grid points (order 1 or 2, sign +1 or
    -1) via the largest eigenvalue of (I - sign*M_order)/2 against the
    threshold 1/2.  A derivative that vanishes identically encodes as zero,
    so the eigenvalue is 1/2 itself and the verdict Inconclusive."""
    if grid.dim != 1:
        raise ValueError("the derivative-sign tests are univariate")
    bounds = Bounds.from_poly(f)
    fam = build_M_family(f, grid.axis_encodings[0], bounds)
    m, bound = (fam.M1, bounds.d1_sup) if order == 1 else (fam.M2, bounds.d2_sup)
    shifted = be.lcu([grid.identity, m], [1, -sign])

    def worst_point():
        xs = grid.original_points[:, 0]
        return float(xs[int(np.argmin(sign * f.derivative(order)(xs)))])

    return _threshold_test(shifted, outcomes, worst_point, bound_name, bound, cfg, salt)


def test_convex_second_derivative(f: Poly, grid: Grid, cfg: EstimatorConfig) -> Verdict:
    """Sign of min f'' on the grid via the largest eigenvalue of
    (I - M2)/2 against the threshold 1/2."""
    return _derivative_sign_test(f, grid, cfg, 2, 1, _CONVEXITY,
                                 "second_derivative_bound", _SALT_SECOND)


def test_monotone(f: Poly, grid: Grid, direction: str, cfg: EstimatorConfig) -> Verdict:
    """Sign of f' at the grid points through the threshold pipeline on
    (I - M1)/2, or on (I + M1)/2 for the decreasing direction."""
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"unknown direction {direction!r}")
    good, sign = ((Outcome.MONOTONE_INCREASING, 1) if direction == "increasing"
                  else (Outcome.MONOTONE_DECREASING, -1))
    return _derivative_sign_test(f, grid, cfg, 1, sign, (good, Outcome.NOT_MONOTONE),
                                 "first_derivative_bound", _SALT_MONO)


# --------------------------------------------------------------------------
# first-derivative test


def _mask_complement(grid: Grid) -> BlockEnc:
    # the wrap-around difference and any padded duplicates are masked
    r = np.ones(grid.n)
    r[grid.n_original - 1:] = -1.0
    reflection = BlockEnc(r, alpha=1.0, ancillas=0, eps=0.0,
                          ledger=ResourceLedger.of(depth_units=int(round(math.log2(grid.n)))))
    return be.lcu([grid.identity, reflection], [1, 1])


def test_convex_first_derivative(f: Poly, grid: Grid, cfg: EstimatorConfig) -> Verdict:
    """Sign of the minimum consecutive first-derivative difference via the
    largest eigenvalue of the masked (2I - S^dagger M1 S + M1)/4 against the
    threshold 1/2.

    M1 holds f'(x_i)/P; conjugated by the cyclic shift S
    (:func:`blockenc.shift`) it holds f'(x_{i+1})/P, so one weighted ``lcu``
    has the entries 1/2 - diff_i/(4P).  The mask zeroes the wrap-around
    entry and any padded duplicates, so they cannot pin the spectrum at the
    threshold.  It is estimated at eps/4, so its band is 2*eps in units of
    diff/P.
    """
    if grid.n_original < 2:
        raise ValueError("first-derivative test needs at least two grid points")
    bounds = Bounds.from_poly(f)
    if grid.dim != 1:
        raise ValueError("the first-derivative construction is univariate")
    xs = grid.original_points[:, 0]
    if np.any(np.diff(xs) <= 0):
        raise ValueError("grid points must be strictly increasing")
    m1 = transform(grid.axis_encodings[0], f.derivative(), bounds.d1_sup)
    shifted = be.product(grid.mask_complement, be.lcu([grid.identity, be.shift(m1), m1], [2, -1, 1]))
    if cfg.eps / 4.0 == 0.0:
        raise ValueError(f"eps = {cfg.eps!r} underflows to 0 when divided by 4 "
                         "for the first-derivative test")

    def steepest_drop():
        i = int(np.argmin(np.diff(f.derivative()(xs))))
        return (float(xs[i]), float(xs[i + 1]))

    return _threshold_test(shifted, _CONVEXITY, steepest_drop,
                           "first_derivative_bound", bounds.d1_sup, cfg, _SALT_FIRST, 4.0)


# --------------------------------------------------------------------------
# Jensen tests


_MAX_EXPONENT = 12
_MAX_TERMS = 64
_BOX_OVERFLOW = ("coefficients overflow on this box: a term's |a prod_j M_j^k_j| is not finite, "
                 "where M_j = |c_j| + w_j/v is the largest |x_j| its powers read")


# How many powers and term products a build memo keeps, the least recently
# used dropped first: on a centred box, 3 axes and exponents up to 6 ask for
# at most 15 powers and 7^3 - 1 products.
_MEMO_CAP = 512


class _BuildMemo:
    """Encodings that :func:`build_multivariate_M` built from one tuple of
    axis encodings, keyed by everything each build reads besides them: never
    by a coefficient or a weight, so a hit returns the very encoding a fresh
    build would make."""

    def __init__(self, axis_encodings):
        self.axis_encodings = tuple(axis_encodings)
        self.entries = collections.OrderedDict()

    def get(self, key, build):
        """The encoding under ``key``, built by ``build()`` on a miss."""
        entries = self.entries
        if key in entries:
            entries.move_to_end(key)
            return entries[key]
        value = entries[key] = build()
        if len(entries) > _MEMO_CAP:
            entries.popitem(last=False)
        return value


def build_multivariate_M(f: MultiPoly, axis_encodings, box=None,
                         value_scale: float = 1.0, memo: _BuildMemo | None = None) -> tuple[BlockEnc, float]:
    """Diagonal encoding with entries f(x)/correction at the points
    x_j = c_j + w_j t_j of a box, from per-axis diagonal encodings whose
    entries are v t_j, v = ``value_scale`` (1 for a grid's axis encodings,
    GADGET_FACTOR for the Jensen gadgets).

    ``box`` is the pair (centres c, widths w); None is the working domain
    itself (c = 0, w = 1, so x = t).  Each (axis, exponent) power is built
    once, as one transform of P(y) = (alpha_j + beta_j y)^k / 2 with
    alpha_j = c_j/M_j, beta_j = w_j/(v M_j) and M_j = |c_j| + w_j/v, its
    sup over y in [-1, 1], and amplified by 2 wherever the box keeps
    ((|c_j| + w_j/2)/M_j)^k within 3/4.  On a centred box P is y^k/2, and
    exponent 1 is the axis encoding itself.  Each term is one product of its
    powers, weighted by a prod_j M_j^k_j, doubled for each of its
    unamplified powers, and one weighted ``lcu`` sums the terms.  The
    returned correction, the sum of the weights' magnitudes, undoes
    everything at estimation time.

    Powers and products are looked up in ``memo``, a :class:`_BuildMemo`
    of these same axis encodings (a fresh one when None): a power by its
    axis, the bits of alpha_j and beta_j, k and whether it is amplified, a
    product by its powers' keys.
    """
    axis_encodings = list(axis_encodings)
    if len(axis_encodings) != f.dim:
        raise ValueError("one axis encoding per variable required")
    if f.max_exponent > _MAX_EXPONENT:
        raise ValueError(f"monomial degree {f.max_exponent} exceeds cap {_MAX_EXPONENT}")
    if f.term_count > _MAX_TERMS:
        raise ValueError(f"term count {f.term_count} exceeds cap {_MAX_TERMS}")
    n = axis_encodings[0].dim
    for e in axis_encodings:
        if e.dim != n:
            raise ValueError("axis encodings must share a dimension")
        if abs(e.alpha - 1.0) > 1e-12:
            raise ValueError("axis encodings must be normalized to alpha = 1")
    if memo is None:
        memo = _BuildMemo(axis_encodings)
    elif not (len(memo.axis_encodings) == f.dim
              and all(a is b for a, b in zip(memo.axis_encodings, axis_encodings))):
        raise ValueError("a build memo serves only the axis encodings it was made for")
    centres, widths = (np.zeros(f.dim), np.ones(f.dim)) if box is None else box
    # Python floats: a float power out of range raises, where numpy's warns
    axes = [(float(c), float(w), abs(float(c)) + float(w) / value_scale) for c, w in zip(centres, widths)]
    if len(axes) != f.dim:
        raise ValueError("one box interval per variable required")

    @functools.cache
    def power(j: int, k: int) -> tuple[BlockEnc, float, tuple]:
        """(x_j/M_j)^k as an encoding, the factor 1 or 2 by which its
        entries understate it, and its memo key."""
        c, w, m = axes[j]
        if c == 0.0 and k == 1:
            return axis_encodings[j], 1.0, (j,)
        alpha, beta = c / m, w / (value_scale * m)
        amplified = ((abs(c) + w * _REACH) / m) ** k <= 0.75

        def build():
            pw = transform(axis_encodings[j], Poly([0.5 * math.comb(k, i) * alpha ** (k - i) * beta**i
                                                    for i in range(k + 1)]))
            return be.amplify(pw, 2.0) if amplified else pw

        # hex keeps the sign of a zero, which the power's coefficients keep
        key = (j, alpha.hex(), beta.hex(), k, amplified)
        return memo.get(key, build), 1.0 if amplified else 2.0, key

    weights, products = [], []
    for a, k in f.terms:
        weight, factors, keys = a, [], []
        for j, kj in enumerate(k):
            try:
                weight *= axes[j][2] ** kj
            except OverflowError:  # raised by a float power out of range
                raise ValueError(_BOX_OVERFLOW) from None
            if kj:
                pw, understated, key = power(j, kj)
                weight *= understated
                factors.append(pw)
                keys.append(key)
        if not math.isfinite(weight):  # inf, or NaN where an underflow meets it
            raise ValueError(_BOX_OVERFLOW)
        if weight != 0.0:  # a weight that underflows drops its term, as a zero coefficient would
            weights.append(weight)
            products.append(memo.get(tuple(keys), lambda: be.product(*factors)) if factors
                            else be.identity(n))
    if not weights:
        return BlockEnc(np.zeros(n), alpha=1.0, ancillas=0, eps=0.0), 1.0
    try:
        correction = math.fsum(map(abs, weights))  # the sum lcu divides by
    except OverflowError:
        raise ValueError(_BOX_OVERFLOW) from None
    return be.lcu(products, weights), correction


def _jensen_center(grid: Grid, w: WeightVector) -> np.ndarray:
    center = w.lambdas @ grid.points
    if np.max(np.abs(center)) > _REACH:
        raise ValueError("weighted combination of grid points leaves the working domain")
    return center


def _jensen_estimates(f, grid: Grid, w: WeightVector, cfg: EstimatorConfig, box=None):
    """Both sides of Jensen's inequality, each from an overlap gadget.

    The gadget over an encoding E and |sqrt(lambda)> encodes
    (sum_i lambda_i E_ii)/4.  The left side encodes f at the gadgets of the
    axis encodings, which hold centre_j/4; the right side is the gadget of
    an encoding of f at the grid.  A multivariate f reads both through the
    box map of ``box`` (see :func:`build_multivariate_M`).
    """
    sqrt_lam = w.sqrt_state
    axes = grid.axis_encodings
    if isinstance(f, MultiPoly):
        # the grid side reads the grid's memo; the gadgets are this call's own
        m_enc, f_scale = build_multivariate_M(f, axes, box, memo=grid.multivariate_memo)
        lhs_enc, lhs_scale = build_multivariate_M(
            f, [overlap_gadget(e, sqrt_lam) for e in axes], box, GADGET_FACTOR)
    else:
        f_scale = Bounds.from_poly(f).f_sup
        m_enc = transform(axes[0], f, f_scale)
        # transforming the gadget with f(t / GADGET_FACTOR)/s evaluates f at
        # the centre; overflow is reported as one error, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            f_lhs = f.compose_affine(0.0, 1.0 / GADGET_FACTOR)
            # finite only if every coefficient is, and then it bounds the sup
            if not math.isfinite(f_lhs.coefficient_sum):
                raise ValueError("coefficients overflow when f is rescaled to read the overlap gadget")
            lhs_scale = max(1.0, 2.0 * certified_sup(f_lhs))
        lhs_enc = transform(overlap_gadget(axes[0], sqrt_lam), f_lhs, lhs_scale)
    rhs_scale = f_scale / GADGET_FACTOR
    a_lhs = amplitude_estimate(lhs_enc, cfg, lhs_scale, salt=_SALT_JENSEN_LHS)
    a_rhs = amplitude_estimate(overlap_gadget(m_enc, sqrt_lam), cfg, rhs_scale, salt=_SALT_JENSEN_RHS)
    ledger = a_lhs.ledger.merged(a_rhs.ledger)
    scales = {"lhs_scale": lhs_scale, "rhs_scale": rhs_scale, "gadget_factor": GADGET_FACTOR}
    return a_lhs.value * lhs_scale, a_rhs.value * rhs_scale, ledger, scales


def test_convex_jensen(f, grid: Grid, w: WeightVector, cfg: EstimatorConfig, box=None) -> Verdict:
    """Estimate both sides of Jensen's inequality at the weighted grid points
    and decide them with :func:`_verdict`.

    A multivariate f is the user's own polynomial in x, read on the box
    (centres c, widths w) at x_j = c_j + w_j t_j of the grid's working
    coordinates t; None is the working domain itself, where x = t.  A
    univariate f is already in working coordinates and takes no box.

    A violation is a certificate of non-convexity; consistency is reported
    as convexity evidence for this weight/grid collection only (the
    inequality at one finite collection is necessary, not sufficient).
    """
    if w.n == grid.n_original:
        w = w.padded(grid.n)
    elif w.n != grid.n:
        raise ValueError("weight count must match grid size")
    center = _jensen_center(grid, w)
    if isinstance(f, MultiPoly):
        if f.dim != grid.dim:
            raise ValueError("polynomial dimension must match the grid")
    elif grid.dim != 1:
        raise ValueError("univariate Jensen test requires a univariate grid")
    elif box is not None:
        raise ValueError("a univariate polynomial is read in working coordinates and takes no box")
    lhs, rhs, ledger, scales = _jensen_estimates(f, grid, w, cfg, box)

    def violated_at():
        return {"center": [float(v) for v in center]}

    return _verdict(lhs, rhs, _CONVEXITY, violated_at,
                    {"jensen_lhs": lhs, "jensen_rhs": rhs, **scales}, ledger, cfg.eps)


# library entry points, not pytest cases
for _fn in (test_convex_second_derivative, test_convex_first_derivative,
            test_convex_jensen, test_monotone):
    _fn.__test__ = False
del _fn
