"""Measurement layer: largest-eigenvalue estimation, amplitude estimation,
and the two-state overlap gadget.

Quantum phase-estimation internals are replaced by an exact classical
eigensolve plus configurable seeded noise; the stated accuracy and cost
contracts are kept in the ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEnc, ResourceLedger, StatePrep, identity, lcu, scale_down

__all__ = [
    "EstimatorConfig",
    "Estimate",
    "largest_eigenvalue",
    "overlap_gadget",
    "amplitude_estimate",
    "GADGET_FACTOR",
]

# The overlap gadget encodes the weighted mean it reads times this factor.
GADGET_FACTOR = 0.25

# I/2 on the gadget's flag qubit, which the gadget subtracts; immutable, and
# validated once here
_HALF_IDENTITY = scale_down(identity(2), 2.0)

_PSD_TOL = 1e-9


@dataclass(frozen=True)
class EstimatorConfig:
    """Accuracy, seed, and noise mode shared by the estimators.

    In ``uniform`` mode every estimate is the exact value perturbed by a
    seeded draw from [-eps, +eps]; ``exact`` mode returns the true value.
    """

    eps: float = 0.01
    seed: int = 0
    noise_mode: str = "exact"

    def __post_init__(self):
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
        if self.noise_mode not in ("exact", "uniform"):
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")

    def draw(self, salt: int, eps: float | None = None) -> float:
        """Seeded noise draw for one estimator call; zero in exact mode."""
        if self.noise_mode == "exact":
            return 0.0
        e = self.eps if eps is None else eps
        # numpy needs the range high - low = 2e to be finite
        if not math.isfinite(2.0 * e):
            raise ValueError(f"eps = {e:.6g} is too large for uniform noise: "
                             "the draw's range 2 eps overflows")
        rng = np.random.default_rng([self.seed & 0xFFFFFFFFFFFFFFFF, salt])
        return float(rng.uniform(-e, e))


@dataclass(frozen=True)
class Estimate:
    """One estimated number and the ledger of what estimating it cost."""

    value: float
    ledger: ResourceLedger


def _accuracy(cfg: EstimatorConfig, scale: float) -> tuple[float, str]:
    """The accuracy cfg.eps/scale an estimator runs at, and how its errors
    name it: the eps the user gave, and the factor a pipeline divided it by."""
    eps = cfg.eps / scale
    return eps, f"eps = {eps:.6g}" if scale == 1.0 else f"eps = {cfg.eps!r} divided by {scale:.6g}"


def largest_eigenvalue(e: BlockEnc, cfg: EstimatorConfig, salt: int = 0, scale: float = 1.0) -> Estimate:
    """Estimate the largest eigenvalue of a PSD encoding to additive
    accuracy eps = cfg.eps/scale.

    The exact value is the diagonal's maximum; noise is then applied per
    the config.  The query count is the one stated for an O(1) spectral
    gap, which a grid's near-equal top entries need not have.
    """
    lam_min = float(e.data.min())
    if lam_min < -(_PSD_TOL + e.eps):
        raise ValueError(f"operator is not positive semidefinite (lambda_min = {lam_min:.6g})")
    eps, named = _accuracy(cfg, scale)
    estimate = float(e.data.max()) + cfg.draw(salt, eps)
    n_qubits = int(round(math.log2(e.dim)))
    inv_eps = 1.0 / eps
    log_term = n_qubits + math.log2(inv_eps)
    queries = inv_eps * log_term
    depth = e.ledger.depth_units * inv_eps * log_term
    if not (math.isfinite(queries) and math.isfinite(depth)):
        raise ValueError(f"{named} is too small for eigenvalue estimation: its query count overflows")
    ledger = e.ledger.merged(depth_units=math.ceil(depth),
                             **{"eigenvalue-estimation-queries": math.ceil(queries)})
    return Estimate(value=estimate, ledger=ledger)


def overlap_gadget(e: BlockEnc, prep: StatePrep) -> BlockEnc:
    """2x2 diagonal encoding diag(+w, -w) * GADGET_FACTOR with w = <phi|A|phi>/alpha,
    for the prepared state |phi> and the operator A that ``e`` encodes.

    Built exactly as the construction prescribes: the two states are one use
    of the encoding's unitary on |0>|phi> and |0>|phi> itself; prepare their
    controlled superposition, trace down to the one-qubit density matrix
    diag((1+w)/2, (1-w)/2), and subtract I/2 by a linear combination.

    An A off by at most e.eps entrywise moves w by at most e.eps/alpha, so
    the density matrix is stated at e.eps/(2 alpha) and the gadget at the
    eps that ``lcu`` passes on from it.
    """
    n = prep.dim
    if e.dim != n:
        raise ValueError("overlap gadget requires a state of the encoding's dimension")
    v = prep.state
    # the unitary dilation [(A/alpha) v ; sqrt(I - (A/alpha)^2) v] of |0>|v>,
    # and |0>|v> as a zero-padded 2N vector.  A valid input may exceed alpha
    # by up to its eps, and a unitary holds no block above 1, so the nearest
    # one is dilated: clipping moves no entry by more than it is off.
    a = np.clip(e.data / e.alpha, -1.0, 1.0)
    phi1 = np.concatenate([a * v, np.sqrt(1.0 - a**2) * v])
    phi2 = np.zeros(2 * n)
    phi2[:n] = v
    # rows: the traced branch qubit and 2N-dim register; columns: the kept
    # flag qubit.  The two columns have disjoint supports, so the density
    # matrix psi^T psi is exactly diagonal.
    psi = np.zeros((4 * n, 2))
    psi[:2 * n, 0] = (phi1 + phi2) / 2.0
    psi[2 * n:, 1] = (phi1 - phi2) / 2.0
    traced = int(round(math.log2(4 * n)))
    # the prepared state in each branch, one use of the encoding, the
    # controlled preparation, then the joint state prepared and unprepared
    # once each to trace out all but the flag qubit
    ledger = e.ledger.merged(
        prep.ledger, prep.ledger, depth_units=2 + traced + 1,
        **{"base-encoding-queries": 1, "controlled-state-prep-queries": 2, "state-prep-queries": 2},
    )
    diagonal = (psi.T @ psi).diagonal()
    rho = BlockEnc(diagonal, alpha=1.0, ancillas=traced, eps=e.eps / (2.0 * e.alpha), ledger=ledger)
    return lcu([rho, _HALF_IDENTITY], [1, -1])


def amplitude_estimate(e: BlockEnc, cfg: EstimatorConfig, scale: float, salt: int = 0) -> Estimate:
    """Estimate the flagged-branch amplitude, i.e. the (0, 0) entry of the
    encoded operator, to additive accuracy eps = cfg.eps/scale using O(1/eps)
    queries: a pipeline that multiplies the estimate by ``scale`` is then
    accurate to cfg.eps.
    """
    eps, named = _accuracy(cfg, scale)
    if not (0 < eps < math.inf and math.isfinite(1.0 / eps)):
        raise ValueError(f"{named} is out of range for amplitude estimation: it must be "
                         "positive and finite, and its query count 1/eps must fit in a float")
    raw = float(e.data[0])
    value = raw + cfg.draw(salt, eps=eps)
    queries = math.ceil(1.0 / eps)
    ledger = e.ledger.merged(depth_units=queries, **{"amplitude-estimation-queries": queries})
    return Estimate(value=value, ledger=ledger)
