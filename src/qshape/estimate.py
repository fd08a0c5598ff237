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

from .blockenc import (
    BlockEnc,
    ResourceLedger,
    StatePrep,
    identity,
    lcu,
    scale_down,
)

__all__ = [
    "EstimatorConfig",
    "EigenvalueEstimate",
    "AmplitudeEstimate",
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

GAP_THRESHOLD = 0.01  # below this, the O(1)-gap assumption is flagged
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
        rng = np.random.default_rng([self.seed & 0xFFFFFFFFFFFFFFFF, salt])
        return float(rng.uniform(-e, e))


@dataclass(frozen=True)
class EigenvalueEstimate:
    value: float
    gap_flag: bool
    ledger: ResourceLedger


@dataclass(frozen=True)
class AmplitudeEstimate:
    value: float
    ledger: ResourceLedger


def largest_eigenvalue(e: BlockEnc, cfg: EstimatorConfig, salt: int = 0) -> EigenvalueEstimate:
    """Estimate the largest eigenvalue of a PSD encoding to additive
    accuracy eps.

    The exact value comes from the sorted diagonal; noise is then applied
    per the config.  The gap flag marks spectra whose two largest
    eigenvalues are closer than the O(1)-gap assumption tolerates; it is
    advisory and does not degrade the classical estimate.
    """
    spectrum = np.sort(e.data)
    lam_min = float(spectrum[0])
    if lam_min < -(_PSD_TOL + e.eps):
        raise ValueError(f"operator is not positive semidefinite (lambda_min = {lam_min:.6g})")
    top = float(spectrum[-1])
    second = float(spectrum[-2]) if spectrum.size > 1 else float("-inf")
    gap_flag = (top - second) < GAP_THRESHOLD
    estimate = top + cfg.draw(salt)
    n_qubits = int(round(math.log2(e.dim)))
    inv_eps = 1.0 / cfg.eps
    log_term = n_qubits + math.log2(inv_eps)
    queries = inv_eps * log_term
    depth = e.ledger.depth_units * inv_eps * log_term
    if not (math.isfinite(queries) and math.isfinite(depth)):
        raise ValueError(f"eps = {cfg.eps:.6g} is too small for eigenvalue estimation: "
                         "its query count overflows")
    ledger = e.ledger.merged(depth_units=math.ceil(depth),
                             **{"eigenvalue-estimation-queries": math.ceil(queries)})
    return EigenvalueEstimate(value=estimate, gap_flag=gap_flag, ledger=ledger)


def overlap_gadget(e: BlockEnc, prep: StatePrep) -> BlockEnc:
    """2x2 diagonal encoding diag(+w, -w) * GADGET_FACTOR with w = <phi|A|phi>/alpha,
    for the prepared state |phi> and the operator A that ``e`` encodes.

    Built exactly as the construction prescribes: the two states are one use
    of the encoding's unitary on |0>|phi> and |0>|phi> itself; prepare their
    controlled superposition, trace down to the one-qubit density matrix
    diag((1+w)/2, (1-w)/2), and subtract I/2 by a linear combination.
    """
    n = prep.dim
    if e.dim != n:
        raise ValueError("overlap gadget requires a state of the encoding's dimension")
    v = prep.state
    # the unitary dilation [(A/alpha) v ; sqrt(I - (A/alpha)^2) v] of |0>|v>,
    # and |0>|v> as a zero-padded 2N vector
    a = e.data / e.alpha
    phi1 = np.concatenate([a * v, np.sqrt(np.clip(1.0 - np.abs(a) ** 2, 0.0, None)) * v])
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
    rho = BlockEnc(diagonal, alpha=1.0, ancillas=traced, eps=0.0, ledger=ledger)
    return lcu([rho, _HALF_IDENTITY], [1, -1])


def amplitude_estimate(e: BlockEnc, cfg: EstimatorConfig, eps: float, salt: int = 0) -> AmplitudeEstimate:
    """Estimate the flagged-branch amplitude, i.e. the (0, 0) entry of the
    encoded operator, to additive accuracy eps using O(1/eps) queries.

    ``eps`` is the raw estimate's accuracy: a pipeline that multiplies the
    estimate by a scale divides its own accuracy by that scale.
    """
    if not (0 < eps < math.inf and math.isfinite(1.0 / eps)):
        raise ValueError(f"eps = {eps:.6g} is out of range for amplitude estimation: it must be "
                         "positive and finite, and its query count 1/eps must fit in a float")
    raw = float(e.data[0])
    value = raw + cfg.draw(salt, eps=eps)
    queries = math.ceil(1.0 / eps)
    ledger = e.ledger.merged(depth_units=queries, **{"amplitude-estimation-queries": queries})
    return AmplitudeEstimate(value=value, ledger=ledger)
