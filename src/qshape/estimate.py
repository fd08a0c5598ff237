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
]

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
    query_factor = math.ceil((1.0 / cfg.eps) * (n_qubits + math.log2(1.0 / cfg.eps)))
    ledger = e.ledger.adding(
        depth_units=math.ceil(e.ledger.depth_units * (1.0 / cfg.eps) * (n_qubits + math.log2(1.0 / cfg.eps))),
        **{"eigenvalue-estimation-queries": query_factor},
    )
    return EigenvalueEstimate(value=estimate, gap_flag=gap_flag, ledger=ledger)


def overlap_gadget(prep1: StatePrep, prep2: StatePrep) -> BlockEnc:
    """2x2 diagonal encoding diag(+w/4, -w/4) with w the real inner product
    of the two prepared states.

    Built exactly as the construction prescribes: prepare the controlled
    superposition state, trace down to the one-qubit density matrix
    diag((1+w)/2, (1-w)/2), and subtract I/2 by a linear combination.
    """
    if prep1.dim != prep2.dim:
        raise ValueError("overlap gadget requires equal state dimensions")
    n = prep1.dim
    phi1, phi2 = prep1.state, prep2.state
    # rows: the traced branch qubit and N-dim register; columns: the kept
    # flag qubit.  The two columns have disjoint supports, so the density
    # matrix psi^T psi is exactly diagonal.
    psi = np.zeros((2 * n, 2))
    psi[:n, 0] = (phi1 + phi2) / 2.0
    psi[n:, 1] = (phi1 - phi2) / 2.0
    traced = int(round(math.log2(2 * n)))
    # the controlled preparation, then the joint state prepared and
    # unprepared once each to trace out all but the flag qubit
    ledger = prep1.ledger.merged(prep2.ledger).adding(
        depth_units=2 + traced + 1,
        **{"controlled-state-prep-queries": 2, "state-prep-queries": 2},
    )
    diagonal = (psi.T @ psi).diagonal()
    rho = BlockEnc(diagonal, alpha=1.0, ancillas=traced, eps=0.0, ledger=ledger)
    half_identity = scale_down(identity(2), 2.0)
    return lcu([rho, half_identity], [1, -1])


def amplitude_estimate(e: BlockEnc, cfg: EstimatorConfig, eps: float, salt: int = 0) -> AmplitudeEstimate:
    """Estimate the flagged-branch amplitude, i.e. the (0, 0) entry of the
    encoded operator, to additive accuracy eps using O(1/eps) queries.

    ``eps`` is the raw estimate's accuracy: a pipeline that multiplies the
    estimate by a scale divides its own accuracy by that scale.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    raw = float(e.data[0])
    value = raw + cfg.draw(salt, eps=eps)
    queries = math.ceil(1.0 / eps)
    ledger = e.ledger.adding(depth_units=queries, **{"amplitude-estimation-queries": queries})
    return AmplitudeEstimate(value=value, ledger=ledger)
