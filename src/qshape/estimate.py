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
    density_encode,
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
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.noise_mode not in ("exact", "uniform"):
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")

    def with_eps(self, eps: float) -> "EstimatorConfig":
        return EstimatorConfig(eps=eps, seed=self.seed, noise_mode=self.noise_mode)

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
    """Estimate the largest eigenvalue of a PSD Hermitian encoding to
    additive accuracy eps.

    The exact value comes from the stored operator's spectrum (sorted
    directly on the diagonal fast path, one dense eigensolve otherwise);
    noise is then applied per the config.  The gap flag marks spectra whose
    two largest eigenvalues are closer than the O(1)-gap assumption
    tolerates; it is advisory and does not degrade the classical estimate.
    """
    if not e.is_hermitian():
        raise ValueError("largest_eigenvalue requires a Hermitian operator")
    spectrum = np.sort(np.real(e.data)) if e.is_diagonal else np.linalg.eigvalsh(e.op)
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
    # layout (traced: branch qubit x N) x (kept: flag qubit)
    psi = np.zeros((2, n, 2))
    psi[0, :, 0] = (phi1 + phi2) / 2.0
    psi[1, :, 1] = (phi1 - phi2) / 2.0
    prep_ledger = prep1.ledger.merged(prep2.ledger).adding(
        depth_units=2, **{"controlled-state-prep-queries": 2}
    )
    joint = StatePrep(state=psi.reshape(-1), ledger=prep_ledger)
    rho = density_encode(joint, keep_dim=2)
    half_identity = scale_down(identity(2), 2.0)
    return lcu([rho, half_identity], [1, -1])


def amplitude_estimate(e: BlockEnc, cfg: EstimatorConfig, salt: int = 0, eps: float | None = None) -> AmplitudeEstimate:
    """Estimate the flagged-branch amplitude, i.e. the (0, 0) entry of the
    encoded operator, to additive accuracy eps using O(1/eps) queries.

    ``eps`` overrides the config accuracy when a pipeline needs a tighter
    raw estimate ahead of scale correction.
    """
    eps_used = cfg.eps if eps is None else eps
    if eps_used <= 0:
        raise ValueError("eps must be positive")
    raw = float(np.real(e.data[0] if e.is_diagonal else e.data[0, 0]))
    value = raw + cfg.draw(salt, eps=eps_used)
    queries = math.ceil(1.0 / eps_used)
    ledger = e.ledger.adding(depth_units=queries, **{"amplitude-estimation-queries": queries})
    return AmplitudeEstimate(value=value, ledger=ledger)
