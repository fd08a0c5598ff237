"""Simulated block-encoding calculus.

Every operator the shape tests encode is diagonal: the grid, f, f', f'' and the
overlap gadget.  A :class:`BlockEnc` therefore stores the encoded
operator's real diagonal exactly, together with its subnormalization
``alpha``, ancilla count, error bound ``eps``, and a :class:`ResourceLedger`
of primitive query counts and symbolic circuit-depth units.  Every
operation returns a new value; nothing is mutated in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "ResourceLedger",
    "Contract",
    "BlockEnc",
    "StatePrep",
    "encode_state",
    "diag_from_state",
    "diag_from_column",
    "product",
    "product_contract",
    "lcu",
    "scale_down",
    "amplify",
    "amplification_uses",
    "identity",
    "normalize_subnormalization",
]

_NORM_TOL = 1e-9
# Uniform amplification's fixed parameters (Gilyen, Su, Low, Wiebe,
# arXiv:1806.01838): a gain gamma needs every singular value of A/alpha at
# most (1 - delta)/gamma, and the boosted operator is off by gamma*eps_amp
# relative to its norm.
_DELTA = 0.25
_EPS_AMP = 1e-6


@dataclass(frozen=True)
class ResourceLedger:
    """Additive resource accounting: per-primitive query counts plus
    symbolic circuit-depth units."""

    entries: tuple[tuple[str, int], ...] = ()
    depth_units: int = 0

    @classmethod
    def of(cls, depth_units: int = 0, **counts: int) -> "ResourceLedger":
        return cls().merged(depth_units=depth_units, **counts)

    def merged(self, *others: "ResourceLedger", depth_units: int = 0, **counts: int) -> "ResourceLedger":
        """This ledger plus ``others`` plus ``depth_units`` and ``counts``,
        summed in one pass and sorted once; a zero count adds no entry."""
        total = dict(self.entries)
        depth = self.depth_units + int(depth_units)
        for o in others:
            for k, v in o.entries:
                total[k] = total.get(k, 0) + v
            depth += o.depth_units
        for k, v in counts.items():
            if v:
                total[k] = total.get(k, 0) + int(v)
        return ResourceLedger(entries=tuple(sorted(total.items())), depth_units=depth)

    def count(self, key: str) -> int:
        return dict(self.entries).get(key, 0)

    def as_dict(self) -> dict:
        return {"entries": dict(self.entries), "depth_units": self.depth_units}


@dataclass(frozen=True)
class Contract:
    """The (alpha, ancillas, eps) contract and ledger of an encoding whose
    operator is applied in structured form rather than stored."""

    alpha: float
    ancillas: int
    eps: float
    ledger: ResourceLedger


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _qubits(n: int) -> int:
    return int(round(math.log2(n)))


@dataclass(frozen=True)
class BlockEnc:
    """An (alpha, a, eps) block encoding of a diagonal operator.

    ``data`` is the operator's real diagonal, and the stored operator always
    satisfies max|data| <= alpha + eps.
    """

    data: np.ndarray
    alpha: float
    ancillas: int
    eps: float
    ledger: ResourceLedger = field(default_factory=ResourceLedger)

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        if arr.ndim != 1:
            raise ValueError("operator data must be the 1-D diagonal")
        if arr.dtype.kind == "c":
            raise ValueError("operator data must be real")
        if not _is_pow2(self.dim):
            raise ValueError(f"dimension {self.dim} is not a power of two")
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0 <= self.eps < math.inf:
            raise ValueError("eps must be nonnegative and finite")
        bound = float(np.abs(arr).max())
        # written so that a NaN bound (from NaN data) fails it too
        if not bound <= self.alpha + self.eps + _NORM_TOL:
            if not np.isfinite(arr).all():
                raise ValueError("operator data must be finite")
            raise ValueError(
                f"operator norm {bound:.6g} exceeds "
                f"alpha + eps = {self.alpha + self.eps:.6g}"
            )

    # -- structure ---------------------------------------------------------

    @property
    def is_diagonal(self) -> bool:
        """Always True: diagonal is the only representation."""
        return True

    @property
    def dim(self) -> int:
        return self.data.shape[0]


def identity(n: int) -> BlockEnc:
    """The identity block encodes itself exactly (alpha = 1, eps = 0)."""
    return BlockEnc(np.ones(n), alpha=1.0, ancillas=0, eps=0.0)


@dataclass(frozen=True)
class StatePrep:
    """State-preparation artifact: the prepared amplitudes plus the ledger
    of the O(log N)-depth amplitude-encoding circuit."""

    state: np.ndarray
    ledger: ResourceLedger

    def __post_init__(self):
        arr = np.asarray(self.state, dtype=float)
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "state", arr)

    @property
    def dim(self) -> int:
        return self.state.shape[0]


def encode_state(amplitudes) -> StatePrep:
    """Amplitude encoding of a unit vector of power-of-two length."""
    v = np.asarray(amplitudes, dtype=float)
    n = v.shape[0]
    if not _is_pow2(n):
        raise ValueError(f"length {n} is not a power of two; pad the input first")
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("cannot encode the zero vector")
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"amplitudes must be normalized (norm = {nrm:.6g})")
    return StatePrep(state=v, ledger=ResourceLedger.of(depth_units=_qubits(n), **{"state-prep-queries": 1}))


def diag_from_state(prep: StatePrep) -> BlockEnc:
    """Exact block encoding of diag(psi_0, ..., psi_{N-1}) from a prepared
    state, at alpha = 1 with log2(N) + 3 extra ancillas."""
    n = prep.dim
    ledger = prep.ledger.merged(depth_units=_qubits(n), **{"controlled-state-prep-queries": 1})
    return BlockEnc(prep.state.copy(), alpha=1.0, ancillas=_qubits(n) + 3, eps=0.0, ledger=ledger)


def diag_from_column(column: np.ndarray, contract: BlockEnc | Contract) -> BlockEnc:
    """Diagonalize the first column of an encoded operator: the composed
    circuit's action on the all-zeros state plays the state-preparation
    role, and the diagonalization construction turns those amplitudes into a
    diagonal encoding.

    ``column`` is the operator's first column and ``contract`` its
    contract, so a structured operator never has to be stored densely."""
    col = np.asarray(column, dtype=float) / contract.alpha
    n = col.shape[0]
    ledger = contract.ledger.merged(depth_units=_qubits(n), **{"controlled-state-prep-queries": 1})
    return BlockEnc(col, alpha=1.0, ancillas=contract.ancillas + _qubits(n) + 3,
                    eps=contract.eps / contract.alpha, ledger=ledger)


def product_contract(c1: BlockEnc | Contract, c2: BlockEnc | Contract) -> Contract:
    """Contract of A1 A2: alpha = alpha1*alpha2, ancillas add, and
    eps <= alpha1*eps2 + alpha2*eps1, using each input once."""
    return Contract(
        alpha=c1.alpha * c2.alpha,
        ancillas=c1.ancillas + c2.ancillas,
        eps=c1.alpha * c2.eps + c2.alpha * c1.eps,
        ledger=c1.ledger.merged(c2.ledger, products=1),
    )


def product(e1: BlockEnc, e2: BlockEnc) -> BlockEnc:
    """Block encoding of A1 A2 under :func:`product_contract`."""
    if e1.dim != e2.dim:
        raise ValueError(f"dimension mismatch: {e1.dim} vs {e2.dim}")
    data = e1.data * e2.data
    c = product_contract(e1, e2)
    return BlockEnc(data, alpha=c.alpha, ancillas=c.ancillas, eps=c.eps, ledger=c.ledger)


def lcu(encodings, signs) -> BlockEnc:
    """Linear combination (sum_i s_i A_i) / m of m equal-alpha encodings."""
    encodings = list(encodings)
    if not encodings:
        raise ValueError("lcu requires at least one encoding")
    m = len(encodings)
    signs = [int(s) for s in signs]
    if len(signs) != m or any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be a matching sequence of +1/-1")
    dim = encodings[0].dim
    alpha = encodings[0].alpha
    for e in encodings:
        if e.dim != dim:
            raise ValueError("lcu requires equal dimensions")
        if abs(e.alpha - alpha) > 1e-12 * max(1.0, alpha):
            raise ValueError("lcu requires equal alphas; rescale first")
    data = sum(s * e.data for s, e in zip(signs, encodings)) / m
    ledger = encodings[0].ledger.merged(*(e.ledger for e in encodings[1:]), depth_units=m,
                                        **{"lcu-combinations": 1})
    return BlockEnc(
        data,
        alpha=alpha,
        ancillas=max(e.ancillas for e in encodings) + max(1, (m - 1).bit_length()),
        eps=max(e.eps for e in encodings),
        ledger=ledger,
    )


def scale_down(e: BlockEnc, p: float) -> BlockEnc:
    """Block encoding of A/p for p > 1 (one rotation, tensor, and product)."""
    if not p > 1.0:
        raise ValueError(f"scaling factor must exceed 1, got {p}")
    ledger = e.ledger.merged(depth_units=1, scalings=1)
    return BlockEnc(e.data / p, alpha=e.alpha, ancillas=e.ancillas + 1, eps=e.eps / p, ledger=ledger)


def amplification_uses(gamma: float) -> int:
    """Query count of uniform amplification: m = ceil((gamma/delta) ln(gamma/eps_amp))."""
    return int(math.ceil((gamma / _DELTA) * math.log(gamma / _EPS_AMP)))


def amplify(e: BlockEnc, gamma: float) -> BlockEnc:
    """Boost the encoded operator to gamma*A, valid when every singular value
    of A/alpha is at most (1-delta)/gamma.  Costs m uses of the input."""
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    smax = float(np.abs(e.data).max()) / e.alpha
    if smax > (1.0 - _DELTA) / gamma + 1e-12:
        raise ValueError(
            f"amplification precondition violated: max singular value {smax:.6g} "
            f"exceeds (1-delta)/gamma = {(1.0 - _DELTA) / gamma:.6g}"
        )
    m = amplification_uses(gamma)
    norm_a = smax * e.alpha
    eps_out = gamma * e.eps + gamma * norm_a * _EPS_AMP
    ledger = e.ledger.merged(depth_units=m, **{"amplification-uses": m})
    return BlockEnc(gamma * e.data, alpha=e.alpha, ancillas=e.ancillas + 1, eps=eps_out, ledger=ledger)


def normalize_subnormalization(e: BlockEnc, factor: float) -> BlockEnc:
    """Rescale the encoded operator by ``factor``: scaling for factor < 1,
    amplification for factor > 1, no-op at factor = 1.

    The amplification branch records its true query count in the ledger
    entries but accounts depth at the stated composite cost of the
    construction it serves, O(log N), so pipeline depth units track the
    claimed complexity rather than the amplification sequence length.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    if factor == 1.0:
        return e
    if factor < 1.0:
        return scale_down(e, 1.0 / factor)
    amplified = amplify(e, factor)
    ledger = ResourceLedger(
        entries=amplified.ledger.entries,
        depth_units=e.ledger.depth_units + _qubits(e.dim),
    )
    return replace(amplified, ledger=ledger)
