"""Simulated block-encoding calculus.

A :class:`BlockEnc` stores the encoded operator exactly (with a diagonal
fast path), together with its subnormalization ``alpha``, ancilla count,
error bound ``eps``, and a :class:`ResourceLedger` of primitive query
counts and symbolic circuit-depth units.  Every operation returns a new
value; nothing is mutated in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    "tensor",
    "projector",
    "projector_complement",
    "density_encode",
    "identity",
    "normalize_subnormalization",
    "embed_state",
]

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class ResourceLedger:
    """Additive resource accounting: per-primitive query counts plus
    symbolic circuit-depth units."""

    entries: tuple[tuple[str, int], ...] = ()
    depth_units: int = 0

    @classmethod
    def of(cls, depth_units: int = 0, **counts: int) -> "ResourceLedger":
        return cls(
            entries=tuple(sorted((k, int(v)) for k, v in counts.items() if v)),
            depth_units=int(depth_units),
        )

    def merged(self, *others: "ResourceLedger") -> "ResourceLedger":
        counts = dict(self.entries)
        depth = self.depth_units
        for o in others:
            for k, v in o.entries:
                counts[k] = counts.get(k, 0) + v
            depth += o.depth_units
        return ResourceLedger(entries=tuple(sorted(counts.items())), depth_units=depth)

    def adding(self, depth_units: int = 0, **counts: int) -> "ResourceLedger":
        return self.merged(ResourceLedger.of(depth_units=depth_units, **counts))

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
    """An (alpha, a, eps) block encoding of an exactly stored operator.

    ``data`` is 1-D for the diagonal fast path, 2-D otherwise.  The stored
    operator always satisfies ||op|| <= alpha + eps.
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
        if arr.ndim not in (1, 2):
            raise ValueError("operator data must be 1-D (diagonal) or 2-D")
        if arr.ndim == 2 and arr.shape[0] != arr.shape[1]:
            raise ValueError("encoded operator must be square")
        if not _is_pow2(self.dim):
            raise ValueError(f"dimension {self.dim} is not a power of two")
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0 <= self.eps < math.inf:
            raise ValueError("eps must be nonnegative and finite")
        bound = self.norm_bound()
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
        return self.data.ndim == 1

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def op(self) -> np.ndarray:
        """The encoded operator as a dense matrix."""
        return np.diag(self.data) if self.is_diagonal else np.asarray(self.data)

    @property
    def diagonal(self) -> np.ndarray:
        if self.is_diagonal:
            return np.asarray(self.data)
        return np.diagonal(self.data)

    def norm_bound(self) -> float:
        if self.is_diagonal:
            return float(np.max(np.abs(self.data))) if self.dim else 0.0
        m = np.asarray(self.data)
        cheap = math.sqrt(
            float(np.max(np.sum(np.abs(m), axis=0)) * np.max(np.sum(np.abs(m), axis=1)))
        )
        if cheap <= self.alpha + self.eps + _NORM_TOL or not math.isfinite(cheap):
            return cheap  # a NaN or infinite bound needs no SVD to be rejected
        return float(np.linalg.norm(m, 2))

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        if self.is_diagonal:
            return bool(np.max(np.abs(np.imag(self.data))) <= tol) if np.iscomplexobj(self.data) else True
        return bool(np.allclose(self.data, np.conj(self.data.T), atol=tol))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.data * v if self.is_diagonal else self.data @ v

    def apply_to_state(self, v: np.ndarray) -> np.ndarray:
        """Action of the encoding unitary on |0>|v>: returns the 2N vector
        [ (A/alpha) v ; sqrt(I - (A/alpha)^2) v ] for Hermitian A.

        This is the standard unitary dilation; the top block is the flagged
        branch of the definition's action equation.
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError("state dimension mismatch")
        a = self.data / self.alpha
        if self.is_diagonal:
            top = a * v
            rest = np.sqrt(np.clip(1.0 - np.abs(a) ** 2, 0.0, None)) * v
        else:
            if not self.is_hermitian():
                raise ValueError("dilation requires a Hermitian operator")
            w, q = np.linalg.eigh(self.op / self.alpha)
            top = q @ (w * (q.T @ v))
            rest = q @ (np.sqrt(np.clip(1.0 - w**2, 0.0, None)) * (q.T @ v))
        return np.concatenate([top, rest])

    def _replace(self, **kw) -> "BlockEnc":
        base = dict(
            data=self.data, alpha=self.alpha, ancillas=self.ancillas, eps=self.eps, ledger=self.ledger
        )
        base.update(kw)
        return BlockEnc(**base)


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

    @property
    def unitary(self) -> np.ndarray:
        """A unitary whose first column is the prepared state (built lazily;
        only needed for small-dimension checks)."""
        n = self.dim
        m = np.eye(n)
        m[:, 0] = self.state
        q, r = np.linalg.qr(m)
        return q * np.sign(r[0, 0])

    def encoding(self) -> BlockEnc:
        """The preparation unitary viewed as a block encoding of itself."""
        return BlockEnc(self.unitary, alpha=1.0, ancillas=0, eps=0.0, ledger=self.ledger)


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
    ledger = prep.ledger.adding(depth_units=_qubits(n), **{"controlled-state-prep-queries": 1})
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
    ledger = contract.ledger.adding(depth_units=_qubits(n), **{"controlled-state-prep-queries": 1})
    return BlockEnc(col, alpha=1.0, ancillas=contract.ancillas + _qubits(n) + 3,
                    eps=contract.eps / contract.alpha, ledger=ledger)


def product_contract(c1: BlockEnc | Contract, c2: BlockEnc | Contract) -> Contract:
    """Contract of A1 A2: alpha = alpha1*alpha2, ancillas add, and
    eps <= alpha1*eps2 + alpha2*eps1, using each input once."""
    return Contract(
        alpha=c1.alpha * c2.alpha,
        ancillas=c1.ancillas + c2.ancillas,
        eps=c1.alpha * c2.eps + c2.alpha * c1.eps,
        ledger=c1.ledger.merged(c2.ledger).adding(products=1),
    )


def product(e1: BlockEnc, e2: BlockEnc) -> BlockEnc:
    """Block encoding of A1 A2 under :func:`product_contract`."""
    if e1.dim != e2.dim:
        raise ValueError(f"dimension mismatch: {e1.dim} vs {e2.dim}")
    if e1.is_diagonal and e2.is_diagonal:
        data = e1.data * e2.data
    elif e1.is_diagonal:
        data = e1.data[:, None] * e2.data
    elif e2.is_diagonal:
        data = e1.data * e2.data[None, :]
    else:
        data = e1.data @ e2.data
    c = product_contract(e1, e2)
    return BlockEnc(data, alpha=c.alpha, ancillas=c.ancillas, eps=c.eps, ledger=c.ledger)


def lcu(encodings, signs=None) -> BlockEnc:
    """Linear combination (sum_i s_i A_i) / m of m equal-alpha encodings."""
    encodings = list(encodings)
    if not encodings:
        raise ValueError("lcu requires at least one encoding")
    m = len(encodings)
    if signs is None:
        signs = [1] * m
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
    if all(e.is_diagonal for e in encodings):
        data = sum(s * e.data for s, e in zip(signs, encodings)) / m
    else:
        data = sum(s * e.op for s, e in zip(signs, encodings)) / m
    ledger = encodings[0].ledger.merged(*(e.ledger for e in encodings[1:]))
    ledger = ledger.adding(depth_units=m, **{"lcu-combinations": 1})
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
    ledger = e.ledger.adding(depth_units=1, scalings=1)
    return BlockEnc(e.data / p, alpha=e.alpha, ancillas=e.ancillas + 1, eps=e.eps / p, ledger=ledger)


def amplification_uses(gamma: float, delta: float, eps_amp: float) -> int:
    """Query count of uniform amplification: m = ceil((gamma/delta) ln(gamma/eps))."""
    return int(math.ceil((gamma / delta) * math.log(gamma / eps_amp)))


def amplify(e: BlockEnc, gamma: float, delta: float = 0.25, eps_amp: float = 1e-6) -> BlockEnc:
    """Boost the encoded operator to gamma*A, valid when every singular value
    of A/alpha is at most (1-delta)/gamma.  Costs m uses of the input."""
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    if not 0.0 < eps_amp < 0.5:
        raise ValueError("eps_amp must lie in (0, 1/2)")
    if e.is_diagonal:
        smax = float(np.max(np.abs(e.data))) / e.alpha
    else:
        smax = float(np.linalg.norm(e.op, 2)) / e.alpha
    if smax > (1.0 - delta) / gamma + 1e-12:
        raise ValueError(
            f"amplification precondition violated: max singular value {smax:.6g} "
            f"exceeds (1-delta)/gamma = {(1.0 - delta) / gamma:.6g}"
        )
    m = amplification_uses(gamma, delta, eps_amp)
    norm_a = smax * e.alpha
    eps_out = gamma * e.eps + gamma * norm_a * eps_amp
    ledger = e.ledger.adding(depth_units=m, **{"amplification-uses": m})
    return BlockEnc(gamma * e.data, alpha=e.alpha, ancillas=e.ancillas + 1, eps=eps_out, ledger=ledger)


def tensor(e1: BlockEnc, e2: BlockEnc) -> BlockEnc:
    """Block encoding of A1 (x) A2 via parallel single uses plus O(1) swaps."""
    if e1.is_diagonal and e2.is_diagonal:
        data = np.kron(e1.data, e2.data)
    else:
        data = np.kron(e1.op, e2.op)
    ledger = e1.ledger.merged(e2.ledger).adding(depth_units=1, **{"swap-groups": 1})
    return BlockEnc(
        data,
        alpha=e1.alpha * e2.alpha,
        ancillas=e1.ancillas + e2.ancillas,
        eps=e1.alpha * e2.eps + e2.alpha * e1.eps,
        ledger=ledger,
    )


def projector(j: int, n: int) -> BlockEnc:
    """Exact block encoding of |j-1><j-1| (1-indexed j)."""
    if not 1 <= j <= n:
        raise ValueError(f"index {j} out of range 1..{n}")
    d = np.zeros(n)
    d[j - 1] = 1.0
    return BlockEnc(d, alpha=1.0, ancillas=_qubits(n), eps=0.0,
                    ledger=ResourceLedger.of(depth_units=_qubits(n), **{"projector-preparations": 1}))


def projector_complement(j: int, n: int) -> BlockEnc:
    """Block encoding of I - |j-1><j-1| as (I + R)/2 with R the diagonal
    reflection about index j-1; exact at alpha = 1."""
    if not 1 <= j <= n:
        raise ValueError(f"index {j} out of range 1..{n}")
    r = np.ones(n)
    r[j - 1] = -1.0
    reflection = BlockEnc(r, alpha=1.0, ancillas=0, eps=0.0,
                          ledger=ResourceLedger.of(depth_units=_qubits(n)))
    return lcu([identity(n), reflection], [1, 1])


def density_encode(prep: StatePrep, keep_dim: int) -> BlockEnc:
    """Exact block encoding of the reduced density matrix obtained by
    tracing out the leading subsystem, keeping the trailing ``keep_dim``
    dimensions.  Uses the preparation and its inverse once each."""
    n = prep.dim
    if n % keep_dim != 0 or not _is_pow2(keep_dim):
        raise ValueError("keep_dim must be a power-of-two divisor of the state dimension")
    psi = prep.state.reshape(n // keep_dim, keep_dim)
    rho = psi.T @ psi  # sum over traced index of outer products
    ledger = prep.ledger.adding(depth_units=_qubits(n), **{"state-prep-queries": 2})
    return BlockEnc(rho, alpha=1.0, ancillas=_qubits(n // keep_dim), eps=0.0, ledger=ledger)


def embed_state(v: np.ndarray, dim: int) -> np.ndarray:
    """Pad a state vector with zeros up to ``dim`` (ancilla-extended copy)."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] > dim:
        raise ValueError("cannot embed into a smaller dimension")
    out = np.zeros(dim)
    out[: v.shape[0]] = v
    return out


def normalize_subnormalization(
    e: BlockEnc,
    factor: float,
    delta: float = 0.25,
    eps_amp: float = 1e-6,
) -> BlockEnc:
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
    amplified = amplify(e, factor, delta=delta, eps_amp=eps_amp)
    ledger = ResourceLedger(
        entries=amplified.ledger.entries,
        depth_units=e.ledger.depth_units + _qubits(e.dim),
    )
    return amplified._replace(ledger=ledger)
