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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ResourceLedger",
    "BlockEnc",
    "StatePrep",
    "encode_state",
    "diag_from_state",
    "shift",
    "product",
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


@dataclass(frozen=True, init=False)
class ResourceLedger:
    """Additive resource accounting: per-primitive query counts plus
    symbolic circuit-depth units.  The counts are kept in a dict, so a merge
    never sorts; ``entries`` is their sorted tuple, made when read."""

    _counts: dict = field(hash=False)
    depth_units: int = 0

    def __init__(self, entries=(), depth_units: int = 0):
        object.__setattr__(self, "_counts", dict(entries))
        object.__setattr__(self, "depth_units", depth_units)

    @property
    def entries(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self._counts.items()))

    @classmethod
    def of(cls, depth_units: int = 0, **counts: int) -> "ResourceLedger":
        return cls().merged(depth_units=depth_units, **counts)

    def merged(self, *others: "ResourceLedger", depth_units: int = 0, **counts: int) -> "ResourceLedger":
        """This ledger plus ``others`` plus ``depth_units`` and ``counts``,
        summed in one pass; a zero count adds no entry."""
        total = self._counts.copy()
        depth = self.depth_units + int(depth_units)
        for o in others:
            for k, v in o._counts.items():
                total[k] = total.get(k, 0) + v
            depth += o.depth_units
        for k, v in counts.items():
            if v:
                total[k] = total.get(k, 0) + int(v)
        out = ResourceLedger.__new__(ResourceLedger)  # keeps ``total`` without a second copy
        object.__setattr__(out, "_counts", total)
        object.__setattr__(out, "depth_units", depth)
        return out

    def count(self, key: str) -> int:
        return self._counts.get(key, 0)

    def as_dict(self) -> dict:
        return {"entries": dict(self.entries), "depth_units": self.depth_units}


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _qubits(n: int) -> int:
    return int(round(math.log2(n)))


@dataclass(frozen=True)
class BlockEnc:
    """An (alpha, a, eps) block encoding of a diagonal operator.

    ``data`` is the operator's real diagonal, and the stored operator always
    satisfies max|data| <= alpha + eps.  ``bound`` is an upper bound on
    max|data|: the exact maximum when the constructor checks the data, and
    the bound a primitive propagates from its inputs otherwise (see
    :func:`_built`).  A writable array is copied; the primitives' own
    arrays are kept read-only and uncopied.
    """

    data: np.ndarray
    alpha: float
    ancillas: int
    eps: float
    ledger: ResourceLedger = field(default_factory=ResourceLedger)
    bound: float = field(init=False, compare=False)

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
        object.__setattr__(self, "bound", _checked_bound(arr, self.alpha, self.eps))

    # -- structure ---------------------------------------------------------

    @property
    def is_diagonal(self) -> bool:
        """Always True: diagonal is the only representation."""
        return True

    @property
    def dim(self) -> int:
        return self.data.shape[0]


def _checked_bound(data: np.ndarray, alpha: float, eps: float, bound: float = math.inf) -> float:
    """Check alpha and eps, then max|data| <= alpha + eps (up to
    ``_NORM_TOL``) through ``bound``, an upper bound on max|data|; returns
    the bound the encoding keeps.  Only when ``bound`` does not show the
    norm is the data read, and then its exact maximum passes or raises."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if not 0 <= eps < math.inf:
        raise ValueError("eps must be nonnegative and finite")
    # an infinite bound shows nothing, even where alpha + eps overflows; a
    # finite one also shows the data finite
    if bound < math.inf and bound <= alpha + eps + _NORM_TOL:
        return bound
    bound = float(np.abs(data).max())
    # written so that a NaN bound (from NaN data) fails it too
    if not bound <= alpha + eps + _NORM_TOL:
        if not np.isfinite(data).all():
            raise ValueError("operator data must be finite")
        raise ValueError(f"operator norm {bound:.6g} exceeds alpha + eps = {alpha + eps:.6g}")
    return bound


def _built(data: np.ndarray, alpha: float, ancillas: int, eps: float, ledger: ResourceLedger,
           bound: float) -> BlockEnc:
    """A primitive's output, checked as :class:`BlockEnc` checks it.

    ``data`` is freshly computed from checked inputs, so it is a real 1-D
    array of their power-of-two length; it is marked read-only and kept.
    ``bound`` is an upper bound on max|data|: IEEE rounding is monotone, so
    a bound computed from the inputs' bounds by the operations that
    computed ``data`` from their data bounds the result.
    """
    data.setflags(write=False)
    bound = _checked_bound(data, alpha, eps, bound)
    out = object.__new__(BlockEnc)
    out.__dict__.update(data=data, alpha=alpha, ancillas=ancillas, eps=eps, ledger=ledger, bound=bound)
    return out


def identity(n: int) -> BlockEnc:
    """The identity block encodes itself exactly (alpha = 1, eps = 0)."""
    if not _is_pow2(n):
        raise ValueError(f"dimension {n} is not a power of two")
    return _built(np.ones(n), 1.0, 0, 0.0, ResourceLedger(), 1.0)


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
    return BlockEnc(prep.state, alpha=1.0, ancillas=_qubits(n) + 3, eps=0.0, ledger=ledger)


def shift(e: BlockEnc) -> BlockEnc:
    """Block encoding of S^dagger A S for the cyclic increment
    S|i> = |i + 1 mod N>: entry i holds A's entry i + 1.  S is exact, so
    alpha, ancillas and eps are unchanged; the ledger charges its two uses,
    S and S^dagger, at log2(N) depth units each."""
    ledger = e.ledger.merged(depth_units=2 * _qubits(e.dim))
    d = e.data
    # np.roll(d, -1)'s entries, without its generic index set-up
    return _built(np.concatenate((d[1:], d[:1])), e.alpha, e.ancillas, e.eps, ledger, e.bound)


def product(*encodings: BlockEnc) -> BlockEnc:
    """Block encoding of A1 A2 ... Ak, using each input once.

    Folded left to right as the chain product(product(A1, A2), A3) ...: each
    step multiplies the alphas, adds the ancillas and states
    eps <= alpha1*eps2 + alpha2*eps1 for its two factors, and each partial
    product is checked as the chain's would be.  One factor is returned as
    it is.
    """
    if not encodings:
        raise ValueError("product requires at least one encoding")
    first, *rest = encodings
    if not rest:
        return first
    data, alpha, ancillas, eps, bound = first.data, first.alpha, first.ancillas, first.eps, first.bound
    for i, e in enumerate(rest):
        if i:  # the partial product so far
            bound = _checked_bound(data, alpha, eps, bound)
        if e.dim != first.dim:
            raise ValueError(f"dimension mismatch: {first.dim} vs {e.dim}")
        data = data * e.data
        alpha, eps = alpha * e.alpha, alpha * e.eps + e.alpha * eps
        ancillas += e.ancillas
        bound *= e.bound
    ledger = first.ledger.merged(*(e.ledger for e in rest), products=len(rest))
    return _built(data, alpha, ancillas, eps, ledger, bound)


def lcu(encodings, weights) -> BlockEnc:
    """Linear combination (sum_i c_i A_i) / s, s = sum_i |c_i|, of m
    equal-alpha encodings with nonzero finite real weights c_i (Childs &
    Wiebe, arXiv:1202.5822; Gilyen, Su, Low, Wiebe, arXiv:1806.01838, Lemma
    52).  Inputs off by eps_i leave it off by sum_i |c_i| eps_i / s.  Unequal
    |c_i| charge the weight state's preparation and its inverse, at
    ceil(log2 m) depth units each; equal ones are Hadamards."""
    encodings, weights = list(encodings), [float(c) for c in weights]
    if not encodings:
        raise ValueError("lcu requires at least one encoding")
    m, first = len(encodings), encodings[0]
    if len(weights) != m:
        raise ValueError(f"lcu takes one weight per encoding: {len(weights)} weights for {m} encodings")
    if not all(c != 0.0 and math.isfinite(c) for c in weights):  # NaN fails the second
        raise ValueError("lcu weights must be nonzero and finite")
    try:
        norm = math.fsum(map(abs, weights))  # exactly rounded: m itself for weights +-1
    except OverflowError:
        raise ValueError("lcu weights overflow: their sum of magnitudes is not finite") from None
    if any(e.dim != first.dim for e in encodings):
        raise ValueError("lcu requires equal dimensions")
    if any(abs(e.alpha - first.alpha) > 1e-12 * max(1.0, first.alpha) for e in encodings):
        raise ValueError("lcu requires equal alphas; rescale first")
    # sum(c_i * A_i) from 0, accumulated in one array: 0 + c*A is c*A + 0.0,
    # which turns a -0.0 into 0.0
    data = weights[0] * first.data + 0.0
    bound = abs(weights[0]) * first.bound
    for c, e in zip(weights[1:], encodings[1:]):
        np.add(data, c * e.data, out=data)
        bound += abs(c) * e.bound
    data /= norm
    index_qubits = (m - 1).bit_length()
    prep = 0 if all(abs(c) == abs(weights[0]) for c in weights) else 2
    ledger = first.ledger.merged(*(e.ledger for e in encodings[1:]), depth_units=m + prep * index_qubits,
                                 **{"lcu-combinations": 1, "state-prep-queries": prep})
    # each |c_i|/s is at most 1, so a partial sum overflows only where the mean does
    eps = sum(abs(c) / norm * e.eps for c, e in zip(weights, encodings))
    return _built(data, first.alpha, max(e.ancillas for e in encodings) + max(1, index_qubits),
                  eps, ledger, bound / norm)


def scale_down(e: BlockEnc, p: float) -> BlockEnc:
    """Block encoding of A/p for p > 1 (one rotation, tensor, and product)."""
    if not p > 1.0:
        raise ValueError(f"scaling factor must exceed 1, got {p}")
    ledger = e.ledger.merged(depth_units=1, scalings=1)
    return _built(e.data / p, e.alpha, e.ancillas + 1, e.eps / p, ledger, e.bound / p)


def amplification_uses(gamma: float) -> int:
    """Query count of uniform amplification: m = ceil((gamma/delta) ln(gamma/eps_amp))."""
    return int(math.ceil((gamma / _DELTA) * math.log(gamma / _EPS_AMP)))


def amplify(e: BlockEnc, gamma: float) -> BlockEnc:
    """Boost the encoded operator to gamma*A, valid when every singular value
    of A/alpha is at most (1-delta)/gamma.  Costs m uses of the input."""
    return _amplify(e, gamma, None)


def _amplify(e: BlockEnc, gamma: float, depth_units: int | None) -> BlockEnc:
    """:func:`amplify`, charging ``depth_units`` of depth instead of m when
    given, so a caller that accounts depth otherwise builds one encoding."""
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    data_max = float(np.abs(e.data).max())
    smax = data_max / e.alpha
    if smax > (1.0 - _DELTA) / gamma + 1e-12:
        raise ValueError(
            f"amplification precondition violated: max singular value {smax:.6g} "
            f"exceeds (1-delta)/gamma = {(1.0 - _DELTA) / gamma:.6g}"
        )
    m = amplification_uses(gamma)
    norm_a = smax * e.alpha
    eps_out = gamma * e.eps + gamma * norm_a * _EPS_AMP
    ledger = e.ledger.merged(depth_units=m if depth_units is None else depth_units,
                             **{"amplification-uses": m})
    return _built(gamma * e.data, e.alpha, e.ancillas + 1, eps_out, ledger, gamma * data_max)


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
    return _amplify(e, factor, _qubits(e.dim))
