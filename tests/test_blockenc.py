import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qshape.blockenc as be
from qshape.blockenc import BlockEnc, ResourceLedger


def diag_enc(values, alpha=1.0, eps=0.0):
    return BlockEnc(np.asarray(values, dtype=float), alpha=alpha, ancillas=0, eps=eps)


unit_vectors = st.integers(min_value=0, max_value=3).flatmap(
    lambda k: st.lists(
        st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=2**k, max_size=2**k
    ).filter(lambda v: np.linalg.norm(v) > 1e-3)
)


# -- ledger ----------------------------------------------------------------


def test_ledger_merge_and_count():
    a = ResourceLedger.of(depth_units=3, **{"state-prep-queries": 1})
    b = ResourceLedger.of(depth_units=2, **{"state-prep-queries": 2, "products": 1})
    m = a.merged(b)
    assert m.depth_units == 5
    assert m.count("state-prep-queries") == 3
    assert m.count("products") == 1
    assert m.count("missing") == 0


def test_ledger_is_immutable_and_sorted():
    l = ResourceLedger.of(b=2, a=1)
    assert l.entries == (("a", 1), ("b", 2))
    with pytest.raises(AttributeError):
        l.depth_units = 5


# The ledger merge as it was before it took counts, and the fresh ledger it
# merged them from: kept as the two-step reference for the one-pass merge.


def _reference_of(depth_units=0, **counts):
    return ResourceLedger(entries=tuple(sorted((k, int(v)) for k, v in counts.items() if v)),
                          depth_units=int(depth_units))


def _reference_merged(ledger, *others):
    counts = dict(ledger.entries)
    depth = ledger.depth_units
    for o in others:
        for k, v in o.entries:
            counts[k] = counts.get(k, 0) + v
        depth += o.depth_units
    return ResourceLedger(entries=tuple(sorted(counts.items())), depth_units=depth)


_LEDGER_KEYS = st.sampled_from(["amplification-uses", "lcu-combinations", "products", "scalings"])
_LEDGER_COUNTS = st.dictionaries(_LEDGER_KEYS, st.integers(min_value=0, max_value=50))
_DEPTHS = st.integers(min_value=0, max_value=20)
_LEDGERS = st.builds(lambda depth, counts: _reference_of(depth, **counts), _DEPTHS, _LEDGER_COUNTS)


@given(_LEDGERS, st.lists(_LEDGERS, max_size=3), _DEPTHS, _LEDGER_COUNTS)
@settings(max_examples=200, deadline=None)
def test_merged_is_the_two_step_merge(ledger, others, depth, counts):
    """Zero counts, new keys and keys already present, and the same ledger
    merged more than once (the first other again, and the ledger itself)."""
    others = [*others, *others[:1], ledger]
    got = ledger.merged(*others, depth_units=depth, **counts)
    assert got == _reference_merged(ledger, *others, _reference_of(depth, **counts))
    assert ResourceLedger.of(depth, **counts) == _reference_of(depth, **counts)
    assert isinstance(got.entries, tuple) and list(got.entries) == sorted(got.entries)


# -- construction ----------------------------------------------------------


def test_rejects_norm_violation():
    with pytest.raises(ValueError):
        diag_enc([2.0, 0.0], alpha=1.0)


def test_rejects_non_pow2_dim():
    with pytest.raises(ValueError):
        diag_enc([0.1, 0.2, 0.3])


@pytest.mark.parametrize("data", [
    np.eye(2) / 2,  # a dense matrix, even a diagonal one
    np.zeros((1, 2)),
    np.array([0.5, 0.25j]),
    np.array([0.5, 0.25], dtype=complex),  # complex dtype, real values
], ids=["square", "row", "complex", "complex-dtype"])
def test_rejects_2d_and_complex_data(data):
    with pytest.raises(ValueError, match="1-D diagonal|must be real"):
        BlockEnc(data, alpha=1.0, ancillas=0, eps=0.0)


def test_identity_is_exact():
    e = be.identity(4)
    assert e.alpha == 1.0 and e.eps == 0.0
    assert e.is_diagonal
    np.testing.assert_array_equal(e.data, np.ones(4))


# -- state preparation -----------------------------------------------------


def test_encode_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        be.encode_state([1.0, 1.0])


def test_diag_from_state():
    v = np.array([0.5, -0.5, 0.5, 0.5])
    e = be.diag_from_state(be.encode_state(v))
    assert e.alpha == 1.0
    assert e.ancillas == 2 + 3
    np.testing.assert_array_equal(e.data, v)


# -- calculus lemmas -------------------------------------------------------


def test_product_composition():
    e1 = diag_enc([0.5, -0.25, 0.0, 0.125], alpha=2.0, eps=0.01)
    e2 = diag_enc([0.25, 0.25, -0.5, 0.5], alpha=1.0, eps=0.02)
    p = be.product(e1, e2)
    assert p.alpha == 2.0
    np.testing.assert_allclose(np.diag(p.data), np.diag(e1.data) @ np.diag(e2.data))
    assert p.eps == pytest.approx(e1.alpha * e2.eps + e2.alpha * e1.eps)


def test_lcu_signs_and_prefactor():
    e1 = diag_enc([0.5, 0.25])
    e2 = diag_enc([0.25, 0.5])
    c = be.lcu([e1, e2], [1, -1])
    np.testing.assert_allclose(c.data, (e1.data - e2.data) / 2)
    assert c.alpha == 1.0


def test_lcu_requires_equal_alphas():
    with pytest.raises(ValueError):
        be.lcu([diag_enc([0.5, 0.5]), diag_enc([0.5, 0.5], alpha=2.0)], [1, 1])


def test_scale_down():
    e = diag_enc([0.5, -0.5], eps=0.1)
    s = be.scale_down(e, 2.0)
    np.testing.assert_allclose(s.data, [0.25, -0.25])
    assert s.eps == pytest.approx(0.05)
    with pytest.raises(ValueError):
        be.scale_down(e, 1.0)


def test_amplify_boosts_and_counts_uses():
    e = diag_enc([0.3, -0.2])
    a = be.amplify(e, 2.0)
    np.testing.assert_allclose(a.data, [0.6, -0.4])
    m = be.amplification_uses(2.0)
    assert a.ledger.count("amplification-uses") == m
    assert m == math.ceil((2.0 / 0.25) * math.log(2.0 / 1e-6))


def test_amplify_precondition():
    with pytest.raises(ValueError):
        be.amplify(diag_enc([0.6, 0.0]), 2.0)  # 0.6 > (1-0.25)/2


@given(unit_vectors)
@settings(max_examples=60, deadline=None)
def test_normalize_subnormalization_recovers_values(v):
    x = 0.5 * np.asarray(v) / np.max(np.abs(v))  # coordinates within [-1/2, 1/2]
    nrm = np.linalg.norm(x)
    prep = be.encode_state(x / nrm)
    e = be.normalize_subnormalization(be.diag_from_state(prep), nrm)
    assert e.alpha == pytest.approx(1.0)
    np.testing.assert_allclose(e.data, x, atol=1e-12)


def test_normalize_subnormalization_depth_is_logarithmic():
    # the amplification branch keeps the true query count in the entries but
    # accounts depth at the composite construction's stated cost
    x = np.full(256, 0.45)
    nrm = np.linalg.norm(x)
    d = be.diag_from_state(be.encode_state(x / nrm))
    e = be.normalize_subnormalization(d, nrm)
    assert e.ledger.count("amplification-uses") > 8
    assert e.ledger.depth_units == d.ledger.depth_units + 8

