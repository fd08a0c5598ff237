import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qshape.blockenc as be
from qshape.blockenc import BlockEnc, ResourceLedger
from qshape.estimate import overlap_gadget
from qshape.poly import Poly
from qshape.qsvt import transform
from qshape.tester import encode_grid_values


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
    assert list(l.as_dict()["entries"]) == ["a", "b"]
    # the counts, not the order they were given in, make a ledger
    same = ResourceLedger(entries=(("b", 2), ("a", 1)))
    assert same == l and hash(same) == hash(l)
    assert l != ResourceLedger.of(depth_units=1, b=2, a=1)
    with pytest.raises(AttributeError):
        l.depth_units = 5
    with pytest.raises(AttributeError):
        l.entries = ()


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


@pytest.mark.parametrize("data, message", [
    ([2.0, 0.0], "operator norm 2 exceeds alpha + eps = 1"),
    ([np.nan, 0.0], "operator data must be finite"),
    ([0.5, np.inf], "operator data must be finite"),
], ids=["norm", "nan", "inf"])
def test_norm_check_messages(data, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        diag_enc(data)


def test_writable_data_is_copied_and_read_only_data_kept():
    arr = np.array([0.5, -0.25])
    e = diag_enc(arr)
    arr[0] = 0.75
    assert e.data.tolist() == [0.5, -0.25] and not e.data.flags.writeable
    frozen = np.array([0.5, -0.25])
    frozen.setflags(write=False)
    assert diag_enc(frozen).data is frozen


def test_every_primitive_output_is_read_only():
    """The primitives mark what they compute read-only, so BlockEnc keeps it
    without a copy and nothing can change it afterwards."""
    e = diag_enc([0.25, -0.125, 0.0, 0.125])
    prep = be.encode_state([0.5, 0.5, 0.5, 0.5])
    outputs = [
        be.identity(4),
        be.diag_from_state(prep),
        be.shift(e),
        be.product(e, e),
        be.lcu([e, e], [1, -1]),
        be.scale_down(e, 2.0),
        be.amplify(e, 2.0),
        be.normalize_subnormalization(e, 0.5),
        be.normalize_subnormalization(e, 2.0),
        transform(e, Poly([0.0, 0.5])),
        overlap_gadget(e, prep),
        encode_grid_values(np.array([-0.375, -0.125, 0.125, 0.375])),
    ]
    for out in outputs:
        assert not out.data.flags.writeable
        with pytest.raises(ValueError):
            out.data[0] = 1.0


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


def test_shift_rolls_the_diagonal_and_keeps_the_contract():
    # S^dagger A S for S|i> = |i + 1 mod N>: entry i reads A's entry i + 1
    ledger = ResourceLedger.of(depth_units=5, products=1)
    e = BlockEnc(np.array([0.5, -0.25, 0.0, 0.125, 0.25, -0.5, 0.375, 0.0625]), alpha=2.0,
                 ancillas=3, eps=0.01, ledger=ledger)
    s = be.shift(e)
    assert s.data.tolist() == [-0.25, 0.0, 0.125, 0.25, -0.5, 0.375, 0.0625, 0.5]
    assert (s.alpha, s.ancillas, s.eps) == (e.alpha, e.ancillas, e.eps)
    # two uses of S, S and S^dagger, of log2(8) = 3 depth units each, and no query
    assert s.ledger == ledger.merged(depth_units=2 * 3)


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



def test_normalize_subnormalization_validates_one_encoding(monkeypatch):
    # the amplified encoding is built once, with its final ledger: amplify's
    # entries and the input's depth plus log2(N)
    x = np.linspace(-0.5, 0.5, 16)
    nrm = np.linalg.norm(x)
    d = be.diag_from_state(be.encode_state(x / nrm))
    want = be.amplify(d, nrm)
    built = []
    check = BlockEnc.__post_init__
    monkeypatch.setattr(BlockEnc, "__post_init__", lambda self: built.append(self) or check(self))
    e = be.normalize_subnormalization(d, nrm)
    assert len(built) == 1 and built[0] is e
    assert e.data.tobytes() == want.data.tobytes()
    assert (e.alpha, e.ancillas, e.eps) == (want.alpha, want.ancillas, want.eps)
    assert e.ledger.entries == want.ledger.entries
    assert e.ledger.depth_units == d.ledger.depth_units + 4


def test_normalize_subnormalization_keeps_the_amplify_precondition():
    d = diag_enc([0.6, 0.0])
    with pytest.raises(ValueError) as want:
        be.amplify(d, 2.0)
    with pytest.raises(ValueError) as got:
        be.normalize_subnormalization(d, 2.0)
    assert str(got.value) == str(want.value)
