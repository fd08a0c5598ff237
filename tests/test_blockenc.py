import dataclasses
import itertools
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


def test_lcu_weights_each_term_and_normalizes_by_their_magnitudes():
    e1 = diag_enc([0.5, 0.25], eps=0.04, alpha=1.0)
    e2 = diag_enc([0.25, -0.5], eps=0.01, alpha=1.0)
    c = be.lcu([e1, e2], [3.0, -1.0])
    assert c.data.tobytes() == ((3.0 * e1.data - e2.data) / 4.0).tobytes()
    assert (c.alpha, c.bound) == (1.0, (3.0 * 0.5 + 0.5) / 4.0)
    # the mean of the inputs' eps under the weights |c_i| / s, not the larger
    assert c.eps == pytest.approx((3.0 * 0.04 + 0.01) / 4.0)
    # unequal magnitudes prepare the weight state and unprepare it: two
    # preparations on ceil(log2 2) = 1 index qubit, on top of the m = 2
    # depth units of the combination
    assert c.ledger == ResourceLedger.of(depth_units=2 + 2, **{"lcu-combinations": 1, "state-prep-queries": 2})
    # equal magnitudes are Hadamards, charged as before
    h = be.lcu([e1, e2, e1], [-0.5, 0.5, 0.5])
    assert h.ledger == ResourceLedger.of(depth_units=3, **{"lcu-combinations": 1})
    assert h.data.tobytes() == ((-0.5 * e1.data + 0.5 * e2.data + 0.5 * e1.data) / 1.5).tobytes()


@pytest.mark.parametrize("weights, message", [
    ([1.0, 0.0], "lcu weights must be nonzero and finite"),
    ([1.0, -0.0], "lcu weights must be nonzero and finite"),
    ([math.nan, 1.0], "lcu weights must be nonzero and finite"),
    ([1.0, math.inf], "lcu weights must be nonzero and finite"),
    ([-math.inf, 1.0], "lcu weights must be nonzero and finite"),
    ([1.0], "lcu takes one weight per encoding: 1 weights for 2 encodings"),
    ([1.0, 1.0, 1.0], "lcu takes one weight per encoding: 3 weights for 2 encodings"),
    ([1e308, -1e308], "lcu weights overflow: their sum of magnitudes is not finite"),
], ids=["zero", "negative-zero", "nan", "inf", "minus-inf", "too-few", "too-many", "overflow"])
def test_lcu_refuses_bad_weights(weights, message):
    es = [diag_enc([0.5, 0.25]), diag_enc([0.25, 0.5])]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        be.lcu(es, weights)


def test_lcu_keeps_a_fractional_weight():
    # a weight of 1.7 is 1.7, not the sign it was once truncated to
    e1, e2 = diag_enc([0.5, 0.25]), diag_enc([0.25, 0.5])
    assert be.lcu([e1, e2], [1.7, -1]).data.tobytes() != be.lcu([e1, e2], [1, -1]).data.tobytes()
    assert be.lcu([e1, e2], [1.7, -1]).data.tobytes() == ((1.7 * e1.data - e2.data) / 2.7).tobytes()


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



def test_normalize_subnormalization_validates_one_encoding(built_encodings):
    # the amplified encoding is built once, with its final ledger: amplify's
    # entries and the input's depth plus log2(N)
    x = np.linspace(-0.5, 0.5, 16)
    nrm = np.linalg.norm(x)
    d = be.diag_from_state(be.encode_state(x / nrm))
    want = be.amplify(d, nrm)
    built_encodings.clear()
    e = be.normalize_subnormalization(d, nrm)
    assert len(built_encodings) == 1 and built_encodings[0] is e
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


# -- the primitives' checks through propagated bounds ---------------------
#
# Each primitive checks its output through the bound it propagates from its
# inputs, and reads the data only when that bound does not show the norm.
# The references below build the same fields through the constructor's full
# check, as every primitive did before.

_ALPHAS = st.sampled_from([1.0, 0.5, 3.0, 1e-300, 1e300])
_EPSILONS = st.sampled_from([0.0, 0.05, 1e-9, 0.3, 1e300])


@st.composite
def encodings(draw, dim=None, alpha=None, scale=1.0):
    """A checked encoding whose entries include +-(alpha + eps), +-alpha and
    signed zeros; ``scale`` shrinks every entry."""
    dim = 2 ** draw(st.integers(0, 3)) if dim is None else dim
    alpha = draw(_ALPHAS) if alpha is None else alpha
    eps = draw(_EPSILONS)
    top = alpha + eps
    entry = st.one_of(st.sampled_from([top, -top, alpha, -alpha, 0.0, -0.0]),
                      st.floats(-1.0, 1.0).map(lambda u: u * top))
    data = np.array(draw(st.lists(entry, min_size=dim, max_size=dim))) * scale
    return BlockEnc(data, alpha=alpha, ancillas=draw(st.integers(0, 3)), eps=eps, ledger=draw(_LEDGERS))


def _outcome(build):
    # an overflow warning, which the suite turns into an error, counts too
    try:
        return build()
    except (ValueError, RuntimeWarning) as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_checked_alike(lean, reference):
    """The primitive accepts exactly when the constructor's full check of the
    same fields does, with the same fields, or raises the same message."""
    got, want = _outcome(lean), _outcome(reference)
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, BlockEnc), got
    assert got.data.tobytes() == want.data.tobytes()
    assert (got.alpha, got.ancillas, got.eps, got.ledger) == (want.alpha, want.ancillas, want.eps, want.ledger)
    assert got.bound >= float(np.abs(got.data).max())
    assert not got.data.flags.writeable


def _reference_product(e1, e2):
    if e1.dim != e2.dim:
        raise ValueError(f"dimension mismatch: {e1.dim} vs {e2.dim}")
    return BlockEnc(e1.data * e2.data, alpha=e1.alpha * e2.alpha, ancillas=e1.ancillas + e2.ancillas,
                    eps=e1.alpha * e2.eps + e2.alpha * e1.eps, ledger=e1.ledger.merged(e2.ledger, products=1))


def _reference_chain(*es):
    out = es[0]
    for e in es[1:]:
        out = _reference_product(out, e)
    return out


def _reference_lcu(es, weights):
    m, s = len(es), math.fsum(abs(c) for c in weights)
    prep = 0 if len({abs(c) for c in weights}) == 1 else 2
    ledger = es[0].ledger.merged(*(e.ledger for e in es[1:]), depth_units=m + prep * (m - 1).bit_length(),
                                 **{"lcu-combinations": 1, "state-prep-queries": prep})
    return BlockEnc(sum(c * e.data for c, e in zip(weights, es)) / s, alpha=es[0].alpha,
                    ancillas=max(e.ancillas for e in es) + max(1, (m - 1).bit_length()),
                    eps=sum(abs(c) / s * e.eps for c, e in zip(weights, es)), ledger=ledger)


@given(encodings())
@settings(max_examples=100, deadline=None)
def test_shift_is_checked_as_the_constructor_checks(e):
    ledger = e.ledger.merged(depth_units=2 * int(math.log2(e.dim)))
    assert_checked_alike(lambda: be.shift(e),
                         lambda: BlockEnc(np.roll(e.data, -1), e.alpha, e.ancillas, e.eps, ledger))


@given(st.data(), st.integers(0, 3), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_product_is_the_binary_chain(data, k, count):
    es = [data.draw(encodings(dim=2**k)) for _ in range(count)]
    assert_checked_alike(lambda: be.product(*es), lambda: _reference_chain(*es))


_OVER = BlockEnc(np.array([1.05, 0.0]), alpha=1.0, ancillas=0, eps=0.05)
_OVER_SWAPPED = BlockEnc(np.array([0.0, 1.05]), alpha=1.0, ancillas=0, eps=0.05)


@pytest.mark.parametrize("factors, message", [
    # (alpha + eps)^2 exceeds alpha^2 + 2 alpha eps, which the contract states
    ((_OVER, _OVER), "operator norm 1.1025 exceeds alpha + eps = 1.1"),
    ((_OVER, _OVER, _OVER), "operator norm 1.1025 exceeds alpha + eps = 1.1"),
    # the bound 1.1025 does not show the norm, but the data, all zero, does
    ((_OVER, _OVER_SWAPPED), None),
    ((_OVER, _OVER_SWAPPED, _OVER), None),
    ((_OVER, _OVER, _OVER_SWAPPED), "operator norm 1.1025 exceeds alpha + eps = 1.1"),
    ((_OVER, BlockEnc(np.zeros(4), alpha=1.0, ancillas=0, eps=0.0)), "dimension mismatch: 2 vs 4"),
], ids=["two", "three", "two-exact", "three-exact", "partial", "dims"])
def test_product_raises_where_the_chain_raises(factors, message):
    assert_checked_alike(lambda: be.product(*factors), lambda: _reference_chain(*factors))
    if message is None:
        assert be.product(*factors).bound == 0.0
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            be.product(*factors)


def test_an_overflowing_alpha_plus_eps_still_reads_the_data():
    # alpha + eps is inf, so only the data can show NaN
    big = dict(alpha=1e308, ancillas=0, eps=1e308)
    with pytest.raises(ValueError, match="^operator data must be finite$"):
        BlockEnc(np.array([np.nan, 0.0]), **big)
    top = BlockEnc(np.array([np.inf, 0.0]), **big)  # inf <= inf: accepted, as ever
    assert_checked_alike(lambda: be.lcu([top, top], [1, -1]),
                         lambda: _reference_lcu([top, top], [1, -1]))
    assert_checked_alike(lambda: be.scale_down(top, 2.0),
                         lambda: BlockEnc(top.data / 2.0, top.alpha, 1, top.eps / 2.0,
                                          top.ledger.merged(depth_units=1, scalings=1)))


def test_product_of_one_factor_is_the_factor():
    assert be.product(_OVER) is _OVER
    with pytest.raises(ValueError):
        be.product()


_WEIGHTS = st.one_of(st.sampled_from([1, -1, 1e-300, -1e300]),
                    st.floats(-4.0, 4.0).filter(lambda c: c != 0.0))


@given(st.data(), st.integers(0, 3), st.lists(_WEIGHTS, min_size=1, max_size=5), _ALPHAS)
@settings(max_examples=300, deadline=None)
def test_lcu_is_checked_as_the_constructor_checks(data, k, weights, alpha):
    es = [data.draw(encodings(dim=2**k, alpha=alpha)) for _ in weights]
    assert_checked_alike(lambda: be.lcu(es, weights), lambda: _reference_lcu(es, weights))


@given(st.data(), st.integers(0, 3), st.lists(_WEIGHTS.filter(lambda c: 1e-3 < abs(c) < 1e3),
                                              min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_lcu_eps_covers_inputs_off_by_their_eps(data, k, weights):
    """Inputs moved by at most their eps move the combination by at most
    its stated eps, and by exactly that much where every input moves by its
    whole eps in its weight's direction."""
    unit = st.lists(st.floats(-1.0, 1.0), min_size=2**k, max_size=2**k).map(np.array)
    es = [diag_enc(data.draw(unit), eps=data.draw(st.sampled_from([0.0, 1e-9, 0.05, 0.3])))
          for _ in weights]
    fracs = [data.draw(unit) for _ in weights]
    out = be.lcu(es, weights)
    for moves in (fracs, [np.full(2**k, math.copysign(1.0, c)) for c in weights]):
        off = [dataclasses.replace(e, data=e.data + u * e.eps) for e, u in zip(es, moves)]
        moved = float(np.max(np.abs(be.lcu(off, weights).data - out.data)))
        assert moved <= out.eps + 1e-12
    assert moved == pytest.approx(out.eps, abs=1e-12)


def test_lcu_sums_signed_zeros_as_sum_from_zero():
    # 0 + (-0.0) is 0.0, and a first -1 sign negates: the bytes of sum(s*d)/m
    zeros = diag_enc([-0.0, 0.0, -0.0, 0.25])
    other = diag_enc([-0.0, -0.0, 0.0, -0.0])
    for es in ([zeros], [zeros, other], [other, zeros, other]):
        for signs in itertools.product([1, -1], repeat=len(es)):
            got = be.lcu(es, signs).data
            assert got.tobytes() == (sum(s * e.data for s, e in zip(signs, es)) / len(es)).tobytes()


@given(encodings(), st.sampled_from([1.0000001, 1.5, 2.0, 1e10, 1e300]))
@settings(max_examples=100, deadline=None)
def test_scale_down_is_checked_as_the_constructor_checks(e, p):
    ledger = e.ledger.merged(depth_units=1, scalings=1)
    assert_checked_alike(lambda: be.scale_down(e, p),
                         lambda: BlockEnc(e.data / p, e.alpha, e.ancillas + 1, e.eps / p, ledger))


@given(st.sampled_from([1.0, 0.5, 0.1, 0.01]).flatmap(lambda s: encodings(scale=s)),
       st.floats(1.0001, 8.0))
@settings(max_examples=100, deadline=None)
def test_amplify_is_checked_as_the_constructor_checks(e, gamma):
    smax = float(np.abs(e.data).max()) / e.alpha
    m = be.amplification_uses(gamma)
    ledger = e.ledger.merged(depth_units=m, **{"amplification-uses": m})
    eps = gamma * e.eps + gamma * (smax * e.alpha) * 1e-6

    def reference():
        if smax > 0.75 / gamma + 1e-12:
            be.amplify(e, gamma)  # raises the precondition's message
        return BlockEnc(gamma * e.data, e.alpha, e.ancillas + 1, eps, ledger)

    assert_checked_alike(lambda: be.amplify(e, gamma), reference)


# polynomials whose certified sup is exactly 1/2 (or 0): an end reaches the
# coefficient sum
@given(encodings(), st.sampled_from([Poly([0.0, 0.5]), Poly([0.5]), Poly([0.25, 0.0, -0.25]),
                                     Poly([0.0, 0.25, 0.0, 0.25]), Poly([-0.0])]))
@settings(max_examples=100, deadline=None)
def test_transform_is_checked_as_the_constructor_checks(e, p):
    d = p.degree
    ledger = e.ledger.merged(depth_units=d * (e.ancillas + 1),
                             **{"base-encoding-queries": d, "controlled-base-encoding-queries": 1})

    def reference():  # in transform's order, so that the same warning comes first
        data = p(e.data / e.alpha)
        eps = 4.0 * d * np.sqrt(e.eps / e.alpha) if e.eps > 0 else 0.0
        return BlockEnc(data, 1.0, e.ancillas + 2, eps, ledger)

    assert_checked_alike(lambda: transform(e, p), reference)


def test_identity_is_checked_as_the_constructor_checks():
    for n in (1, 2, 8, 3, 6):
        assert_checked_alike(lambda: be.identity(n),
                             lambda: BlockEnc(np.ones(n), alpha=1.0, ancillas=0, eps=0.0))


def test_the_constructor_bound_is_the_exact_maximum():
    e = diag_enc([0.25, -0.5, -0.0, 0.125])
    assert e.bound == 0.5
    # a primitive passes its inputs' bounds on without reading its data,
    # whose maximum here is 0.25
    assert be.product(e, diag_enc([1.0, 0.0, 0.0, 0.0])).bound == 0.5
    # the bound is not an argument, and encodings do not compare by it
    bound = {f.name: f for f in dataclasses.fields(BlockEnc)}["bound"]
    assert not bound.init and not bound.compare
