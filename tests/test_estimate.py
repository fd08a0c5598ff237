import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qshape.blockenc as be
from qshape.blockenc import BlockEnc, ResourceLedger, StatePrep
from qshape.estimate import (
    GADGET_FACTOR,
    EstimatorConfig,
    amplitude_estimate,
    largest_eigenvalue,
    overlap_gadget,
)


def diag_enc(values, alpha=1.0, eps=0.0, depth=1):
    return BlockEnc(np.asarray(values, dtype=float), alpha=alpha, ancillas=0, eps=eps,
                    ledger=ResourceLedger.of(depth_units=depth))


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(eps=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(noise_mode="gaussian")


def test_exact_mode_draws_zero():
    assert EstimatorConfig(noise_mode="exact").draw(7) == 0.0


def test_uniform_noise_is_seeded_and_bounded():
    cfg = EstimatorConfig(eps=0.01, seed=5, noise_mode="uniform")
    d1, d2 = cfg.draw(1), cfg.draw(1)
    assert d1 == d2  # same seed and salt
    assert cfg.draw(2) != d1  # different salt
    assert abs(d1) <= 0.01
    assert EstimatorConfig(eps=0.01, seed=6, noise_mode="uniform").draw(1) != d1


def test_largest_eigenvalue_exact_diagonal():
    cfg = EstimatorConfig(eps=0.01)
    est = largest_eigenvalue(diag_enc([0.1, 0.7, 0.3, 0.0]), cfg)
    assert est.value == pytest.approx(0.7)


@st.composite
def _diagonals(draw):
    """A diagonal of 1 ... 512 entries, some below zero, and an eps."""
    n = 1 << draw(st.integers(0, 9))
    values = draw(st.lists(st.floats(-0.05, 1.0), min_size=n, max_size=n))
    return np.array(values), draw(st.sampled_from([0.0, 1e-9, 0.01, 0.05]))


@settings(max_examples=80, deadline=None)
@given(_diagonals())
# just inside and just outside the PSD tolerance
@example((np.array([0.5, -(1e-9 + 0.01)]), 0.01))
@example((np.array([0.5, math.nextafter(-(1e-9 + 0.01), -1.0)]), 0.01))
def test_largest_eigenvalue_is_the_diagonal_max(case):
    data, eps = case
    e = diag_enc(data, eps=eps)
    if data.min() < -(1e-9 + eps):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            largest_eigenvalue(e, EstimatorConfig())
    else:
        assert largest_eigenvalue(e, EstimatorConfig()).value == data.max()


def test_largest_eigenvalue_rejects_indefinite():
    with pytest.raises(ValueError):
        largest_eigenvalue(diag_enc([0.5, -0.5]), EstimatorConfig(eps=0.01))


def test_largest_eigenvalue_ledger_cost():
    e = diag_enc([0.5, 0.25], depth=7)
    cfg = EstimatorConfig(eps=0.01)
    est = largest_eigenvalue(e, cfg)
    expected = math.ceil(7 * (1 / 0.01) * (1 + math.log2(1 / 0.01)))
    assert est.ledger.depth_units == 7 + expected
    assert est.ledger.count("eigenvalue-estimation-queries") > 0


@pytest.mark.parametrize("estimate", [
    lambda: largest_eigenvalue(diag_enc([0.5, 0.25]), EstimatorConfig(eps=1e-308)),
    # the query count fits, but the depth scaled by it does not
    lambda: largest_eigenvalue(diag_enc([0.5, 0.25], depth=10**300), EstimatorConfig(eps=1e-10)),
    # accuracies eps/scale of 5e-324, 0, inf and NaN
    *(lambda eps=eps, scale=scale: amplitude_estimate(diag_enc([0.3, 0.1]), EstimatorConfig(eps=eps), scale)
      for eps, scale in ((5e-324, 1.0), (0.01, math.inf), (0.01, 5e-324), (0.01, math.nan))),
], ids=["eigenvalue-queries", "eigenvalue-depth", "amplitude-subnormal", "amplitude-zero",
        "amplitude-inf", "amplitude-nan"])
def test_estimators_reject_an_accuracy_a_float_cannot_count(estimate):
    with pytest.raises(ValueError, match="eps = "):
        estimate()


def test_uniform_noise_rejects_an_eps_whose_range_overflows():
    # numpy draws from [-eps, eps] only while its width 2 eps is finite
    half_max = sys.float_info.max / 2.0
    for eps in (half_max, math.nextafter(half_max, math.inf), 1e308):
        cfg = EstimatorConfig(eps=eps, seed=3, noise_mode="uniform")
        assert EstimatorConfig(eps=eps).draw(11) == 0.0
        if eps == half_max:
            assert abs(cfg.draw(11)) <= eps
            continue
        with pytest.raises(ValueError) as err:
            cfg.draw(11)
        assert str(err.value) == (f"eps = {eps:.6g} is too large for uniform noise: "
                                  "the draw's range 2 eps overflows")
        with pytest.raises(ValueError, match="eps = "):
            largest_eigenvalue(diag_enc([0.5, 0.25]), cfg)
        with pytest.raises(ValueError, match="eps = "):
            amplitude_estimate(diag_enc([0.5, 0.25]), cfg, 1.0)


def test_largest_eigenvalue_noise_within_eps():
    cfg = EstimatorConfig(eps=0.005, seed=3, noise_mode="uniform")
    est = largest_eigenvalue(diag_enc([0.6, 0.1]), cfg)
    assert abs(est.value - 0.6) <= 0.005


def _prep(v):
    return StatePrep(state=np.asarray(v, dtype=float), ledger=ResourceLedger.of(depth_units=1))


def test_overlap_gadget_encodes_quarter_overlap():
    rng = np.random.default_rng(2)
    for _ in range(20):
        alpha = float(rng.uniform(0.5, 3.0))
        e = diag_enc(alpha * rng.uniform(-1.0, 1.0, 8), alpha=alpha)
        v = rng.normal(size=8)
        v /= np.linalg.norm(v)
        g = overlap_gadget(e, _prep(v))
        w = float(v @ (e.data / alpha * v))
        np.testing.assert_allclose(g.data, [GADGET_FACTOR * w, -GADGET_FACTOR * w], atol=1e-12)


# Reference for the gadget, as its callers ran it before it took the
# encoding: the encoding's unitary dilation applied to |0>|phi> with one
# base-encoding query charged, |phi> zero-padded to 2N, and the two-state
# gadget on those, whose 2x2 reduced density matrix psi^T psi is stored
# densely and combined densely with I/2, with the contract and ledger of
# the density encoding and of lcu.


def _reference_dilation(e, v):
    a = e.data / e.alpha
    top = a * v
    rest = np.sqrt(np.clip(1.0 - np.abs(a) ** 2, 0.0, None)) * v
    return np.concatenate([top, rest])


def _reference_two_states(e, prep):
    applied = StatePrep(state=_reference_dilation(e, prep.state),
                        ledger=e.ledger.merged(prep.ledger).merged(
                            ResourceLedger.of(**{"base-encoding-queries": 1})))
    padded = np.zeros(2 * prep.dim)
    padded[: prep.dim] = prep.state
    return applied, StatePrep(state=padded, ledger=prep.ledger)


def _dense_overlap_gadget(prep1, prep2, w_eps):
    """The gadget of two states whose overlap w is known to +-w_eps: the
    density matrix holds (1 +- w)/2, so it is stated at w_eps/2, and lcu
    passes the mean of its inputs' eps on, w_eps/4 beside the exact I/2."""
    n = prep1.dim
    psi = np.zeros((2, n, 2))
    psi[0, :, 0] = (prep1.state + prep2.state) / 2.0
    psi[1, :, 1] = (prep1.state - prep2.state) / 2.0
    joint = psi.reshape(-1).copy()
    rho = joint.reshape(2 * n, 2).T @ joint.reshape(2 * n, 2)
    rho_ledger = (prep1.ledger.merged(prep2.ledger)
                  .merged(ResourceLedger.of(depth_units=2, **{"controlled-state-prep-queries": 2}))
                  .merged(ResourceLedger.of(depth_units=int(math.log2(4 * n)), **{"state-prep-queries": 2})))
    half = be.scale_down(be.identity(2), 2.0)
    op = sum(s * m for s, m in zip([1, -1], [rho, np.diag(half.data)])) / 2
    ledger = rho_ledger.merged(half.ledger).merged(ResourceLedger.of(depth_units=2, **{"lcu-combinations": 1}))
    ancillas = max(int(math.log2(2 * n)), half.ancillas) + 1
    return op, 1.0, ancillas, (w_eps / 2.0 + half.eps) / 2.0, ledger


def _gadget_cases():
    """Encodings of alpha 1 and not, with eps 0 and > 0, entries at +-alpha,
    and A = +alpha I, -alpha I and 0, whose two states are equal, opposite
    and orthogonal; unit states random, basis vectors and zero beyond their
    first half; for N = 1 ... 512."""
    rng = np.random.default_rng(2604)
    for n in (1, 2, 4, 8, 64, 512):
        for i in range(12):
            alpha = 1.0 if i % 3 == 0 else float(rng.uniform(0.1, 4.0))
            eps = 0.0 if i % 2 == 0 else float(rng.uniform(1e-6, 0.1))
            data = alpha * rng.uniform(-1.0, 1.0, n)
            if i == 4:
                data[0] = alpha
            if i == 5:
                data[-1] = -alpha
            if i in (8, 9, 10):
                data = np.full(n, (alpha, -alpha, 0.0)[i - 8])
            e = BlockEnc(data, alpha=alpha, ancillas=int(rng.integers(0, 4)), eps=eps,
                         ledger=ResourceLedger.of(depth_units=int(rng.integers(0, 9)), **{"x": 1}))
            v = rng.normal(size=n)
            if i == 6 and n > 1:
                v[n // 2:] = 0.0
            if i == 7:
                v = np.zeros(n)
                v[n - 1] = 1.0
            yield e, StatePrep(state=v / np.linalg.norm(v),
                               ledger=ResourceLedger.of(depth_units=3, **{"y": 2}))


def test_overlap_gadget_matches_dense_reference():
    for e, prep in _gadget_cases():
        g = overlap_gadget(e, prep)
        applied, padded = _reference_two_states(e, prep)
        assert np.linalg.norm(applied.state) == pytest.approx(1.0, abs=1e-12)
        op, alpha, ancillas, eps, ledger = _dense_overlap_gadget(applied, padded, e.eps / e.alpha)
        assert op[0, 1] == 0.0 and op[1, 0] == 0.0
        assert g.data.tobytes() == np.diagonal(op).tobytes()
        assert (g.alpha, g.ancillas, g.eps, g.ledger) == (alpha, ancillas, eps, ledger)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.0, 1.0))
# an input entry between alpha and alpha + eps: the dilation must not
# read it as above 1
@example(seed=16527, frac=1.0)
def test_overlap_gadget_eps_covers_an_input_off_by_its_eps(seed, frac):
    """Each entry of the gadget of any A whose entries are within e.eps of
    e's moves by at most the eps the gadget of e states."""
    rng = np.random.default_rng(seed)
    cases = list(_gadget_cases())
    e, prep = cases[int(rng.integers(len(cases)))]
    delta = e.eps * frac * rng.choice([-1.0, 1.0], size=e.dim) * rng.uniform(0.0, 1.0, e.dim)
    delta[int(rng.integers(e.dim))] = e.eps * frac * rng.choice([-1.0, 1.0])
    off = BlockEnc(e.data + delta, alpha=e.alpha, ancillas=e.ancillas, eps=e.eps)
    g, g_off = overlap_gadget(e, prep), overlap_gadget(off, prep)
    assert np.max(np.abs(g_off.data - g.data)) <= g.eps + 1e-12


def test_overlap_gadget_validates_two_encodings(built_encodings):
    # the density matrix and the combination; the subtracted I/2 is built
    # once, on import
    e, prep = next(_gadget_cases())
    built_encodings.clear()
    g = overlap_gadget(e, prep)
    assert len(built_encodings) == 2 and built_encodings[-1] is g


def test_overlap_gadget_dimension_mismatch():
    with pytest.raises(ValueError):
        overlap_gadget(diag_enc([0.5, 0.0]), _prep([1.0, 0.0, 0.0, 0.0]))


def test_amplitude_estimate_reads_first_entry():
    cfg = EstimatorConfig(eps=0.01)
    e = diag_enc([0.3, 0.1])
    a = amplitude_estimate(e, cfg, 1.0)
    assert a.value == pytest.approx(0.3)
    assert a.ledger.count("amplitude-estimation-queries") == 100


def test_amplitude_estimate_eps_override():
    cfg = EstimatorConfig(eps=0.01, seed=1, noise_mode="uniform")
    a = amplitude_estimate(diag_enc([0.3, 0.1]), cfg, 10.0, salt=9)
    assert abs(a.value - 0.3) <= 0.001
    assert a.ledger.count("amplitude-estimation-queries") == 1000
