import math

import numpy as np
import pytest

import qshape.blockenc as be
from qshape.blockenc import BlockEnc, ResourceLedger, StatePrep
from qshape.estimate import (
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
    assert not est.gap_flag


def test_largest_eigenvalue_gap_flag():
    cfg = EstimatorConfig(eps=0.01)
    est = largest_eigenvalue(diag_enc([0.5, 0.4999, 0.1, 0.0]), cfg)
    assert est.gap_flag


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


def test_largest_eigenvalue_noise_within_eps():
    cfg = EstimatorConfig(eps=0.005, seed=3, noise_mode="uniform")
    est = largest_eigenvalue(diag_enc([0.6, 0.1]), cfg)
    assert abs(est.value - 0.6) <= 0.005


def _prep(v):
    return StatePrep(state=np.asarray(v, dtype=float), ledger=ResourceLedger.of(depth_units=1))


def test_overlap_gadget_encodes_quarter_overlap():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.normal(size=(2, 8))
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        g = overlap_gadget(_prep(a), _prep(b))
        w = float(a @ b)
        np.testing.assert_allclose(g.data, [w / 4, -w / 4], atol=1e-12)


# Dense reference for the gadget: the joint state's 2x2 reduced density
# matrix psi^T psi stored densely, then a dense linear combination with I/2,
# with the contract and ledger of the density encoding and of lcu.


def _dense_overlap_gadget(prep1, prep2):
    n = prep1.dim
    psi = np.zeros((2, n, 2))
    psi[0, :, 0] = (prep1.state + prep2.state) / 2.0
    psi[1, :, 1] = (prep1.state - prep2.state) / 2.0
    joint = psi.reshape(-1).copy()
    rho = joint.reshape(2 * n, 2).T @ joint.reshape(2 * n, 2)
    rho_ledger = (prep1.ledger.merged(prep2.ledger)
                  .adding(depth_units=2, **{"controlled-state-prep-queries": 2})
                  .adding(depth_units=int(math.log2(4 * n)), **{"state-prep-queries": 2}))
    half = be.scale_down(be.identity(2), 2.0)
    op = sum(s * m for s, m in zip([1, -1], [rho, np.diag(half.data)])) / 2
    ledger = rho_ledger.merged(half.ledger).adding(depth_units=2, **{"lcu-combinations": 1})
    ancillas = max(int(math.log2(2 * n)), half.ancillas) + 1
    return op, 1.0, ancillas, 0.0, ledger


def _gadget_states():
    rng = np.random.default_rng(2604)
    for n in (1, 2, 4, 8, 64, 512):
        for _ in range(10):
            a, b = rng.normal(size=(2, n))
            yield a / np.linalg.norm(a), b / np.linalg.norm(b)
        a = np.zeros(n)
        a[0] = 1.0
        yield a, a
        yield a, -a
        yield a, np.roll(a, 1) if n > 1 else a
    # the Jensen pipeline's shape: prep2 is zero beyond its first half
    a = rng.normal(size=16)
    b = be.embed_state(rng.normal(size=8), 16)
    yield a / np.linalg.norm(a), b / np.linalg.norm(b)


def test_overlap_gadget_matches_dense_reference():
    for a, b in _gadget_states():
        p1 = StatePrep(state=a, ledger=ResourceLedger.of(depth_units=3, **{"x": 1}))
        p2 = StatePrep(state=b, ledger=ResourceLedger.of(depth_units=5, **{"y": 2}))
        g = overlap_gadget(p1, p2)
        op, alpha, ancillas, eps, ledger = _dense_overlap_gadget(p1, p2)
        assert op[0, 1] == 0.0 and op[1, 0] == 0.0
        assert g.data.tobytes() == np.diagonal(op).tobytes()
        assert (g.alpha, g.ancillas, g.eps, g.ledger) == (alpha, ancillas, eps, ledger)


def test_overlap_gadget_dimension_mismatch():
    with pytest.raises(ValueError):
        overlap_gadget(_prep([1.0, 0.0]), _prep([1.0, 0.0, 0.0, 0.0]))


def test_amplitude_estimate_reads_first_entry():
    cfg = EstimatorConfig(eps=0.01)
    e = diag_enc([0.3, 0.1])
    a = amplitude_estimate(e, cfg, eps=cfg.eps)
    assert a.value == pytest.approx(0.3)
    assert a.ledger.count("amplitude-estimation-queries") == 100


def test_amplitude_estimate_eps_override():
    cfg = EstimatorConfig(eps=0.01, seed=1, noise_mode="uniform")
    a = amplitude_estimate(diag_enc([0.3, 0.1]), cfg, salt=9, eps=0.001)
    assert abs(a.value - 0.3) <= 0.001
    assert a.ledger.count("amplitude-estimation-queries") == 1000
