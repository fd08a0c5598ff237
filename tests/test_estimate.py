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


def test_largest_eigenvalue_dense_matches_eigvalsh():
    rng = np.random.default_rng(4)
    cfg = EstimatorConfig(eps=0.01)
    for _ in range(5):
        a = rng.normal(size=(8, 8))
        m = a @ a.T
        m /= 1.01 * np.linalg.norm(m, 2)
        w = np.linalg.eigvalsh(m)
        est = largest_eigenvalue(BlockEnc(m, alpha=1.0, ancillas=0, eps=0.0), cfg)
        assert est.value == pytest.approx(w[-1], abs=1e-12)
        assert est.gap_flag == bool(w[-1] - w[-2] < 0.01)


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
        np.testing.assert_allclose(np.diagonal(g.op), [w / 4, -w / 4], atol=1e-12)
        assert np.max(np.abs(g.op - np.diag(np.diagonal(g.op)))) < 1e-12


def test_overlap_gadget_dimension_mismatch():
    with pytest.raises(ValueError):
        overlap_gadget(_prep([1.0, 0.0]), _prep([1.0, 0.0, 0.0, 0.0]))


def test_amplitude_estimate_reads_first_entry():
    cfg = EstimatorConfig(eps=0.01)
    e = diag_enc([0.3, 0.1])
    a = amplitude_estimate(e, cfg)
    assert a.value == pytest.approx(0.3)
    assert a.ledger.count("amplitude-estimation-queries") == 100


def test_amplitude_estimate_eps_override():
    cfg = EstimatorConfig(eps=0.01, seed=1, noise_mode="uniform")
    a = amplitude_estimate(diag_enc([0.3, 0.1]), cfg, salt=9, eps=0.001)
    assert abs(a.value - 0.3) <= 0.001
    assert a.ledger.count("amplitude-estimation-queries") == 1000
