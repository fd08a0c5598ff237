import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qshape.blockenc as be
from qshape.blockenc import BlockEnc
from qshape.poly import Bounds, Poly
from qshape.qsvt import build_M_family, transform


def diag_enc(values, alpha=1.0, eps=0.0):
    return BlockEnc(np.asarray(values, dtype=float), alpha=alpha, ancillas=0, eps=eps)


def test_transform_applies_polynomial_to_eigenvalues():
    e = diag_enc([0.5, -0.25, 0.0, 0.125])
    p = Poly([0.0, 0.0, 0.5])  # x^2 / 2
    t = transform(e, p)
    np.testing.assert_allclose(t.data, p(e.data), atol=1e-14)
    assert t.alpha == 1.0
    assert t.ancillas == e.ancillas + 2


def test_transform_respects_subnormalization():
    e = diag_enc([1.0, -0.5], alpha=2.0)
    t = transform(e, Poly([0.0, 0.5]))  # x/2 applied to A/alpha
    np.testing.assert_allclose(t.data, [0.25, -0.125])


def test_transform_query_count_equals_degree():
    e = diag_enc([0.25, -0.25])
    for d in range(1, 11):
        p = Poly([0.0] * d + [0.5 * 0.5**d])  # sup-norm safe monomial
        t = transform(e, p)
        assert t.ledger.count("base-encoding-queries") == d
        assert t.ledger.count("controlled-base-encoding-queries") == 1


def test_transform_error_bound_formula():
    e = diag_enc([0.25, -0.25], alpha=2.0, eps=1e-4)
    p = Poly([0.0, 0.0, 0.0, 0.5])
    t = transform(e, p)
    assert t.eps == pytest.approx(4 * 3 * np.sqrt(1e-4 / 2.0))


def test_transform_rejects_large_polynomial():
    with pytest.raises(ValueError):
        transform(diag_enc([0.5, 0.5]), Poly([0.0, 1.0]))  # sup |x| = 1 > 1/2


def test_transform_rejects_non_hermitian():
    # a complex diagonal is not Hermitian; it cannot even be encoded
    with pytest.raises(ValueError, match="must be real"):
        transform(BlockEnc(np.array([0.25j, 0.0]), alpha=1.0, ancillas=0, eps=0.0), Poly([0.0, 0.25]))


@given(st.lists(st.floats(min_value=-0.5, max_value=0.5, allow_nan=False), min_size=4, max_size=4),
       st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_family_entries_match_direct_evaluation(xs, coeffs):
    f = Poly(coeffs)
    xs = np.asarray(xs)
    bounds = Bounds.from_poly(f)
    fam = build_M_family(f, diag_enc(xs), bounds)
    np.testing.assert_allclose(fam.M.data, f(xs) / bounds.f_sup, atol=1e-10)
    np.testing.assert_allclose(fam.M1.data, f.derivative()(xs) / bounds.d1_sup, atol=1e-10)
    np.testing.assert_allclose(fam.M2.data, f.derivative(2)(xs) / bounds.d2_sup, atol=1e-10)


def test_family_degenerate_flag():
    fam = build_M_family(Poly([0.0, 0.5]), diag_enc([0.25, -0.25]), Bounds.from_poly(Poly([0.0, 0.5])))
    np.testing.assert_allclose(fam.M2.data, [0.0, 0.0])


def test_family_requires_normalized_grid():
    with pytest.raises(ValueError):
        build_M_family(Poly([0, 0, 1]), diag_enc([0.5, 0.5], alpha=2.0), Bounds.from_poly(Poly([0, 0, 1])))
