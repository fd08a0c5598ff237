import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qshape.blockenc as be
from qshape.blockenc import BlockEnc
from qshape.poly import Bounds, Poly, certified_sup
from qshape.qsvt import _scaled_sup, build_M_family, transform


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


# -- the scaled path: transform(e, f, s) encodes f.scaled(s), certified from f's sup

SCALED_ENC = diag_enc(np.linspace(-1.0, 1.0, 8), eps=1e-6)
# Chebyshev T_30 in monomials: sup 1 on [-1, 1], but a coefficient sum of
# about 1.5e11, 193 times its certified sup
T30 = Poly(np.polynomial.chebyshev.cheb2poly([0] * 30 + [1]))


def assert_same_encoding(a, b):
    assert a.data.tobytes() == b.data.tobytes()
    assert (a.alpha, a.ancillas, a.eps.hex()) == (b.alpha, b.ancillas, b.eps.hex())
    assert (a.ledger.entries, a.ledger.depth_units) == (b.ledger.entries, b.ledger.depth_units)


def true_sup_on_points(p: Poly, m: int = 100_001) -> float:
    """max |p| over m equispaced points of [-1, 1], by Horner's rule in
    extended precision, so the rounding of the evaluation does not count."""
    xs = np.linspace(-1, 1, m, dtype=np.longdouble)
    out = np.zeros(m, dtype=np.longdouble)
    for a in p.coeffs[::-1]:
        out = out * xs + np.longdouble(a)
    return float(np.abs(out).max())


def check_scaled(f: Poly, s: float):
    """The same encoding either way, through a bound at least the sampled
    sup; at the callers' least scale, 2 certified_sup(f), the bound stays
    within (1 + 1e-12)/2, since sum |c_k| <= 4096 certified_sup(f)."""
    assert_same_encoding(transform(SCALED_ENC, f, s), transform(SCALED_ENC, f.scaled(s)))
    assert _scaled_sup(f, s) >= true_sup_on_points(f.scaled(s))
    sup = certified_sup(f)
    if sup > 0.0:
        assert _scaled_sup(f, 2.0 * sup) <= 0.5 * (1.0 + 1e-12)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=31),
       st.floats(min_value=1.0, max_value=1e6))
@settings(max_examples=60, deadline=None)
def test_scaled_transform_is_the_transform_of_the_scaled_polynomial(coeffs, factor):
    f = Poly(coeffs)
    check_scaled(f, max(2.0 * certified_sup(f) * factor, 1e-300))


@pytest.mark.parametrize("f", [
    Poly([0.1, 0.05]),  # f_sup takes Bounds' floor 1.0
    Poly([0.0, 1e-302]),  # d1_sup takes the floor 1e-300
    Poly([0.3]),  # f' = 0 and f'' = 0, both at the floor 1e-300
    T30,
], ids=["floor-1", "floor-1e-300", "zero-derivatives", "T30"])
def test_scaled_transform_at_the_bounds_callers_pass(f):
    b = Bounds.from_poly(f)
    for p, s in ((f, b.f_sup), (f.derivative(), b.d1_sup), (f.derivative(2), b.d2_sup)):
        check_scaled(p, s)
        if s == 1.0:  # the scaled polynomial is f itself, certified by its own sup
            assert _scaled_sup(p, s) == certified_sup(p)


def test_scaled_transform_refuses_a_scale_too_small():
    f = Poly([0.1, -0.4, 0.3])
    message = r"polynomial sup-norm precondition violated: certified sup .* > 1/2"
    for s in (certified_sup(f), 1.5 * certified_sup(f)):
        with pytest.raises(ValueError, match=message):
            transform(SCALED_ENC, f, s)
        with pytest.raises(ValueError, match=message):
            transform(SCALED_ENC, f.scaled(s))
