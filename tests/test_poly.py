import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshape.poly import (
    Bounds,
    MultiPoly,
    Poly,
    certified_sup,
    poly_from_json,
    poly_to_json,
    _sup_univariate,
    remap_domain,
)

coeff_lists = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=1, max_size=7
)


def test_eval_and_degree():
    p = Poly([1.0, -2.0, 0.0, 1.0])  # 1 - 2x + x^3
    assert p.degree == 3
    assert p(2.0) == pytest.approx(1 - 4 + 8)
    np.testing.assert_allclose(p(np.array([0.0, 1.0])), [1.0, 0.0])


def test_trailing_zeros_trimmed():
    assert Poly([1.0, 0.0, 0.0]).degree == 0
    assert Poly([0.0]).coeffs == (0.0,)


def test_derivative_coefficients():
    p = Poly([0.0, 0.0, 0.0, 1.0])  # x^3
    assert p.derivative().coeffs == (0.0, 0.0, 3.0)
    assert p.derivative(2).coeffs == (0.0, 6.0)
    assert p.derivative(4).coeffs == (0.0,)


@given(coeff_lists, st.floats(min_value=-1, max_value=1), st.floats(min_value=-2, max_value=2),
       st.floats(min_value=-1, max_value=1))
@settings(max_examples=80, deadline=None)
def test_compose_affine_matches_direct_eval(coeffs, c, w, t):
    p = Poly(coeffs)
    q = p.compose_affine(c, w)
    assert q(t) == pytest.approx(p(c + w * t), rel=1e-9, abs=1e-9)


@given(coeff_lists)
@settings(max_examples=100, deadline=None)
def test_certified_sup_is_an_upper_bound(coeffs):
    p = Poly(coeffs)
    s = certified_sup(p)
    xs = np.linspace(-1, 1, 2001)
    assert s >= np.max(np.abs(p(xs))) - 1e-12
    assert s <= p.coefficient_sum + 1e-12


def test_certified_sup_exact_cases():
    assert certified_sup(Poly([0.5])) == 0.5
    # t^3/2 peaks at the endpoints
    assert certified_sup(Poly([0, 0, 0, 0.5])) == pytest.approx(0.5, abs=1e-6)


def _reference_sup_univariate(p: Poly) -> float:
    """The certified sup as first written: it samples p on the grid twice
    (once for the max, once for the argmax) and caches nothing."""
    csum = p.coefficient_sum
    if p.degree == 0:
        return abs(p.coeffs[0])
    m = max(10 * p.degree + 1, 4097)
    xs = np.linspace(-1.0, 1.0, m)
    vmax = float(np.max(np.abs(p(xs))))
    i = int(np.argmax(np.abs(p(xs))))
    h = 2.0 / (m - 1)
    lo, hi = max(-1.0, xs[i] - h), min(1.0, xs[i] + h)
    vmax = max(vmax, float(np.max(np.abs(p(np.linspace(lo, hi, 1025))))))
    d1_csum = p.derivative().coefficient_sum
    bound = vmax + d1_csum * h / 2.0
    return float(min(bound, csum)) if bound > csum else float(bound)


@given(coeff_lists)
@settings(max_examples=100, deadline=None)
def test_certified_sup_memo_is_the_uncached_value(coeffs):
    p = Poly(coeffs)
    first = certified_sup(p)
    assert first.hex() == _sup_univariate.__wrapped__(p).hex()
    hits = _sup_univariate.cache_info().hits
    second = certified_sup(Poly(coeffs))  # an equal, separately built Poly
    assert _sup_univariate.cache_info().hits == hits + 1
    assert second.hex() == first.hex()


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=1, max_size=31))
@settings(max_examples=150, deadline=None)
def test_certified_sup_matches_reference(coeffs):
    p = Poly(coeffs)  # degree <= 30
    assert certified_sup(p).hex() == _reference_sup_univariate(p).hex()


def test_remap_identity_interval():
    p = Poly([0.0, 1.0])  # x on [-1/2, 1/2]
    q, s = remap_domain(p, -0.5, 0.5)
    # sup |x| on the working domain is 1/2, doubled safety scale gives s = 1
    assert s == pytest.approx(1.0, rel=1e-3)
    assert q(0.25) == pytest.approx(0.25 / s)


def test_remap_preserves_shape():
    p = Poly([1.0, -2.0, 0.0, 1.0])
    a, b = 0.6, 1.4
    q, s = remap_domain(p, a, b)
    assert s > 0
    ts = np.linspace(-0.5, 0.5, 33)
    xs = (a + b) / 2 + (b - a) * ts
    np.testing.assert_allclose(q(ts), p(xs) / s, atol=1e-12)
    # derivative signs survive positive scaling + increasing affine map
    assert np.all(np.sign(q.derivative(2)(ts)) == np.sign(p.derivative(2)(xs)))


def test_remap_rejects_degenerate_interval():
    with pytest.raises(ValueError):
        remap_domain(Poly([0, 1]), 1.0, 1.0)


def test_remap_overflow_is_one_error_and_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            remap_domain(Poly([0.0, 1e308, 1e308]), 0.0, 4.0)


def test_bounds_majorize_on_working_domain():
    p = Poly([0.3, -0.7, 0.2, 0.9])
    b = Bounds.from_poly(p)
    xs = np.linspace(-1, 1, 1001)
    assert b.f_sup >= np.max(np.abs(p(xs)))
    assert b.d1_sup >= np.max(np.abs(p.derivative()(xs)))
    assert b.d2_sup >= np.max(np.abs(p.derivative(2)(xs)))
    # scaled polynomials must satisfy the transform precondition
    assert certified_sup(p.scaled(b.f_sup)) <= 0.5 + 1e-9


def test_multipoly_eval_and_dedup():
    f = MultiPoly(((0.5, (2, 0)), (0.25, (2, 0)), (0.3, (1, 1))), 2)
    assert f.term_count == 2  # duplicate exponents merged
    assert f((2.0, 3.0)) == pytest.approx(0.75 * 4 + 0.3 * 6)
    pts = np.array([[1.0, 1.0], [0.0, 2.0]])
    np.testing.assert_allclose(f(pts), [1.05, 0.0])


def test_multipoly_remap_matches_substitution():
    f = MultiPoly(((1.0, (2, 1)), (-0.5, (0, 3))), 2)
    domains = [(-1.0, 3.0), (0.5, 1.5)]
    g = f.remap(domains)
    rng = np.random.default_rng(0)
    ts = rng.uniform(-0.5, 0.5, (20, 2))
    xs = np.column_stack(
        [(a + b) / 2 + (b - a) * ts[:, j] for j, (a, b) in enumerate(domains)]
    )
    np.testing.assert_allclose(g(ts), f(xs), atol=1e-10)


def test_multipoly_certified_sup_upper_bound():
    f = MultiPoly(((0.7, (1, 2)), (-0.4, (3, 0))), 2)
    s = certified_sup(f)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, (4000, 2))
    assert s >= np.max(np.abs(f(pts))) - 1e-12


def test_json_round_trip():
    for p in (Poly([1.0, 0.0, -0.5]), MultiPoly(((0.5, (1, 2)),), 2)):
        q = poly_from_json(poly_to_json(p))
        assert q == p


def test_json_rejects_malformed():
    for bad in ({}, {"kind": "uni"}, {"kind": "multi", "dim": 0, "terms": []},
                {"kind": "nope"}, {"kind": "multi", "dim": 2, "terms": [{"a": 1}]}):
        with pytest.raises(ValueError):
            poly_from_json(bad)
