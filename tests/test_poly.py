import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from qshape.poly import (
    Bounds,
    MultiPoly,
    Poly,
    certified_sup,
    poly_from_json,
    _end_max,
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


def _seeded_coeffs(degree: int) -> list[float]:
    return np.random.default_rng(degree).uniform(-1e3, 1e3, size=degree + 1).tolist()


_DBL_MAX = float(np.finfo(float).max)

# One case per way _sup_univariate ends, with the number of array
# evaluations it makes: 0 when an end plus the slack reaches the coefficient
# sum, 2 when the sample and its refinement run.
_SUP_BRANCHES = {
    "positive": ([0.1, 0.2, 0.3], 0),  # the +1 end decides
    "alternating": ([0.1, -0.2, 0.3, -0.4], 0),  # the -1 end decides
    "half-t^4": ([0.0, 0.0, 0.0, 0.0, 0.5], 0),  # an end equals the sum
    "end-within-slack": ([1.0, 1.0, -1e-6], 0),  # the end alone is short of it
    # p(1) plus the slack is one ulp short of the sum, so the sample runs
    "end-one-ulp-short": ([1.0, float.fromhex("0x1.ffdffffefffb0p-8"), -(2.0**-20)], 2),
    # the sample decides: p(+-1) round below 1 = fl(1 + 1e-16), p(0) does not
    "sample-decides": ([1.0, 0.0, 0.0, 0.0, -1e-16], 2),
    # a finite sum, but Horner's (2^969 + 2^969) + DBL_MAX overflows at x = 1
    "infinite-samples": ([_DBL_MAX, 2.0**969, 2.0**969], 0),
    "infinite-sum": ([1e308, 1e308], 2),
    # an infinite coefficient makes p(0) NaN, and so the sup
    "infinite-coefficient": ([1.0, math.inf], 2),
    # the sample is linspace(-1, 1, 4101), and h is its step
    "degree-410": ([1.0] * 410 + [-1e-9], 0),
}


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=1, max_size=31))
@settings(max_examples=150, deadline=None)
# past degree 409 the sample is linspace(-1, 1, 10 d + 1), not the shared one
@example(_seeded_coeffs(410))
@example(_seeded_coeffs(600))
@example(_SUP_BRANCHES["positive"][0])
@example(_SUP_BRANCHES["alternating"][0])
@example(_SUP_BRANCHES["half-t^4"][0])
@example(_SUP_BRANCHES["end-within-slack"][0])
@example(_SUP_BRANCHES["end-one-ulp-short"][0])
@example(_SUP_BRANCHES["sample-decides"][0])
@example(_SUP_BRANCHES["infinite-samples"][0])
@example(_SUP_BRANCHES["infinite-sum"][0])
@example(_SUP_BRANCHES["infinite-coefficient"][0])
@example(_SUP_BRANCHES["degree-410"][0])
def test_certified_sup_matches_reference(coeffs):
    p = Poly(coeffs)  # degree <= 30, and the examples
    with np.errstate(over="ignore", invalid="ignore"):
        assert certified_sup(p).hex() == _reference_sup_univariate(p).hex()


@pytest.mark.parametrize("coeffs, evaluations", _SUP_BRANCHES.values(), ids=_SUP_BRANCHES.keys())
def test_certified_sup_samples_only_when_needed(coeffs, evaluations, monkeypatch):
    p = Poly(coeffs)
    seen = []
    call = Poly.__call__
    monkeypatch.setattr(Poly, "__call__", lambda self, x: seen.append(np.size(x)) or call(self, x))
    with np.errstate(over="ignore", invalid="ignore"):
        _sup_univariate.__wrapped__(p)
    assert len(seen) == evaluations
    assert seen[:1] in ([], [max(10 * p.degree + 1, 4097)])


def test_end_shortcut_is_the_horner_kernel():
    sample = np.linspace(-1.0, 1.0, 4097)
    for coeffs, _ in _SUP_BRANCHES.values():
        p = Poly(coeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            ends = np.abs(p(sample[[0, -1]]))
        assert _end_max(p.coeffs).hex() == float(ends.max()).hex()


# numpy.polynomial versions of the Poly kernels, as the kernels were first
# written; the kernels must give the same bits.
def _reference_call(p: Poly, x):
    return npoly.polyval(np.asarray(x, dtype=float), np.array(p.coeffs))


def _reference_derivative(p: Poly, order: int = 1) -> Poly:
    c = np.array(p.coeffs)
    for _ in range(order):
        c = npoly.polyder(c)
        if c.size == 0:
            c = np.zeros(1)
    return Poly(c)


def _reference_compose_affine(p: Poly, c: float, w: float) -> Poly:
    inner = np.array([c, w], dtype=float)
    out = np.zeros(1)
    for k in range(p.degree, -1, -1):
        out = npoly.polyadd(npoly.polymul(out, inner), [p.coeffs[k]])
    return Poly(out)


def _bits(v) -> bytes:
    return np.asarray(v.coeffs if isinstance(v, Poly) else v, dtype=float).tobytes()


exact_coeffs = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0]),
              st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
    min_size=1, max_size=31,
)  # degree <= 30, with signed zeros anywhere, the zero polynomial included


@given(exact_coeffs,
       st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
       st.floats(min_value=1e-3, max_value=1e3),
       st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=9))
@settings(max_examples=400, deadline=None)
def test_kernels_match_numpy_polynomial_bit_for_bit(coeffs, c, w, xs):
    p = Poly(coeffs)
    for order in (1, 2, 3):
        assert _bits(p.derivative(order)) == _bits(_reference_derivative(p, order))
    for centre in (c, 0.0, -0.0):
        assert _bits(p.compose_affine(centre, w)) == _bits(_reference_compose_affine(p, centre, w))
    x = np.array(xs)
    assert _bits(p(x)) == _bits(_reference_call(p, x))
    for x0 in (np.float64(xs[0]), xs[0], np.array(xs[0])):
        got, want = p(x0), _reference_call(p, x0)
        assert type(got) is type(want) and np.shape(got) == ()
        assert _bits(got) == _bits(want)


def test_each_polynomial_is_differentiated_once():
    f = Poly([0.3, -0.7, 0.2, 0.9])
    assert f.derivative() is f.derivative()
    assert f.derivative(2) is f.derivative().derivative()
    assert f.derivative(0) is f


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_derivative_keeps_its_own_signed_zero(first):
    # equal polynomials, so a cache keyed on equality would mix the two up
    a, b = Poly([first]), Poly([-first])
    assert a == b
    for p in (a, b, a):
        sign = math.copysign(1.0, p.coeffs[0])
        for order in (1, 2):
            assert math.copysign(1.0, p.derivative(order).coeffs[0]) == sign


def test_signed_zero_cases():
    line = Poly([1.0, -2.0])
    assert _bits(line.derivative(2)) == _bits(Poly([-0.0]))
    for z in (0.0, -0.0):
        zero = Poly([z])
        assert _bits(zero.compose_affine(-3.0, 2.0)) == _bits(_reference_compose_affine(zero, -3.0, 2.0))
        assert _bits(zero.derivative()) == _bits(_reference_derivative(zero, 1))


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


def test_json_round_trip():
    # the literal dicts are the JSON forms of the polynomials they parse to
    cases = [({"kind": "uni", "coeffs": [1.0, 0.0, -0.5]}, Poly([1.0, 0.0, -0.5])),
             ({"kind": "multi", "dim": 2, "terms": [{"a": 0.5, "k": [1, 2]}]},
              MultiPoly(((0.5, (1, 2)),), 2))]
    for obj, p in cases:
        assert poly_from_json(obj) == p


def test_json_rejects_malformed():
    for bad in ({}, {"kind": "uni"}, {"kind": "multi", "dim": 0, "terms": []},
                {"kind": "nope"}, {"kind": "multi", "dim": 2, "terms": [{"a": 1}]}):
        with pytest.raises(ValueError):
            poly_from_json(bad)
