import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshape.oracle import oracle_convex, oracle_monotone
from qshape.poly import MultiPoly, Poly


def test_second_derivative_mode():
    res = oracle_convex(Poly([0, 0, 0.25]), np.linspace(-0.5, 0.5, 8), mode="second")
    assert res.verdict == "convex"
    assert res.details["min_second_derivative"] == pytest.approx(0.5)


def test_second_derivative_witness():
    res = oracle_convex(Poly([0, 0, 0, 1.0]), np.array([-0.4, 0.0, 0.2, 0.4]), mode="second")
    assert res.verdict == "not_convex"
    assert res.witness == pytest.approx(-0.4)
    assert res.details["min_second_derivative"] == pytest.approx(-2.4)


def test_first_difference_mode():
    xs = np.array([-0.4, -0.2, 0.0, 0.2])
    res = oracle_convex(Poly([0, 0, -1.0]), xs, mode="first")
    assert res.verdict == "not_convex"
    assert res.witness[1] > res.witness[0]
    # witness pair violates the condition under direct evaluation
    d1 = Poly([0, 0, -1.0]).derivative()
    assert d1(res.witness[1]) - d1(res.witness[0]) < 0


def test_jensen_pair_univariate():
    res = oracle_convex(Poly([0, 0, 1.0]), np.array([-0.4, 0.4]), weights=[0.5, 0.5])
    assert res.verdict == "jensen_consistent"
    assert res.details == {"lhs": pytest.approx(0.0), "rhs": pytest.approx(0.16)}


def test_jensen_violation():
    res = oracle_convex(Poly([0, 0, -1.0]), np.array([-0.4, 0.4]), weights=[0.5, 0.5])
    assert res.verdict == "jensen_violated"
    assert res.witness is not None


def test_jensen_multivariate():
    f = MultiPoly(((0.5, (1, 1)),), 2)
    pts = np.array([[0.4, 0.4], [-0.4, -0.4]])
    res = oracle_convex(f, pts, weights=[0.5, 0.5])
    # consistent at this collection even though xy is not convex globally
    assert res.verdict == "jensen_consistent"
    assert res.details["lhs"] == pytest.approx(0.0)
    assert res.details["rhs"] == pytest.approx(0.08)


_COORDS = st.floats(-0.5, 0.5, allow_subnormal=True)


@st.composite
def _jensen_problems(draw):
    """A Poly or a 1-3 axis MultiPoly, 1-16 points and convex weights."""
    n = draw(st.integers(1, 16))
    if draw(st.booleans()):
        f = Poly(draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=12)))
        pts = np.array(draw(st.lists(_COORDS, min_size=n, max_size=n)))
    else:
        dim = draw(st.integers(1, 3))
        terms = draw(st.lists(st.tuples(st.floats(-4.0, 4.0), st.tuples(*[st.integers(0, 12)] * dim)),
                              min_size=1, max_size=8))
        f = MultiPoly(terms, dim)
        pts = np.array(draw(st.lists(st.lists(_COORDS, min_size=dim, max_size=dim), min_size=n, max_size=n)))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))) + 1e-3
    return f, pts, raw / raw.sum()


@given(_jensen_problems())
@settings(max_examples=200, deadline=None)
def test_jensen_pair_is_the_two_call_evaluation(case):
    # one pass over the points and the centre gives f(centre) and the
    # weighted mean of f at the points as two separate calls do
    f, pts, lam = case
    xs = pts if isinstance(f, MultiPoly) else pts.reshape(-1)
    center = lam @ xs
    res = oracle_convex(f, pts, weights=lam)
    assert res.details["lhs"].hex() == float(f(center)).hex()
    assert res.details["rhs"].hex() == float(lam @ f(xs)).hex()


def test_monotone_directions():
    xs = np.linspace(-0.5, 0.5, 8)
    assert oracle_monotone(Poly([0, 0.5]), xs, "increasing").verdict == "monotone"
    assert oracle_monotone(Poly([0, -0.5]), xs, "decreasing").verdict == "monotone"
    res = oracle_monotone(Poly([0, 0, 1.0]), xs, "increasing")
    assert res.verdict == "not_monotone"
    assert res.witness < 0


def test_derivatives_match_finite_differences():
    # self-test of the coefficient-level derivatives the oracle relies on
    rng = np.random.default_rng(0)
    h = 1e-6
    checked = 0
    while checked < 10**5:
        coeffs = rng.uniform(-1, 1, rng.integers(2, 8))
        f = Poly(coeffs)
        d1 = f.derivative()
        xs = rng.uniform(-0.5, 0.5, 200)
        fd = (f(xs + h) - f(xs - h)) / (2 * h)
        exact = d1(xs)
        scale = np.maximum(np.abs(exact), 1.0)
        assert np.max(np.abs(fd - exact) / scale) < 1e-4
        checked += len(xs)
