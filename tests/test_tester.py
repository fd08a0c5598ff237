import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qshape.blockenc as be
from qshape.blockenc import BlockEnc, ResourceLedger
from qshape.estimate import EstimatorConfig
from qshape.oracle import oracle_convex, oracle_monotone
from qshape.poly import Bounds, MultiPoly, Poly, remap_domain
from qshape.qsvt import transform
from qshape.tester import (
    Grid,
    Outcome,
    WeightVector,
    build_M3,
    build_multivariate_M,
    encode_grid_values,
    test_convex_first_derivative,
    test_convex_jensen,
    test_convex_second_derivative,
    test_monotone,
    _mask_complement,
)

CFG = EstimatorConfig(eps=0.01, seed=0, noise_mode="exact")


# -- domain types ----------------------------------------------------------


def test_grid_uniform_midpoints():
    g = Grid.uniform(8)
    assert g.n == 8 and g.dim == 1
    np.testing.assert_allclose(g.x, -0.5 + (np.arange(8) + 0.5) / 8)
    assert np.max(np.abs(g.x)) < 0.5  # strictly interior


def test_grid_rejects_out_of_domain():
    with pytest.raises(ValueError):
        Grid.from_points([0.0, 0.9])


def test_grid_padding_repeats_last_point():
    g = Grid.from_points([-0.4, 0.0, 0.3], pad_to_pow2=True)
    assert g.n == 4 and g.n_original == 3
    assert g.x[3] == g.x[2]


def test_grid_rejects_non_pow2_without_padding():
    with pytest.raises(ValueError):
        Grid.from_points([-0.4, 0.0, 0.3])


def test_weights_validation():
    with pytest.raises(ValueError):
        WeightVector(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        WeightVector(np.array([1.5, -0.5]))
    w = WeightVector.normalized([1, 3])
    np.testing.assert_allclose(w.lambdas, [0.25, 0.75])
    np.testing.assert_allclose(w.padded(4).lambdas, [0.25, 0.75, 0.0, 0.0])


def test_encode_grid_values_exact():
    g = Grid.uniform(16)
    e = encode_grid_values(g.x)
    assert e.alpha == pytest.approx(1.0)
    np.testing.assert_allclose(e.diagonal, g.x, atol=1e-12)


# -- second-derivative test ------------------------------------------------


def test_second_derivative_convex_example():
    v = test_convex_second_derivative(Poly([0, 0, 0.25]), Grid.uniform(8), CFG)
    assert v.outcome == Outcome.CONVEX_ON_GRID
    assert v.margin > 0
    assert v.grid_semantics == "evidence at sampled points"


def test_second_derivative_witness_example():
    g = Grid.from_points([-0.4, -0.2, 0.0, 0.2])
    v = test_convex_second_derivative(Poly([0, 0, 0, 1.0]), g, CFG)
    assert v.outcome == Outcome.NOT_CONVEX
    assert v.witness == pytest.approx(-0.4)
    assert Poly([0, 0, 0, 1.0]).derivative(2)(v.witness) < 0


def test_second_derivative_reference_example():
    f, _ = remap_domain(Poly([1.0, -2.0, 0.0, 1.0]), 0.6, 1.4)
    v = test_convex_second_derivative(f, Grid.uniform(16), EstimatorConfig(eps=1e-3))
    assert v.outcome == Outcome.CONVEX_ON_GRID


def test_second_derivative_degenerate():
    v = test_convex_second_derivative(Poly([0.1, 0.2]), Grid.uniform(8), CFG)
    assert v.outcome == Outcome.INCONCLUSIVE
    assert "degree" in (v.reason or "")


def test_threshold_identity():
    # pipeline estimate equals (1 - min f''/Q)/2 exactly in exact mode
    from qshape.poly import Bounds

    f = Poly([0.0, -0.3, 0.2, 0.8])
    g = Grid.uniform(32)
    v = test_convex_second_derivative(f, g, CFG)
    b = Bounds.from_poly(f)
    expected = (1 - np.min(f.derivative(2)(g.x)) / b.d2_sup) / 2
    assert v.estimates["lambda_max"] == pytest.approx(expected, abs=1e-10)


# -- first-derivative test -------------------------------------------------


def test_build_M3_entries():
    f = Poly([0, 0, 1.0])  # f' = 2x
    g = Grid.from_points([-0.4, -0.2, 0.0, 0.2])
    e = build_M3(f, g)
    from qshape.poly import Bounds

    p = Bounds.from_poly(f).d1_sup
    expected = np.full(4, 0.4 / (math.sqrt(4) * p))
    expected[-1] = 0.0  # wrap-around masked
    np.testing.assert_allclose(e.diagonal, expected, atol=1e-10)


# Dense reference for build_M3: the Hadamard layer and the shift-difference
# circulant stored as n x n matrices, multiplied densely, with BlockEnc's
# norm checks (an SVD where the cheap bound fails) run on every factor.


def _hadamard_layer(n: int) -> BlockEnc:
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    m = np.array([[1.0]])
    while m.shape[0] < n:
        m = np.kron(m, h)
    return BlockEnc(m / math.sqrt(n), alpha=1.0, ancillas=0, eps=0.0,
                    ledger=ResourceLedger.of(depth_units=int(round(math.log2(n)))))


def _shift_difference_circulant(n: int) -> BlockEnc:
    l = -np.eye(n)
    l += np.eye(n, k=1)
    l[-1, 0] = 1.0
    return BlockEnc(l, alpha=2.0, ancillas=1, eps=0.0,
                    ledger=ResourceLedger.of(depth_units=int(round(math.log2(n)))))


def _dense_build_M3(f: Poly, grid: Grid) -> BlockEnc:
    bounds = Bounds.from_poly(f)
    n = grid.n
    m1 = transform(encode_grid_values(grid.x), f.derivative().scaled(bounds.d1_sup))
    column = be.product(_shift_difference_circulant(n), be.product(m1, _hadamard_layer(n)))
    diag = be.diag_from_column(column.op[:, 0], column)
    return be.product(_mask_complement(grid), be.amplify(diag, 2.0))


def _m3_cases():
    rng = np.random.default_rng(2503)
    for k in range(1, 11):
        n = 2**k
        yield f"uniform-{n}", Poly(rng.uniform(-1, 1, size=int(rng.integers(3, 9)))), Grid.uniform(n)
        m = n // 2 + 1 if n > 2 else n  # pads up to n
        pts = np.sort(rng.choice(np.linspace(-0.5, 0.5, 4 * n + 1), size=m, replace=False))
        yield (f"padded-{m}-of-{n}", Poly(rng.uniform(-1, 1, size=int(rng.integers(3, 9)))),
               Grid.from_points(pts, pad_to_pow2=True))
    # constant derivative, and f' = 0 exactly at a grid point
    yield "linear", Poly([0.3, -0.7]), Grid.uniform(16)
    yield "zero-at-point", Poly([0.0, 0.0, 1.0]), Grid.from_points([-0.25, 0.0, 0.25, 0.5])


@pytest.mark.parametrize("f, grid", [c[1:] for c in _m3_cases()], ids=[c[0] for c in _m3_cases()])
def test_build_M3_matches_dense_reference(f, grid):
    got, ref = build_M3(f, grid), _dense_build_M3(f, grid)
    assert got.data.tobytes() == ref.data.tobytes()
    assert (got.alpha, got.ancillas, got.eps, got.ledger) == (ref.alpha, ref.ancillas, ref.eps, ref.ledger)


def test_build_M3_linear_is_zero():
    e = build_M3(Poly([0.3, 0.5]), Grid.uniform(8))
    np.testing.assert_allclose(e.diagonal, np.zeros(8), atol=1e-12)


def test_build_M3_requires_sorted_grid():
    with pytest.raises(ValueError):
        build_M3(Poly([0, 0, 1.0]), Grid.from_points([0.2, -0.2]))


def test_first_derivative_convex_example():
    v = test_convex_first_derivative(Poly([0, 0, 0.25]), Grid.uniform(8), CFG)
    assert v.outcome == Outcome.CONVEX_ON_GRID


def test_first_derivative_concave_witness():
    v = test_convex_first_derivative(Poly([0, 0, -1.0]), Grid.uniform(8), CFG)
    assert v.outcome == Outcome.NOT_CONVEX
    a, b = v.witness
    assert b > a
    d1 = Poly([0, 0, -1.0]).derivative()
    assert d1(b) - d1(a) < 0


def test_first_derivative_mixed_curvature():
    f = Poly([0, 0, -1 / 8, 0, 1.0])  # x^4 - x^2/8, concave near 0
    # the normalized consecutive differences are tiny near 0, so a tight
    # accuracy is needed for a decisive verdict
    v = test_convex_first_derivative(f, Grid.uniform(16), EstimatorConfig(eps=1e-4))
    assert v.outcome == Outcome.NOT_CONVEX


def test_first_derivative_padded_grid_masks_duplicates():
    # duplicated padding points must not produce spurious negative diffs
    g = Grid.from_points([-0.4, -0.25, -0.1, 0.05, 0.2, 0.35], pad_to_pow2=True)
    v = test_convex_first_derivative(Poly([0, 0, 0.5]), g, CFG)
    assert v.outcome == Outcome.CONVEX_ON_GRID


# -- monotonicity ----------------------------------------------------------


def test_monotone_increasing_trivial():
    v = test_monotone(Poly([0, 0.5]), Grid.uniform(8), "increasing", CFG)
    assert v.outcome == Outcome.MONOTONE_INCREASING


def test_monotone_reference_example():
    f, _ = remap_domain(Poly([0, 4.0, 0, -6.0, 0, 2.0]), 0.7, 1.25)
    v = test_monotone(f, Grid.uniform(16), "decreasing", EstimatorConfig(eps=1e-3))
    assert v.outcome == Outcome.MONOTONE_DECREASING


def test_monotone_witness():
    v = test_monotone(Poly([0, 0, 1.0]), Grid.uniform(8), "increasing", CFG)
    assert v.outcome == Outcome.NOT_MONOTONE
    assert v.witness < 0
    assert Poly([0, 0, 1.0]).derivative()(v.witness) < 0


def test_monotone_rejects_bad_direction():
    with pytest.raises(ValueError):
        test_monotone(Poly([0, 1.0]), Grid.uniform(8), "sideways", CFG)


# -- Jensen ----------------------------------------------------------------


def test_jensen_consistent_example():
    g = Grid.from_points([-0.4, 0.4])
    v = test_convex_jensen(Poly([0, 0, 1.0]), g, WeightVector.uniform(2), CFG)
    assert v.outcome == Outcome.CONVEX_ON_GRID
    assert v.estimates["jensen_lhs"] == pytest.approx(0.0, abs=1e-10)
    assert v.estimates["jensen_rhs"] == pytest.approx(0.16, abs=1e-10)


def test_jensen_violation_example():
    g = Grid.from_points([-0.4, 0.4])
    v = test_convex_jensen(Poly([0, 0, -1.0]), g, WeightVector.uniform(2), CFG)
    assert v.outcome == Outcome.NOT_CONVEX
    assert v.witness is not None
    assert v.estimates["jensen_lhs"] > v.estimates["jensen_rhs"]


def test_jensen_multivariate_necessary_condition():
    f = MultiPoly(((0.5, (1, 1)),), 2)
    g = Grid.from_points([[0.4, 0.4], [-0.4, -0.4]])
    v = test_convex_jensen(f, g, WeightVector.uniform(2), CFG)
    assert v.outcome == Outcome.CONVEX_ON_GRID  # consistent at this collection only
    assert v.estimates["jensen_lhs"] == pytest.approx(0.0, abs=1e-10)
    assert v.estimates["jensen_rhs"] == pytest.approx(0.08, abs=1e-10)


def test_jensen_weight_padding():
    g = Grid.from_points([-0.3, 0.0, 0.3], pad_to_pow2=True)
    v = test_convex_jensen(Poly([0, 0, 1.0]), g, WeightVector.uniform(3), CFG)
    oracle = oracle_convex(Poly([0, 0, 1.0]), g.original_points,
                           weights=WeightVector.uniform(3).lambdas)
    assert v.estimates["jensen_lhs"] == pytest.approx(oracle.details["lhs"], abs=1e-10)
    assert v.estimates["jensen_rhs"] == pytest.approx(oracle.details["rhs"], abs=1e-10)


def test_jensen_estimates_match_oracle_exactly():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = Poly(rng.uniform(-1, 1, 6))
        g = Grid.uniform(8)
        w = WeightVector.normalized(rng.uniform(0.1, 1.0, 8))
        v = test_convex_jensen(f, g, w, CFG)
        res = oracle_convex(f, g.points, weights=w.lambdas)
        assert v.estimates["jensen_lhs"] == pytest.approx(res.details["lhs"], abs=1e-10)
        assert v.estimates["jensen_rhs"] == pytest.approx(res.details["rhs"], abs=1e-10)


# -- multivariate encoding -------------------------------------------------


def test_multivariate_encoding_single_monomial():
    f = MultiPoly(((1.0, (1, 1)),), 2)
    pts = np.array([[0.5, 0.5], [-0.5, 0.5]])
    encs = [encode_grid_values(pts[:, j]) for j in range(2)]
    e, corr = build_multivariate_M(f, encs)
    assert corr == pytest.approx(1.0)  # K = 1, C = 1
    np.testing.assert_allclose(np.real(e.diagonal), [0.25, -0.25], atol=1e-12)


def test_multivariate_encoding_unused_axis():
    f = MultiPoly(((1.0, (2, 0)),), 2)
    pts = np.array([[0.4, 0.1], [-0.2, 0.3]])
    encs = [encode_grid_values(pts[:, j]) for j in range(2)]
    e, corr = build_multivariate_M(f, encs)
    np.testing.assert_allclose(np.real(e.diagonal) * corr, pts[:, 0] ** 2, atol=1e-12)


def test_multivariate_encoding_coefficients():
    f = MultiPoly(((0.3, (1, 1)), (0.5, (2, 0))), 2)
    pts = np.array([[0.4, 0.2], [-0.3, 0.1]])
    encs = [encode_grid_values(pts[:, j]) for j in range(2)]
    e, corr = build_multivariate_M(f, encs)
    assert corr == pytest.approx(2 * 0.5)  # K = 2, C = 0.5
    np.testing.assert_allclose(np.real(e.diagonal) * corr, f(pts), atol=1e-12)


def test_multivariate_encoding_caps():
    f = MultiPoly(((1.0, (20,)),), 1)
    enc = encode_grid_values(np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        build_multivariate_M(f, [enc])


# -- cross-cutting properties ---------------------------------------------


@given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=3, max_size=7),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_scale_invariance_of_outcomes(coeffs, s):
    f = Poly(coeffs)
    g = Grid.uniform(8)
    fs = Poly(np.array(coeffs) * s)
    runs = [test_convex_second_derivative]
    if f.degree >= 1 and fs.degree >= 1:
        runs.append(lambda a, b, c: test_monotone(a, b, "increasing", c))
    for run in runs:
        assert run(f, g, CFG).outcome == run(fs, g, CFG).outcome


@given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=3, max_size=7))
@settings(max_examples=40, deadline=None)
def test_exact_mode_agrees_with_oracle(coeffs):
    f = Poly(coeffs)
    g = Grid.uniform(8)
    v = test_convex_second_derivative(f, g, CFG)
    if v.outcome != Outcome.INCONCLUSIVE:
        res = oracle_convex(f, g.points, mode="second")
        expected = "convex" if v.outcome == Outcome.CONVEX_ON_GRID else "not_convex"
        assert res.verdict == expected
    m = test_monotone(f, g, "increasing", CFG) if f.degree >= 1 else None
    if m and m.outcome != Outcome.INCONCLUSIVE:
        res = oracle_monotone(f, g.points, "increasing")
        expected = "monotone" if m.outcome == Outcome.MONOTONE_INCREASING else "not_monotone"
        assert res.verdict == expected
