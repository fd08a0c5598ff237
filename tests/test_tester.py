import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qshape.blockenc as be
import qshape.tester
from qshape.blockenc import BlockEnc, ResourceLedger
from qshape.estimate import EstimatorConfig, amplitude_estimate, overlap_gadget
from qshape.oracle import oracle_convex, oracle_monotone
from qshape.poly import Bounds, MultiPoly, Poly, certified_sup, remap_domain
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
    _jensen_estimates,
    _mask_complement,
    _next_pow2,
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


@pytest.mark.parametrize("build", [
    lambda: WeightVector([math.nan, math.nan]),
    lambda: WeightVector([math.inf, 0.0]),
    lambda: WeightVector([0.5, 0.5, math.inf, -math.inf]),
    lambda: Grid.from_points([math.nan, 0.1]),
    lambda: Grid.from_points([0.1, -math.inf]),
    lambda: Grid(points=np.array([[0.1, math.nan], [0.0, 0.2]]), n_original=2),
    lambda: EstimatorConfig(eps=math.nan),
    lambda: EstimatorConfig(eps=math.inf),
], ids=["weights-nan", "weights-inf", "weights-inf-pair", "points-nan", "points-inf",
        "points-2d-nan", "eps-nan", "eps-inf"])
def test_library_inputs_reject_non_finite(build):
    with pytest.raises(ValueError):
        build()


def test_encode_grid_values_exact():
    g = Grid.uniform(16)
    e = encode_grid_values(g.x)
    assert e.alpha == pytest.approx(1.0)
    np.testing.assert_allclose(e.data, g.x, atol=1e-12)


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


def _threshold_verdicts(f, grid, cfg):
    """(eps the estimate was made at, estimate, threshold, verdict) for the
    three threshold tests."""
    for eps, v in ((cfg.eps, test_convex_second_derivative(f, grid, cfg)),
                   (cfg.eps / (2.0 * math.sqrt(grid.n)), test_convex_first_derivative(f, grid, cfg)),
                   (cfg.eps, test_monotone(f, grid, "increasing", cfg)),
                   (cfg.eps, test_monotone(f, grid, "decreasing", cfg))):
        yield eps, v.estimates["lambda_max"], v.estimates["threshold"], v


def _jensen_verdict(f, grid, w, cfg):
    """The same for the Jensen test, whose estimate is the left side and
    whose threshold is the right side."""
    v = test_convex_jensen(f, grid, w, cfg)
    return cfg.eps, v.estimates["jensen_lhs"], v.estimates["jensen_rhs"], v


_BAND_POLYS = ([0, 0, 0, 0, 1.0], [0, 0, 0, 1.0], [0.1, 0.5, 0.2], [0, 0, -1.0])
_BAND_MULTIPOLYS = (
    MultiPoly(((0.5, (2, 0)), (0.5, (0, 2))), 2),  # convex
    MultiPoly(((-0.5, (2, 0)), (-0.5, (0, 2))), 2),  # concave
    MultiPoly(((0.3, (1, 0)), (-0.2, (0, 1)), (0.1, (0, 0))), 2),  # affine: both sides agree
    MultiPoly(((1.0, (1, 1, 0)), (0.2, (0, 0, 3))), 3),
)


def _band_cases(cfg):
    """(eps, estimate, threshold, verdict, grid, padded weights or None)
    for every test: the threshold tests on univariate polynomials, Jensen
    on the same polynomials and on multivariate ones."""
    rng = np.random.default_rng(41)
    for coeffs in _BAND_POLYS:
        f, grid = Poly(coeffs), Grid.uniform(8)
        for case in _threshold_verdicts(f, grid, cfg):
            yield (*case, grid, None)
        for w in (WeightVector.uniform(8), WeightVector.normalized(rng.uniform(0.1, 1.0, 8))):
            yield (*_jensen_verdict(f, grid, w, cfg), grid, w)
        padded = Grid.from_points([-0.45, -0.3, 0.05, 0.2, 0.4], pad_to_pow2=True)
        w = WeightVector.normalized(rng.uniform(0.1, 1.0, 5))
        yield (*_jensen_verdict(f, padded, w, cfg), padded, w.padded(8))
    for f in _BAND_MULTIPOLYS:
        grid = Grid.uniform(8, dim=f.dim, seed=5)
        for w in (WeightVector.uniform(8), WeightVector.normalized(rng.uniform(0.1, 1.0, 8))):
            yield (*_jensen_verdict(f, grid, w, cfg), grid, w)


def test_threshold_band_margin_and_witness():
    # Inconclusive exactly inside the 2*eps band, margin measured from its
    # edge, and a witness on every negative verdict and on no other; the
    # Jensen witness's centre is the weighted grid point
    cfg = EstimatorConfig(eps=0.01)
    outcomes, jensen_outcomes = set(), set()
    for eps, value, threshold, v, grid, w in _band_cases(cfg):
        distance = abs(value - threshold)
        assert v.margin == distance - 2.0 * eps
        assert (v.outcome == Outcome.INCONCLUSIVE) == (distance <= 2.0 * eps)
        negative = v.outcome in (Outcome.NOT_CONVEX, Outcome.NOT_MONOTONE)
        assert (v.witness is not None) == negative
        outcomes.add(v.outcome)
        if w is not None:
            jensen_outcomes.add(v.outcome)
            if negative:
                assert v.witness["center"] == [float(c) for c in w.lambdas @ grid.points]
                assert v.witness["lambdas"] == [float(c) for c in w.lambdas]
    assert {Outcome.INCONCLUSIVE, Outcome.NOT_CONVEX, Outcome.NOT_MONOTONE,
            Outcome.CONVEX_ON_GRID, Outcome.MONOTONE_INCREASING} <= outcomes
    assert jensen_outcomes == {Outcome.INCONCLUSIVE, Outcome.NOT_CONVEX, Outcome.CONVEX_ON_GRID}


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
    np.testing.assert_allclose(e.data, expected, atol=1e-10)


# Dense reference for build_M3: the Hadamard layer and the shift-difference
# circulant stored as n x n matrices, each with its contract and an SVD
# check that its norm is within its alpha, multiplied densely.


def _layer(m: np.ndarray, alpha: float, ancillas: int):
    assert np.linalg.norm(m, 2) <= alpha + 1e-9
    n = m.shape[0]
    ledger = ResourceLedger.of(depth_units=int(round(math.log2(n))))
    return m, be.Contract(alpha=alpha, ancillas=ancillas, eps=0.0, ledger=ledger)


def _hadamard_layer(n: int):
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    m = np.array([[1.0]])
    while m.shape[0] < n:
        m = np.kron(m, h)
    return _layer(m / math.sqrt(n), alpha=1.0, ancillas=0)


def _shift_difference_circulant(n: int):
    l = -np.eye(n)
    l += np.eye(n, k=1)
    l[-1, 0] = 1.0
    return _layer(l, alpha=2.0, ancillas=1)


def _dense_build_M3(f: Poly, grid: Grid) -> BlockEnc:
    bounds = Bounds.from_poly(f)
    n = grid.n
    m1 = transform(encode_grid_values(grid.x), f.derivative().scaled(bounds.d1_sup))
    h, h_contract = _hadamard_layer(n)
    l, l_contract = _shift_difference_circulant(n)
    column = (l @ (m1.data[:, None] * h))[:, 0]
    contract = be.product_contract(l_contract, be.product_contract(m1, h_contract))
    diag = be.diag_from_column(column, contract)
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
    np.testing.assert_allclose(e.data, np.zeros(8), atol=1e-12)


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


def test_first_derivative_builds_its_mask_once(monkeypatch):
    builds = []
    build = qshape.tester._mask_complement
    monkeypatch.setattr(qshape.tester, "_mask_complement", lambda grid: builds.append(grid) or build(grid))
    for grid in (Grid.uniform(8), Grid.from_points([-0.4, -0.1, 0.2], pad_to_pow2=True)):
        builds.clear()
        v = test_convex_first_derivative(Poly([0, 0, 0.25]), grid, CFG)
        assert v.outcome == Outcome.CONVEX_ON_GRID
        assert len(builds) == 1 and builds[0] is grid


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


# The two Jensen estimators as they were before they became one, kept as
# the reference that _jensen_estimates must reproduce bit for bit.


def _reference_jensen_univariate(f: Poly, grid: Grid, w: WeightVector, cfg: EstimatorConfig):
    xs = grid.x
    lam = w.lambdas
    sqrt_lam = be.encode_state(np.sqrt(lam))
    grid_enc = encode_grid_values(xs)

    gadget_lhs = overlap_gadget(grid_enc, sqrt_lam)
    f4 = f.compose_affine(0.0, 4.0)
    s_lhs = max(1.0, 2.0 * certified_sup(f4))
    lhs_enc = transform(gadget_lhs, f4.scaled(s_lhs))
    a_lhs = amplitude_estimate(lhs_enc, cfg, salt=21, eps=cfg.eps / s_lhs)
    lhs = a_lhs.value * s_lhs

    bounds = Bounds.from_poly(f)
    m_enc = transform(grid_enc, f.scaled(bounds.f_sup))
    gadget_rhs = overlap_gadget(m_enc, sqrt_lam)
    a_rhs = amplitude_estimate(gadget_rhs, cfg, salt=22, eps=cfg.eps / (4.0 * bounds.f_sup))
    rhs = a_rhs.value * 4.0 * bounds.f_sup

    ledger = a_lhs.ledger.merged(a_rhs.ledger)
    scales = {"lhs_scale": s_lhs, "rhs_scale": 4.0 * bounds.f_sup, "gadget_factor": 0.25}
    return lhs, rhs, ledger, scales


def _reference_jensen_multivariate(f: MultiPoly, grid: Grid, w: WeightVector, cfg: EstimatorConfig):
    lam = w.lambdas
    sqrt_lam = be.encode_state(np.sqrt(lam))
    axis_encs = [encode_grid_values(grid.points[:, j]) for j in range(grid.dim)]

    big_m, corr_rhs = build_multivariate_M(f, axis_encs)
    gadget_rhs = overlap_gadget(big_m, sqrt_lam)
    a_rhs = amplitude_estimate(gadget_rhs, cfg, salt=22, eps=cfg.eps / (4.0 * corr_rhs))
    rhs = a_rhs.value * 4.0 * corr_rhs

    gadgets = [overlap_gadget(e, sqrt_lam) for e in axis_encs]
    lhs_enc, corr_lhs = build_multivariate_M(f, gadgets, value_scale=0.25)
    a_lhs = amplitude_estimate(lhs_enc, cfg, salt=21, eps=cfg.eps / corr_lhs)
    lhs = a_lhs.value * corr_lhs

    ledger = a_lhs.ledger.merged(a_rhs.ledger)
    scales = {"lhs_scale": corr_lhs, "rhs_scale": 4.0 * corr_rhs, "gadget_factor": 0.25}
    return lhs, rhs, ledger, scales


def _jensen_problems():
    """Random univariate and 2-3 axis multivariate problems, on uniform and
    padded explicit grids, with padded weights, in both noise modes."""
    rng = np.random.default_rng(1806)
    for i in range(60):
        multi = i % 2 == 1
        dim = int(rng.integers(2, 4)) if multi else 1
        if multi:
            terms = [(float(rng.normal()), tuple(int(k) for k in rng.integers(0, 4, size=dim)))
                     for _ in range(int(rng.integers(1, 7)))]
            f = MultiPoly(terms, dim)
        else:
            f = Poly(rng.normal(size=int(rng.integers(1, 9))))
        m = int(rng.integers(2, 17))
        if i % 3 == 0:
            grid = Grid.uniform(_next_pow2(m), dim=dim, seed=i)
        else:
            pts = rng.uniform(-0.5, 0.5, size=(m, dim))
            grid = Grid.from_points(np.sort(pts, axis=0) if dim == 1 else pts, pad_to_pow2=True)
        w = WeightVector.normalized(rng.uniform(0.05, 1.0, grid.n_original)).padded(grid.n)
        cfg = EstimatorConfig(eps=float(10 ** rng.uniform(-4, -1)), seed=i,
                              noise_mode=("exact", "uniform")[i % 4 // 2])
        yield f"{'multi' if multi else 'uni'}-{i}", f, grid, w, cfg


@pytest.mark.parametrize("f, grid, w, cfg", [c[1:] for c in _jensen_problems()],
                         ids=[c[0] for c in _jensen_problems()])
def test_jensen_estimates_match_reference(f, grid, w, cfg):
    reference = _reference_jensen_multivariate if isinstance(f, MultiPoly) else _reference_jensen_univariate
    lhs, rhs, ledger, scales = _jensen_estimates(f, grid, w, cfg)
    ref_lhs, ref_rhs, ref_ledger, ref_scales = reference(f, grid, w, cfg)
    assert (lhs.hex(), rhs.hex()) == (ref_lhs.hex(), ref_rhs.hex())
    assert ledger == ref_ledger
    assert {k: v.hex() for k, v in scales.items()} == {k: v.hex() for k, v in ref_scales.items()}


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
    np.testing.assert_allclose(e.data, [0.25, -0.25], atol=1e-12)


def test_multivariate_encoding_unused_axis():
    f = MultiPoly(((1.0, (2, 0)),), 2)
    pts = np.array([[0.4, 0.1], [-0.2, 0.3]])
    encs = [encode_grid_values(pts[:, j]) for j in range(2)]
    e, corr = build_multivariate_M(f, encs)
    np.testing.assert_allclose(e.data * corr, pts[:, 0] ** 2, atol=1e-12)


def test_multivariate_encoding_coefficients():
    f = MultiPoly(((0.3, (1, 1)), (0.5, (2, 0))), 2)
    pts = np.array([[0.4, 0.2], [-0.3, 0.1]])
    encs = [encode_grid_values(pts[:, j]) for j in range(2)]
    e, corr = build_multivariate_M(f, encs)
    assert corr == pytest.approx(2 * 0.5)  # K = 2, C = 0.5
    np.testing.assert_allclose(e.data * corr, f(pts), atol=1e-12)


def _reference_multivariate_M(f: MultiPoly, axis_encodings, value_scale: float = 1.0):
    """build_multivariate_M with every term building its own powers, as it
    did before powers were reused within one build."""
    n = axis_encodings[0].dim
    c_norm = float(np.max(np.abs([a for a, _ in f.terms])))
    l_max = max(sum(k) for _, k in f.terms)
    term_encodings, signs = [], []
    for a, k in f.terms:
        cur = None
        for j, kj in enumerate(k):
            if kj == 0:
                continue
            if kj == 1:
                pw = axis_encodings[j]
            else:
                pw = be.amplify(transform(axis_encodings[j], Poly([0.0] * kj + [0.5])), 2.0)
            cur = pw if cur is None else be.product(cur, pw)
        if cur is None:
            cur = be.identity(n)
        if sum(k) < l_max and value_scale != 1.0:
            cur = be.scale_down(cur, (1.0 / value_scale) ** (l_max - sum(k)))
        if abs(a) < c_norm:
            cur = be.scale_down(cur, c_norm / abs(a))
        term_encodings.append(cur)
        signs.append(1 if a > 0 else -1)
    return be.lcu(term_encodings, signs), f.term_count * c_norm / value_scale**l_max


def _multivariate_builds():
    """Random 1-3 axis polynomials with few distinct exponents, so powers
    repeat across terms, each on plain axis encodings (value_scale 1) and
    on the Jensen gadgets (value_scale 1/4)."""
    rng = np.random.default_rng(1806)
    for i in range(16):
        dim = 1 + i % 3
        terms = [(float(rng.normal()), tuple(int(v) for v in rng.integers(0, 5, size=dim)))
                 for _ in range(int(rng.integers(2, 9)))]
        f = MultiPoly(terms, dim)
        grid = Grid.uniform(16, dim=dim, seed=i)
        axis_encs = [encode_grid_values(grid.points[:, j]) for j in range(dim)]
        yield f"plain-{i}", f, axis_encs, 1.0
        sqrt_lam = be.encode_state(np.sqrt(WeightVector.uniform(grid.n).lambdas))
        gadgets = [overlap_gadget(e, sqrt_lam) for e in axis_encs]
        yield f"gadget-{i}", f, gadgets, 0.25


@pytest.mark.parametrize("f, encs, value_scale", [c[1:] for c in _multivariate_builds()],
                         ids=[c[0] for c in _multivariate_builds()])
def test_multivariate_encoding_matches_per_term_build(f, encs, value_scale):
    e, corr = build_multivariate_M(f, encs, value_scale=value_scale)
    ref, ref_corr = _reference_multivariate_M(f, encs, value_scale)
    assert e.data.tobytes() == ref.data.tobytes()
    assert (e.alpha.hex(), e.ancillas, e.eps.hex()) == (ref.alpha.hex(), ref.ancillas, ref.eps.hex())
    assert e.ledger == ref.ledger
    assert corr.hex() == ref_corr.hex()


def test_multivariate_encoding_builds_each_power_once(monkeypatch):
    calls = []

    def counting_transform(e, P):
        calls.append(P.degree)
        return transform(e, P)

    monkeypatch.setattr("qshape.tester.transform", counting_transform)
    reused = 0
    for _, f, encs, value_scale in _multivariate_builds():
        calls.clear()
        build_multivariate_M(f, encs, value_scale=value_scale)
        assert len(calls) == len({(j, kj) for _, k in f.terms for j, kj in enumerate(k) if kj >= 2})
        reused += sum(kj >= 2 for _, k in f.terms for kj in k) - len(calls)
    assert reused > 0  # the cases do repeat powers across terms


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
