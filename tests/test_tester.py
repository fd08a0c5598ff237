import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qshape.blockenc as be
import qshape.cli
import qshape.poly
import qshape.qsvt
import qshape.tester
from qshape.blockenc import BlockEnc
from qshape.estimate import EstimatorConfig, amplitude_estimate, overlap_gadget
from qshape.oracle import oracle_convex, oracle_monotone
from qshape.poly import Bounds, MultiPoly, Poly, certified_sup, remap_domain
from qshape.qsvt import transform
from qshape.tester import (
    Grid,
    Outcome,
    WeightVector,
    build_multivariate_M,
    encode_grid_values,
    test_convex_first_derivative,
    test_convex_jensen,
    test_convex_second_derivative,
    test_monotone,
    _MEMO_CAP,
    _jensen_estimates,
    _mask_complement,
    _next_pow2,
)

CFG = EstimatorConfig(eps=0.01, seed=0, noise_mode="exact")


def seeded_grid(n: int, dim: int, seed: int) -> Grid:
    """The n seeded random points that ``Grid.uniform(n, dim, seed)`` gave
    for dim > 1 before uniform grids were tensor products, as an explicit
    grid: tests whose subject is not the grid design keep their inputs."""
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0xD1CE])
    return Grid.from_points(rng.uniform(-0.5, 0.5, size=(n, dim)))


# -- domain types ----------------------------------------------------------


def test_grid_uniform_midpoints():
    g = Grid.uniform(8)
    assert g.n == 8 and g.dim == 1
    np.testing.assert_allclose(g.x, -0.5 + (np.arange(8) + 0.5) / 8)
    assert np.max(np.abs(g.x)) < 0.5  # strictly interior


def test_uniform_grid_is_a_tensor_product_of_midpoint_grids():
    # (n, dim): the m_j midpoints per axis, the first axes taking the odd bits
    cases = {(2, 1): (2,), (8, 1): (8,), (512, 1): (512,), (4, 2): (2, 2), (8, 2): (4, 2),
             (32, 2): (8, 4), (8, 3): (2, 2, 2), (64, 3): (4, 4, 4), (128, 3): (8, 4, 4),
             (256, 3): (8, 8, 4), (16, 4): (2, 2, 2, 2)}
    for (n, dim), sizes in cases.items():
        g = Grid.uniform(n, dim)
        assert g.points.shape == (n, dim) and g.n_original == n
        for j, m in enumerate(sizes):
            values, counts = np.unique(g.points[:, j], return_counts=True)
            assert values.tobytes() == (-0.5 + (np.arange(m) + 0.5) / m).tobytes()
            assert counts.tolist() == [n // m] * m
        # every combination of the axes' midpoints occurs once
        assert len({tuple(p) for p in g.points.tolist()}) == n
    # the univariate grid is the n-point midpoint grid, bit for bit
    for n in (2, 8, 64, 1024):
        assert Grid.uniform(n).x.tobytes() == (-0.5 + (np.arange(n) + 0.5) / n).tobytes()


@pytest.mark.parametrize("n, dim, least", [
    (1, 1, "2^1 = 2"), (2, 2, "2^2 = 4"), (4, 3, "2^3 = 8"), (0, 1, "2^1 = 2"), (8, 4, "2^4 = 16"),
    (1 << 63, 64, "2^64 = 18446744073709551616"), (4, 65, "2^65"),
    # 2^20000 has more digits than Python writes out of an int by default
    (4, 20000, "2^20000")])
def test_uniform_grid_needs_two_midpoints_per_axis(n, dim, least):
    with pytest.raises(ValueError) as err:
        Grid.uniform(n, dim)
    assert str(err.value) == f"a uniform grid of dim {dim} needs at least {least} points; got {n}"


def test_grid_rejects_out_of_domain():
    with pytest.raises(ValueError):
        Grid.from_points([0.0, 0.9])


@pytest.mark.parametrize("build", [
    lambda: Grid.from_points([]),
    lambda: Grid.from_points(np.zeros((0, 2))),
    lambda: Grid(points=np.zeros((0, 1)), n_original=1),
], ids=["empty-list", "empty-2d", "direct"])
def test_grid_names_an_empty_point_list(build):
    with pytest.raises(ValueError, match="^cannot build a grid from an empty point list$"):
        build()


def test_grid_padding_repeats_last_point():
    g = Grid.from_points([-0.4, 0.0, 0.3])
    assert g.n == 4 and g.n_original == 3
    assert g.x[3] == g.x[2]


def test_grid_rejects_non_pow2_without_padding():
    with pytest.raises(ValueError, match="not a power of two"):
        Grid(points=[-0.4, 0.0, 0.3], n_original=3)
    g = Grid.from_points([-0.4, 0.0, 0.3])
    assert (g.n, g.n_original) == (4, 3)


def test_weights_validation():
    with pytest.raises(ValueError):
        WeightVector(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        WeightVector(np.array([1.5, -0.5]))
    w = WeightVector.normalized([1, 3])
    np.testing.assert_allclose(w.lambdas, [0.25, 0.75])
    np.testing.assert_allclose(w.padded(4).lambdas, [0.25, 0.75, 0.0, 0.0])
    assert w.padded(2) is w


def test_weights_store_rounding_below_zero_as_zero():
    w = WeightVector([0.25, 0.25, 0.5, -1e-15])
    assert w.lambdas.tolist() == [0.25, 0.25, 0.5, 0.0] and not w.lambdas.flags.writeable
    assert np.isfinite(w.sqrt_state.state).all()
    # only entries below zero are replaced: a -0.0 beside one keeps its sign
    signed_zero = WeightVector([0.5, 0.5, -0.0, -1e-16])
    assert signed_zero.lambdas.tobytes() == np.array([0.5, 0.5, -0.0, 0.0]).tobytes()


def test_uniform_grids_and_weights_are_shared():
    for n in (2, 8, 512):
        assert Grid.uniform(n) is Grid.uniform(n)
        assert WeightVector.uniform(n) is WeightVector.uniform(n)
    assert Grid.uniform(8) is not Grid.uniform(16)
    # multivariate grids are shared per (n, dim) too; explicit grids are
    # built per call
    assert Grid.uniform(8, dim=2) is Grid.uniform(8, dim=2)
    assert Grid.uniform(8, dim=2) is not Grid.uniform(8, dim=3)
    assert Grid.uniform(8, dim=2) is not Grid.uniform(16, dim=2)
    assert Grid.uniform(8, dim=1) is Grid.uniform(8)
    assert Grid.from_points([-0.4, 0.1]) is not Grid.from_points([-0.4, 0.1])
    multi = Grid.uniform(8, dim=2)
    assert not multi.points.flags.writeable
    assert not any(e.data.flags.writeable for e in multi.axis_encodings)
    g, w = Grid.uniform(8), WeightVector.uniform(8)
    assert w.sqrt_state is w.sqrt_state
    assert w.sqrt_state.state.tobytes() == np.sqrt(w.lambdas).tobytes()
    # everything a shared grid or weight vector hands out is read-only
    arrays = [g.points, g.identity.data, g.mask_complement.data,
              *(e.data for e in g.axis_encodings), w.lambdas, w.sqrt_state.state]
    assert not any(a.flags.writeable for a in arrays)


def test_calls_on_a_shared_grid_build_its_parts_once(monkeypatch):
    # the grid encoding, identity and |sqrt(lambda)> of a uniform
    # grid and its default weights, over two rounds of all four tests
    for cache in (qshape.tester._uniform_grid, qshape.tester._uniform_weights):
        cache.cache_clear()
    built = {"identity": 0, "encode_state": 0, "scale_down": 0}

    def counting(name):
        original = getattr(be, name)
        return lambda *args: built.__setitem__(name, built[name] + 1) or original(*args)

    for name in built:
        monkeypatch.setattr(be, name, counting(name))
    f = Poly([0, 0, 0.25])
    verdicts = []
    for _ in range(2):
        grid, w = Grid.uniform(8), WeightVector.uniform(8)
        verdicts.append([test_convex_second_derivative(f, grid, CFG).ledger,
                         test_convex_first_derivative(f, grid, CFG).ledger,
                         test_monotone(f, grid, "increasing", CFG).ledger,
                         test_convex_jensen(f, grid, w, CFG).ledger])
    # encode_state: the grid and |sqrt(lambda)>; scale_down: the grid
    # encoding's rescaling by |x| < 1
    assert built == {"identity": 1, "encode_state": 2, "scale_down": 1}
    assert verdicts[0] == verdicts[1]


def test_intern_caches_stay_within_their_bound():
    for cache in (qshape.tester._uniform_grid, qshape.tester._uniform_weights):
        cache.cache_clear()
        assert cache.cache_info().maxsize == qshape.tester._INTERNED
    sizes = [1 << k for k in range(1, 2 * qshape.tester._INTERNED + 1)]
    for n in sizes:
        assert Grid.uniform(n).n == WeightVector.uniform(n).n == n
    for cache in (qshape.tester._uniform_grid, qshape.tester._uniform_weights):
        assert cache.cache_info().currsize == qshape.tester._INTERNED
    # an evicted size is rebuilt with the same points
    again = Grid.uniform(sizes[0])
    assert again.points.tobytes() == (-0.5 + (np.arange(2) + 0.5) / 2)[:, None].tobytes()


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
    """A derivative that vanishes identically encodes as zero, so lambda_max
    is 1/2 itself under exact noise and the verdict Inconclusive, with no
    witness: f'' of a line, and every test of a constant of either sign."""
    g = Grid.uniform(8)
    runs = [(CFG.eps, test_convex_second_derivative(Poly([0.1, 0.2]), g, CFG))]
    for c in (0.3, -0.3):
        runs += [(eps, v) for eps, _, _, v in _threshold_verdicts(Poly([c]), g, CFG)]
    assert len(runs) == 9
    for eps, v in runs:
        assert v.outcome == Outcome.INCONCLUSIVE
        assert v.estimates["lambda_max"] == 0.5
        assert v.margin == -2.0 * eps
        assert v.witness is None


def _threshold_verdicts(f, grid, cfg):
    """(eps the estimate was made at, estimate, threshold, verdict) for the
    three threshold tests."""
    for eps, v in ((cfg.eps, test_convex_second_derivative(f, grid, cfg)),
                   (cfg.eps / 4.0, test_convex_first_derivative(f, grid, cfg)),
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
        padded = Grid.from_points([-0.45, -0.3, 0.05, 0.2, 0.4])
        w = WeightVector.normalized(rng.uniform(0.1, 1.0, 5))
        yield (*_jensen_verdict(f, padded, w, cfg), padded, w.padded(8))
    for f in _BAND_MULTIPOLYS:
        weights = (WeightVector.uniform(8), WeightVector.normalized(rng.uniform(0.1, 1.0, 8)))
        for grid in (seeded_grid(8, f.dim, 5), Grid.uniform(8, dim=f.dim)):
            for w in weights:
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
                # the centre alone: the weights are the caller's own input
                assert v.witness == {"center": [float(c) for c in w.lambdas @ grid.points]}
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


# The operator the first-derivative test decides, caught on its way to the
# estimate, and its dense reference: the cyclic increment S stored as an
# n x n permutation matrix, and S^T diag(M1) S multiplied densely.


def _decided_operator(f: Poly, grid: Grid) -> BlockEnc:
    caught = []
    decide = qshape.tester._threshold_test
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qshape.tester, "_threshold_test", lambda e, *args: caught.append(e) or decide(e, *args))
        test_convex_first_derivative(f, grid, CFG)
    (e,) = caught
    return e


def _cyclic_increment(n: int) -> np.ndarray:
    s = np.zeros((n, n))
    s[(np.arange(n) + 1) % n, np.arange(n)] = 1.0  # S|i> = |i + 1 mod n>
    return s


def _dense_decided_operator(f: Poly, grid: Grid) -> BlockEnc:
    bounds = Bounds.from_poly(f)
    n = grid.n
    m1 = transform(encode_grid_values(grid.x), f.derivative().scaled(bounds.d1_sup))
    s = _cyclic_increment(n)
    # S is exact: M1's contract, and S and S^T charged log2(n) depth units each
    shifted = BlockEnc((s.T @ np.diag(m1.data) @ s).diagonal(), alpha=m1.alpha, ancillas=m1.ancillas,
                       eps=m1.eps, ledger=m1.ledger.merged(depth_units=2 * int(round(math.log2(n)))))
    return be.product(_mask_complement(grid), be.lcu([be.identity(n), shifted, m1], [2, -1, 1]))


def _m3_cases():
    rng = np.random.default_rng(2503)
    for k in range(1, 11):
        n = 2**k
        yield f"uniform-{n}", Poly(rng.uniform(-1, 1, size=int(rng.integers(3, 9)))), Grid.uniform(n)
        m = n // 2 + 1 if n > 2 else n  # pads up to n
        pts = np.sort(rng.choice(np.linspace(-0.5, 0.5, 4 * n + 1), size=m, replace=False))
        yield (f"padded-{m}-of-{n}", Poly(rng.uniform(-1, 1, size=int(rng.integers(3, 9)))),
               Grid.from_points(pts))
    # constant derivative, and f' = 0 exactly at a grid point
    yield "linear", Poly([0.3, -0.7]), Grid.uniform(16)
    yield "zero-at-point", Poly([0.0, 0.0, 1.0]), Grid.from_points([-0.25, 0.0, 0.25, 0.5])


@pytest.mark.parametrize("f, grid", [c[1:] for c in _m3_cases()], ids=[c[0] for c in _m3_cases()])
def test_build_M3_matches_dense_reference(f, grid):
    # the masked (2I - S^T M1 S + M1)/4 that the first-derivative test decides
    got, ref = _decided_operator(f, grid), _dense_decided_operator(f, grid)
    assert got.data.tobytes() == ref.data.tobytes()
    assert (got.alpha, got.ancillas, got.eps, got.ledger) == (ref.alpha, ref.ancillas, ref.eps, ref.ledger)


def test_first_derivative_lambda_max_is_the_least_difference():
    # exact noise reads the largest entry, 1/2 - min_i (f'(x_{i+1}) - f'(x_i))/(4P)
    cases = [("example", Poly([0, 0, 1.0]), Grid.from_points([-0.4, -0.2, 0.0, 0.2])), *_m3_cases()]
    for name, f, grid in cases:
        xs = grid.original_points[:, 0]
        least = np.min(np.diff(f.derivative()(xs))) / Bounds.from_poly(f).d1_sup
        lam = test_convex_first_derivative(f, grid, CFG).estimates["lambda_max"]
        assert abs(lam - (0.5 - least / 4.0)) <= 2.0**-52, name


def test_first_derivative_linear_is_inconclusive():
    # f' is constant, so every unmasked entry is 1/2 up to rounding and the
    # masked one is 0
    f, grid = Poly([0.3, 0.5]), Grid.uniform(8)
    e = _decided_operator(f, grid)
    np.testing.assert_allclose(e.data, [0.5] * 7 + [0.0], rtol=0.0, atol=2.0**-52)
    assert test_convex_first_derivative(f, grid, CFG).outcome == Outcome.INCONCLUSIVE


def test_first_derivative_requires_sorted_grid():
    with pytest.raises(ValueError, match="grid points must be strictly increasing"):
        test_convex_first_derivative(Poly([0, 0, 1.0]), Grid.from_points([0.2, -0.2]), CFG)


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
    # once per grid, over the calls that share the grid (a uniform grid
    # fetched again is the same grid), and used once in each call
    qshape.tester._uniform_grid.cache_clear()
    builds, factors = [], []
    build, product = qshape.tester._mask_complement, be.product
    monkeypatch.setattr(qshape.tester, "_mask_complement", lambda grid: builds.append(grid) or build(grid))
    monkeypatch.setattr(be, "product", lambda *es: factors.extend(es) or product(*es))
    explicit = Grid.from_points([-0.4, -0.1, 0.2])
    for fetch in (lambda: Grid.uniform(8), lambda: explicit):
        builds.clear()
        grids = [fetch(), fetch()]
        for grid in grids:
            factors.clear()
            v = test_convex_first_derivative(Poly([0, 0, 0.25]), grid, CFG)
            assert v.outcome == Outcome.CONVEX_ON_GRID
            assert sum(e is grid.mask_complement for e in factors) == 1
        assert grids[0] is grids[1]
        assert len(builds) == 1 and builds[0] is grids[0]


def test_method_all_samples_five_polynomials(tmp_path, monkeypatch):
    """A --method all call certifies 23 sups, but samples only the five
    distinct polynomials it does not rescale: the remap's f(t/2), f, f',
    f'' and Jensen's f(t/GADGET_FACTOR).  Each transform certifies its
    rescaled copy through the sup of the polynomial it rescales."""
    calls = []
    sup = qshape.poly.certified_sup
    for module in (qshape.poly, qshape.tester, qshape.qsvt):
        monkeypatch.setattr(module, "certified_sup", lambda p: calls.append(p) or sup(p))
    coeffs = np.random.default_rng(24).uniform(-1.0, 1.0, 21).tolist()
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"schema": 1, "grid": {"kind": "uniform", "n": 16},
                                   "poly": {"kind": "uni", "coeffs": coeffs}}))
    qshape.poly._sup_univariate.cache_clear()
    code = qshape.cli.main(["test", "--input", str(problem), "--report", str(tmp_path / "report.json"),
                            "--method", "all", "--noise", "exact"])
    assert code in (0, 2)
    assert len(calls) == 23
    assert qshape.poly._sup_univariate.cache_info().misses == 5


def test_first_derivative_mixed_curvature():
    f = Poly([0, 0, -1 / 8, 0, 1.0])  # x^4 - x^2/8, concave near 0
    # the normalized consecutive differences are tiny near 0, so a tight
    # accuracy is needed for a decisive verdict
    v = test_convex_first_derivative(f, Grid.uniform(16), EstimatorConfig(eps=1e-4))
    assert v.outcome == Outcome.NOT_CONVEX


def test_first_derivative_padded_grid_masks_duplicates():
    # duplicated padding points must not produce spurious negative diffs
    g = Grid.from_points([-0.4, -0.25, -0.1, 0.05, 0.2, 0.35])
    v = test_convex_first_derivative(Poly([0, 0, 0.5]), g, CFG)
    assert v.outcome == Outcome.CONVEX_ON_GRID


@st.composite
def _first_derivative_grids(draw):
    """A uniform grid of 2 ... 512 points, or a padded explicit grid of
    2 ... 64 strictly increasing points."""
    if draw(st.booleans()):
        return Grid.uniform(2 ** draw(st.integers(1, 9)))
    m = draw(st.integers(2, 64))
    ticks = draw(st.lists(st.integers(-500, 500), min_size=m, max_size=m, unique=True))
    return Grid.from_points(np.sort(ticks) / 1000.0)


@given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=2, max_size=21),
       _first_derivative_grids(), st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5]))
@settings(max_examples=200, deadline=None)
def test_first_derivative_decides_outside_twice_eps(coeffs, grid, eps):
    # in exact mode the estimate is 1/2 - s/4 with s = min diff / P, decided
    # at eps/4, so a decisive verdict needs |s| > 2 eps, up to a few ulps
    f = Poly(coeffs)
    if f.degree < 1:
        return
    v = test_convex_first_derivative(f, grid, EstimatorConfig(eps=eps))
    s = float(np.min(np.diff(f.derivative()(grid.original_points[:, 0])))) / Bounds.from_poly(f).d1_sup
    ulps = 16 * np.finfo(float).eps
    if v.outcome == Outcome.CONVEX_ON_GRID:
        assert s > 2 * eps - ulps
    elif v.outcome == Outcome.NOT_CONVEX:
        assert s < -2 * eps + ulps


def test_first_derivative_estimation_queries_grow_as_log_n():
    # the decided operator holds 1/2 - diff/(4P) at every n, so the estimate
    # is made at eps/4 and its queries (1/eps')(log2 n + log2(1/eps')) grow with log
    # n alone: 5,058 at n = 2^4 and 9,058 at 2^14 for eps = 0.01
    f = Poly([0.1, -0.2, 0.25, 0.05])
    small, large = (test_convex_first_derivative(f, Grid.uniform(n), CFG).ledger
                    .count("eigenvalue-estimation-queries") for n in (2**4, 2**14))
    assert (small, large) == (5058, 9058)
    assert large <= 2 * small


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


@pytest.mark.parametrize("coeffs", [[0, 0.5], [0.2, -1.0, 0.3, 2.0], [0, 4.0, 0, -6.0, 0, 2.0]])
@pytest.mark.parametrize("grid", [Grid.uniform(16), Grid.from_points([-0.4, -0.1, 0.2])],
                         ids=["uniform", "padded"])
def test_monotone_directions_cost_the_same(coeffs, grid):
    """The decreasing test reads (I + M1)/2 with the one combination the
    increasing test's (I - M1)/2 takes, so both ledgers are equal, and its
    estimate is the increasing test's on -f to the bit."""
    f, neg = Poly(coeffs), Poly([-c for c in coeffs])
    cfg = EstimatorConfig(eps=1e-3, seed=4, noise_mode="uniform")
    inc, dec = (test_monotone(f, grid, d, cfg) for d in ("increasing", "decreasing"))
    assert inc.ledger == dec.ledger
    assert dec.ledger.count("lcu-combinations") == 1
    assert dec.estimates == test_monotone(neg, grid, "increasing", cfg).estimates


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
    g = Grid.from_points([-0.3, 0.0, 0.3])
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
    a_lhs = amplitude_estimate(lhs_enc, cfg, s_lhs, salt=21)
    lhs = a_lhs.value * s_lhs

    bounds = Bounds.from_poly(f)
    m_enc = transform(grid_enc, f.scaled(bounds.f_sup))
    gadget_rhs = overlap_gadget(m_enc, sqrt_lam)
    a_rhs = amplitude_estimate(gadget_rhs, cfg, 4.0 * bounds.f_sup, salt=22)
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
    a_rhs = amplitude_estimate(gadget_rhs, cfg, 4.0 * corr_rhs, salt=22)
    rhs = a_rhs.value * 4.0 * corr_rhs

    gadgets = [overlap_gadget(e, sqrt_lam) for e in axis_encs]
    lhs_enc, corr_lhs = build_multivariate_M(f, gadgets, value_scale=0.25)
    a_lhs = amplitude_estimate(lhs_enc, cfg, corr_lhs, salt=21)
    lhs = a_lhs.value * corr_lhs

    ledger = a_lhs.ledger.merged(a_rhs.ledger)
    scales = {"lhs_scale": corr_lhs, "rhs_scale": 4.0 * corr_rhs, "gadget_factor": 0.25}
    return lhs, rhs, ledger, scales


def _jensen_problems():
    """Random univariate and 2-3 axis multivariate problems, on uniform,
    seeded and padded explicit grids, with padded weights, in both noise
    modes."""
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
            # below 2^dim points (multi-15, multi-21) a tensor grid would
            # leave an axis without two midpoints, so these keep their
            # seeded points
            n = _next_pow2(m)
            grid = Grid.uniform(n, dim=dim) if n >= 2**dim else seeded_grid(n, dim, i)
        else:
            pts = rng.uniform(-0.5, 0.5, size=(m, dim))
            grid = Grid.from_points(np.sort(pts, axis=0) if dim == 1 else pts)
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
    assert corr == 0.3 + 0.5  # the weights' magnitudes, summed
    np.testing.assert_allclose(e.data * corr, f(pts), atol=1e-12)


def test_multivariate_encoding_sums_unequal_weights_once():
    """Unequal term weights: one weighted lcu, normalized by the sum of
    their magnitudes, which lies below K times the largest; the ledger
    charges the weight state's preparation and its inverse, and no scaling."""
    f = MultiPoly(((0.3, (1, 1)), (-0.5, (2, 0)), (0.125, (0, 0))), 2)
    pts = np.array([[0.4, 0.2], [-0.3, 0.1]])
    bare = [BlockEnc(pts[:, j], alpha=1.0, ancillas=0, eps=0.0) for j in range(2)]
    e, corr = build_multivariate_M(f, bare)
    assert corr == math.fsum([0.3, 0.5, 0.125]) < 3 * 0.5
    np.testing.assert_allclose(e.data * corr, f(pts), atol=1e-12)
    assert e.ledger.count("scalings") == 0
    # the same terms under equal magnitudes are combined through Hadamards;
    # unequal ones add two preparations on ceil(log2 3) = 2 index qubits
    equal, _ = build_multivariate_M(MultiPoly(((0.5, (1, 1)), (-0.5, (2, 0)), (0.5, (0, 0))), 2), bare)
    assert equal.ledger.count("state-prep-queries") == 0
    assert e.ledger == equal.ledger.merged(depth_units=2 * 2, **{"state-prep-queries": 2})


def _reference_multivariate_M(f: MultiPoly, axis_encodings, box=None, value_scale: float = 1.0):
    """build_multivariate_M with every term building its own powers, in
    Python floats: per use, one transform of ((c + w y/v)/M)^k / 2 with
    M = |c| + w/v, amplified by 2 where ((|c| + w/2)/M)^k <= 3/4 (at the
    grid's 1e-9 tolerance) and otherwise doubling the term's weight
    a prod M^k; then one lcu of the terms under their weights."""
    n = axis_encodings[0].dim
    centres, widths = box if box is not None else ([0.0] * f.dim, [1.0] * f.dim)
    terms = []
    for a, k in f.terms:
        weight, cur = a, None
        for j, kj in enumerate(k):
            c, w = float(centres[j]), float(widths[j])
            m = abs(c) + w / value_scale
            weight *= m**kj
            if kj == 0:
                continue
            if c == 0.0 and kj == 1:
                pw = axis_encodings[j]
            else:
                coeffs = [0.5 * math.comb(kj, i) * (c / m) ** (kj - i) * (w / (value_scale * m)) ** i
                          for i in range(kj + 1)]
                pw = transform(axis_encodings[j], Poly(coeffs))
                if ((abs(c) + w * (0.5 + 1e-9)) / m) ** kj <= 0.75:
                    pw = be.amplify(pw, 2.0)
                else:
                    weight *= 2.0
            cur = pw if cur is None else be.product(cur, pw)
        terms.append((weight, be.identity(n) if cur is None else cur))
    weights = [wt for wt, _ in terms]
    return be.lcu([e for _, e in terms], weights), math.fsum(abs(wt) for wt in weights)


def _random_box(rng, i, dim):
    """Centred, off-centre, and narrow far boxes (where no power of degree
    above 1 is amplified on the grid side)."""
    widths = rng.uniform(0.2, 3.0, size=dim)
    if i % 3 == 0:
        return np.zeros(dim), widths
    if i % 3 == 1:
        return rng.uniform(-3.0, 3.0, size=dim), widths
    return rng.choice([-1.0, 1.0], size=dim) * 10 ** rng.uniform(1, 3, size=dim), 10 ** rng.uniform(-2, 0, size=dim)


def _multivariate_builds():
    """Random 1-3 axis polynomials with few distinct exponents, so powers
    repeat across terms, each on plain axis encodings (value_scale 1) and
    on the Jensen gadgets (value_scale 1/4), in the working domain and on a
    random box."""
    rng = np.random.default_rng(1806)
    for i in range(16):
        dim = 1 + i % 3
        terms = [(float(rng.normal()), tuple(int(v) for v in rng.integers(0, 5, size=dim)))
                 for _ in range(int(rng.integers(2, 9)))]
        f = MultiPoly(terms, dim)
        # seeded points: on a tensor grid every column is symmetric about 0,
        # so each uniform-weight gadget would hold w = 0 on every axis
        grid = Grid.uniform(16) if dim == 1 else seeded_grid(16, dim, i)
        axis_encs = [encode_grid_values(grid.points[:, j]) for j in range(dim)]
        sqrt_lam = be.encode_state(np.sqrt(WeightVector.uniform(grid.n).lambdas))
        gadgets = [overlap_gadget(e, sqrt_lam) for e in axis_encs]
        box = _random_box(rng, i, dim)
        yield f"plain-{i}", f, axis_encs, None, 1.0
        yield f"gadget-{i}", f, gadgets, None, 0.25
        yield f"box-plain-{i}", f, axis_encs, box, 1.0
        yield f"box-gadget-{i}", f, gadgets, box, 0.25


@pytest.mark.parametrize("f, encs, box, value_scale", [c[1:] for c in _multivariate_builds()],
                         ids=[c[0] for c in _multivariate_builds()])
def test_multivariate_encoding_matches_per_term_build(f, encs, box, value_scale):
    e, corr = build_multivariate_M(f, encs, box, value_scale)
    ref, ref_corr = _reference_multivariate_M(f, encs, box, value_scale)
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
    for _, f, encs, box, value_scale in _multivariate_builds():
        calls.clear()
        build_multivariate_M(f, encs, box, value_scale)
        centres = np.zeros(f.dim) if box is None else box[0]
        # every power is a transform, but for exponent 1 on a centred axis
        uses = [(j, kj) for _, k in f.terms for j, kj in enumerate(k)
                if kj >= 2 or (kj == 1 and centres[j] != 0.0)]
        assert len(calls) == len(set(uses))
        reused += len(uses) - len(calls)
    assert reused > 0  # the cases do repeat powers across terms


# one problem, written once for this process and once for a fresh one
_MEMO_CASE = """
import json
import numpy as np
from qshape import EstimatorConfig, Grid, MultiPoly, WeightVector, test_convex_jensen
f = MultiPoly([(0.7, (2, 0)), (-0.4, (1, 3)), (0.25, (4, 2)), (1.1, (0, 2)), (-0.3, (3, 1))], 2)
grid = Grid.uniform(32, dim=2)
w = WeightVector.normalized(np.random.default_rng(3).exponential(1.0, 32))
cfg = EstimatorConfig(eps=1e-3, seed=0, noise_mode="exact")
second_box = (np.zeros(2), np.array([1.5, 0.75]))

def summary(v):
    return json.dumps({"outcome": v.outcome, "margin": v.margin.hex(), "witness": v.witness,
                       "estimates": {k: x.hex() for k, x in v.estimates.items()},
                       "ledger": v.ledger.as_dict()}, sort_keys=True)
"""


def test_jensen_reuses_the_grid_memo_on_centred_boxes(monkeypatch):
    """A second call on the same interned grid, on a centred box of another
    width, transforms none of the grid's axis encodings: its powers are the
    y^k/2 that the first call built.  Its verdict, estimates and ledger are
    those of a cold build in a fresh process."""
    case = {}
    exec(_MEMO_CASE, case)
    grid = case["grid"]
    assert grid is Grid.uniform(32, dim=2)
    grid.multivariate_memo.entries.clear()
    grid_side = []

    def counting_transform(e, *args):
        grid_side.append(any(e is a for a in grid.axis_encodings))
        return transform(e, *args)

    monkeypatch.setattr("qshape.tester.transform", counting_transform)
    run = lambda box: test_convex_jensen(case["f"], grid, case["w"], case["cfg"], box=box)
    run((np.zeros(2), np.array([0.5, 2.0])))
    assert grid_side.count(True) > 0
    grid_side.clear()
    warm = run(case["second_box"])
    assert grid_side and not any(grid_side)  # the gadgets are still this call's own
    src = os.path.dirname(os.path.dirname(qshape.tester.__file__))
    script = _MEMO_CASE + "print(summary(test_convex_jensen(f, grid, w, cfg, box=second_box)))"
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == case["summary"](warm) + "\n"


def test_grid_memo_stays_within_its_cap():
    """Distinct off-centre boxes, one more than the cap, each add entries;
    the memo drops the least recently used, and every build equals a fresh
    one (no memo) bit for bit, also right after the mirror image of its box,
    whose odd power differs only in the sign of alpha."""
    grid = Grid.uniform(8)
    memo = grid.multivariate_memo
    f = MultiPoly([(1.0, (2,)), (-0.5, (3,))], 1)
    for i in range(_MEMO_CAP + 1):
        box = (np.array([(-1) ** i * (0.1 + i // 2 / 1024)]), np.ones(1))
        e, corr = build_multivariate_M(f, grid.axis_encodings, box, memo=memo)
        assert len(memo.entries) <= _MEMO_CAP
        if i % 64 == 1 or i == _MEMO_CAP:
            ref, ref_corr = build_multivariate_M(f, grid.axis_encodings, box)
            assert e.data.tobytes() == ref.data.tobytes()
            assert (e.alpha, e.ancillas, e.eps.hex(), e.bound.hex(), corr.hex()) == \
                (ref.alpha, ref.ancillas, ref.eps.hex(), ref.bound.hex(), ref_corr.hex())
            assert e.ledger == ref.ledger
    assert len(memo.entries) == _MEMO_CAP


def _reference_correction(f: MultiPoly, box, value_scale: float):
    """The correction sum |w| of the rule the build follows, term by term and
    axis by axis in Python floats, or None where the box overflows: a term
    weight is a prod_j M_j^k_j, doubled for each power that the box does
    not let be amplified; terms whose weight underflows to 0 drop out."""
    weights = []
    for a, k in f.terms:
        weight = a
        for c, w, kj in zip(*box, k):
            m = abs(c) + w / value_scale
            try:
                weight *= m**kj
            except OverflowError:
                return None
            if kj and not (c == 0.0 and kj == 1) and ((abs(c) + w * (0.5 + 1e-9)) / m) ** kj > 0.75:
                weight *= 2.0
        if not math.isfinite(weight):
            return None
        if weight != 0.0:
            weights.append(abs(weight))
    if not weights:
        return 1.0
    try:
        return math.fsum(weights)
    except OverflowError:  # raised by fsum where finite terms sum past the largest float
        return None


@st.composite
def _box_cases(draw):
    """dim 1-3, exponents <= 6, huge and subnormal coefficients, centred,
    off-centre and overflowing boxes, on either side of Jensen."""
    dim = draw(st.integers(min_value=1, max_value=3))
    coeff = st.one_of(st.sampled_from([1e308, -1e308, 5e-324]),
                      st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=6)] * dim)
    f = MultiPoly(draw(st.lists(st.tuples(coeff, exponents), min_size=1, max_size=8)), dim)
    centres, widths = [], []
    for _ in range(dim):
        centred = draw(st.booleans())
        centres.append(0.0 if centred else draw(st.one_of(
            st.floats(min_value=-10.0, max_value=10.0), st.sampled_from([-1e200, 1e150, 1e3]))))
        widths.append(draw(st.one_of(st.floats(min_value=1e-3, max_value=20.0),
                                     st.sampled_from([1e-300, 1e-2, 1e200, 1.7e308]))))
    return f, (centres, widths), draw(st.sampled_from([1.0, 0.25]))


@given(_box_cases())
# products that overflow; an M whose power overflows; a term that overflows
# on one axis and underflows on the next; an M that overflows on an axis no
# term uses, and on one a term uses
@example((MultiPoly(((1e308, (2, 0)), (1e308, (0, 1))), 2), ([2.0, 2.0], [4.0, 4.0]), 1.0))
@example((MultiPoly(((1.0, (3, 0)),), 2), ([1.5e200, 2.0], [1e200, 4.0]), 1.0))
@example((MultiPoly(((1e300, (1, 6)),), 2), ([0.0, 0.0], [2e200, 2e-60]), 1.0))
@example((MultiPoly(((1.0, (1, 0)),), 2), ([0.5, -4.5e307], [1.0, 1.1e308]), 0.25))
@example((MultiPoly(((1.0, (0, 1)),), 2), ([0.5, -4.5e307], [1.0, 1.1e308]), 0.25))
@settings(max_examples=300, deadline=None)
def test_multivariate_box_weights_match_per_term_reference(case):
    """The build fails closed, with one named error, exactly where the rule
    overflows, and otherwise returns the rule's correction bit for bit."""
    f, box, value_scale = case
    t = np.array([-0.5, -0.1, 0.2, 0.5])
    encs = [BlockEnc(value_scale * np.roll(t, j), alpha=1.0, ancillas=0, eps=0.0) for j in range(f.dim)]
    want = _reference_correction(f, box, value_scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is None:
            with pytest.raises(ValueError, match="^coefficients overflow on this box: "):
                build_multivariate_M(f, encs, box, value_scale)
            return
        _, correction = build_multivariate_M(f, encs, box, value_scale)
    assert correction.hex() == want.hex()


def test_multivariate_encoding_adds_no_scalings():
    """On encodings whose own ledgers hold no scaling, the encoding holds
    none either, on both sides of Jensen and on every kind of box: the
    weighted lcu weights each term itself."""
    for _, f, encs, box, value_scale in _multivariate_builds():
        bare = [BlockEnc(e.data, alpha=1.0, ancillas=0, eps=0.0) for e in encs]
        e, _ = build_multivariate_M(f, bare, box, value_scale)
        assert e.ledger.count("scalings") == 0


def test_multivariate_jensen_scales_on_centred_boxes():
    """On a centred box every power is amplified, so the right side's scale
    is 4 sum |a prod w^k| and the left side's at most 4^L times less the 4."""
    rng = np.random.default_rng(2503)
    for i in range(40):
        dim = int(rng.integers(2, 4))
        terms = [(float(rng.normal()), tuple(int(v) for v in rng.integers(0, 7, size=dim)))
                 for _ in range(int(rng.integers(2, 13)))]
        f = MultiPoly(terms, dim)
        widths = rng.uniform(0.5, 3.0, size=dim)
        grid = Grid.uniform(16, dim=dim)
        w = WeightVector.normalized(rng.exponential(1.0, grid.n))
        v = test_convex_jensen(f, grid, w, CFG, box=(np.zeros(dim), widths))
        weights = []
        for a, k in f.terms:
            for wj, kj in zip(widths.tolist(), k):
                a *= wj**kj
            weights.append(abs(a))
        total = math.fsum(weights)
        assert total < f.term_count * max(weights)  # the K*C of scaling each term to the largest
        assert v.estimates["rhs_scale"] == 4.0 * total
        assert v.estimates["lhs_scale"] <= total * 4.0 ** max(sum(k) for _, k in f.terms)
        res = oracle_convex(f, widths * grid.points, weights=w.lambdas)
        assert v.estimates["jensen_lhs"] == pytest.approx(res.details["lhs"], rel=1e-9, abs=1e-9)
        assert v.estimates["jensen_rhs"] == pytest.approx(res.details["rhs"], rel=1e-9, abs=1e-9)


def _terms(count: int) -> MultiPoly:
    """``count`` distinct monomials in three variables, each of degree < 5."""
    return MultiPoly([(1.0, k) for k in itertools.islice(itertools.product(range(5), repeat=3), count)], 3)


def test_multivariate_encoding_caps():
    f = MultiPoly(((1.0, (20,)),), 1)
    enc = encode_grid_values(np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        build_multivariate_M(f, [enc])
    # the term cap admits 64 terms (65 are refused below)
    _, correction = build_multivariate_M(_terms(64), Grid.uniform(8, 3).axis_encodings)
    assert correction == 64.0


_QUADRATIC = Poly([0.0, 0.0, 1.0])
_BOWL = MultiPoly([(1.0, (2, 0)), (1.0, (0, 2))], 2)
_UNIT_BOX = (np.zeros(1), np.ones(1))
_W8 = WeightVector.uniform(8)

# (call, the error it raises) for input the library refuses
LIBRARY_REFUSALS = {
    "term-cap": (lambda: build_multivariate_M(_terms(65), Grid.uniform(8, 3).axis_encodings),
                 "term count 65 exceeds cap 64"),
    "jensen-weight-count": (lambda: test_convex_jensen(_QUADRATIC, Grid.uniform(8),
                                                       WeightVector.uniform(4), CFG),
                            "weight count must match grid size"),
    "univariate-box": (lambda: test_convex_jensen(_QUADRATIC, Grid.uniform(8), _W8, CFG, box=_UNIT_BOX),
                       "a univariate polynomial is read in working coordinates and takes no box"),
    "second-deriv-dim": (lambda: test_convex_second_derivative(_QUADRATIC, Grid.uniform(8, 2), CFG),
                         "the derivative-sign tests are univariate"),
    "monotone-dim": (lambda: test_monotone(_QUADRATIC, Grid.uniform(8, 2), "increasing", CFG),
                     "the derivative-sign tests are univariate"),
    "first-deriv-dim": (lambda: test_convex_first_derivative(_QUADRATIC, Grid.uniform(8, 2), CFG),
                        "the first-derivative construction is univariate"),
    "jensen-grid-dim": (lambda: test_convex_jensen(_QUADRATIC, Grid.uniform(8, 2), _W8, CFG),
                        "univariate Jensen test requires a univariate grid"),
    "jensen-poly-dim": (lambda: test_convex_jensen(_BOWL, Grid.uniform(8), _W8, CFG),
                        "polynomial dimension must match the grid"),
    "axis-count": (lambda: build_multivariate_M(_BOWL, Grid.uniform(8).axis_encodings),
                   "one axis encoding per variable required"),
    "axis-size": (lambda: build_multivariate_M(_BOWL, [Grid.uniform(4).axis_encodings[0],
                                                      Grid.uniform(8).axis_encodings[0]]),
                  "axis encodings must share a dimension"),
    "box-axes": (lambda: build_multivariate_M(_BOWL, Grid.uniform(8, 2).axis_encodings, box=_UNIT_BOX),
                 "one box interval per variable required"),
    "memo-axes": (lambda: build_multivariate_M(_BOWL, Grid.uniform(8, 2).axis_encodings,
                                               memo=Grid.uniform(16, 2).multivariate_memo),
                  "a build memo serves only the axis encodings it was made for"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REFUSALS))
def test_library_refusals_name_their_cause(case):
    call, message = LIBRARY_REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# -- cross-cutting properties ---------------------------------------------


@given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=3, max_size=7),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_scale_invariance_of_outcomes(coeffs, s):
    f = Poly(coeffs)
    g = Grid.uniform(8)
    fs = Poly(np.array(coeffs) * s)
    for run in (test_convex_second_derivative, lambda a, b, c: test_monotone(a, b, "increasing", c)):
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
    m = test_monotone(f, g, "increasing", CFG)
    if m.outcome != Outcome.INCONCLUSIVE:
        res = oracle_monotone(f, g.points, "increasing")
        expected = "monotone" if m.outcome == Outcome.MONOTONE_INCREASING else "not_monotone"
        assert res.verdict == expected
