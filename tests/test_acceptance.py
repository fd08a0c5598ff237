"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
summary lines.
"""

import json
import math
import time

import numpy as np
import pytest
from test_tester import seeded_grid

from qshape.blockenc import BlockEnc
from qshape.cli import main
from qshape.estimate import EstimatorConfig
from qshape.oracle import oracle_convex, oracle_monotone
from qshape.poly import Bounds, MultiPoly, Poly, certified_sup, remap_domain
from qshape.qsvt import build_M_family, transform
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
)

EXACT = EstimatorConfig(eps=0.01, seed=0, noise_mode="exact")


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def random_poly(rng, max_degree=6):
    degree = int(rng.integers(1, max_degree + 1))
    return Poly(rng.uniform(-1, 1, degree + 1))


CONVEX_OUTCOMES = {Outcome.CONVEX_ON_GRID: "convex", Outcome.NOT_CONVEX: "not_convex"}
JENSEN_OUTCOMES = {Outcome.CONVEX_ON_GRID: "jensen_consistent", Outcome.NOT_CONVEX: "jensen_violated"}


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.time()
    disagreements = 0
    checked = 0
    grids = {n: Grid.uniform(n) for n in (8, 64, 256)}
    weights = {n: WeightVector.uniform(n) for n in (8, 64, 256)}
    for _ in range(500):
        f = random_poly(rng)
        for n, grid in grids.items():
            pts = grid.points

            v = test_convex_second_derivative(f, grid, EXACT)
            if v.outcome in CONVEX_OUTCOMES:
                checked += 1
                if oracle_convex(f, pts, mode="second").verdict != CONVEX_OUTCOMES[v.outcome]:
                    disagreements += 1

            v = test_convex_first_derivative(f, grid, EXACT)
            if v.outcome in CONVEX_OUTCOMES:
                checked += 1
                if oracle_convex(f, pts, mode="first").verdict != CONVEX_OUTCOMES[v.outcome]:
                    disagreements += 1

            v = test_convex_jensen(f, grid, weights[n], EXACT)
            if v.outcome in JENSEN_OUTCOMES:
                checked += 1
                if oracle_convex(f, pts, weights=weights[n].lambdas).verdict != JENSEN_OUTCOMES[v.outcome]:
                    disagreements += 1

            v = test_monotone(f, grid, "increasing", EXACT)
            if v.outcome in (Outcome.MONOTONE_INCREASING, Outcome.NOT_MONOTONE):
                checked += 1
                expected = "monotone" if v.outcome == Outcome.MONOTONE_INCREASING else "not_monotone"
                if oracle_monotone(f, pts, "increasing").verdict != expected:
                    disagreements += 1
    elapsed = time.time() - start
    report(
        "criterion 1 oracle equivalence",
        disagreements == 0 and elapsed < 120.0,
        f"{checked} decisive verdicts, {disagreements} disagreements, {elapsed:.1f} s",
    )


def test_criterion_2_reference_examples():
    cfg = EstimatorConfig(eps=1e-3, seed=0, noise_mode="exact")
    grid = Grid.uniform(16)

    f, _ = remap_domain(Poly([1.0, -2.0, 0.0, 1.0]), 0.6, 1.4)
    convex_outcomes = [
        test_convex_second_derivative(f, grid, cfg).outcome,
        test_convex_first_derivative(f, grid, cfg).outcome,
        test_convex_jensen(f, grid, WeightVector.uniform(16), cfg).outcome,
    ]

    g, _ = remap_domain(Poly([0.0, 4.0, 0.0, -6.0, 0.0, 2.0]), 0.7, 1.25)
    # pre-verify the interval with the oracle before trusting the pipeline
    oracle_ok = oracle_monotone(g, grid.points, "decreasing").verdict == "monotone"
    mono_outcome = test_monotone(g, grid, "decreasing", cfg).outcome

    ok = (
        all(o == Outcome.CONVEX_ON_GRID for o in convex_outcomes)
        and oracle_ok
        and mono_outcome == Outcome.MONOTONE_DECREASING
    )
    report(
        "criterion 2 reference examples",
        ok,
        f"convexity {convex_outcomes}, monotone {mono_outcome}, oracle pre-check {oracle_ok}",
    )


def test_criterion_3_transform_contract():
    base = BlockEnc(np.array([0.25, -0.25]), alpha=1.0, ancillas=0, eps=0.0)
    counts_ok = True
    for d in range(1, 11):
        p = Poly([0.0] * d + [0.5 * 0.5**d])
        t = transform(base, p)
        counts_ok = counts_ok and t.ledger.count("base-encoding-queries") == d

    rng = np.random.default_rng(7)
    violations = 0
    trials = 0
    for eta in (1e-4, 1e-6):
        for _ in range(500):
            trials += 1
            d = int(rng.integers(1, 11))
            alpha = float(rng.uniform(1.0, 2.0))
            coeffs = rng.uniform(-1, 1, d + 1)
            coeffs[-1] = rng.choice([-1, 1]) * max(abs(coeffs[-1]), 0.1)
            p = Poly(coeffs)
            p = p.scaled(2.0 * certified_sup(p))
            xs = alpha * rng.uniform(-0.4, 0.4, 8)
            delta = rng.uniform(-eta, eta, 8)
            clean = transform(BlockEnc(xs, alpha=alpha, ancillas=0, eps=eta), p)
            noisy = transform(BlockEnc(xs + delta, alpha=alpha, ancillas=0, eps=eta), p)
            deviation = float(np.max(np.abs(noisy.data - clean.data)))
            bound = 4.0 * p.degree * math.sqrt(eta / alpha)
            if deviation > bound:
                violations += 1
            assert clean.eps == pytest.approx(bound)
    report(
        "criterion 3 transform contract",
        counts_ok and violations == 0,
        f"query counts d=1..10 exact, {violations}/{trials} deviation-bound violations",
    )


def test_criterion_4_threshold_identity():
    rng = np.random.default_rng(11)
    eps = 0.01
    cfg = EstimatorConfig(eps=eps, seed=0, noise_mode="exact")
    worst = 0.0
    sign_ok = True
    for _ in range(100):
        f = random_poly(rng)
        if f.degree < 2:
            f = Poly(list(f.coeffs) + [rng.uniform(0.2, 1.0)])
        n = int(rng.choice([8, 16, 32]))
        grid = Grid.uniform(n)
        bounds = Bounds.from_poly(f)
        fam = build_M_family(f, encode_grid_values(grid.x), bounds)
        lam_min = float(np.min(fam.M2.data))
        v = test_convex_second_derivative(f, grid, cfg)
        worst = max(worst, abs(v.estimates["lambda_max"] - (1.0 - lam_min) / 2.0))
        # the decision must flip with the sign of min f'' when the
        # normalized magnitude clears the 2*eps decision band
        if lam_min > 4.0 * eps:
            sign_ok = sign_ok and v.outcome == Outcome.CONVEX_ON_GRID
        elif lam_min < -4.0 * eps:
            sign_ok = sign_ok and v.outcome == Outcome.NOT_CONVEX
    report(
        "criterion 4 threshold identity",
        worst <= 1e-10 and sign_ok,
        f"max identity error {worst:.2e}, sign decisions consistent: {sign_ok}",
    )


def test_criterion_5_jensen_estimates():
    rng = np.random.default_rng(23)
    eps = 0.01
    worst = 0.0
    for trial in range(200):
        cfg = EstimatorConfig(eps=eps, seed=trial, noise_mode="uniform")
        n = int(rng.choice([4, 8, 16]))
        grid_dim = 1 if trial < 120 else int(rng.integers(2, 5))
        if grid_dim == 1:
            f = random_poly(rng)
            grid = Grid.uniform(n)
        else:
            k_terms = int(rng.integers(1, 9))
            terms = tuple(
                (float(rng.uniform(-1, 1)), tuple(int(v) for v in rng.integers(0, 4, grid_dim)))
                for _ in range(k_terms)
            )
            f = MultiPoly(terms, grid_dim)
            grid = seeded_grid(n, grid_dim, trial)
        w = WeightVector.normalized(rng.uniform(0.05, 1.0, n))
        v = test_convex_jensen(f, grid, w, cfg)
        res = oracle_convex(f, grid.points, weights=w.lambdas)
        worst = max(
            worst,
            abs(v.estimates["jensen_lhs"] - res.details["lhs"]),
            abs(v.estimates["jensen_rhs"] - res.details["rhs"]),
        )
    report(
        "criterion 5 jensen estimate accuracy",
        worst <= eps,
        f"max |estimate - oracle| = {worst:.4g} <= eps = {eps}",
    )


def test_criterion_6_multivariate_fidelity():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        k_terms = int(rng.integers(1, 9))
        terms = tuple(
            (float(rng.uniform(-1, 1)), tuple(int(v) for v in rng.integers(0, 4, dim)))
            for _ in range(k_terms)
        )
        f = MultiPoly(terms, dim)
        pts = rng.uniform(-0.5, 0.5, (8, dim))
        encs = [encode_grid_values(pts[:, j]) for j in range(dim)]
        e, correction = build_multivariate_M(f, encs)
        worst = max(worst, float(np.max(np.abs(e.data * correction - f(pts)))))
    report(
        "criterion 6 multivariate encoding fidelity",
        worst <= 1e-10,
        f"max |entries*correction - f| = {worst:.2e}",
    )


def _loglog_fit(ns, depths):
    x = np.log(np.log2(np.asarray(ns, dtype=float)))
    y = np.log(np.asarray(depths, dtype=float))
    a = np.vstack([x, np.ones_like(x)]).T
    coef, residual, *_ = np.linalg.lstsq(a, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - (float(residual[0]) if residual.size else 0.0) / ss_tot
    return float(coef[0]), r2


def test_criterion_7_ledger_scaling():
    cfg = EstimatorConfig(eps=0.01, seed=0, noise_mode="exact")
    f = Poly([0.1, -0.2, 0.25, 0.05])
    ns = [2**k for k in range(4, 13)]
    second, jensen = [], []
    for n in ns:
        grid = Grid.uniform(n)
        second.append(test_convex_second_derivative(f, grid, cfg).ledger.depth_units)
        jensen.append(test_convex_jensen(f, grid, WeightVector.uniform(n), cfg).ledger.depth_units)
    slope2, r2_second = _loglog_fit(ns, second)
    slope_j, r2_jensen = _loglog_fit(ns, jensen)
    report(
        "criterion 7 ledger scaling",
        r2_second >= 0.95 and r2_jensen >= 0.95,
        f"second-deriv R^2 {r2_second:.4f} (slope {slope2:.2f}), "
        f"jensen R^2 {r2_jensen:.4f} (slope {slope_j:.2f})",
    )


def test_criterion_8_determinism(tmp_path):
    problem = {
        "schema": 1,
        "poly": {"kind": "uni", "coeffs": [1.0, -2.0, 0.0, 1.0]},
        "domain": [[0.6, 1.4]],
        "grid": {"kind": "uniform", "n": 16},
    }
    inp = tmp_path / "problem.json"
    inp.write_text(json.dumps(problem))
    blobs = set()
    for i in range(10):
        out = tmp_path / f"report{i}.json"
        code = main(["test", "--input", str(inp), "--report", str(out), "--method", "all",
                     "--seed", "123", "--noise", "uniform", "--eps", "0.001"])
        assert code == 0
        blobs.add(out.read_bytes())
    report(
        "criterion 8 report determinism",
        len(blobs) == 1,
        f"{len(blobs)} distinct byte streams across 10 runs",
    )
