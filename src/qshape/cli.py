"""Command-line front end: parse a problem file, run the requested tests,
and emit a deterministic JSON report with verdicts, margins, oracle
cross-checks, and the resource ledger.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .estimate import EstimatorConfig
from .oracle import oracle_convex, oracle_monotone
from .poly import MultiPoly, Poly, poly_from_json, remap_domain
from .tester import (
    Grid,
    Outcome,
    Verdict,
    WeightVector,
    test_convex_first_derivative,
    test_convex_jensen,
    test_convex_second_derivative,
    test_monotone,
)

METHODS = ("second-deriv", "first-deriv", "jensen", "monotone", "all")

_AGREES = {
    Outcome.CONVEX_ON_GRID: {"convex", "jensen_consistent"},
    Outcome.NOT_CONVEX: {"not_convex", "jensen_violated"},
    Outcome.MONOTONE_INCREASING: {"monotone"},
    Outcome.MONOTONE_DECREASING: {"monotone"},
    Outcome.NOT_MONOTONE: {"not_monotone"},
}


class InputError(Exception):
    pass


def _warn(msg: str):
    print(f"warning: {msg}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qshape", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    t = sub.add_parser("test", help="run shape tests from a problem file")
    t.add_argument("--input", required=True, help="problem JSON file")
    t.add_argument("--method", choices=METHODS, default="all")
    t.add_argument("--n", type=int, default=None, help="uniform grid size override")
    t.add_argument("--eps", type=float, default=0.01)
    t.add_argument("--seed", type=int, default=None,
                   help="noise seed (default: QSHAPE_SEED env var, else 0)")
    t.add_argument("--noise", choices=("exact", "uniform"), default="exact")
    t.add_argument("--direction", choices=("inc", "dec"), default="inc")
    t.add_argument("--report", default=None, help="report file (default: stdout)")
    t.add_argument("--oracle-check", choices=("on", "off"), default="on")
    return parser


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("QSHAPE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"QSHAPE_SEED is not an integer: {env!r}") from exc
    return 0


def _load_problem(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("schema") != 1:
        raise InputError('input file must be an object with "schema": 1')
    return obj


def _finite_array(raw, what: str) -> np.ndarray:
    """A JSON list of finite numbers (possibly nested) as a float array."""
    if not isinstance(raw, list):
        raise InputError(f"{what} must be a list of numbers")
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be a list of numbers: {exc}") from exc
    if not np.isfinite(arr).all():
        raise InputError(f"{what} must be finite numbers")
    return arr


def _parse_poly(obj) -> Poly | MultiPoly:
    try:
        return poly_from_json(obj)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad polynomial: {exc}") from exc


def _domains(obj: dict, dim: int) -> list[tuple[float, float]]:
    raw = obj.get("domain", [[-0.5, 0.5]] * dim)
    if not isinstance(raw, list) or len(raw) != dim:
        raise InputError(f"'domain' must list one [a, b] interval per axis (dim={dim})")
    out = []
    for ab in raw:
        iv = _finite_array(ab, f"domain interval {ab!r}")
        if iv.shape != (2,) or not iv[0] < iv[1]:
            raise InputError(f"bad domain interval {ab!r}")
        out.append((float(iv[0]), float(iv[1])))
    return out


def _to_working(points: np.ndarray, domains) -> np.ndarray:
    out = np.empty_like(points)
    for j, (a, b) in enumerate(domains):
        c, w = (a + b) / 2.0, b - a
        out[:, j] = (points[:, j] - c) / w
    return out


def _to_user(t, domains):
    a, b = domains[0]
    c, w = (a + b) / 2.0, b - a
    if isinstance(t, tuple):
        return tuple(c + w * v for v in t)
    return c + w * t


def _build_grid(obj: dict, dim: int, domains, n_flag, seed: int) -> Grid:
    spec = obj.get("grid", {"kind": "uniform", "n": 64})
    if not isinstance(spec, dict):
        raise InputError("'grid' must be an object with a 'kind' field")
    kind = spec.get("kind")
    if kind == "uniform":
        n = n_flag if n_flag is not None else spec.get("n", 64)
        if not (isinstance(n, int) and n >= 2):
            raise InputError(f"bad grid size {n!r}")
        if n & (n - 1):
            padded = 1 << (n - 1).bit_length()
            _warn(f"grid size {n} is not a power of two; using {padded}")
            n = padded
        return Grid.uniform(n, dim=dim, seed=seed)
    if kind == "explicit":
        pts = _finite_array(spec.get("points"), "explicit grid points")
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InputError("explicit grid points must be a nonempty list of points")
        if pts.shape[1] != dim:
            raise InputError(f"explicit points have dim {pts.shape[1]}, expected {dim}")
        if n_flag is not None:
            _warn("--n is ignored for explicit grids")
        working = _to_working(pts, domains)
        if np.max(np.abs(working)) > 0.5 + 1e-9:
            raise InputError("explicit points fall outside the declared domain")
        m = pts.shape[0]
        if m & (m - 1):
            _warn(f"{m} points is not a power of two; padding by repeating the last point")
        return Grid.from_points(working, pad_to_pow2=True, source_domain=tuple(domains))
    raise InputError(f"unknown grid kind {kind!r}")


def _weights(obj: dict, grid: Grid) -> WeightVector:
    raw = obj.get("weights")
    if raw is None:
        w = WeightVector.uniform(grid.n_original)
    else:
        try:
            w = WeightVector(_finite_array(raw, "weights"))
        except ValueError as exc:
            raise InputError(f"bad weights: {exc}") from exc
        if w.n != grid.n_original:
            raise InputError(f"{w.n} weights for {grid.n_original} grid points")
    return w.padded(grid.n)


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return _jsonable(v.tolist())
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v


def _center_to_user(center, domains):
    """A Jensen centre in user coordinates: a list with one entry per axis,
    or a bare number when the centre is one."""
    if np.ndim(center) == 0:
        return _to_user(float(center), domains)
    return [_to_user(float(v), [domains[j]]) for j, v in enumerate(center)]


def _map_witness(witness, domains):
    if witness is None:
        return None
    if isinstance(witness, dict):
        out = dict(witness)
        if "center" in out:
            out["center"] = _center_to_user(out["center"], domains)
        return _jsonable(out)
    return _jsonable(_to_user(witness, domains))


def _map_oracle_witness(method: str, witness, domains):
    if method != "jensen" or witness is None:
        return _map_witness(witness, domains)
    # (center, lhs, rhs): only the centre is a point; lhs and rhs are values
    center, lhs, rhs = witness
    return _jsonable([_center_to_user(center, domains), lhs, rhs])


def _oracle_for(method: str, f, grid: Grid, w: WeightVector, direction: str):
    pts = grid.original_points
    if method == "second-deriv":
        return oracle_convex(f, pts, mode="second")
    if method == "first-deriv":
        return oracle_convex(f, pts, mode="first")
    if method == "jensen":
        return oracle_convex(f, pts, weights=w.lambdas[: grid.n_original])
    if method == "monotone":
        return oracle_monotone(f, pts, direction)
    raise ValueError(method)


def _run_method(method: str, f, grid: Grid, w: WeightVector, cfg: EstimatorConfig,
                direction: str, domains, oracle_check: bool) -> dict:
    if method == "second-deriv":
        verdict = test_convex_second_derivative(f, grid, cfg)
    elif method == "first-deriv":
        verdict = test_convex_first_derivative(f, grid, cfg)
    elif method == "jensen":
        verdict = test_convex_jensen(f, grid, w, cfg)
    elif method == "monotone":
        verdict = test_monotone(f, grid, direction, cfg)
    else:
        raise ValueError(method)
    report = {
        "schema": 1,
        "method": method,
        "outcome": verdict.outcome,
        "witness": _map_witness(verdict.witness, domains),
        "estimates": _jsonable(verdict.estimates),
        "margin": float(verdict.margin),
        "gap_flag": bool(verdict.gap_flag),
        "grid_semantics": verdict.grid_semantics,
        "ledger": ledger_report(verdict, grid.n),
        "oracle": None,
        "agreement": None,
    }
    if verdict.reason is not None:
        report["reason"] = verdict.reason
    if oracle_check:
        res = _oracle_for(method, f, grid, w, direction)
        report["oracle"] = {
            "verdict": res.verdict,
            "witness": _map_oracle_witness(method, res.witness, domains),
            "details": _jsonable(res.details),
        }
        if verdict.outcome != Outcome.INCONCLUSIVE:
            report["agreement"] = res.verdict in _AGREES[verdict.outcome]
    return report


def ledger_report(verdict: Verdict, n: int) -> dict:
    """Per-primitive query counts plus depth units and the grid size, so
    scaling plots can be derived from a batch of reports."""
    frag = verdict.ledger.as_dict()
    frag["n"] = n
    return frag


def run(args) -> int:
    try:
        seed = _resolve_seed(args.seed)
        problem = _load_problem(args.input)
        f_raw = _parse_poly(problem.get("poly"))
        multi = isinstance(f_raw, MultiPoly)
        dim = f_raw.dim if multi else 1
        domains = _domains(problem, dim)
        if multi:
            f = f_raw.remap(domains)
        else:
            f, _scale = remap_domain(f_raw, *domains[0])
        grid = _build_grid(problem, dim, domains, args.n, seed)
        w = _weights(problem, grid)
        if not 0.0 < args.eps < math.inf:
            raise InputError("--eps must be positive and finite")
        cfg = EstimatorConfig(eps=args.eps, seed=seed, noise_mode=args.noise)
        direction = "increasing" if args.direction == "inc" else "decreasing"

        if args.method == "all":
            methods = ["jensen"] if multi else ["second-deriv", "first-deriv", "jensen", "monotone"]
        else:
            methods = [args.method]
        if multi and any(m != "jensen" for m in methods):
            raise InputError("only the jensen method supports multivariate polynomials")

        results = [
            _run_method(m, f, grid, w, cfg, direction, domains, args.oracle_check == "on")
            for m in methods
        ]
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = results[0] if args.method != "all" else {"schema": 1, "results": results}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if any(r["outcome"] == Outcome.INCONCLUSIVE for r in results):
        return 2
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
