"""Command-line front end: parse a problem file, run the requested tests,
and emit a deterministic JSON report with verdicts, margins, oracle
cross-checks, and the resource ledger.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from .estimate import EstimatorConfig
from .oracle import oracle_convex, oracle_monotone
from .poly import MultiPoly, Poly, remap_domain
from .tester import (
    _REACH,
    Grid,
    Outcome,
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
    env = os.environ.get("QSHAPE_SEED", "0")
    try:
        return int(env)
    except ValueError as exc:
        raise ValueError(f"QSHAPE_SEED is not an integer: {env!r}") from exc


def _load_problem(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read input file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    # the JSON integer 1: neither true nor 1.0
    if not (isinstance(obj, dict) and type(obj.get("schema")) is int and obj["schema"] == 1):
        raise ValueError('input file must be an object with "schema": 1')
    return obj


# the types json.load gives a JSON number; a bool is not one of them
_NUMBER = {int, float}


def _reals(raw, what: str, points: bool = False) -> np.ndarray:
    """A JSON list of finite numbers as a 1-D float array, or with
    ``points`` also a list of equal-length lists of them as a 2-D array.
    A quoted number, a bool or any other nesting is refused with one line
    that names the field."""
    nested = points and isinstance(raw, list) and bool(raw) and type(raw[0]) is list
    rows = raw if nested else [raw]
    if not (all(type(r) is list for r in rows) and len(set(map(len, rows))) == 1):
        either = ", or of lists of numbers of one length" if nested else ""
        raise ValueError(f"{what} must be a list of numbers{either}")
    if not set(map(type, itertools.chain.from_iterable(rows))) <= _NUMBER:
        bad = next(v for v in itertools.chain.from_iterable(rows) if type(v) not in _NUMBER)
        raise ValueError(f"{what} must be numbers, not {bad!r}")
    try:
        arr = np.array(raw, dtype=float)
        finite = np.isfinite(arr).all()
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{what} must be finite numbers")
    return arr


def _read_poly(obj) -> Poly | MultiPoly:
    """The polynomial of a problem file:
    ``{"kind": "uni", "coeffs": [c0, ...]}`` or
    ``{"kind": "multi", "dim": d, "terms": [{"a": a_k, "k": [k1, ...]}, ...]}``;
    ``MultiPoly`` reads ``dim`` and the exponents as integers."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("polynomial object must have a 'kind' field")
    kind = obj["kind"]
    if kind == "uni":
        coeffs = obj.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs:
            raise ValueError("'uni' polynomial requires a nonempty 'coeffs' list")
        return Poly(_reals(coeffs, "coefficients").tolist())
    if kind == "multi":
        terms = obj.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ValueError("'multi' polynomial requires a nonempty 'terms' list")
        if not all(isinstance(t, dict) and "a" in t and isinstance(t.get("k"), list) for t in terms):
            raise ValueError("each term must be an object with 'a' and a 'k' list")
        a = _reals([t["a"] for t in terms], "term coefficients 'a'")
        return MultiPoly(zip(a.tolist(), [t["k"] for t in terms]), obj.get("dim"))
    raise ValueError(f"unknown polynomial kind {kind!r}")


def _domains(obj: dict, dim: int) -> list[tuple[float, float]]:
    raw = obj.get("domain", [[-0.5, 0.5]] * dim)
    if not isinstance(raw, list) or len(raw) != dim:
        raise ValueError(f"'domain' must list one [a, b] interval per axis (dim={dim})")
    out = []
    for ab in raw:
        iv = _reals(ab, f"domain interval {ab!r}")
        if iv.shape != (2,) or not iv[0] < iv[1]:
            raise ValueError(f"bad domain interval {ab!r}")
        a, b = float(iv[0]), float(iv[1])
        # the box map needs both, and an inf would reach the report as Infinity
        if not (math.isfinite(b - a) and math.isfinite((a + b) / 2.0)):
            raise ValueError(f"domain interval {ab!r} is too wide: its width or centre overflows")
        out.append((a, b))
    return out


def _box(domains, multi: bool):
    """Each axis's centre and width, in Python floats as the remap computes
    them: numbers for a univariate polynomial, arrays for a ``"multi"`` one."""
    centre = np.array([(a + b) / 2.0 for a, b in domains])
    width = np.array([b - a for a, b in domains])
    return (centre, width) if multi else (centre[0], width[0])


def _to_user(t, box):
    """A point, or a sequence of univariate points, in user coordinates;
    a box of None means they already are."""
    if box is None:
        return np.asarray(t).tolist()
    centre, width = box
    return (centre + width * np.asarray(t)).tolist()


def _build_grid(obj: dict, dim: int, box, n_flag) -> Grid:
    """The problem's grid in working coordinates t."""
    spec = obj.get("grid", {"kind": "uniform", "n": 64})
    if not isinstance(spec, dict):
        raise ValueError("'grid' must be an object with a 'kind' field")
    kind = spec.get("kind")
    if kind == "uniform":
        n = n_flag if n_flag is not None else spec.get("n", 64)
        if not (isinstance(n, int) and n >= 2):
            raise ValueError(f"bad grid size {n!r}")
        if n & (n - 1):
            padded = 1 << (n - 1).bit_length()
            _warn(f"grid size {n} is not a power of two; using {padded}")
            n = padded
        return Grid.uniform(n, dim=dim)
    if kind == "explicit":
        pts = _reals(spec.get("points"), "explicit grid points", points=True)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[0] == 0:
            raise ValueError("explicit grid points must be a nonempty list of points")
        if pts.shape[1] != dim:
            raise ValueError(f"explicit points have dim {pts.shape[1]}, expected {dim}")
        if n_flag is not None:
            _warn("--n is ignored for explicit grids")
        centre, width = box
        # a point that overflows here fails the range check below
        with np.errstate(over="ignore"):
            working = (pts - centre) / width
        if np.max(np.abs(working)) > _REACH:
            raise ValueError("explicit points fall outside the declared domain")
        m = pts.shape[0]
        if m & (m - 1):
            _warn(f"{m} points is not a power of two; padding by repeating the last point")
        return Grid.from_points(working)
    raise ValueError(f"unknown grid kind {kind!r}")


def _weights(obj: dict, grid: Grid) -> WeightVector:
    raw = obj.get("weights")
    if raw is None:
        return WeightVector.uniform(grid.n_original)
    lam = _reals(raw, "weights")
    if lam.size != grid.n_original:
        raise ValueError(f"{lam.size} weights for {grid.n_original} grid points")
    try:
        return WeightVector(lam)
    except ValueError as exc:
        raise ValueError(f"bad weights: {exc}") from exc


def _witness_to_user(witness, box, method: str):
    if witness is None:
        return None
    if method != "jensen":
        return _to_user(witness, box)
    # a Jensen witness holds values beside its centre, the one point in it
    if isinstance(witness, dict):  # the verdict's {"center"}
        return dict(witness, center=_to_user(witness["center"], box))
    return [_to_user(witness[0], box), *witness[1:]]  # the oracle's (center, lhs, rhs)


def _run_method(method: str, f, grid: Grid, w: WeightVector, cfg: EstimatorConfig,
                direction: str, box, oracle_check: bool) -> dict:
    pts = grid.original_points
    multi = isinstance(f, MultiPoly)
    if method == "second-deriv":
        verdict = test_convex_second_derivative(f, grid, cfg)
        oracle = lambda: oracle_convex(f, pts, mode="second")
    elif method == "first-deriv":
        verdict = test_convex_first_derivative(f, grid, cfg)
        oracle = lambda: oracle_convex(f, pts, mode="first")
    elif method == "jensen":
        verdict = test_convex_jensen(f, grid, w, cfg, box if multi else None)
        if multi:  # the user's own polynomial, so the oracle reads the user's points
            centre, width = box
            pts = centre + width * pts
        oracle = lambda: oracle_convex(f, pts, weights=w.lambdas[: grid.n_original])
    else:
        verdict = test_monotone(f, grid, direction, cfg)
        oracle = lambda: oracle_monotone(f, pts, direction)
    report = {
        "schema": 1,
        "method": method,
        "outcome": verdict.outcome,
        "witness": _witness_to_user(verdict.witness, box, method),
        "estimates": verdict.estimates,
        "margin": verdict.margin,
        "grid_semantics": verdict.grid_semantics,
        # with the grid size, so scaling plots can come from a batch of reports
        "ledger": dict(verdict.ledger.as_dict(), n=grid.n),
        "oracle": None,
        "agreement": None,
    }
    if oracle_check:
        res = oracle()
        report["oracle"] = {
            "verdict": res.verdict,
            "witness": _witness_to_user(res.witness, None if multi else box, method),
            "details": res.details,
        }
        if verdict.outcome != Outcome.INCONCLUSIVE:
            report["agreement"] = res.verdict in _AGREES[verdict.outcome]
    return report


def run(args) -> int:
    try:
        seed = _resolve_seed(args.seed)
        problem = _load_problem(args.input)
        try:
            f_raw = _read_poly(problem.get("poly"))
        except ValueError as exc:
            raise ValueError(f"bad polynomial: {exc}") from exc
        multi = isinstance(f_raw, MultiPoly)
        dim = f_raw.dim if multi else 1
        domains = _domains(problem, dim)
        box = _box(domains, multi)
        # a "multi" polynomial keeps the user's terms, and Jensen reads it on the box
        f = f_raw if multi else remap_domain(f_raw, *domains[0])[0]
        grid = _build_grid(problem, dim, box, args.n)
        w = _weights(problem, grid)
        if not 0.0 < args.eps < math.inf:
            raise ValueError("--eps must be positive and finite")
        cfg = EstimatorConfig(eps=args.eps, seed=seed, noise_mode=args.noise)
        direction = "increasing" if args.direction == "inc" else "decreasing"

        if args.method == "all":
            methods = ["jensen"] if multi else ["second-deriv", "first-deriv", "jensen", "monotone"]
        else:
            methods = [args.method]
        if multi and any(m != "jensen" for m in methods):
            raise ValueError("only the jensen method supports multivariate polynomials")

        results, errors = [], []
        for m in methods:
            try:
                results.append(_run_method(m, f, grid, w, cfg, direction, box,
                                           args.oracle_check == "on"))
            except ValueError as exc:
                if args.method != "all":
                    raise
                # under all, a method's error is its entry and the others still run
                results.append({"schema": 1, "method": m, "error": str(exc)})
                errors.append(f"{m}: {exc}")
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = results[0] if args.method != "all" else {"schema": 1, "results": results}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if errors:
        print(f"error: {'; '.join(errors)}", file=sys.stderr)
        return 1
    if any(r["outcome"] == Outcome.INCONCLUSIVE for r in results):
        return 2
    return 0


# parse_args keeps no state between calls, so one parser serves them all
_PARSER = build_parser()


def main(argv=None) -> int:
    return run(_PARSER.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
