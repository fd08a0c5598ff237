import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_poly import _reference_call, _reference_compose_affine, _reference_derivative
from test_tester import seeded_grid

import qshape.poly
import qshape.tester
from qshape.cli import METHODS, _box, _build_grid, _witness_to_user, build_parser, main, run
from qshape.tester import Grid

CUBIC = {
    "schema": 1,
    "poly": {"kind": "uni", "coeffs": [1.0, -2.0, 0.0, 1.0]},
    "domain": [[0.6, 1.4]],
    "grid": {"kind": "uniform", "n": 16},
}


def write(tmp_path, obj, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(tmp_path, problem, *extra):
    inp = write(tmp_path, problem)
    rep = tmp_path / "report.json"
    code = main(["test", "--input", inp, "--report", str(rep), *extra])
    return code, (json.loads(rep.read_text()) if rep.exists() else None)


def test_second_deriv_report(tmp_path):
    code, rep = run_cli(tmp_path, CUBIC, "--method", "second-deriv", "--eps", "0.001")
    assert code == 0
    assert rep["schema"] == 1
    assert rep["outcome"] == "ConvexOnGrid"
    assert rep["agreement"] is True
    assert rep["ledger"]["n"] == 16
    assert rep["ledger"]["depth_units"] > 0


def test_method_all(tmp_path):
    # x^3 straddling 0; asymmetric weights so the Jensen sides differ
    straddle = {
        "schema": 1,
        "poly": {"kind": "uni", "coeffs": [0.0, 0.0, 0.0, 1.0]},
        "grid": {"kind": "explicit", "points": [-0.4, -0.2, 0.0, 0.2]},
        "weights": [0.5, 0.0, 0.0, 0.5],
    }
    code, rep = run_cli(tmp_path, straddle, "--method", "all", "--eps", "0.001")
    # monotone is Inconclusive at f'(0) = 0, so the batch exits 2
    assert code == 2
    by_method = {r["method"]: r for r in rep["results"]}
    for m in ("second-deriv", "first-deriv", "jensen"):
        assert by_method[m]["outcome"] == "NotConvex"
        assert by_method[m]["witness"] is not None
        assert by_method[m]["agreement"] is True
    assert by_method["monotone"]["outcome"] == "Inconclusive"


@pytest.mark.parametrize("grid", [{"kind": "uniform", "n": 16},
                                  {"kind": "explicit", "points": [0.7, 0.9, 1.0, 1.3, 1.35]}],
                         ids=["uniform", "explicit"])
def test_method_all_encodes_the_grid_once(tmp_path, monkeypatch, grid):
    """The four univariate tests share the grid's one encoding, and each
    method's entry is the report of that method run alone, to the byte.  A
    uniform grid is shared by every call in the process, so it is encoded
    once over all five runs; an explicit grid is built anew by each call."""
    qshape.tester._uniform_grid.cache_clear()
    calls = []
    encode = qshape.tester.encode_grid_values
    monkeypatch.setattr(qshape.tester, "encode_grid_values",
                        lambda values: calls.append(1) or encode(values))
    prob = dict(CUBIC, grid=grid)
    flags = ("--seed", "7", "--noise", "uniform", "--eps", "0.001")
    _, rep = run_cli(tmp_path, prob, "--method", "all", *flags)
    assert len(calls) == 1
    assert [r["method"] for r in rep["results"]] == ALL_UNIVARIATE
    for r in rep["results"]:
        _, alone = run_cli(tmp_path, prob, "--method", r["method"], *flags)
        assert json.dumps(alone, sort_keys=True, indent=2) == json.dumps(r, sort_keys=True, indent=2)
    assert len(calls) == (1 if grid["kind"] == "uniform" else 5)


# a univariate and a multivariate problem on uniform grids
SEED_FREE = {
    "uni": CUBIC,
    "multi": {"schema": 1, "poly": {"kind": "multi", "dim": 2,
                                    "terms": [{"a": 1.0, "k": [2, 0]}, {"a": 1.0, "k": [0, 2]},
                                              {"a": 0.3, "k": [1, 1]}]},
              "grid": {"kind": "uniform", "n": 16},
              "weights": (np.arange(1.0, 17.0) / 136.0).tolist()},
}


def test_only_uniform_grids_are_shared_between_calls(tmp_path):
    # one uniform grid per (n, dim), whatever the seed; explicit grids are
    # built per call
    box = _box([(0.6, 1.4)], False)
    uniform = {"grid": {"kind": "uniform", "n": 16}}
    explicit = {"grid": {"kind": "explicit", "points": [0.7, 0.9, 1.0, 1.3]}}
    assert _build_grid(uniform, 1, box, None) is _build_grid(uniform, 1, box, None)
    assert _build_grid(explicit, 1, box, None) is not _build_grid(explicit, 1, box, None)
    box2 = _box([(0.6, 1.4)] * 2, True)
    assert _build_grid(uniform, 2, box2, None) is _build_grid(uniform, 2, box2, None)
    assert _build_grid(uniform, 2, box2, None) is not _build_grid(uniform, 3, _box([(0.6, 1.4)] * 3, True), None)
    explicit2 = {"grid": {"kind": "explicit", "points": [[0.7, 0.7], [0.9, 1.3]]}}
    assert _build_grid(explicit2, 2, box2, None) is not _build_grid(explicit2, 2, box2, None)
    # calls at two seeds build one multivariate grid between them
    qshape.tester._uniform_grid.cache_clear()
    for seed in ("3", "4"):
        run_cli(tmp_path, SEED_FREE["multi"], "--seed", seed, "--noise", "uniform")
    info = qshape.tester._uniform_grid.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_exact_reports_do_not_depend_on_the_seed(tmp_path):
    # --seed seeds the estimators' noise only, so under exact noise a
    # uniform grid's report is the same bytes at any seed, in any dim
    for kind, prob in SEED_FREE.items():
        inp = write(tmp_path, prob)
        reports = []
        for seed in ("0", "7"):
            rep = tmp_path / f"{kind}-{seed}.json"
            code = main(["test", "--input", inp, "--report", str(rep), "--noise", "exact",
                         "--eps", "0.001", "--seed", seed])
            reports.append((code, rep.read_bytes()))
        assert reports[0] == reports[1], kind


SHARED_GRID_RUNS = [
    (CUBIC, ("--method", "all", "--seed", "7", "--noise", "uniform", "--eps", "0.001")),
    (dict(CUBIC, grid={"kind": "uniform", "n": 8}), ("--method", "first-deriv", "--eps", "1e-4")),
    (dict(CUBIC, grid={"kind": "explicit", "points": [0.7, 0.9, 1.0, 1.3, 1.35]}),
     ("--method", "all")),
    # a multivariate grid, shared by every call with its n and dim
    ({"schema": 1, "poly": {"kind": "multi", "dim": 2,
                            "terms": [{"a": 1.0, "k": [2, 0]}, {"a": -0.5, "k": [1, 3]}, {"a": 0.25, "k": [0, 4]}]},
      "domain": [[0.5, 2.0], [-1.0, 1.5]], "grid": {"kind": "uniform", "n": 8}},
     ("--method", "jensen", "--seed", "9", "--noise", "uniform", "--eps", "0.001")),
]


def test_warm_call_reports_the_bytes_of_a_fresh_process(tmp_path):
    """A second call in one process reuses the shared grid, weights and
    encodings; its exit code, stderr and report are those of a fresh
    interpreter's first call."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for i, (prob, flags) in enumerate(SHARED_GRID_RUNS):
        argv = ["test", "--input", write(tmp_path, prob, f"problem-{i}.json"), *flags]
        runs = []
        for k in range(2):
            rep = tmp_path / f"warm-{i}-{k}.json"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*argv, "--report", str(rep)])
            runs.append((code, err.getvalue(), rep.read_bytes()))
        rep = tmp_path / f"fresh-{i}.json"
        proc = subprocess.run([sys.executable, "-m", "qshape.cli", *argv, "--report", str(rep)],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                              timeout=60)
        assert runs[0] == runs[1] == (proc.returncode, proc.stderr, rep.read_bytes())


def test_witness_in_user_coordinates(tmp_path):
    # -(x - 2)^3 on [2, 4], a box apart from [-1/2, 1/2]: concave and falling,
    # so every test finds a violation
    prob = dict(CUBIC, poly={"kind": "uni", "coeffs": [8.0, -12.0, 6.0, -1.0]},
                domain=[[2.0, 4.0]])
    for method in ("second-deriv", "first-deriv", "jensen", "monotone"):
        code, rep = run_cli(tmp_path, prob, "--method", method, "--eps", "0.001")
        assert code == 0
        assert rep["outcome"] in ("NotConvex", "NotMonotone") and rep["agreement"] is True
        witness, oracle_witness = rep["witness"], rep["oracle"]["witness"]
        if method == "jensen":
            points = witness["center"] + [oracle_witness[0]]
        else:
            # the same grid point (or pair) as the oracle's, mapped by the same map
            assert witness == oracle_witness
            points = witness if method == "first-deriv" else [witness]
        assert points and all(2.0 <= x <= 4.0 for x in points)


ALL_UNIVARIATE = ["second-deriv", "first-deriv", "jensen", "monotone"]

REPORT_KEYS = {"schema", "method", "outcome", "witness", "estimates", "margin",
               "grid_semantics", "ledger", "oracle", "agreement"}
THRESHOLD_ESTIMATES = {"lambda_max", "threshold"}
ESTIMATE_KEYS = {
    "second-deriv": THRESHOLD_ESTIMATES | {"second_derivative_bound"},
    "first-deriv": THRESHOLD_ESTIMATES | {"first_derivative_bound"},
    "monotone": THRESHOLD_ESTIMATES | {"first_derivative_bound"},
    "jensen": {"jensen_lhs", "jensen_rhs", "lhs_scale", "rhs_scale", "gadget_factor"},
}


def _assert_result_schema(r, method, estimates, extra=frozenset()):
    assert set(r) == REPORT_KEYS | extra
    assert r["method"] == method
    assert set(r["estimates"]) == estimates
    assert set(r["ledger"]) == {"entries", "depth_units", "n"}
    assert set(r["oracle"]) == {"verdict", "witness", "details"}


def test_report_schema(tmp_path):
    """Each method's result holds exactly these keys, alone and under all."""
    _, rep = run_cli(tmp_path, CUBIC, "--method", "all", "--eps", "0.001")
    assert set(rep) == {"schema", "results"}
    assert [r["method"] for r in rep["results"]] == ALL_UNIVARIATE
    for r in rep["results"]:
        _assert_result_schema(r, r["method"], ESTIMATE_KEYS[r["method"]])
        _, alone = run_cli(tmp_path, CUBIC, "--method", r["method"], "--eps", "0.001")
        _assert_result_schema(alone, r["method"], ESTIMATE_KEYS[r["method"]])


def test_report_schema_of_degenerate_and_failed_methods(tmp_path):
    # a constant: every derivative vanishes, and each method still writes
    # the normal schema; the degenerate ones are Inconclusive, so exit 2
    constant = {"schema": 1, "poly": {"kind": "uni", "coeffs": [0.3]},
                "grid": {"kind": "uniform", "n": 8}}
    code, rep = run_cli(tmp_path, constant, "--method", "all")
    assert code == 2 and set(rep) == {"schema", "results"}
    assert [r["method"] for r in rep["results"]] == ALL_UNIVARIATE
    for r in rep["results"]:
        _assert_result_schema(r, r["method"], ESTIMATE_KEYS[r["method"]])
    # a method that raises under all writes only its error
    code, rep = run_cli(tmp_path, FAILING_METHODS["repeated-point"][0], "--method", "all")
    assert code == 1
    first = rep["results"][ALL_UNIVARIATE.index("first-deriv")]
    assert set(first) == {"schema", "method", "error"} and first["method"] == "first-deriv"


# problems on which some methods raise and the others run
FAILING_METHODS = {
    "repeated-point": ({"schema": 1, "poly": {"kind": "uni", "coeffs": [0, 0, 1]},
                        "grid": {"kind": "explicit", "points": [-0.4, -0.1, -0.1, 0.3]}},
                       ["first-deriv"]),
    # Jensen's left side needs an accuracy of eps / 2^1020, whose query
    # count overflows a float
    "x^340": ({"schema": 1, "poly": {"kind": "uni", "coeffs": [0] * 340 + [1]},
               "grid": {"kind": "uniform", "n": 8}},
              ["jensen"]),
    # f(4t) itself overflows
    "x^342": ({"schema": 1, "poly": {"kind": "uni", "coeffs": [0] * 342 + [1]},
               "grid": {"kind": "uniform", "n": 8}},
              ["jensen"]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(FAILING_METHODS))
def test_method_all_reports_each_error_and_keeps_the_rest(tmp_path, capsys, case):
    prob, failing = FAILING_METHODS[case]
    code, rep = run_cli(tmp_path, prob, "--method", "all", "--seed", "7", "--noise", "uniform")
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    results = rep["results"]
    assert [r["method"] for r in results] == ALL_UNIVARIATE
    errors = [r for r in results if "error" in r]
    assert [r["method"] for r in errors] == failing
    assert err == ["error: " + "; ".join(f"{r['method']}: {r['error']}" for r in errors)]
    for r in results:
        (tmp_path / "report.json").unlink(missing_ok=True)
        code, alone = run_cli(tmp_path, prob, "--method", r["method"], "--seed", "7",
                              "--noise", "uniform")
        if "error" in r:
            assert r == {"schema": 1, "method": r["method"], "error": r["error"]}
            assert code == 1 and alone is None
            assert capsys.readouterr().err == f"error: {r['error']}\n"
        else:
            assert code in (0, 2) and alone == r


# problems on which a derivative vanishes identically, and the methods that
# read it: each encodes it as zero, so lambda_max is 1/2 and the verdict
# Inconclusive, and the rest run as on any other problem
VANISHING = {
    "constant": ({"schema": 1, "poly": {"kind": "uni", "coeffs": [0.3]},
                  "grid": {"kind": "uniform", "n": 8}},
                 ["second-deriv", "first-deriv", "monotone"]),
    "line": ({"schema": 1, "poly": {"kind": "uni", "coeffs": [0.3, -0.7]},
              "grid": {"kind": "explicit", "points": [-0.4, -0.1, 0.2]}},
             ["second-deriv", "first-deriv"]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("direction", ["inc", "dec"])
@pytest.mark.parametrize("case", sorted(VANISHING))
def test_vanishing_derivative_runs_like_any_other(tmp_path, capsys, case, direction):
    prob, vanishing = VANISHING[case]
    flags = ("--seed", "7", "--noise", "uniform", "--eps", "0.001", "--direction", direction)
    code, rep = run_cli(tmp_path, prob, "--method", "all", *flags)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == (
        ["warning: 3 points is not a power of two; padding by repeating the last point"]
        if prob["grid"]["kind"] == "explicit" else [])
    results = rep["results"]
    assert [r["method"] for r in results] == ALL_UNIVARIATE
    for r in results:
        _assert_result_schema(r, r["method"], ESTIMATE_KEYS[r["method"]])
        if r["method"] in vanishing:
            est = r["estimates"]
            assert r["outcome"] == "Inconclusive" and r["witness"] is None and r["agreement"] is None
            assert abs(est["lambda_max"] - 0.5) <= 0.001 and r["margin"] < 0
            if r["method"] == "second-deriv" or case == "constant":  # the encoded derivative is 0
                assert est.get("second_derivative_bound", est.get("first_derivative_bound")) == 1e-300
        elif r["method"] == "monotone":  # the line's slope is -0.7
            assert r["agreement"] is True
        else:  # Jensen holds with equality on a line, so it may be Inconclusive
            assert r["agreement"] is not False
        (tmp_path / "report.json").unlink(missing_ok=True)
        code, alone = run_cli(tmp_path, prob, "--method", r["method"], *flags)
        capsys.readouterr()
        assert code in (0, 2) and alone == r


ZERO_AXIS = ("cannot encode a grid whose points all sit at the domain's centre "
             "(working coordinate 0) along an axis")

DEGENERATE_GRIDS = {
    # (points, dim, method, message)
    "one-point": ([0.1], 1, "first-deriv",
                  "first-derivative test needs at least two grid points"),
    "one-point-all": ([0.1], 1, "all",
                      "first-deriv: first-derivative test needs at least two grid points"),
    "centre": ([0.0], 1, "second-deriv", ZERO_AXIS),
    "centre-twice": ([0.0, 0.0], 1, "monotone", ZERO_AXIS),
    "centre-one-axis": ([[0.0, -0.2], [0.0, 0.3]], 2, "jensen", ZERO_AXIS),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_GRIDS))
def test_degenerate_explicit_grid_names_its_cause(tmp_path, capsys, case):
    points, dim, method, message = DEGENERATE_GRIDS[case]
    poly = ({"kind": "uni", "coeffs": [0.0, 0.0, 1.0]} if dim == 1 else
            {"kind": "multi", "dim": 2, "terms": [{"a": 1.0, "k": [2, 0]}, {"a": 1.0, "k": [0, 2]}]})
    prob = {"schema": 1, "poly": poly, "grid": {"kind": "explicit", "points": points}}
    code, rep = run_cli(tmp_path, prob, "--method", method)
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    if method == "all":  # the other three tests still run on one point
        ran = [r["method"] for r in rep["results"] if "outcome" in r]
        assert ran == ["second-deriv", "jensen", "monotone"]
    else:
        assert rep is None


OFF_CENTRE_AXIS = {
    # (domain, points, zero axis): the working coordinate 0 is the domain's
    # centre for both kinds of polynomial, and x = 0 is no special point
    "uni-centre": ([[-1.0, 3.0]], [1.0, 1.0], True),
    "uni-origin": ([[-1.0, 3.0]], [0.0, 0.0], False),
    "multi-centre": ([[-1.0, 3.0], [-1.0, 1.0]], [[1.0, -0.5], [1.0, 0.5]], True),
    "multi-origin": ([[-1.0, 3.0], [-1.0, 1.0]], [[0.0, -0.5], [0.0, 0.5]], False),
}


@pytest.mark.parametrize("case", sorted(OFF_CENTRE_AXIS))
def test_zero_axis_error_on_an_off_centre_box(tmp_path, capsys, case):
    domain, points, refused = OFF_CENTRE_AXIS[case]
    poly = ({"kind": "uni", "coeffs": [0.0, 0.0, 1.0]} if len(domain) == 1 else
            {"kind": "multi", "dim": 2, "terms": [{"a": 1.0, "k": [2, 0]}, {"a": 1.0, "k": [0, 2]}]})
    prob = {"schema": 1, "poly": poly, "domain": domain,
            "grid": {"kind": "explicit", "points": points}}
    code, rep = run_cli(tmp_path, prob, "--method", "jensen")
    if refused:
        assert code == 1 and rep is None
        assert capsys.readouterr().err.splitlines() == [f"error: {ZERO_AXIS}"]
    else:
        assert code in (0, 2) and rep["outcome"]


@pytest.mark.parametrize("n, dim, least", [(2, 2, "2^2 = 4"), (4, 3, "2^3 = 8"), (3, 3, "2^3 = 8"),
                                           (64, 20000, "2^20000")])
def test_uniform_grid_needs_two_points_per_axis(tmp_path, capsys, n, dim, least):
    poly = {"kind": "multi", "dim": dim, "terms": [{"a": 1.0, "k": [2] * dim}]}
    code, rep = run_cli(tmp_path, {"schema": 1, "poly": poly, "grid": {"kind": "uniform", "n": n}})
    assert code == 1 and rep is None
    err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert err == [f"error: a uniform grid of dim {dim} needs at least {least} points; "
                   f"got {1 << (n - 1).bit_length()}"]


def test_first_deriv_eps_that_underflows_names_it(tmp_path, capsys):
    prob = {"schema": 1, "poly": {"kind": "uni", "coeffs": [0.0, 0.0, 1.0]},
            "grid": {"kind": "uniform", "n": 8}}
    code, rep = run_cli(tmp_path, prob, "--method", "first-deriv", "--eps", "5e-324")
    assert code == 1 and rep is None
    assert capsys.readouterr().err.splitlines() == [
        "error: eps = 5e-324 underflows to 0 when divided by 4 for the first-derivative test"]


@pytest.mark.parametrize("method, message", [
    # Jensen estimates its left side at eps / lhs_scale
    ("jensen", "eps = 1e-320 divided by 25.3775 is out of range for amplitude estimation: it must be "
               "positive and finite, and its query count 1/eps must fit in a float"),
    ("first-deriv", "eps = 1e-320 divided by 4 is too small for eigenvalue estimation: "
                    "its query count overflows"),
], ids=["jensen", "first-deriv"])
def test_accuracy_errors_name_the_eps_given_and_its_divisor(tmp_path, capsys, method, message):
    prob = {"schema": 1, "poly": {"kind": "uni", "coeffs": [0.1, -0.2, 0.25, 0.05]},
            "grid": {"kind": "uniform", "n": 16}}
    code, rep = run_cli(tmp_path, prob, "--method", method, "--eps", "1e-320")
    assert code == 1 and rep is None
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["second-deriv", "monotone", "all"])
def test_eps_too_large_for_uniform_noise_names_it(tmp_path, capsys, method):
    prob = {"schema": 1, "poly": {"kind": "uni", "coeffs": [0.0, 0.0, 1.0]},
            "grid": {"kind": "uniform", "n": 8}}
    code, rep = run_cli(tmp_path, prob, "--method", method, "--eps", "1e308", "--noise", "uniform")
    msg = "eps = 1e+308 is too large for uniform noise: the draw's range 2 eps overflows"
    assert code == 1
    if method != "all":
        assert rep is None and capsys.readouterr().err == f"error: {msg}\n"
        return
    # first-deriv draws and decides at eps / 4, whose range and band 2 eps/4
    # are finite, and still runs; Jensen draws at eps divided by its scales,
    # then cannot decide at eps
    band = "eps = 1e+308 is too large for a verdict: the band 2 eps overflows"
    assert [r.get("error") for r in rep["results"]] == [msg, None, band, msg]
    assert capsys.readouterr().err == f"error: second-deriv: {msg}; jensen: {band}; monotone: {msg}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["second-deriv", "jensen", "monotone"])
def test_eps_too_large_for_a_verdict_names_it(tmp_path, capsys, method):
    # the 2 eps band would overflow, and the margin with it
    prob = {"schema": 1, "poly": {"kind": "uni", "coeffs": [0.0, 0.0, 1.0]},
            "grid": {"kind": "uniform", "n": 8}}
    code, rep = run_cli(tmp_path, prob, "--method", method, "--eps", "1e308")
    assert code == 1 and rep is None
    assert capsys.readouterr().err == (
        "error: eps = 1e+308 is too large for a verdict: the band 2 eps overflows\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["jensen", "all"])
def test_weights_rounded_below_zero_read_as_zero(tmp_path, capsys, method):
    prob = {"schema": 1, "poly": {"kind": "uni", "coeffs": [0.0, 0.0, 1.0]},
            "grid": {"kind": "explicit", "points": [-0.4, -0.1, 0.2, 0.4]}}
    code, rep = run_cli(tmp_path, dict(prob, weights=[0.25, 0.25, 0.5, -1e-15]), "--method", method)
    assert code == 0 and capsys.readouterr().err == ""
    assert (code, rep) == run_cli(tmp_path, dict(prob, weights=[0.25, 0.25, 0.5, 0.0]),
                                  "--method", method)


def test_readme_problem_runs(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block)
    assert main(["test", "--input", str(path), "--report", str(tmp_path / "report.json")]) in (0, 2)


def test_missing_input_is_exit_1(tmp_path, capsys):
    code = main(["test", "--input", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_malformed_json_is_exit_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["test", "--input", str(path)]) == 1


def test_bad_schema_is_exit_1(tmp_path, capsys):
    assert main(["test", "--input", write(tmp_path, {"schema": 2})]) == 1
    bad_shapes = [
        dict(CUBIC, poly={"kind": "multi", "dim": 2, "terms": [1]}),
        dict(CUBIC, grid=[]),
    ]
    for prob in bad_shapes:
        capsys.readouterr()
        assert main(["test", "--input", write(tmp_path, prob)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


# (changes to CUBIC, environment, the one error line) for input the CLI refuses
CLI_REFUSALS = {
    "grid-kind": ({"grid": {"kind": "spiral"}}, {}, "unknown grid kind 'spiral'"),
    "grid-size-bool": ({"grid": {"kind": "uniform", "n": True}}, {}, "bad grid size True"),
    "grid-size-float": ({"grid": {"kind": "uniform", "n": 8.0}}, {}, "bad grid size 8.0"),
    "grid-size-one": ({"grid": {"kind": "uniform", "n": 1}}, {}, "bad grid size 1"),
    "points-empty": ({"grid": {"kind": "explicit", "points": []}}, {},
                     "explicit grid points must be a nonempty list of points"),
    "points-dim": ({"grid": {"kind": "explicit", "points": [[0.7, 0.8], [0.9, 1.0]]}}, {},
                   "explicit points have dim 2, expected 1"),
    "domain-length": ({"domain": [[0.6, 1.4], [0.6, 1.4]]}, {},
                      "'domain' must list one [a, b] interval per axis (dim=1)"),
    "points-not-a-list": ({"grid": {"kind": "explicit", "points": 0.7}}, {},
                          "explicit grid points must be a list of numbers"),
    "interval-not-a-list": ({"domain": [1.0]}, {}, "domain interval 1.0 must be a list of numbers"),
    "weights-sum": ({"weights": [0.5] * 3 + [0.25] * 13}, {}, "bad weights: weights must sum to one"),
    "weights-negative": ({"weights": [-0.5, 1.5] + [0.0] * 14}, {},
                         "bad weights: weights must be nonnegative"),
    "weights-count": ({"weights": [0.5, 0.5]}, {}, "2 weights for 16 grid points"),
    "seed-env": ({}, {"QSHAPE_SEED": "seven"}, "QSHAPE_SEED is not an integer: 'seven'"),
    # a number is a JSON number: not a string, not a bool, not a list
    "coeffs-quoted": ({"poly": {"kind": "uni", "coeffs": [1.0, "-2.0", 0.0, 1.0]}}, {},
                      "bad polynomial: coefficients must be numbers, not '-2.0'"),
    "coeffs-bool": ({"poly": {"kind": "uni", "coeffs": [1.0, -2.0, 0.0, True]}}, {},
                    "bad polynomial: coefficients must be numbers, not True"),
    "term-a-quoted": ({"poly": {"kind": "multi", "dim": 1, "terms": [{"a": "1.0", "k": [2]}]}}, {},
                      "bad polynomial: term coefficients 'a' must be numbers, not '1.0'"),
    "domain-bool": ({"domain": [[True, 1.4]]}, {},
                    "domain interval [True, 1.4] must be numbers, not True"),
    "points-bool": ({"grid": {"kind": "explicit", "points": [0.7, True, 1.2, 1.3]}}, {},
                    "explicit grid points must be numbers, not True"),
    "weights-quoted": ({"weights": [0.0625] * 15 + ["0.0625"]}, {},
                       "weights must be numbers, not '0.0625'"),
    "weights-empty": ({"weights": []}, {}, "0 weights for 16 grid points"),
    "weights-huge-int": ({"weights": [10**400] + [0] * 15}, {}, "weights must be finite numbers"),
    "weights-nested": ({"grid": {"kind": "explicit", "points": [0.7, 1.3]}, "weights": [[0.5], [0.5]]}, {},
                       "weights must be numbers, not [0.5]"),
    "points-ragged": ({"grid": {"kind": "explicit", "points": [[0.7], 0.8]}}, {},
                      "explicit grid points must be a list of numbers, or of lists of numbers of one length"),
    "schema-true": ({"schema": True}, {}, 'input file must be an object with "schema": 1'),
}


@pytest.mark.parametrize("case", sorted(CLI_REFUSALS))
def test_cli_refusals_are_exit_1_with_one_error_line(tmp_path, capsys, monkeypatch, case):
    changes, env, message = CLI_REFUSALS[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, rep = run_cli(tmp_path, dict(CUBIC, **changes))
    assert code == 1 and rep is None
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_n_flag_on_an_explicit_grid_warns_once(tmp_path, capsys):
    prob = dict(CUBIC, grid={"kind": "explicit", "points": [0.7, 0.9, 1.0, 1.3]})
    code, rep = run_cli(tmp_path, prob, "--method", "all", "--n", "32")
    assert code in (0, 2) and rep["results"][0]["ledger"]["n"] == 4
    assert capsys.readouterr().err.splitlines() == ["warning: --n is ignored for explicit grids"]


def test_oracle_check_off_drops_only_the_oracle(tmp_path):
    """With the cross-check off, each result is the one written with it on,
    with ``oracle`` and ``agreement`` null."""
    _, on = run_cli(tmp_path, CUBIC, "--method", "all", "--eps", "0.001", "--oracle-check", "on")
    _, off = run_cli(tmp_path, CUBIC, "--method", "all", "--eps", "0.001", "--oracle-check", "off")
    assert [r["method"] for r in off["results"]] == ALL_UNIVARIATE
    assert all(r["agreement"] is not None for r in on["results"])
    assert off == {"schema": 1, "results": [dict(r, oracle=None, agreement=None) for r in on["results"]]}


@pytest.mark.parametrize("extra", [(), ("--n", str(1 << 40))], ids=["file", "flag"])
def test_grid_too_large_to_allocate_is_exit_1(tmp_path, capsys, monkeypatch, extra):
    # the failed allocation is simulated: a host that overcommits memory
    # may grant a real 8 TiB request
    def too_large(n, dim=1):
        raise MemoryError(f"Unable to allocate a grid of {n} points")

    monkeypatch.setattr(Grid, "uniform", staticmethod(too_large))
    code, rep = run_cli(tmp_path, dict(CUBIC, grid={"kind": "uniform", "n": 1 << 40}), *extra)
    assert code == 1 and rep is None
    assert capsys.readouterr().err == f"error: Unable to allocate a grid of {1 << 40} points\n"


NONFINITE_FIELDS = {
    "coeffs": ("poly", "coeffs", 2),
    "term": ("poly", "terms", 0, "a"),
    "domain": ("domain", 0, 1),
    "points": ("grid", "points", 1),
    "weights": ("weights", 3),
}


@pytest.mark.parametrize("method", ["first-deriv", "all"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", sorted(NONFINITE_FIELDS))
def test_non_finite_input_is_exit_1(tmp_path, capsys, field, bad, method):
    prob = {
        "schema": 1,
        "poly": {"kind": "uni", "coeffs": [0.0, 0.0, 1.0]},
        "domain": [[-1.0, 1.0]],
        "grid": {"kind": "explicit", "points": [-0.5, 0.0, 0.25, 0.5]},
        "weights": [0.25, 0.25, 0.25, 0.25],
    }
    if field == "term":
        prob["poly"] = {"kind": "multi", "dim": 1, "terms": [{"a": 1.0, "k": [2]}]}
    *keys, last = NONFINITE_FIELDS[field]
    target = prob
    for k in keys:
        target = target[k]
    target[last] = bad
    code, rep = run_cli(tmp_path, prob, "--method", method)
    assert code == 1 and rep is None
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_non_finite_eps_is_exit_1(tmp_path, capsys, eps):
    code, rep = run_cli(tmp_path, CUBIC, "--method", "first-deriv", "--eps", eps)
    assert code == 1 and rep is None
    assert "--eps" in capsys.readouterr().err


def test_inconclusive_is_exit_2(tmp_path):
    linear = dict(CUBIC, poly={"kind": "uni", "coeffs": [0.0, 1.0]})
    code, rep = run_cli(tmp_path, linear, "--method", "second-deriv")
    assert code == 2
    assert rep["outcome"] == "Inconclusive"


def test_non_pow2_grid_padded_with_warning(tmp_path, capsys):
    prob = dict(CUBIC, grid={"kind": "uniform", "n": 12})
    code, rep = run_cli(tmp_path, prob, "--method", "second-deriv", "--eps", "0.001")
    assert code == 0
    assert rep["ledger"]["n"] == 16
    assert "warning" in capsys.readouterr().err


def test_explicit_grid(tmp_path):
    prob = {
        "schema": 1,
        "poly": {"kind": "uni", "coeffs": [0.0, 0.0, 1.0]},
        "domain": [[-0.5, 0.5]],
        "grid": {"kind": "explicit", "points": [-0.4, -0.2, 0.0, 0.2]},
    }
    code, rep = run_cli(tmp_path, prob, "--method", "second-deriv", "--eps", "0.001")
    assert code == 0
    assert rep["outcome"] == "ConvexOnGrid"


@pytest.mark.filterwarnings("error")
def test_explicit_grid_outside_domain(tmp_path, capsys):
    for poly, domain, points in [
        ([0.0, 1.0], [0.0, 1.0], [0.5, 2.0]),
        ([0.0, 0.0, 1.0], [0.0, 1e-300], [1e300]),  # the point overflows the box map
    ]:
        prob = {
            "schema": 1,
            "poly": {"kind": "uni", "coeffs": poly},
            "domain": [domain],
            "grid": {"kind": "explicit", "points": points},
        }
        assert main(["test", "--input", write(tmp_path, prob)]) == 1
        assert capsys.readouterr().err == "error: explicit points fall outside the declared domain\n"


def test_multivariate_jensen_only(tmp_path):
    prob = {
        "schema": 1,
        "poly": {"kind": "multi", "dim": 2, "terms": [{"a": 1.0, "k": [2, 0]}, {"a": 1.0, "k": [0, 2]}]},
        "domain": [[-1.0, 1.0], [-1.0, 1.0]],
        "grid": {"kind": "uniform", "n": 8},
    }
    assert main(["test", "--input", write(tmp_path, prob), "--method", "second-deriv"]) == 1
    code, rep = run_cli(tmp_path, prob, "--method", "jensen", "--eps", "0.001")
    assert code == 0
    assert rep["outcome"] == "ConvexOnGrid"
    assert rep["agreement"] is True
    # the concave -(x^2 + y^2): the oracle's violation witness must serialize
    concave = dict(prob, poly={"kind": "multi", "dim": 2,
                               "terms": [{"a": -1.0, "k": [2, 0]}, {"a": -1.0, "k": [0, 2]}]})
    code, rep = run_cli(tmp_path, concave, "--method", "jensen", "--eps", "0.001")
    assert code == 0
    assert rep["outcome"] == "NotConvex"
    assert rep["agreement"] is True


def test_multi_with_one_axis_runs_jensen_only(tmp_path, capsys):
    prob = {
        "schema": 1,
        "poly": {"kind": "multi", "dim": 1, "terms": [{"a": 1.0, "k": [2]}]},
        "domain": [[0.0, 2.0]],
        "grid": {"kind": "uniform", "n": 8},
    }
    code, rep = run_cli(tmp_path, prob, "--method", "all", "--eps", "0.001")
    assert code == 0
    assert [r["method"] for r in rep["results"]] == ["jensen"]
    assert rep["results"][0]["outcome"] == "ConvexOnGrid"
    assert rep["results"][0]["agreement"] is True
    (tmp_path / "report.json").unlink()
    capsys.readouterr()
    code, rep = run_cli(tmp_path, prob, "--method", "second-deriv")
    assert code == 1 and rep is None
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: only the jensen method supports multivariate polynomials"]


def test_coefficient_overflow_is_exit_1(tmp_path, capsys):
    prob = dict(CUBIC, poly={"kind": "uni", "coeffs": [0, 1e308, 1e308]}, domain=[[0, 4]])
    code, rep = run_cli(tmp_path, prob, "--method", "all")
    assert code == 1 and rep is None
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "overflow" in err


BOX_OVERFLOW = ("coefficients overflow on this box: a term's |a prod_j M_j^k_j| is not finite, "
                "where M_j = |c_j| + w_j/v is the largest |x_j| its powers read")

MULTI_OVERFLOW = {
    # a finite coefficient whose a M^2 overflows to inf, M = |c| + w = 6
    "product": ({"kind": "multi", "dim": 2,
                 "terms": [{"a": 1e308, "k": [2, 0]}, {"a": 1e308, "k": [0, 1]}]},
                [[0, 4], [0, 4]]),
    # an M whose cube overflows a Python float power
    "power": ({"kind": "multi", "dim": 2, "terms": [{"a": 1.0, "k": [3, 0]}]},
              [[1e200, 2e200], [0, 4]]),
    # finite term weights whose sum K C overflows, on the default domain
    "sum": ({"kind": "multi", "dim": 2,
             "terms": [{"a": 1e308, "k": [2, 0]}, {"a": 1e308, "k": [0, 1]}]},
            [[-0.5, 0.5], [-0.5, 0.5]]),
}


@pytest.mark.parametrize("case", sorted(MULTI_OVERFLOW))
def test_multivariate_coefficient_overflow_is_exit_1(tmp_path, capsys, case):
    poly, domain = MULTI_OVERFLOW[case]
    prob = {"schema": 1, "poly": poly, "domain": domain, "grid": {"kind": "uniform", "n": 8}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_cli(tmp_path, prob, "--method", "jensen")
        assert code == 1 and rep is None
        assert capsys.readouterr().err.splitlines() == [f"error: {BOX_OVERFLOW}"]
        # under all, the error is Jensen's entry, as any method's is
        code, rep = run_cli(tmp_path, prob, "--method", "all")
    assert code == 1
    assert rep["results"] == [{"schema": 1, "method": "jensen", "error": BOX_OVERFLOW}]
    assert capsys.readouterr().err.splitlines() == [f"error: jensen: {BOX_OVERFLOW}"]


TOO_WIDE = {
    # b - a overflows on an axis no term uses, so no coefficient overflows
    "width": ("multi", [[0, 1], [-1e308, 1e308]]),
    # b - a is finite but (a + b) / 2 overflows
    "centre": ("multi", [[0, 1], [1e308, 1.5e308]]),
    "uni": ("uni", [[-1e308, 1e308]]),
}


@pytest.mark.parametrize("case", sorted(TOO_WIDE))
def test_interval_too_wide_is_exit_1(tmp_path, capsys, case):
    kind, domain = TOO_WIDE[case]
    poly = ({"kind": "multi", "dim": 2, "terms": [{"a": -1, "k": [2, 0]}]} if kind == "multi"
            else {"kind": "uni", "coeffs": [0, 0, -1]})
    prob = {"schema": 1, "poly": poly, "domain": domain, "grid": {"kind": "uniform", "n": 8}}
    code, rep = run_cli(tmp_path, prob, "--method", "all")
    assert code == 1 and rep is None
    assert capsys.readouterr().err.splitlines() == [
        f"error: domain interval {domain[-1]!r} is too wide: its width or centre overflows"]


@pytest.mark.filterwarnings("error")
def test_multivariate_scale_that_overflows_is_exit_1(tmp_path, capsys):
    # the width and centre of the second axis are finite, but the gadget
    # side's M = |c| + 4 w is not: refused where a term uses that axis, and
    # no obstacle where none does
    domain = [[0, 1], [-1e308, 1e307]]
    for k, refused in (([0, 1], True), ([2, 1], True), ([2, 0], False)):
        poly = {"kind": "multi", "dim": 2, "terms": [{"a": -1, "k": k}]}
        prob = {"schema": 1, "poly": poly, "domain": domain, "grid": {"kind": "uniform", "n": 8}}
        (tmp_path / "report.json").unlink(missing_ok=True)
        code, rep = run_cli(tmp_path, prob, "--method", "jensen")
        err = capsys.readouterr().err.splitlines()
        if refused:
            assert code == 1 and rep is None
            assert err == [f"error: {BOX_OVERFLOW}"]
        else:
            assert code in (0, 2) and err == []
            assert rep["agreement"] is not False


def test_high_degree_multivariate_term_is_refused_without_expansion(tmp_path, capsys):
    # expanding x^100 y^100 z^100 onto [0, 1]^3 would take 101^3 terms; the
    # scaled term is one, and the exponent cap refuses it
    prob = {"schema": 1, "poly": {"kind": "multi", "dim": 3, "terms": [{"a": 1, "k": [100] * 3}]},
            "domain": [[0, 1]] * 3, "grid": {"kind": "uniform", "n": 8}}
    tracemalloc.start()
    try:
        code, rep = run_cli(tmp_path, prob, "--method", "jensen")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and rep is None
    assert capsys.readouterr().err.splitlines() == ["error: monomial degree 100 exceeds cap 12"]
    assert peak < 8 * 2**20


ESTIMATOR_OVERFLOW = {
    # 1/eps overflows the eigenvalue-estimation query count of every method
    "eigenvalue": ({"kind": "uni", "coeffs": [0, 0, 1]}, ["--eps", "1e-308"]),
    # eps / lhs_scale = eps / 2^1020 is too small to count 1/eps queries
    "amplitude": ({"kind": "uni", "coeffs": [0] * 340 + [1]}, ["--method", "jensen"]),
    # eps / lhs_scale overflows to inf, since the scale is subnormal
    "infinite-uniform": ({"kind": "multi", "dim": 2, "terms": [{"a": 5e-324, "k": [0, 3]}]},
                         ["--method", "jensen", "--eps", "1e-9", "--noise", "uniform"]),
    "infinite-exact": ({"kind": "multi", "dim": 2, "terms": [{"a": 5e-324, "k": [0, 3]}]},
                       ["--method", "jensen", "--eps", "1e-9", "--noise", "exact"]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(ESTIMATOR_OVERFLOW))
def test_estimator_accuracy_a_float_cannot_count_is_exit_1(tmp_path, capsys, case):
    poly, flags = ESTIMATOR_OVERFLOW[case]
    prob = {"schema": 1, "poly": poly, "grid": {"kind": "uniform", "n": 8}}
    code, rep = run_cli(tmp_path, prob, *flags)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "eps = " in err[0]
    if "--method" in flags:
        assert rep is None
    else:  # under all, every method reports its own error
        assert ["error" in r for r in rep["results"]] == [True] * 4


def test_exponents_must_be_integers(tmp_path, capsys):
    def multi(k, dim=2):
        return dict(CUBIC, poly={"kind": "multi", "dim": dim, "terms": [{"a": 1.0, "k": k}]},
                    domain=[[0.0, 1.0]] * 2)

    for prob, message in [
        (multi([1.5, 1]), "exponent 1.5 is not an integer"),
        (multi([True, 1]), "exponent True is not an integer"),
        (multi([1, 1], dim=True), "dim True is not an integer"),
    ]:
        code, rep = run_cli(tmp_path, prob)
        assert code == 1 and rep is None
        assert capsys.readouterr().err == f"error: bad polynomial: {message}\n"
    # an integral float is that integer
    reports = []
    for k in ([2.0, 1], [2, 1]):
        (tmp_path / "report.json").unlink(missing_ok=True)
        code, rep = run_cli(tmp_path, multi(k), "--eps", "0.001")
        assert code == 0
        reports.append(rep)
    assert reports[0] == reports[1]


CONCAVE = {
    "uni": {"kind": "uni", "coeffs": [0.0, 0.0, -1.0]},
    "multi": {"kind": "multi", "dim": 2,
              "terms": [{"a": -1.0, "k": [2, 0]}, {"a": -1.0, "k": [0, 2]}]},
}


@pytest.mark.parametrize("kind", sorted(CONCAVE))
def test_jensen_centres_agree_in_user_coordinates(tmp_path, kind):
    dim = 2 if kind == "multi" else 1
    prob = {
        "schema": 1,
        "poly": CONCAVE[kind],
        "domain": [[0.0, 2.0]] * dim,
        "grid": {"kind": "uniform", "n": 8},
    }
    code, rep = run_cli(tmp_path, prob, "--method", "jensen", "--eps", "0.001",
                        "--seed", "3")
    assert code == 0
    assert rep["outcome"] == "NotConvex" and rep["agreement"] is True
    center = rep["witness"]["center"]
    oracle_center = rep["oracle"]["witness"][0]
    if dim == 1:
        oracle_center = [oracle_center]
    assert len(center) == len(oracle_center) == dim
    assert np.allclose(center, oracle_center, rtol=0.0, atol=1e-12)
    assert all(0.0 < c < 2.0 for c in center)


def test_off_centre_multivariate_jensen_agrees_with_the_oracle(tmp_path):
    # boxes [a, a + w] away from 0: expanding each term about such a box's
    # centre can exceed the 64-term cap, while the box map keeps the user's
    # terms; then narrow boxes far from 0, where no power of the grid side
    # is amplified, since ((|c| + w/2)/(|c| + w))^k > 3/4 on every axis
    rng = np.random.default_rng(11)
    outcomes = []
    for i in range(400):
        dim = int(rng.integers(2, 4))
        terms = [{"a": float(rng.uniform(-1, 1)), "k": [int(v) for v in rng.integers(0, 7, dim)]}
                 for _ in range(int(rng.integers(3, 13)))]
        if i < 300:
            corner, width = rng.uniform(-3, 3, dim), rng.uniform(0.2, 3, dim)
        else:
            width = 10 ** rng.uniform(-2, -1, dim)
            corner = rng.choice([-1.0, 1.0], dim) * 10 ** rng.uniform(1, 3, dim) - width / 2
            centre = np.abs(corner + width / 2)
            assert np.all((centre + width / 2) / (centre + width) > 0.75 ** (1 / 6))
        n = int(rng.choice([8, 16]))
        raw = rng.exponential(1.0, n)
        prob = {"schema": 1, "poly": {"kind": "multi", "dim": dim, "terms": terms},
                "domain": [[float(a), float(a + w)] for a, w in zip(corner, width)],
                "grid": {"kind": "uniform", "n": n}, "weights": (raw / raw.sum()).tolist()}
        code, rep = run_cli(tmp_path, prob, "--method", "jensen", "--eps", "1e-3",
                            "--seed", str(i), "--noise", "uniform")
        assert code in (0, 2), prob
        assert rep["agreement"] is not False, prob
        outcomes.append(rep["outcome"])
    assert outcomes[:300].count("Inconclusive") < 30
    assert outcomes[300:].count("Inconclusive") < 10


def test_narrow_far_box_costs_the_centred_powers(tmp_path):
    """x^6 - y^6 on [10, 10.5]^2: the gadget side's powers read
    M = 10.25 + 4 (0.5) = 12.25 and are amplified, the grid side's read
    M = 10.75 and are not, since (10.5/10.75)^6 > 3/4; the u = x/s map had
    lhs_scale 7.03e11 and rhs_scale 6.86e8 here.  The 8 points are the
    seeded ones the oracle was first checked on."""
    points = 10.25 + 0.5 * seeded_grid(8, 2, 0).points
    prob = {"schema": 1, "poly": {"kind": "multi", "dim": 2,
                                  "terms": [{"a": 1.0, "k": [6, 0]}, {"a": -1.0, "k": [0, 6]}]},
            "domain": [[10.0, 10.5]] * 2, "grid": {"kind": "explicit", "points": points.tolist()}}
    code, rep = run_cli(tmp_path, prob, "--method", "jensen", "--eps", "1e-3")
    assert code == 0 and rep["agreement"] is True
    est = rep["estimates"]
    assert est["lhs_scale"] == pytest.approx(2 * 12.25**6, rel=1e-15)  # 6.8e6
    assert est["rhs_scale"] == pytest.approx(4 * 2 * 2 * 10.75**6, rel=1e-15)  # 2.5e7
    assert est["lhs_scale"] <= 7.03e11 / 1e4 and est["rhs_scale"] <= 6.86e8
    details = rep["oracle"]["details"]
    assert est["jensen_lhs"] == pytest.approx(details["lhs"], rel=1e-12)
    assert est["jensen_rhs"] == pytest.approx(details["rhs"], rel=1e-12)


# The box map as it was before `_box`: kept as the reference that the one
# box map must match bit for bit.

def _reference_to_working(points, domains):
    out = np.empty_like(points)
    for j, (a, b) in enumerate(domains):
        c, w = (a + b) / 2.0, b - a
        out[:, j] = (points[:, j] - c) / w
    return out


def _reference_to_user(t, domains):
    a, b = domains[0]
    c, w = (a + b) / 2.0, b - a
    if isinstance(t, tuple):
        return tuple(c + w * v for v in t)
    return c + w * t


def _reference_jsonable(v):
    if isinstance(v, np.ndarray):
        return _reference_jsonable(v.tolist())
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, (list, tuple)):
        return [_reference_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _reference_jsonable(x) for k, x in v.items()}
    return v


def _reference_center_to_user(center, domains):
    if np.ndim(center) == 0:
        return _reference_to_user(float(center), domains)
    return [_reference_to_user(float(v), [domains[j]]) for j, v in enumerate(center)]


def _reference_map_witness(witness, domains):
    if witness is None:
        return None
    if isinstance(witness, dict):
        out = dict(witness)
        if "center" in out:
            out["center"] = _reference_center_to_user(out["center"], domains)
        return _reference_jsonable(out)
    return _reference_jsonable(_reference_to_user(witness, domains))


def _reference_map_oracle_witness(method, witness, domains):
    if method != "jensen" or witness is None:
        return _reference_map_witness(witness, domains)
    center, lhs, rhs = witness
    return _reference_jsonable([_reference_center_to_user(center, domains), lhs, rhs])


def _random_witnesses(rng, dim, multi):
    """(method, verdict witness, oracle witness) of every shape a report
    maps, in working coordinates."""
    def coord():
        return float(rng.choice([rng.uniform(-0.5, 0.5), 0.0, -0.5, 0.5]))

    center = [coord() for _ in range(dim)]
    lambdas = [float(v) for v in rng.dirichlet(np.ones(4))]
    lhs, rhs = float(rng.normal()), float(rng.normal())
    oracle_center = np.array(center) if multi else center[0]
    out = [("jensen", {"center": center, "lambdas": lambdas}, (oracle_center, lhs, rhs)),
           ("jensen", None, None)]
    if not multi:
        number, pair = coord(), (coord(), coord())
        out += [("second-deriv", number, number), ("first-deriv", pair, pair),
                ("monotone", number, number)]
    return out


@pytest.mark.parametrize("dim", [0, 1, 2, 3], ids=["uni", "multi-1", "multi-2", "multi-3"])
def test_box_map_matches_reference_bytes(dim):
    multi = dim > 0
    dim = max(dim, 1)
    rng = np.random.default_rng([dim, multi])

    def dumps(obj):
        return json.dumps(obj, sort_keys=True, indent=2)

    for _ in range(50):
        lo = rng.uniform(-5.0, 5.0, size=dim)
        domains = [(float(a), float(a + w)) for a, w in zip(lo, rng.uniform(0.01, 10.0, size=dim))]
        box = _box(domains, multi)
        for method, witness, oracle_witness in _random_witnesses(rng, dim, multi):
            assert (dumps(_witness_to_user(witness, box, method))
                    == dumps(_reference_map_witness(witness, domains)))
            assert (dumps(_witness_to_user(oracle_witness, box, method))
                    == dumps(_reference_map_oracle_witness(method, oracle_witness, domains)))
        # explicit grid points go to working coordinates as the same bits
        user = np.array([[a + (b - a) * t for a, b in domains]
                         for t in rng.uniform(0.0, 1.0, size=8)])
        raw = user[:, 0].tolist() if not multi else user.tolist()
        grid = _build_grid({"grid": {"kind": "explicit", "points": raw}}, dim, box, None)
        reference = Grid.from_points(_reference_to_working(user, domains))
        assert grid.points.tobytes() == reference.points.tobytes()


def test_reports_same_bytes_without_the_sup_memo(tmp_path, monkeypatch):
    def report_bytes(name):
        rep = tmp_path / name
        main(["test", "--input", write(tmp_path, CUBIC), "--report", str(rep),
              "--method", "all", "--seed", "7", "--noise", "uniform", "--eps", "0.001"])
        return rep.read_bytes()

    qshape.poly._sup_univariate.cache_clear()
    memoized = report_bytes("memoized.json")
    assert qshape.poly._sup_univariate.cache_info().hits > 0
    monkeypatch.setattr(qshape.poly, "_sup_univariate", qshape.poly._sup_univariate.__wrapped__)
    assert report_bytes("uncached.json") == memoized


def _problem(coeffs):
    return dict(CUBIC, poly={"kind": "uni", "coeffs": coeffs})


REFERENCE_RUNS = [
    (CUBIC, "all"),
    (_problem([0.5, -2.0]), "all"),  # f'' of a falling line is -0.0
    *((_problem([z]), m) for z in (0.0, -0.0) for m in ("second-deriv", "jensen")),
]


def test_reports_same_bytes_with_numpy_polynomial_kernels(tmp_path, monkeypatch):
    def reports():
        out = []
        for i, (prob, method) in enumerate(REFERENCE_RUNS):
            qshape.poly._sup_univariate.cache_clear()
            rep = tmp_path / f"report-{i}.json"
            code = main(["test", "--input", write(tmp_path, prob), "--report", str(rep),
                         "--method", method, "--seed", "7", "--noise", "uniform", "--eps", "0.001"])
            out.append((code, rep.read_bytes()))
        return out

    kernels = reports()
    assert b'"min_second_derivative": -0.0' in kernels[1][1]
    monkeypatch.setattr(qshape.poly.Poly, "__call__", _reference_call)
    monkeypatch.setattr(qshape.poly.Poly, "derivative", _reference_derivative)
    monkeypatch.setattr(qshape.poly.Poly, "compose_affine", _reference_compose_affine)
    assert reports() == kernels
    qshape.poly._sup_univariate.cache_clear()


def test_one_parser_serves_successive_calls(tmp_path, capsys):
    inp = write(tmp_path, CUBIC)
    calls = [
        ["--method", "second-deriv", "--n", "8"],
        ["--method", "second-deriv"],  # --n omitted: the grid's own n again
        ["--method", "monotone", "--direction", "dec"],
        ["--method", "bogus"],
        ["--method", "monotone"],
    ]

    def outputs(parse):
        out = []
        for i, extra in enumerate(calls):
            rep = tmp_path / f"report-{i}.json"
            argv = ["test", "--input", inp, "--report", str(rep), "--seed", "7", *extra]
            try:
                code = parse(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            out.append((code, capsys.readouterr().err,
                        rep.read_bytes() if rep.exists() else None))
            rep.unlink(missing_ok=True)
        return out

    shared = outputs(main)
    assert shared[3][0] == ("exit", 2) and shared[3][2] is None
    assert shared[0][2] != shared[1][2]  # 8 points, then CUBIC's 16
    assert shared == outputs(lambda argv: run(build_parser().parse_args(argv)))


def test_import_does_not_load_numpy_polynomial():
    src = os.path.dirname(os.path.dirname(qshape.poly.__file__))
    check = "import sys, qshape.cli; sys.exit('numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", check], env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 0


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("QSHAPE_SEED", "42")
    code, rep1 = run_cli(tmp_path, CUBIC, "--method", "second-deriv",
                         "--noise", "uniform", "--eps", "0.001")
    _, rep2 = run_cli(tmp_path, CUBIC, "--method", "second-deriv",
                      "--seed", "42", "--noise", "uniform", "--eps", "0.001")
    assert rep1 == rep2


def test_report_determinism(tmp_path):
    texts = set()
    for _ in range(3):
        inp = write(tmp_path, CUBIC)
        rep = tmp_path / "det.json"
        main(["test", "--input", inp, "--report", str(rep), "--method", "all",
              "--seed", "7", "--noise", "uniform", "--eps", "0.001"])
        texts.add(rep.read_bytes())
    assert len(texts) == 1


# -- schema fuzz -------------------------------------------------------------

# Each problem starts ordinary: a valid box, integral exponents, weights
# that sum to one, a method the polynomial takes and an ordinary eps.  Then
# at most one fault goes in: an extreme a float can hold, or a value the
# reader refuses.  So every extreme occurs, as its problem's only fault.
_COEFFS = st.floats(min_value=-10.0, max_value=10.0)
_EXTREME_COEFFS = [5e-324, -5e-324, 1e308, -1e308]
# (centre, width) per axis; at 1e300 a width of 1 is lost to rounding
_BOXES = [(0.0, 1.0), (1.0, 1e-3), (-3.0, 1e3)]
_EXTREME_BOXES = [(0.0, 1e-300), (0.0, 1e300), (1e300, 1e300), (-1e300, 1e300), (1e300, 1.0)]
_EXTREME_EPS = [5e-324, 1e-308, 1.0, 1e300, 1e308]
# one working coordinate on the domain's edge, just outside it or far off
_EXTREME_POINTS = [-0.5, 0.7, 1e300]
# one exponent beyond the cap, or not an int
_ODD_EXPONENTS = [13, 14, 1.5, 2.0, True]
# a rounding residue at or just below zero, its mass moved to the first weight
_RESIDUES = [-1e-15, -5e-324, -0.0]
# one number of a real-valued field quoted, made a bool or nested once,
# which the reader refuses
_SPOILS = [repr, bool, lambda v: [v]]


@st.composite
def _uni_poly(draw, degree):
    coeffs = [0.0] * (degree + 1)
    coeffs[degree] = draw(_COEFFS)
    for i, c in draw(st.lists(st.tuples(st.integers(0, degree), _COEFFS), max_size=3)):
        coeffs[i] = c
    return {"kind": "uni", "coeffs": coeffs}


@st.composite
def _multi_poly(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    exponents = st.lists(st.integers(min_value=0, max_value=4), min_size=dim, max_size=dim)
    terms = draw(st.lists(st.fixed_dictionaries({"a": _COEFFS, "k": exponents}),
                          min_size=1, max_size=4))
    return {"kind": "multi", "dim": dim, "terms": terms}


@st.composite
def _problems(draw):
    multi, explicit, weighted = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    faults = ["coefficient", "box", "eps", "spoil", "exponent" if multi else "degree"]
    faults += ["method"] * multi + ["point"] * explicit + ["weights", "residue"] * weighted
    fault = draw(st.sampled_from([None] * len(faults) + faults))

    def pick(values):
        return draw(st.sampled_from(values))

    if multi:
        poly = draw(_multi_poly())
        if fault == "exponent":
            poly["terms"][0]["k"][0] = pick(_ODD_EXPONENTS)
        if fault == "coefficient":
            poly["terms"][0]["a"] = pick(_EXTREME_COEFFS)
    else:
        poly = draw(_uni_poly(draw(st.integers(9, 400) if fault == "degree" else st.integers(0, 8))))
        if fault == "coefficient":
            poly["coeffs"][draw(st.integers(0, len(poly["coeffs"]) - 1))] = pick(_EXTREME_COEFFS)
    dim = poly.get("dim", 1)
    boxes = draw(st.lists(st.sampled_from(_BOXES), min_size=dim, max_size=dim))
    if fault == "box":
        boxes[draw(st.integers(0, dim - 1))] = pick(_EXTREME_BOXES)
    problem = {"schema": 1, "poly": poly, "domain": [[c - w / 2, c + w / 2] for c, w in boxes]}
    if explicit:
        m = draw(st.integers(min_value=2, max_value=16))
        # distinct coordinates per axis, increasing on a univariate grid
        lattice = st.lists(st.integers(-50, 50), min_size=m, max_size=m, unique=True)
        axes = [[i / 100 for i in draw(lattice)] for _ in range(dim)]
        if not multi:
            axes[0].sort()
        pts = [list(p) for p in zip(*axes)]
        if fault == "point":
            pts[0][0] = pick(_EXTREME_POINTS)
        user = [[c + w * v for (c, w), v in zip(boxes, p)] for p in pts]
        problem["grid"] = {"kind": "explicit", "points": [p[0] for p in user] if dim == 1 else user}
    else:
        m = 1 << draw(st.integers(min_value=dim, max_value=4))
        problem["grid"] = {"kind": "uniform", "n": m}
    if weighted:
        raw = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=m, max_size=m))
        weights = raw if fault == "weights" else [v / sum(raw) for v in raw]
        if fault == "residue":
            weights[0] += weights[-1]
            weights[-1] = pick(_RESIDUES)
        problem["weights"] = weights
    if fault == "spoil":
        grid = problem["grid"]
        slots = [(poly["coeffs"], 0) if not multi else (poly["terms"][0], "a"), (problem["domain"][0], 0)]
        if explicit:
            slots.append((grid["points"], 0) if dim == 1 else (grid["points"][0], 0))
        if weighted:
            slots.append((problem["weights"], 0))
        target, key = pick(slots)
        target[key] = pick(_SPOILS)(target[key])
    if fault == "method":  # a univariate method for a multivariate polynomial
        method = pick(["second-deriv", "first-deriv", "monotone"])
    else:
        method = pick(["jensen", "all"] if multi else METHODS)
    flags = ["--method", method, "--eps", repr(pick(_EXTREME_EPS if fault == "eps" else [1e-3, 1e-2])),
             "--noise", pick(["exact", "uniform"]), "--seed", "3"]
    return problem, flags, fault == "spoil"


def _uni(coeffs, **extra):
    return {"schema": 1, "poly": {"kind": "uni", "coeffs": coeffs},
            "grid": {"kind": "uniform", "n": 8}, **extra}


def test_every_problem_ends_in_an_exit_code_and_at_most_one_error_line(tmp_path_factory):
    """Every problem ends in exit 0, 1 or 2 with at most one error line, and
    at least half of those the reader accepts run to a report."""
    reports = []  # whether each problem the reader accepts wrote a report

    @given(_problems())
    @example((_uni([0, 0, 1]), ["--eps", "1e-308"], False))
    @example((_uni([0, 0, 1]), ["--eps", "1e308", "--noise", "uniform"], False))
    @example((_uni([0, 0, 1], grid={"kind": "explicit", "points": [-0.4, -0.1, 0.2, 0.4]},
                   weights=[0.25, 0.25, 0.5, -1e-15]), ["--method", "jensen"], False))
    @example((_uni([0] * 339 + [1]), ["--method", "jensen"], False))
    @example((_uni([0] * 340 + [1]), ["--method", "all"], False))
    @example((_uni([0] * 342 + [1]), ["--method", "jensen"], False))
    @example((dict(_uni([0, 0, 1]), poly={"kind": "multi", "dim": 2, "terms": [{"a": 5e-324, "k": [0, 3]}]}),
              ["--method", "jensen", "--eps", "1e-9", "--noise", "uniform"], False))
    @example((_uni([0, 0, 1], domain=[[0, 1e-300]], grid={"kind": "explicit", "points": [1e300]}), [], False))
    @example((dict(_uni([0, 0, 1]), poly={"kind": "multi", "dim": 3, "terms": [{"a": 1.0, "k": [2, 0, 0]}]},
                   grid={"kind": "uniform", "n": 4}), ["--method", "jensen"], False))
    @example((_uni([0, "0", 1]), ["--method", "jensen"], True))
    @example((_uni([0, 0, 1], weights=[]), ["--method", "jensen"], True))
    @example((_uni([0, 0, 1], grid={"kind": "explicit", "points": [-0.25, 0.25]}, weights=[[0.5], [0.5]]),
              ["--method", "jensen"], True))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def check(case):
        problem, flags, refused = case
        directory = tmp_path_factory.mktemp("fuzz")
        inp, rep = directory / "problem.json", directory / "report.json"
        inp.write_text(json.dumps(problem))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["test", "--input", str(inp), "--report", str(rep), *flags])
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert code == 1 if refused else code in (0, 1, 2)
        assert len(errors) == (1 if code == 1 else 0)
        if rep.exists():  # a report is strict JSON: no NaN or Infinity
            json.loads(rep.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in the report"))
        else:
            assert code == 1
        if not refused:
            reports.append(rep.exists())

    check()
    assert 2 * sum(reports) >= len(reports), f"{sum(reports)} reports of {len(reports)}"
