import json

import numpy as np
import pytest

import qshape.poly
from qshape.cli import main

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


def test_witness_in_user_coordinates(tmp_path):
    prob = dict(CUBIC, poly={"kind": "uni", "coeffs": [0.0, 0.0, 0.0, 1.0]},
                domain=[[-2.0, 2.0]])
    code, rep = run_cli(tmp_path, prob, "--method", "second-deriv", "--eps", "0.001")
    assert code == 0
    assert rep["outcome"] == "NotConvex"
    assert -2.0 <= rep["witness"] < 0.0  # user coordinates, not [-1/2, 1/2]


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


def test_explicit_grid_outside_domain(tmp_path):
    prob = {
        "schema": 1,
        "poly": {"kind": "uni", "coeffs": [0.0, 1.0]},
        "domain": [[0.0, 1.0]],
        "grid": {"kind": "explicit", "points": [0.5, 2.0]},
    }
    assert main(["test", "--input", write(tmp_path, prob)]) == 1


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
