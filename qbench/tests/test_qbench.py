"""Tests of the benchmark itself: seeded corpora, and an outside-in tracer
that neither changes reports nor leaves anything wrapped behind.

Run from the repository root:  python3 -m pytest -q qbench/tests
"""

import filecmp
import os
import sys

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
_BENCH = os.path.dirname(_HERE)
sys.path[:0] = [_BENCH, os.path.join(os.path.dirname(_BENCH), "src")]

import corpus  # noqa: E402
import qshape  # noqa: E402
import qshape.cli  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _namespaces():
    return [qshape] + [sys.modules[f"qshape.{layer}"] for layer in LAYERS]


def _snapshot():
    snap = {(ns.__name__, k): v for ns in _namespaces() for k, v in vars(ns).items()}
    snap[("BlockEnc", "__post_init__")] = qshape.BlockEnc.__dict__["__post_init__"]
    return snap


def _sample(workload, seed=7, count=3):
    """The first ``count`` problems, plus the first one the CLI crashes on
    (the Jensen workload's oracle-violation case), if any."""
    problems = corpus.build(workload, seed)
    return problems[:count] + [p for p in problems if p.name.endswith("m")][:1]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_identical_for_a_seed(workload, tmp_path):
    a = corpus.write(corpus.build(workload, 11), str(tmp_path / "a"))
    b = corpus.write(corpus.build(workload, 11), str(tmp_path / "b"))
    assert [os.path.basename(p) for p in a] == [os.path.basename(p) for p in b]
    assert all(filecmp.cmp(x, y, shallow=False) for x, y in zip(a, b))
    assert corpus.build(workload, 11) == corpus.build(workload, 11)
    assert corpus.build(workload, 11) != corpus.build(workload, 12)


def test_jensen_pairs_are_sign_flipped():
    problems = corpus.build("jensen-multivariate", 3)
    for plus, minus in zip(problems[::2], problems[1::2]):
        assert plus.flags == minus.flags
        assert plus.problem["weights"] == minus.problem["weights"]
        assert [t["a"] for t in plus.problem["poly"]["terms"]] == \
            [-t["a"] for t in minus.problem["poly"]["terms"]]


def _run(problem, tmp_path, tag):
    src = tmp_path / f"{problem.name}.json"
    src.write_text(problem.text())
    report = tmp_path / f"{problem.name}-{tag}.report"
    try:
        code = qshape.cli.main(["test", "--input", str(src), "--report", str(report),
                                *problem.flags])
    except TypeError as exc:  # the known multivariate Jensen report crash
        code = type(exc).__name__
    return code, (report.read_bytes() if report.exists() else None)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_reports_byte_identical_with_tracer(workload, tmp_path):
    tracer = Tracer()
    for problem in _sample(workload):
        plain = _run(problem, tmp_path, "plain")
        with tracer:
            traced = _run(problem, tmp_path, "traced")
        assert plain == traced, problem.name
    assert tracer.calls["cli.main"] == len(_sample(workload))


def test_tracer_restores_every_original():
    before = _snapshot()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert qshape.tester.certified_sup is not before[("qshape.poly", "certified_sup")]
            assert qshape.cli.test_convex_jensen is not before[("qshape.tester", "test_convex_jensen")]
            assert qshape.estimate.scale_down is not before[("qshape.blockenc", "scale_down")]
            assert qshape.BlockEnc.__dict__["__post_init__"] is not before[("BlockEnc", "__post_init__")]
            raise RuntimeError("leave the block early")
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not tracer.installed


def test_self_time_and_counts(tmp_path):
    problem = corpus.build("small-grid-mix", 5)[0]
    tracer = Tracer()
    with tracer:
        _run(problem, tmp_path, "traced")
    # --method all on a univariate problem: 23 certified sups, 4 oracle checks
    assert tracer.calls["poly.certified_sup"] == 23
    assert tracer.calls["oracle.oracle_convex"] + tracer.calls["oracle.oracle_monotone"] == 4
    metrics = tracer.layer_metrics(1)
    total = sum(tracer.self_s.values())
    assert sum(metrics[f"{layer}.self_ms"] for layer in LAYERS) == pytest.approx(1000.0 * total)
    assert all(v >= 0.0 for v in tracer.self_s.values())
