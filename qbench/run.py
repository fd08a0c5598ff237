"""qshape benchmark: one workload, closed loop, one client, in-process.

Run from the root of a qshape checkout:

    python3 qbench/run.py --workload small-grid-mix --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in
its own process.  For one workload, it generates the problem files from
the seed, then calls ``qshape.cli.main(["test", ...])`` on them one after
another for the given number of seconds, checks every report, and prints
the end-to-end metrics (``--trace 0``) or, from a separate run with the
outside-in tracer, the per-layer metrics (``--trace 1``).  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md beside
this file for what each workload and metric means.

Times are taken on two clocks.  The gated figures use the process's CPU
clock, which on a dedicated core equals the wall clock but leaves out the
time a shared host's hypervisor takes the core away; the wall-clock figures
are printed beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("small-grid-mix", "dense-first-deriv", "jensen-multivariate")

# BLAS threads, fixed before numpy loads: one thread is never more than the
# host's cores, and the process CPU clock then times exactly one thread
BLAS_THREADS = "1"
SETUP_REPEATS = 9
# The tail percentile per workload: the highest of 90, 95 and 99 that has
# at least ten OK samples beyond it at the baseline's sample count, fixed so
# that runs of two commits compare the same percentile.  A run with fewer
# than ten samples beyond it falls back to a lower rung and says so.
TAIL_PERCENTILE = {"small-grid-mix": 99.0, "dense-first-deriv": 90.0, "jensen-multivariate": 95.0}
_RUNGS = (99.0, 95.0, 90.0, 75.0, 50.0)

# Cold start in a fresh interpreter: import the CLI, then run one problem.
_PROBE = r"""
import json, sys, time
def now():
    return time.process_time(), time.perf_counter()
t0 = now()
import qshape.cli
t1 = now()
try:
    qshape.cli.main(sys.argv[1:])
except Exception:  # a crashing problem still warms up; the loop counts the crash
    pass
t2 = now()
print(json.dumps({"import": [t1[0] - t0[0], t1[1] - t0[1]],
                  "warmup": [t2[0] - t1[0], t2[1] - t1[1]],
                  "module": qshape.cli.__file__}))
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _fail(msg: str) -> int:
    print(f"qbench: {msg}", file=sys.stderr)
    return 2


def _now() -> tuple[float, float]:
    """(process CPU seconds, wall seconds)."""
    return time.process_time(), time.perf_counter()


class Outcome:
    """What one `qshape test` call produced, read back from its report."""

    __slots__ = ("ok", "wrong", "error", "runs", "decisive", "fingerprint")

    def __init__(self, problem, code, exc, report_path, stderr_text):
        self.ok = False
        self.wrong = None  # description of an incorrect output
        self.error = None  # why the problem failed
        self.runs = problem.method_runs
        self.decisive = 0
        self.fingerprint = None
        if exc is not None:
            self.error = exc
            return
        if code not in (0, 2):
            line = stderr_text.strip().splitlines()[-1:] or [""]
            self.error = f"exit {code}: {line[0][:120]}"
            return
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except FileNotFoundError:
            self.error = "no report"
            return
        except json.JSONDecodeError as err:
            self.error = self.wrong = f"report does not parse: {err}"
            return
        results = report.get("results", [report])
        if len(results) != self.runs:
            self.error = self.wrong = f"{len(results)} results for {self.runs} method runs"
            return
        if any(r.get("agreement") is False for r in results):
            self.error = self.wrong = "a decisive verdict disagrees with the oracle"
            return
        inconclusive = sum(r["outcome"] == "Inconclusive" for r in results)
        if code != (2 if inconclusive else 0):
            self.error = self.wrong = f"exit {code} with {inconclusive} Inconclusive results"
            return
        self.ok = True
        self.decisive = self.runs - inconclusive
        summary = [[r["method"], r["outcome"], r["ledger"]] for r in results]
        self.fingerprint = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()

    def digest_entry(self) -> str:
        return self.fingerprint if self.ok else f"failed:{self.error}"


class Runner:
    """Calls the CLI in-process, one problem at a time."""

    def __init__(self, cli, workdir: str):
        self.cli = cli
        self.sink = io.StringIO()
        self.report = os.path.join(workdir, "report.json")

    def call(self, problem, path, report=None):
        """Time one `main()` call; returns (CPU s, wall s, Outcome)."""
        report = report or self.report
        with contextlib.suppress(FileNotFoundError):
            os.remove(report)
        self.sink.seek(0)
        self.sink.truncate()
        argv = ["test", "--input", path, "--report", report, *problem.flags]
        code = exc = None
        with contextlib.redirect_stderr(self.sink):
            cpu0, wall0 = _now()
            try:
                code = self.cli.main(argv)
            except Exception as err:  # a crash of the program under test is a counted failure
                exc = type(err).__name__
            cpu1, wall1 = _now()
        return cpu1 - cpu0, wall1 - wall0, Outcome(problem, code, exc, report, self.sink.getvalue())


def _environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _cold_setup(workload: str, seed: int, workdir: str, src: str) -> dict:
    """One set-up: import the CLI in a fresh interpreter, generate and write
    the corpus, and run the first problem there as the warm-up.  Returns
    [CPU s, wall s] per part."""
    import corpus

    t0 = _now()
    fresh = corpus.build(workload, seed)
    paths = corpus.write(fresh, workdir)
    t1 = _now()
    argv = ["test", "--input", paths[0], "--report", os.path.join(workdir, "warmup.json"),
            *fresh[0].flags]
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=os.path.dirname(src),
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    probe["corpus"] = [t1[0] - t0[0], t1[1] - t0[1]]
    probe["total"] = [probe["import"][k] + probe["corpus"][k] + probe["warmup"][k] for k in (0, 1)]
    return probe


def _tail(latencies: list[float], workload: str):
    """(percentile, value, samples beyond it) at the workload's tail
    percentile, or the next lower rung with at least ten samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in (r for r in _RUNGS if r <= TAIL_PERCENTILE[workload]):
        beyond = int(n * (1.0 - pct / 100.0))
        if beyond >= 10 or pct == _RUNGS[-1]:
            return pct, ordered[n - 1 - beyond], beyond
    raise AssertionError("unreachable")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_metrics(metrics: dict, wrong: list[str], notes=None):
    notes = notes or {}
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    for w in wrong[:20]:
        print(f"INCORRECT {w}")


def _another_pass(pass_start: float, deadline: float) -> bool:
    """Runs stop at the pass boundary nearest the deadline, so every run
    covers whole passes of the corpus and its mix does not depend on where
    the clock ran out."""
    now = time.perf_counter()
    return now + (now - pass_start) / 2.0 < deadline


def run_untraced(args, runner, problems, paths, setups):
    """Closed loop over whole passes of the corpus for about --seconds of
    wall time, at least one pass."""
    first: list[Outcome] = []
    cpu_lat: list[float] = []
    wall_lat: list[float] = []
    attempted = failed = 0
    wrong: list[str] = []
    errors: dict[str, int] = {}
    cpu0, wall0 = _now()
    deadline = wall0 + args.seconds
    passes = 0
    more = True
    while more:
        pass_start = time.perf_counter()
        for i, (problem, path) in enumerate(zip(problems, paths)):
            cpu, wall, out = runner.call(problem, path)
            attempted += 1
            if out.ok:
                cpu_lat.append(cpu)
                wall_lat.append(wall)
            else:
                failed += 1
                errors[out.error] = errors.get(out.error, 0) + 1
            if out.wrong:
                wrong.append(f"{problem.name}: {out.wrong}")
            if passes == 0:
                first.append(out)
            elif out.digest_entry() != first[i].digest_entry():
                wrong.append(f"{problem.name}: outcome or ledger changed between passes")
        passes += 1
        more = _another_pass(pass_start, deadline)
    cpu1, wall1 = _now()
    if not cpu_lat:
        raise RuntimeError("no problem finished OK; nothing to time")

    ok = len(cpu_lat)
    runs = sum(o.runs for o in first)
    decisive = sum(o.decisive for o in first)
    ok_first = sum(o.ok for o in first)
    pct, tail, beyond = _tail(cpu_lat, args.workload)
    _, wall_tail, _ = _tail(wall_lat, args.workload)
    digest = hashlib.sha256("\n".join(
        f"{p.name} {o.digest_entry()}" for p, o in zip(problems, first)).encode()).hexdigest()
    metrics = {
        "setup_s": _metric(statistics.median(s["total"][0] for s in setups), "s"),
        "throughput_ok_per_s": _metric(ok / (cpu1 - cpu0), "1/s"),
        "latency_p50_ms": _metric(1000.0 * statistics.median(cpu_lat), "ms"),
        "latency_tail_ms": _metric(1000.0 * tail, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "decisive_share": _metric(decisive / runs, "ratio"),
        "ok_share": _metric(ok_first / len(first), "ratio"),
    }
    print(f"run: {attempted} calls over {passes} pass(es) of {len(problems)} problems, "
          f"{ok} OK, {failed} failed; loop {cpu1 - cpu0:.2f} s CPU, {wall1 - wall0:.2f} s wall "
          f"({1.0 - (cpu1 - cpu0) / (wall1 - wall0):.1%} of wall time off the CPU)")
    print("setup_s per repeat, CPU s (import + corpus + warm-up): " + ", ".join(
        f"{s['total'][0]:.3f} ({s['import'][0]:.3f} + {s['corpus'][0]:.3f} + {s['warmup'][0]:.3f})"
        for s in setups))
    print(f"wall clock: setup_s {statistics.median(s['total'][1] for s in setups):.4g} s, "
          f"throughput_ok_per_s {ok / (wall1 - wall0):.4g} 1/s, "
          f"latency_p50_ms {1000.0 * statistics.median(wall_lat):.4g} ms, "
          f"latency_tail_ms {1000.0 * wall_tail:.4g} ms")
    for err, count in sorted(errors.items()):
        print(f"failure kind: {err} x{count}")
    print(f"digest {args.workload} seed={args.seed}: {digest}")
    _print_metrics(metrics, wrong, {
        "latency_p50_ms": f"{ok} OK samples",
        "latency_tail_ms": f"p{pct:g}, {beyond} of {ok} OK samples beyond it",
        "decisive_share": f"{decisive} decisive of {runs} method runs, first pass",
        "ok_share": f"{ok_first} of {len(first)} problems, first pass; "
                    f"failed_share {len(first) - ok_first}/{len(first)}",
    })
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_traced(args, runner, problems, paths, workdir):
    """Each problem untraced and traced back to back, in alternating order,
    over whole passes as in run_untraced.  Whole passes also make the
    per-problem call counts exact for a given seed."""
    from tracer import Tracer

    tracer = Tracer()
    other = os.path.join(workdir, "report-traced.json")
    cpu_total = {False: 0.0, True: 0.0}
    traced = failed = 0
    wrong: list[str] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    passes = 0
    more = True
    while more:
        pass_start = time.perf_counter()
        for i, (problem, path) in enumerate(zip(problems, paths)):
            got = {}
            for on in ((False, True) if (i + passes) % 2 == 0 else (True, False)):
                with tracer if on else contextlib.nullcontext():
                    cpu, _, got[on] = runner.call(problem, path, other if on else None)
                cpu_total[on] += cpu
            traced += 1
            failed += not got[False].ok
            for out in got.values():
                if out.wrong:
                    wrong.append(f"{problem.name}: {out.wrong}")
            if got[False].digest_entry() != got[True].digest_entry() or \
                    _read(runner.report) != _read(other):
                wrong.append(f"{problem.name}: report differs with the tracer on")
        passes += 1
        more = _another_pass(pass_start, deadline)
    elapsed = time.perf_counter() - start

    metrics = {k: _metric(v, "count" if k.endswith(".calls") else "ms")
               for k, v in tracer.layer_metrics(traced).items()}
    metrics["trace.overhead_share"] = _metric(cpu_total[True] / cpu_total[False] - 1.0, "ratio")
    total_self = sum(tracer.self_s.values())
    print(f"traced run: {traced} problems x 2 calls in {elapsed:.2f} s wall over {passes} "
          f"pass(es); CPU untraced {cpu_total[False]:.3f} s, traced {cpu_total[True]:.3f} s")
    print("self time (wall clock) by span, share of all traced self time:")
    for label, secs in sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {label:40s} {1000.0 * secs / traced:9.3f} ms/problem  "
              f"{secs / total_self:6.1%}  calls/problem {tracer.calls[label] / traced:.2f}")
    _print_metrics(metrics, wrong)
    return {"correct": not wrong, "attempted": traced, "failed": failed, "metrics": metrics}


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(argv, check=False).returncode or code
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qshape", "cli.py")):
        return _fail(f"no qshape sources under {src}; run from the root of a qshape checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [BENCH_DIR, src]
    import corpus

    workdir = os.path.join(root, ".qbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        problems = corpus.build(args.workload, args.seed)
        setups = []
        if args.trace == 0:
            setups = [_cold_setup(args.workload, args.seed, workdir, src)
                      for _ in range(SETUP_REPEATS)]
            if any(not s["module"].startswith(src) for s in setups):
                return _fail("the set-up probe imported qshape from outside this checkout")
        paths = corpus.write(problems, workdir)
        import qshape.cli as cli

        if not cli.__file__.startswith(src):
            return _fail(f"imported qshape from {cli.__file__}, not from this checkout")
        print("environment: " + json.dumps(_environment(args.workload, args.seed), sort_keys=True))
        runner = Runner(cli, workdir)
        runner.call(problems[0], paths[0])  # warm-up, untimed
        if args.trace:
            result = run_traced(args, runner, problems, paths, workdir)
        else:
            result = run_untraced(args, runner, problems, paths, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
