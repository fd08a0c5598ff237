"""Seeded problem corpora for the three benchmark workloads.

Each workload is a list of problems; a problem is a JSON problem file plus
the `qshape test` flags it runs with.  The same seed always gives the same
corpus, byte for byte.

The structure of a corpus (which degrees, grid sizes, eps values and grid
kinds occur, and how often) is a fixed stratified design: a seed changes the
random coefficients, domains, weights and noise seeds, and the run order,
but not the mix.  That keeps the per-seed cost and decisiveness close while
still varying the inputs.  The first problem always comes from the same
cell, because it is also the set-up's warm-up problem.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("small-grid-mix", "dense-first-deriv", "jensen-multivariate")

# stable per-workload salts, mixed with the user seed
_SALT = {"small-grid-mix": 101, "dense-first-deriv": 202, "jensen-multivariate": 303}


@dataclass(frozen=True)
class Problem:
    name: str
    problem: dict
    flags: tuple[str, ...]

    def text(self) -> str:
        return json.dumps(self.problem, sort_keys=True) + "\n"

    @property
    def method_runs(self) -> int:
        """Method runs the problem asks for: four for a univariate
        ``--method all``, else one."""
        method = self.flags[self.flags.index("--method") + 1]
        return 4 if method == "all" and self.problem["poly"]["kind"] == "uni" else 1


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, _SALT[workload]])


def _order(rng, cells: list, first) -> list:
    """``cells`` in seeded order, with the cell ``first`` at the front."""
    k = cells.index(first)
    rest = cells[:k] + cells[k + 1:]
    return [first] + [rest[i] for i in rng.permutation(len(rest))]


def _coeffs(rng, degree: int) -> list[float]:
    c = [float(v) for v in rng.normal(0.0, 1.0, size=degree + 1)]
    if abs(c[-1]) < 0.1:  # keep the stated degree well away from cancellation
        c[-1] = 0.5
    return c


def _cli_seed(rng) -> str:
    return str(int(rng.integers(0, 2**31)))


def _explicit_points(rng, m: int, a: float, b: float) -> list[float]:
    # strictly increasing, well separated, strictly inside [a, b]
    jitter = np.sort(rng.uniform(0.0, 1.0, size=m))
    frac = (np.arange(m) + 0.2 + 0.6 * jitter) / m
    return [float(a + (b - a) * t) for t in frac]


def small_grid_mix(seed: int) -> list[Problem]:
    """Univariate problems under --method all: every cell of degree 1..20 x
    n in {8, 16, 32} x eps in {1e-2, 1e-3} four times.  A quarter of them
    (degree + copy divisible by 4) use strictly increasing explicit grids of
    n - U{0..n/4} points, most not a power of two, so the CLI pads them.
    Domains are random intervals; noise is uniform with a seed per problem."""
    rng = _rng("small-grid-mix", seed)
    cells = [(d, n, eps, (d + r) % 4 == 0)
             for r in range(4) for d in range(1, 21) for n in (8, 16, 32) for eps in (1e-2, 1e-3)]
    out = []
    for i, (degree, n, eps, explicit) in enumerate(_order(rng, cells, (10, 16, 1e-3, False))):
        a = float(rng.uniform(-2.0, 1.0))
        b = a + float(rng.uniform(0.5, 3.0))
        if explicit:
            m = n - int(rng.integers(0, n // 4 + 1))
            grid = {"kind": "explicit", "points": _explicit_points(rng, m, a, b)}
        else:
            grid = {"kind": "uniform", "n": n}
        problem = {"schema": 1, "poly": {"kind": "uni", "coeffs": _coeffs(rng, degree)},
                   "domain": [[a, b]], "grid": grid}
        flags = ("--method", "all", "--oracle-check", "on", "--eps", repr(eps),
                 "--noise", "uniform", "--seed", _cli_seed(rng))
        out.append(Problem(f"sgm-{i:03d}", problem, flags))
    return out


def dense_first_deriv(seed: int) -> list[Problem]:
    """First-derivative test on uniform n = 512 grids at eps = 1e-5: every
    degree 2..8 24 times, on symmetric domains [-h, h], h in [0.5, 2]."""
    rng = _rng("dense-first-deriv", seed)
    cells = [(d, r) for r in range(24) for d in range(2, 9)]
    out = []
    for i, (degree, _) in enumerate(_order(rng, cells, (5, 0))):
        h = float(rng.uniform(0.5, 2.0))
        problem = {"schema": 1, "poly": {"kind": "uni", "coeffs": _coeffs(rng, degree)},
                   "domain": [[-h, h]], "grid": {"kind": "uniform", "n": 512}}
        flags = ("--method", "first-deriv", "--oracle-check", "on", "--eps", "1e-05",
                 "--noise", "uniform", "--seed", _cli_seed(rng))
        out.append(Problem(f"dfd-{i:03d}", problem, flags))
    return out


def jensen_multivariate(seed: int) -> list[Problem]:
    """Multivariate Jensen problems: every cell of dim in {2, 3} x n in
    {64, 128, 256} x 6..16 terms four times, with exponents <= 6, random
    convex weights and eps = 1e-3, each as a pair (below): 264 pairs, 528
    problems.  At the default eps = 1e-2 about a third of the verdicts the
    CLI reports are Inconclusive, which makes the decisive share swing from
    seed to seed; at 1e-3 about a tenth are, at the same cost.  Boxes
    are centred on 0, so remapping keeps the term count under the 64-term
    cap of the multivariate encoding.

    Problems come in sign-flipped pairs (f, -f) on the same box, weights and
    seed.  Jensen's inequality fails at a given point set for exactly one of
    f and -f (barring a tie), so exactly half the oracle checks find a
    violation whatever the seed, which removes that share's seed-to-seed
    spread.
    """
    rng = _rng("jensen-multivariate", seed)
    cells = [(dim, n, t, r) for r in range(4) for dim in (2, 3) for n in (64, 128, 256)
             for t in range(6, 17)]
    out = []
    for i, (dim, n, n_terms, _) in enumerate(_order(rng, cells, (2, 128, 11, 0))):
        terms = [(float(rng.normal(0.0, 1.0)), [int(v) for v in rng.integers(0, 7, size=dim)])
                 for _ in range(n_terms)]
        raw = rng.exponential(1.0, size=n)
        base = {"schema": 1, "domain": [[-h, h] for h in rng.uniform(0.25, 1.5, size=dim).tolist()],
                "grid": {"kind": "uniform", "n": n}, "weights": [float(v) for v in raw / raw.sum()]}
        flags = ("--method", "jensen", "--oracle-check", "on", "--eps", "0.001",
                 "--seed", _cli_seed(rng))
        for sign, tag in ((1.0, "p"), (-1.0, "m")):
            poly = {"kind": "multi", "dim": dim, "terms": [{"a": sign * a, "k": k} for a, k in terms]}
            out.append(Problem(f"jmv-{i:03d}{tag}", dict(base, poly=poly), flags))
    return out


_GENERATORS = {
    "small-grid-mix": small_grid_mix,
    "dense-first-deriv": dense_first_deriv,
    "jensen-multivariate": jensen_multivariate,
}


def build(workload: str, seed: int) -> list[Problem]:
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](seed)


def write(problems: list[Problem], directory: str) -> list[str]:
    """Write each problem file into ``directory``; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for p in problems:
        path = os.path.join(directory, p.name + ".json")
        with open(path, "w") as fh:
            fh.write(p.text())
        paths.append(path)
    return paths
