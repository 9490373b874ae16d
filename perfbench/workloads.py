"""Seeded request generators for the three benchmark workloads.

Every workload turns a seed into a list of requests. A request runs through
skewtmix's public API (``run``), names the numbers it produced
(``outputs``), says how many Monte Carlo draws it demanded (``demand``) and
recomputes the same numbers with the independent oracle (``expected``).

Each workload walks a fixed cycle of request shapes (dimension, component
count, kind, order); the seed draws only the parameters inside a shape, and
the degrees of freedom of one cycle's components are stratified over their
range. Runs on different seeds therefore do nearly the same mix of work,
which keeps their timings comparable.

Timed requests and warm-up requests come from separate random streams of the
same seed, so warm-up never touches a component that a timed request uses.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from skewtmix import bounds, cli, config, distributions, entropy
from skewtmix.linalg import SpdMatrix

TIMED, WARMUP = 0, 1

TABLE1_ALPHAS = (2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 100.0)
# Quadrature converges on every component drawn inside these ranges (the
# record script checks this on the default and held-out seeds).
DOF_RANGE = (3.0, 12.0)
SCALE_EIG_RANGE = (0.2, 5.0)
DELTA_MAX = 4.0
MU_MAX = 5.0
DD_MAX = 40.0


@dataclass
class Request:
    index: int
    label: str
    run: Callable[[int], object]
    outputs: Callable[[object], list]
    expected: Callable[[], list]
    demand: int = 0


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def stratified_dofs(rng: np.random.Generator, n: int) -> np.ndarray:
    """n degrees of freedom, one from each of n equal slices of DOF_RANGE, shuffled."""
    lo, hi = DOF_RANGE
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def draw_component(rng: np.random.Generator, d: int, dof: float, skew: bool = True) -> tuple:
    """(mu, scale, delta, dof) inside the benchmark's parameter ranges."""
    while True:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = np.exp(rng.uniform(math.log(SCALE_EIG_RANGE[0]), math.log(SCALE_EIG_RANGE[1]), d))
        scale = (q * lam) @ q.T
        scale = 0.5 * (scale + scale.T)
        mu = rng.uniform(-MU_MAX, MU_MAX, d)
        delta = rng.uniform(-DELTA_MAX, DELTA_MAX, d) if skew else np.zeros(d)
        comp = (mu, scale, delta, float(dof))
        if oracle.shape_dd(comp) <= DD_MAX:
            return comp


def draw_weights(rng: np.random.Generator, m: int) -> np.ndarray:
    w = rng.dirichlet(np.full(m, 3.0))
    w[-1] = 1.0 - float(np.sum(w[:-1]))
    return w


def to_params(comp) -> distributions.SkewTParams:
    mu, scale, delta, dof = comp
    return distributions.SkewTParams(mu=mu, scale=SpdMatrix(scale), delta=delta, dof=dof)


class Workload:
    name = ""
    cycle = 1  # requests per cycle of request shapes
    # Timed requests generated per run: whole cycles, with at least 3x spare
    # over the most a 30 s run completed when this was sized, so a faster
    # program still runs to the deadline (run.py flags a run that does not).
    capacity = 0
    warmup = 0  # warm-up requests, from their own stream
    trace_rate = 0.0  # traced requests per second of --seconds
    scaled = True  # report probe-scaled timings (see run.py)

    def generate(self, seed: int, stream: int, count: int, workdir: Path) -> list:
        raise NotImplementedError

    def timed_inputs(self, seed: int, workdir: Path) -> list:
        return self.generate(seed, TIMED, self.capacity, workdir)

    def warmup_inputs(self, seed: int, workdir: Path) -> list:
        return self.generate(seed, WARMUP, self.warmup, workdir)


# --- entropy-cells -----------------------------------------------------------


class EntropyCells(Workload):
    """One skewt_shannon or skewt_renyi call per request, each on its own component."""

    name = "entropy-cells"
    cycle = 60  # d cycles by 3, Shannon every 4th, delta = 0 every 10th
    capacity = 126 * cycle  # 30 s runs completed up to 2,520
    warmup = 24
    trace_rate = 10.0

    def generate(self, seed: int, stream: int, count: int, workdir: Path) -> list:
        rng = rng_for(seed, stream)
        requests = []
        for j in range(count):
            if j % self.cycle == 0:
                dofs = stratified_dofs(rng, self.cycle)
            d = j % 3 + 1
            comp = draw_component(rng, d, dofs[j % self.cycle], skew=j % 10 != 9)
            params = to_params(comp)
            if j % 4 == 0:
                requests.append(self._shannon(j, d, comp, params))
            else:
                alpha = float(rng.choice(TABLE1_ALPHAS))
                requests.append(self._renyi(j, d, comp, params, alpha))
        return requests

    @staticmethod
    def _shannon(j, d, comp, params) -> Request:
        return Request(
            index=j,
            label=f"shannon d={d}",
            run=lambda threads: entropy.skewt_shannon(params),
            outputs=lambda value: [value],
            expected=lambda: [oracle.skewt_shannon(comp)],
        )

    @staticmethod
    def _renyi(j, d, comp, params, alpha) -> Request:
        return Request(
            index=j,
            label=f"renyi d={d} alpha={alpha:g}",
            run=lambda threads: entropy.skewt_renyi(params, alpha),
            outputs=lambda value: [value],
            expected=lambda: [oracle.skewt_renyi(comp, alpha)],
        )


# --- mixture-bounds ----------------------------------------------------------

# (kind, d, m, order or convention). High orders at m = 4-5 load the
# composition loop; the large-order form loads repeated component entropies.
# Shapes of similar cost sit around the median (four Renyi bounds at m = 3)
# and the 90th percentile (two at m = 5, order 30), so neither percentile
# falls on the edge between two shapes of different cost.
BOUNDS_CYCLE = (
    ("shannon", 1, 2, "paper"),
    ("renyi", 1, 5, 30),
    ("renyi", 3, 3, 2),
    ("shannon", 2, 3, "exact"),
    ("renyi", 2, 3, 8),
    ("large", 2, 2, 5),
    ("shannon", 3, 5, "paper"),
    ("renyi", 1, 3, 12),
    ("renyi", 1, 4, 40),
    ("shannon", 1, 4, "exact"),
    ("renyi", 3, 3, 20),
    ("renyi", 2, 5, 30),
)
POOL_SIZE = 6


class MixtureBounds(Workload):
    """Bound combinators on mixtures drawn from a small per-seed component pool."""

    name = "mixture-bounds"
    cycle = len(BOUNDS_CYCLE)
    capacity = 70 * cycle  # 30 s runs completed up to 276
    warmup = len(BOUNDS_CYCLE)
    trace_rate = 2.0

    def generate(self, seed: int, stream: int, count: int, workdir: Path) -> list:
        rng = rng_for(seed, stream)
        pool = {
            d: [draw_component(rng, d, dof) for dof in stratified_dofs(rng, POOL_SIZE)] for d in (1, 2, 3)
        }
        pool_params = {d: [to_params(c) for c in comps] for d, comps in pool.items()}
        requests = []
        for j in range(count):
            kind, d, m, arg = BOUNDS_CYCLE[j % len(BOUNDS_CYCLE)]
            pick = rng.choice(POOL_SIZE, size=m, replace=False)
            weights = draw_weights(rng, m)
            comps = [pool[d][i] for i in pick]
            mixture = distributions.MixtureParams(
                components=tuple(pool_params[d][i] for i in pick), weights=weights
            )
            requests.append(self._request(j, kind, d, m, arg, comps, weights, mixture))
        return requests

    @staticmethod
    def _request(j, kind, d, m, arg, comps, weights, mixture) -> Request:
        label = f"{kind} d={d} m={m} {arg}"
        if kind == "shannon":
            return Request(
                index=j,
                label=label,
                run=lambda threads: bounds.shannon_bounds(mixture, convention=arg),
                outputs=lambda r: [r.lower, r.upper],
                expected=lambda: oracle.shannon_bounds(comps, weights, arg),
            )
        if kind == "renyi":
            return Request(
                index=j,
                label=label,
                run=lambda threads: bounds.renyi_bounds(mixture, arg),
                outputs=lambda r: [r.lower, r.upper],
                expected=lambda: oracle.renyi_bounds(comps, weights, arg),
            )
        return Request(
            index=j,
            label=label,
            run=lambda threads: bounds.renyi_large_alpha_approx(mixture, arg),
            outputs=lambda value: [value],
            expected=lambda: [oracle.large_alpha_approx(comps, weights, arg)],
        )


# --- mc-oracle ---------------------------------------------------------------

# (d, m, kind). Sample counts are whole 65,536-draw chunks, at least two so
# the CLI's thread pool engages, sized so every request evaluates about the
# same number of component log densities. With an odd number of shapes the
# median and the 90th percentile fall inside one shape's band, not on the
# edge between two.
MC_CYCLE = (
    (1, 2, "bounds"),
    (2, 3, "is"),
    (3, 4, "bounds"),
    (1, 5, "is"),
    (2, 5, "bounds"),
)
MC_BOUNDS_ALPHAS = ("shannon", "2", "5")
MC_IS_ALPHA = 2.0


def mc_chunks(kind: str, m: int) -> int:
    evals = len(MC_BOUNDS_ALPHAS) if kind == "bounds" else 2
    return max(2, round(24 / (evals * m)))


class McOracle(Workload):
    """`skewtmix bounds --oracle` and `skewtmix entropy --method is` through cli.main."""

    name = "mc-oracle"
    # Its two-thread numpy requests do not track the single-thread Python
    # probe: raw wall times spread less across runs than scaled ones.
    scaled = False
    cycle = len(MC_CYCLE)
    capacity = 18 * cycle  # 30 s runs completed up to 30
    warmup = 2
    trace_rate = 0.3

    def generate(self, seed: int, stream: int, count: int, workdir: Path) -> list:
        rng = rng_for(seed, stream)
        workdir.mkdir(parents=True, exist_ok=True)
        requests = []
        for j in range(count):
            d, m, kind = MC_CYCLE[j % self.cycle]
            if j % self.cycle == 0:
                dofs = iter(stratified_dofs(rng, sum(cell[1] for cell in MC_CYCLE)))
            comps = [draw_component(rng, d, next(dofs)) for _ in range(m)]
            weights = draw_weights(rng, m)
            n = mc_chunks(kind, m) * distributions.CHUNK_SIZE
            mc_seed = int(rng.integers(1 << 31))
            document = {
                "components": [
                    {"mu": mu.tolist(), "scale": s.tolist(), "delta": de.tolist(), "dof": v}
                    for mu, s, de, v in comps
                ],
                "weights": weights.tolist(),
                "seed": mc_seed,
                "samples": n,
            }
            path = workdir / f"req{stream}_{j:04d}.json"
            path.write_text(json.dumps(document))
            config.load_config(str(path))  # validate the input as the CLI will
            requests.append(self._request(j, kind, d, m, n, mc_seed, str(path), comps, weights))
        return requests

    @staticmethod
    def _request(j, kind, d, m, n, mc_seed, path, comps, weights) -> Request:
        if kind == "bounds":
            argv = ["bounds", path, "--oracle"]
            for a in MC_BOUNDS_ALPHAS:
                argv += ["--alpha", a]
            orders = len(MC_BOUNDS_ALPHAS)
            fields = ("lower", "upper", "oracle", "oracle_se")
        else:
            argv = ["entropy", path, "--method", "is", "--alpha", f"{MC_IS_ALPHA:g}"]
            orders = 1
            fields = ("approx", "oracle_se")

        def run(threads):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv + ["--threads", str(threads), "--out", "json"])
            if code != 0:
                raise RuntimeError(f"skewtmix {' '.join(argv)} exited with {code}")
            return out.getvalue()

        def outputs(text):
            return [row[f] for row in json.loads(text) for f in fields]

        def expected():
            if kind == "bounds":
                lp = oracle.mixture_logpdf(comps, weights, oracle.sample_mixture(comps, weights, n, mc_seed))
                rows = [oracle.shannon_bounds(comps, weights, "paper") + oracle.mc_shannon(lp)]
                for a in MC_BOUNDS_ALPHAS[1:]:
                    rows.append(oracle.renyi_bounds(comps, weights, int(a)) + oracle.mc_renyi(lp, float(a)))
                return [x for row in rows for x in row]
            proposal = oracle.fat(comps)
            draws = oracle.sample_mixture(proposal, weights, n, mc_seed)
            lt = oracle.mixture_logpdf(comps, weights, draws)
            lq = oracle.mixture_logpdf(proposal, weights, draws)
            return oracle.is_renyi(lt, lq, MC_IS_ALPHA)

        return Request(
            index=j,
            label=f"{kind} d={d} m={m} n={n}",
            run=run,
            outputs=outputs,
            expected=expected,
            demand=n * orders,
        )


WORKLOADS = {w.name: w for w in (EntropyCells(), MixtureBounds(), McOracle())}
