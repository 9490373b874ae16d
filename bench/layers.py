"""Time skewtmix layer by layer and write the figures to BENCH_<pr>.json.

    python bench/layers.py --pr 26
    python bench/layers.py --pr 26 --out-dir /tmp/bench --points 1000 --components 6 --repeats 3

Run it from anywhere; it imports skewtmix from ``src/`` of its own checkout.
BLAS and OpenMP threads are pinned to 1 before numpy loads, and the file
records nproc and the Python, numpy, scipy and skewtmix versions.

Layers:

* ``student_t_cdf`` on ``--points`` points (default 1M), at dof 5.3,
  inside the per-dof table's window, and at dof 100, which calls
  ``stdtr``; one array call per repeat;
* ``mixture_logpdf`` on ``--points`` draws (default 1M) of each of the
  bundled mixtures d1_m4, d2_m5 and d3_m3, evaluated in ``mc.BLOCK_SIZE``
  blocks on one thread, as the Monte Carlo oracle's workers do; the draws
  are made once, outside the timings;
* ``skewt_logpdf`` alone, the same way, on ``--points`` draws of d2_m3's
  third component (delta (2.6, 1), dof 4), many of whose rows fall past
  the reach of the t CDF table;
* ``sample_mixture`` of ``--points`` draws of d2_m3 in one call;
* ``mc_shannon`` on ``--points`` draws of d2_m3 at 1 and 2 worker
  threads, with closures over ``mixture_logpdf`` and ``sample_mixture``
  built once; the kept draw is cleared before every repeat, so each
  repeat draws and evaluates anew;
* cold ``skewt_shannon`` and ``skewt_renyi`` at orders 2 and 30: one call
  on each of ``--components`` fresh components (d = 1, 2, 3 in turn,
  dof 3-12), built anew for every repeat so that no kept correction is
  reused; the time is per call. ``t_cdf_points`` is the mean number of
  points each call passes to the quadrature's ``stdtr``, counted in one
  more untimed pass, so it moves only when the code does;
* ``renyi_bounds(d1_m4, 30)``, ``shannon_bounds(d1_m4,
  convention="exact")`` and ``renyi_large_alpha_approx(d1_m4, 12)`` on the
  bundled mixture d1_m4, cold and warm, with
  ``--components`` / 4 calls (at least one) per repeat, as many components
  as the cold entropy layers use: cold makes one call on each of that many
  copies built anew for every repeat, so every component entropy and
  moment is computed; warm makes as many calls on one copy that has been
  called once before, so each component returns its kept values. The time
  is per call. The checksum sums the calls' lower and upper values, or the
  approximation's value.

End to end, each of ``skewtmix reproduce --table 1|2|3 --out json`` runs
as a whole subprocess at default settings, in the pinned environment, once
per repeat. Its checksum sums the rows' numeric cells, and ``exit_code``
is the run's exit code (the same on every repeat, or the script fails).
``python -c "import skewtmix.cli"`` runs the same way, so that the
``reproduce`` times can be read net of start-up; its size is the number of
modules the import leaves loaded, and its checksum is 0, as it computes
nothing. ``skewtmix bounds <d2_m3> --oracle --alpha shannon --alpha 2
--alpha 5 --out json`` runs the same way on a config of the bundled d2_m3
whose ``samples`` is ``--points``: one ``mc.estimates`` call whose three
orders share one draw. Its checksum sums the rows' numeric cells.

Each entry records the median and interquartile range of its repeats in
seconds, the repeat count, its ``size`` (points, components, calls, rows or modules) and a
checksum: the sum of the layer's outputs rounded to CHECKSUM_DIGITS
significant digits, so that a last-bit move leaves it alone and a changed
value shows.
"""

from __future__ import annotations

import os

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import skewtmix  # noqa: E402
from skewtmix import bounds, entropy, mc, specfn, tables  # noqa: E402
from skewtmix.distributions import (  # noqa: E402
    SkewTParams, mixture_logpdf, sample_mixture, sample_skewt, skewt_logpdf,
)

CHECKSUM_DIGITS = 10
T_CDF_DOFS = (5.3, 100.0)
LOGPDF_MIXTURES = ("d1_m4", "d2_m5", "d3_m3")
LOGPDF_COMPONENT = ("d2_m3", 2)  # a bundled mixture and the index of one of its components
SAMPLE_MIXTURE = "d2_m3"
MC_MIXTURE = "d2_m3"
MC_THREADS = (1, 2)
ORACLE_ORDERS = ("shannon", "2", "5")
RENYI_ORDERS = (2.0, 30.0)
BOUNDS_MIXTURE = "d1_m4"
BOUNDS_LAYERS = {  # each returns the float outputs that the layer's checksum sums
    f"renyi_bounds {BOUNDS_MIXTURE} alpha=30": lambda m: bounds_pair(bounds.renyi_bounds(m, 30)),
    f"shannon_bounds {BOUNDS_MIXTURE} exact": lambda m: bounds_pair(bounds.shannon_bounds(m, convention="exact")),
    f"renyi_large_alpha_approx {BOUNDS_MIXTURE} alpha=12": lambda m: bounds.renyi_large_alpha_approx(m, 12),
}
REPRODUCE_TABLES = (1, 2, 3)
CLI = "import sys; from skewtmix.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT = "import sys, skewtmix.cli; print(len(sys.modules))"


def bounds_pair(report) -> tuple:
    return report.lower, report.upper


def entry(times: list, outputs, size: int) -> dict:
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {
        "median_s": float(median),
        "iqr_s": float(q3 - q1),
        "repeats": len(times),
        "size": size,
        "checksum": float(f"{float(np.sum(outputs)):.{CHECKSUM_DIGITS}g}"),
    }


def t_cdf_layer(v: float, points: int, repeats: int) -> dict:
    x = np.random.default_rng(1).standard_normal(points) * 4.0
    specfn.student_t_cdf(x[:10], v)  # builds the dof's table outside the timings
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = specfn.student_t_cdf(x, v)
        times.append(time.perf_counter() - start)
    return entry(times, out, points)


def blocked_layer(logpdf, x: np.ndarray, repeats: int) -> dict:
    """logpdf on the draws x in mc.BLOCK_SIZE blocks on one thread, as the oracle's workers call it."""
    logpdf(x[:10])  # builds the t CDF tables outside the timings
    out, times = np.empty(len(x)), []
    for _ in range(repeats):
        start = time.perf_counter()
        for b in range(0, len(x), mc.BLOCK_SIZE):
            out[b:b + mc.BLOCK_SIZE] = logpdf(x[b:b + mc.BLOCK_SIZE])
        times.append(time.perf_counter() - start)
    return entry(times, out, len(x))


def mixture_logpdf_layer(mixture_id: str, points: int, repeats: int) -> dict:
    mix = tables.builtin_mixture(mixture_id)
    return blocked_layer(lambda x: mixture_logpdf(mix, x), sample_mixture(mix, points, 1), repeats)


def skewt_logpdf_layer(mixture_id: str, index: int, points: int, repeats: int) -> dict:
    comp = tables.builtin_mixture(mixture_id).components[index]
    return blocked_layer(lambda x: skewt_logpdf(comp, x), sample_skewt(comp, points, 1), repeats)


def sample_mixture_layer(mixture_id: str, points: int, repeats: int) -> dict:
    mix = tables.builtin_mixture(mixture_id)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = sample_mixture(mix, points, 1)
        times.append(time.perf_counter() - start)
    return entry(times, out, points)


def mc_shannon_layer(mixture_id: str, points: int, threads: int, repeats: int) -> dict:
    mix = tables.builtin_mixture(mixture_id)
    logpdf = lambda x: mixture_logpdf(mix, x)  # noqa: E731
    sampler = lambda count, s, c: sample_mixture(mix, count, s, chunk=c)  # noqa: E731
    times = []
    for _ in range(repeats + 1):  # the first pass, untimed, builds the t CDF tables and sampler factors
        mc._log_densities.cache_clear()
        start = time.perf_counter()
        est = mc.mc_shannon(logpdf, sampler, points, 1, threads)
        times.append(time.perf_counter() - start)
    mc._log_densities.cache_clear()
    return entry(times[1:], [est.value, est.std_error], points)


def components(count: int) -> list:
    """(mu, scale, delta, dof) of `count` seeded components, d = 1, 2, 3 in turn."""
    rng = np.random.default_rng(2)
    out = []
    for j in range(count):
        d = j % 3 + 1
        a = rng.standard_normal((d, d))
        out.append((rng.standard_normal(d), a @ a.T + d * np.eye(d), 2.0 * rng.standard_normal(d),
                    float(rng.uniform(3.0, 12.0))))
    return out


def cold_entropy_layer(fn, specs: list, repeats: int) -> dict:
    def fresh():
        return [SkewTParams(mu=mu, scale=s, delta=de, dof=v) for mu, s, de, v in specs]

    times = []
    for _ in range(repeats + 1):  # the first pass, untimed, loads the node tables
        comps = fresh()
        start = time.perf_counter()
        out = [fn(p) for p in comps]
        times.append((time.perf_counter() - start) / len(comps))
    real, seen = entropy.stdtr, []
    entropy.stdtr = lambda v, a: seen.append(np.size(a)) or real(v, a)
    try:
        for p in fresh():
            fn(p)
    finally:
        entropy.stdtr = real
    return {**entry(times[1:], out, len(specs)), "t_cdf_points": sum(seen) / len(specs)}


def bounds_layer(fn, components: int, repeats: int, warm: bool) -> dict:
    kept = tables.builtin_mixture(BOUNDS_MIXTURE)
    count = max(1, components // kept.n_components)
    times = []
    for _ in range(repeats + 1):  # the first pass, untimed, loads the node tables and warms `kept`
        mixtures = [kept] * count if warm else [tables.builtin_mixture(BOUNDS_MIXTURE) for _ in range(count)]
        start = time.perf_counter()
        out = [fn(m) for m in mixtures]
        times.append((time.perf_counter() - start) / count)
    return entry(times[1:], out, count)


def subprocess_runs(argv: list, repeats: int) -> tuple:
    """Wall times and finished processes of `repeats` runs of argv, with this checkout's src/ on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times, procs = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        procs.append(subprocess.run(argv, capture_output=True, text=True, env=env))
        times.append(time.perf_counter() - start)
    return times, procs


def import_run(repeats: int) -> dict:
    times, procs = subprocess_runs([sys.executable, "-c", IMPORT], repeats)
    failed = [p for p in procs if p.returncode]
    if failed:
        raise RuntimeError(f"import skewtmix.cli exited {failed[0].returncode}: {failed[0].stderr}")
    return {**entry(times, [], int(procs[-1].stdout)), "exit_code": 0}


def cli_run(args: list, repeats: int, codes_allowed: set) -> dict:
    """A CLI command run `repeats` times; its checksum sums the numeric cells of its JSON rows."""
    times, procs = subprocess_runs([sys.executable, "-c", CLI, *args, "--out", "json"], repeats)
    codes = {p.returncode for p in procs}
    if not codes <= codes_allowed or len(codes) != 1:
        raise RuntimeError(f"{' '.join(args)} exited {sorted(codes)}: {procs[-1].stderr}")
    rows = json.loads(procs[-1].stdout)
    cells = [v for row in rows for v in row.values() if isinstance(v, (int, float)) and not isinstance(v, bool)]
    return {**entry(times, cells, len(rows)), "exit_code": procs[-1].returncode}


def reproduce_run(table: int, repeats: int) -> dict:
    return cli_run(["reproduce", "--table", str(table)], repeats, {0, 2})


def oracle_run(mixture_id: str, points: int, repeats: int) -> dict:
    mix = tables.builtin_mixture(mixture_id)
    doc = {"components": [{"mu": c.mu.tolist(), "scale": c.scale.entries.tolist(), "delta": c.delta.tolist(),
                           "dof": c.dof} for c in mix.components],
           "weights": mix.weights.tolist(), "samples": points}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{mixture_id}.json"
        path.write_text(json.dumps(doc))
        orders = [x for a in ORACLE_ORDERS for x in ("--alpha", a)]
        return cli_run(["bounds", str(path), "--oracle", *orders], repeats, {0})


def run(points: int, count: int, repeats: int) -> dict:
    layers = {f"student_t_cdf v={v:g}": t_cdf_layer(v, points, repeats) for v in T_CDF_DOFS}
    for mixture_id in LOGPDF_MIXTURES:
        layers[f"mixture_logpdf {mixture_id} blocked"] = mixture_logpdf_layer(mixture_id, points, repeats)
    mixture_id, index = LOGPDF_COMPONENT
    layers[f"skewt_logpdf {mixture_id}[{index}] blocked"] = skewt_logpdf_layer(mixture_id, index, points, repeats)
    layers[f"sample_mixture {SAMPLE_MIXTURE}"] = sample_mixture_layer(SAMPLE_MIXTURE, points, repeats)
    for threads in MC_THREADS:
        layers[f"mc_shannon {MC_MIXTURE} threads={threads}"] = mc_shannon_layer(MC_MIXTURE, points, threads, repeats)
    specs = components(count)
    layers["skewt_shannon cold"] = cold_entropy_layer(entropy.skewt_shannon, specs, repeats)
    for alpha in RENYI_ORDERS:
        layers[f"skewt_renyi cold alpha={alpha:g}"] = cold_entropy_layer(
            lambda p: entropy.skewt_renyi(p, alpha), specs, repeats)
    for name, fn in BOUNDS_LAYERS.items():
        for state in ("cold", "warm"):
            layers[f"{name} {state}"] = bounds_layer(fn, count, repeats, warm=state == "warm")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name BENCH_<pr>.json")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="directory to write into (default: .)")
    parser.add_argument("--points", type=int, default=1_000_000,
                        help="points of each student_t_cdf call and draws of each mixture layer")
    parser.add_argument("--components", type=int, default=1500, help="fresh components per cold entropy or bounds layer")
    parser.add_argument("--repeats", type=int, default=9, help="timed repeats of each layer and end-to-end run")
    args = parser.parse_args(argv)
    if args.points < 2 or min(args.components, args.repeats) < 1:
        parser.error("--points must be at least 2, and --components and --repeats at least 1")
    doc = {
        "pr": args.pr,
        "env": {
            "nproc": os.cpu_count(),
            "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "skewtmix": skewtmix.__version__,
        },
        "checksum_digits": CHECKSUM_DIGITS,
        "layers": run(args.points, args.components, args.repeats),
        "end_to_end": {
            "import skewtmix.cli": import_run(args.repeats),
            **{f"reproduce --table {t}": reproduce_run(t, args.repeats) for t in REPRODUCE_TABLES},
            f"bounds {MC_MIXTURE} --oracle": oracle_run(MC_MIXTURE, args.points, args.repeats),
        },
    }
    path = args.out_dir / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
