"""skewtmix benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload entropy-cells --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark imports skewtmix from ``src/``
of the checkout it sits in, sets up the workload's inputs from the seed,
warms up on a separate stream of the same seed, then runs a closed loop with
one client for ``--seconds`` seconds. Every output is checked against the
records in ``perfbench/records`` (when the seed has them) and against the
independent oracle in ``oracle.py``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` replays a fixed
number of requests untraced, then traced, and reports the per-layer
metrics; its spans are written to ``.perfbench/``.

The last line of standard output is the result, a JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import time

T_START = time.perf_counter()

# Pin native thread pools before numpy loads: the only parallelism measured is
# the CLI's own --threads.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDS = HERE / "records"
SCRATCH = ROOT / ".perfbench"

DEFAULT_SEED = 1
HELDOUT_SEED = 2
CLI_THREADS = 2
SETUP_REPEATS = 3
RECORD_TOL = 1e-9  # relative to max(1, |value|), against the seed commit's records
ORACLE_TOL = 1e-8  # relative to max(1, |value|), against the independent oracle

# Host speed drifts (shared cores): the same request can take 1.5x longer for
# seconds at a time. Every timed interval is bracketed by a fixed probe kernel
# that shares no code with skewtmix, and its wall time is scaled by
# PROBE_REF_S / (mean probe time around it). Timings therefore read as if the
# host ran at the speed where the probe takes PROBE_REF_S. The raw wall-clock
# figures are printed on the "# info" line.
PROBE_REF_S = 4.5e-4


IMPORT_SCRIPT = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import skewtmix\n"
    "print(time.perf_counter() - t)\n"
)


def probe() -> float:
    """Seconds for a fixed Python float loop with math calls."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(1, 2500):
        acc += math.log(i) * math.sqrt(i)
    return time.perf_counter() - t


def scaled(seconds: float, before: float, after: float) -> float:
    """A wall time rescaled to the reference speed, given the probe times around it."""
    return seconds * 2.0 * PROBE_REF_S / (before + after)


@dataclass
class Outcome:
    index: int
    latency_s: float = 0.0
    scaled_s: float = 0.0  # latency_s at the reference speed
    outputs: list | None = None
    error: str | None = None
    warnings: list = field(default_factory=list)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_skewtmix():
    if not (SRC / "skewtmix" / "__init__.py").is_file():
        fail(f"no skewtmix sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import skewtmix

    if Path(skewtmix.__file__).resolve().parent != (SRC / "skewtmix").resolve():
        fail(f"imported skewtmix from {skewtmix.__file__}, not from {SRC}")
    return skewtmix


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(args, skewtmix) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cli_threads": CLI_THREADS,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "skewtmix": skewtmix.__version__,
        "commit": git_commit(),
    }


def measure_import() -> float:
    """Seconds a fresh interpreter takes to import skewtmix (with numpy and scipy)."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SCRIPT, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def setup(workload, seed: int, workdir: Path):
    """Import and generate the timed inputs several times; report the medians, at reference speed."""
    imports, gens = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        seconds = measure_import()
        imports.append(scaled(seconds, before, probe()))
    for _ in range(SETUP_REPEATS):
        requests = None  # let the previous set go before building the next
        before = probe()
        t = time.perf_counter()
        requests = workload.timed_inputs(seed, workdir)
        seconds = time.perf_counter() - t
        gens.append(scaled(seconds, before, probe()))
    parts = {"import_s": imports, "generate_s": gens}
    return statistics.median(imports) + statistics.median(gens), parts, requests


def run_one(request, threads: int) -> Outcome:
    from skewtmix.entropy import QuadratureWarning

    out = Outcome(request.index)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t = time.perf_counter()
        try:
            raw = request.run(threads)
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            out.latency_s = time.perf_counter() - t
            out.error = traceback.format_exc(limit=3)
        else:
            out.latency_s = time.perf_counter() - t
            try:
                out.outputs = [float(v) for v in request.outputs(raw)]
            except (TypeError, ValueError, KeyError) as exc:
                out.error = f"unreadable output: {exc!r}"
    out.warnings = [w.category.__name__ for w in caught]
    if any(issubclass(w.category, QuadratureWarning) for w in caught):
        print(f"perfbench: QuadratureWarning on request {request.index} ({request.label})", file=sys.stderr)
    return out


def run_loop(requests, seconds: float, threads: int, tracer=None, cycle: int = 1):
    """Closed loop, one client: the next request starts when the last one ends.

    With ``seconds``, the loop stops at the first cycle boundary past the
    deadline, so every run does whole cycles of request shapes.
    """
    outcomes = []
    t0 = time.perf_counter()
    deadline = t0 + seconds if seconds else None
    before = probe()
    for i, request in enumerate(requests):
        if deadline is not None and i % cycle == 0 and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.request = request.index
        outcome = run_one(request, threads)
        after = probe()
        outcome.scaled_s = scaled(outcome.latency_s, before, after)
        before = after
        outcomes.append(outcome)
    wall = time.perf_counter() - t0
    return outcomes, wall


def _all_close(got, want, tol: float) -> bool:
    return len(got) == len(want) and all(abs(a - b) <= tol * max(1.0, abs(b)) for a, b in zip(got, want))


def load_records(workload_name: str, seed: int):
    path = RECORDS / f"{workload_name}-seed{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["outputs"]


def check(requests, outcomes, records, use_oracle: bool = True) -> dict:
    """Request index -> why it failed: raised, warned, non-finite or wrong."""
    failures = {}
    for o in outcomes:
        req = requests[o.index]
        what = f"request {o.index} ({req.label})"
        if o.error is not None:
            failures[o.index] = f"{what} raised: {o.error.strip()}"
        elif "QuadratureWarning" in o.warnings:
            failures[o.index] = f"{what} left the quadrature's convergent range"
        elif not all(math.isfinite(v) for v in o.outputs):
            failures[o.index] = f"{what} returned a non-finite value: {o.outputs}"
        elif records is not None and o.index < len(records) and not _all_close(
            o.outputs, records[o.index], RECORD_TOL
        ):
            failures[o.index] = f"{what} differs from the record: {o.outputs} vs {records[o.index]}"
        elif use_oracle:
            expected = req.expected()
            if not _all_close(o.outputs, expected, ORACLE_TOL):
                failures[o.index] = f"{what} differs from the oracle: {o.outputs} vs {expected}"
    return failures


def latency_metrics(latencies_s) -> dict:
    lat_ms = [x * 1e3 for x in latencies_s]
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0]
    return {
        "ops_per_s": {"value": len(lat_ms) / sum(latencies_s), "unit": "req/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_p90_ms": {"value": p90, "unit": "ms"},
    }


def timed_run(workload, requests, args, setup_s: float):
    outcomes, wall = run_loop(requests, args.seconds, CLI_THREADS, cycle=workload.cycle)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [o.scaled_s if workload.scaled else o.latency_s for o in outcomes]
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    metrics.update(latency_metrics(latencies))
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    raw = {k: v["value"] for k, v in latency_metrics([o.latency_s for o in outcomes]).items()}
    # A run that used up every generated request ended before the deadline.
    exhausted = len(outcomes) == len(requests)
    if exhausted:
        print(f"perfbench: all {len(requests)} generated requests ran before the deadline", file=sys.stderr)
    info = {"requests": len(outcomes), "capacity": len(requests), "exhausted": exhausted,
            "timed_wall_s": wall, "scaled": workload.scaled, "raw": raw,
            "host_slowdown": sum(o.latency_s for o in outcomes) / sum(o.scaled_s for o in outcomes)}
    demand = sum(requests[o.index].demand for o in outcomes)
    if demand:
        info["draws_per_s"] = demand / sum(latencies)
    return outcomes, metrics, info


def traced_run(workload, requests, args):
    from tracing import UNITS, Tracer, layer_metrics

    requests = requests[: math.ceil(args.seconds * workload.trace_rate)]
    plain, plain_wall = run_loop(requests, 0, CLI_THREADS)
    replays = {f"--threads {CLI_THREADS}": plain}
    single_wall = None
    if any(r.demand for r in requests):
        replays["--threads 1"], single_wall = run_loop(requests, 0, 1)
    with Tracer() as tracer:
        traced, traced_wall = run_loop(requests, 0, CLI_THREADS, tracer)
    SCRATCH.mkdir(exist_ok=True)
    tracer.save(SCRATCH / f"trace-{workload.name}-seed{args.seed}.npz")

    # Replays must reproduce the traced outputs exactly.
    mismatches = {
        a.index: f"request {a.index} gave {b.outputs} untraced at {how} but {a.outputs} traced"
        for how, replay in replays.items()
        for a, b in zip(traced, replay)
        if a.outputs != b.outputs
    }
    metrics = layer_metrics(tracer)
    metrics["entropy.quad_warnings"] = sum(o.warnings.count("QuadratureWarning") for o in traced)
    metrics["mc.thread_speedup"] = single_wall / plain_wall if single_wall else 0.0
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    info = {"requests": len(traced), "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
            "spans": int(len(tracer.spans()))}
    return traced, mismatches, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    skewtmix = import_skewtmix()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = SCRATCH / f"work-{os.getpid()}"
    try:
        phases = {"start_s": time.perf_counter() - T_START}
        setup_s, setup_parts, requests = setup(workload, args.seed, workdir / "timed")
        phases["setup_s"] = time.perf_counter() - T_START
        warm = workload.warmup_inputs(args.seed, workdir / "warmup")
        warm_failures = check(warm, [run_one(r, CLI_THREADS) for r in warm], None, use_oracle=False)
        phases["warmup_s"] = time.perf_counter() - T_START
        records = load_records(workload.name, args.seed)
        if args.trace:
            outcomes, failures, metrics, info = traced_run(workload, requests, args)
        else:
            outcomes, metrics, info = timed_run(workload, requests, args, setup_s)
            failures = {}
        phases["measure_s"] = time.perf_counter() - T_START
        failures.update(check(requests, outcomes, records))
        phases["check_s"] = time.perf_counter() - T_START
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in list(warm_failures.values()) + list(failures.values()):
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    info.update(
        {
            "failed_frac": len(failures) / len(outcomes),
            "warmup_failed": len(warm_failures),
            "records": "checked" if records is not None else "none for this seed",
            "phases_ended_at": phases,
            "setup_scaled": setup_parts,
        }
    )
    print("# env " + json.dumps(environment(args, skewtmix)))
    print("# info " + json.dumps(info))
    result = {
        "correct": not failures and not warm_failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
