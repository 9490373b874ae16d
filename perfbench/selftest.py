"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_skewtmix()

import tracing  # noqa: E402
from workloads import TIMED, WORKLOADS, McOracle  # noqa: E402


def fingerprint(workload, seed, count, workdir):
    requests = workload.generate(seed, TIMED, count, workdir)
    if isinstance(workload, McOracle):
        values = [p.read_text() for p in sorted(workdir.iterdir())]
    else:
        values = [r.expected() for r in requests]
    shapes = [r.label.split(" alpha=")[0] for r in requests]  # alpha is drawn, not part of the shape
    return shapes, [r.demand for r in requests], values


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    workload = WORKLOADS[name]
    first = fingerprint(workload, 5, 12, tmp_path / "a")
    again = fingerprint(workload, 5, 12, tmp_path / "b")
    other = fingerprint(workload, 6, 12, tmp_path / "c")
    assert first == again
    assert first[:2] == other[:2]  # same cycle of request shapes
    assert first[2] != other[2]  # different parameters


def traced_pass(name, count, workdir, seed=3):
    workload = WORKLOADS[name]
    requests = workload.timed_inputs(seed, workdir)[:count]
    with tracing.Tracer() as tracer:
        outcomes, _ = run.run_loop(requests, 0, run.CLI_THREADS, tracer)
    assert not run.check(requests, outcomes, None)
    return requests, tracer, outcomes


def test_self_times_add_up_to_the_traced_wall_time(tmp_path):
    _, tracer, outcomes = traced_pass("entropy-cells", 12, tmp_path)
    own = tracing.self_times(tracer.spans()) / 1e9
    assert np.all(own >= 0.0)
    # Serial requests: the self times partition the time spent in requests.
    wall = sum(o.latency_s for o in outcomes)
    assert 0.0 <= wall - own.sum() <= 0.01 * wall + 0.001


def test_self_time_uses_the_union_of_parallel_children():
    #                 name start end sid parent request points
    table = np.array([[0, 0, 100, 0, -1, 0, 0],
                      [1, 10, 50, 1, 0, 0, 0],
                      [1, 30, 70, 2, 0, 0, 0],
                      [2, 35, 45, 3, 2, 0, 0]], dtype=np.int64)
    assert tracing.self_times(table).tolist() == [40, 40, 30, 10]


def counts(metrics):
    return {k: v for k, v in metrics.items() if tracing.UNITS[k] == "count" or k.endswith("ratio")}


def test_entropy_cells_isolates_quadrature_and_counts_repeat(tmp_path):
    _, t1, _ = traced_pass("entropy-cells", 16, tmp_path)
    _, t2, _ = traced_pass("entropy-cells", 16, tmp_path)
    m = tracing.layer_metrics(t1)
    assert counts(m) == counts(tracing.layer_metrics(t2))
    assert m["entropy.calls"] == 16
    assert m["distributions.sample.draws"] == m["mc.draws"] == m["bounds.compositions"] == 0
    assert m["entropy.repeat_ratio"] == 0.0


def test_mixture_bounds_repeats_component_entropies(tmp_path):
    _, t1, _ = traced_pass("mixture-bounds", 16, tmp_path)
    _, t2, _ = traced_pass("mixture-bounds", 16, tmp_path)
    m = tracing.layer_metrics(t1)
    assert counts(m) == counts(tracing.layer_metrics(t2))
    assert m["entropy.repeat_ratio"] > 0.0
    assert m["mc.draws"] == 0
    assert m["bounds.compositions"] > 0


def test_mc_oracle_counts_demanded_draws(tmp_path):
    requests, t1, _ = traced_pass("mc-oracle", 2, tmp_path)
    _, t2, _ = traced_pass("mc-oracle", 2, tmp_path)
    m = tracing.layer_metrics(t1)
    assert counts(m) == counts(tracing.layer_metrics(t2))
    assert m["mc.draws"] == sum(r.demand for r in requests)
    assert m["specfn.t_cdf.points"] > 100 * m["specfn.t_cdf.calls"]
    assert m["cli.requests"] == 2
    own = tracing.self_times(t1.spans())
    assert np.all(own >= 0)


def test_perturbed_record_fails_the_request(tmp_path):
    records = run.load_records("entropy-cells", run.DEFAULT_SEED)
    assert records is not None, "records for the default seed are missing; run perfbench/record.py"
    requests = WORKLOADS["entropy-cells"].timed_inputs(run.DEFAULT_SEED, tmp_path)[:6]
    outcomes = [run.run_one(r, run.CLI_THREADS) for r in requests]
    assert run.check(requests, outcomes, records) == {}
    perturbed = [list(r) for r in records]
    perturbed[3][0] += 1e-6
    failures = run.check(requests, outcomes, perturbed)
    assert list(failures) == [3]
    assert len(failures) / len(outcomes) > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_records_cover_both_seeds(name):
    for seed in (run.DEFAULT_SEED, run.HELDOUT_SEED):
        records = run.load_records(name, seed)
        assert records is not None and len(records) == WORKLOADS[name].capacity
        assert all(math.isfinite(v) for row in records for v in row)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((run.ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable] + command[1:] + ["--workload", "entropy-cells", "--seed", "1", "--seconds", "1",
                                         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (Path(tmp_path) / ".perfbench").exists()
