"""Record every timed request's outputs for the default and held-out seeds.

    python3 perfbench/record.py

Run this only on a commit whose numbers are the reference: the benchmark
fails any later run whose outputs drift from these records by more than
``run.RECORD_TOL``. Each request must also agree with the independent
oracle and raise no QuadratureWarning, so the generators' parameter ranges
are checked here on both seeds.
"""

import json
import os
import shutil
import sys

import run


def record(workload, seed: int) -> None:
    workdir = run.SCRATCH / f"record-{os.getpid()}"
    try:
        requests = workload.timed_inputs(seed, workdir)
        outcomes = [run.run_one(r, run.CLI_THREADS) for r in requests]
        failures = run.check(requests, outcomes, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        for message in failures.values():
            print(f"record: {message}", file=sys.stderr)
        sys.exit(f"record: {len(failures)} of {len(requests)} requests failed; nothing written")
    run.RECORDS.mkdir(exist_ok=True)
    path = run.RECORDS / f"{workload.name}-seed{seed}.json"
    document = {
        "workload": workload.name,
        "seed": seed,
        "commit": run.git_commit(),
        "tolerance": run.RECORD_TOL,
        "outputs": [o.outputs for o in outcomes],
    }
    path.write_text(json.dumps(document) + "\n")
    print(f"record: wrote {len(outcomes)} requests to {path.relative_to(run.ROOT)}")


def main() -> None:
    run.import_skewtmix()
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        for seed in (run.DEFAULT_SEED, run.HELDOUT_SEED):
            record(workload, seed)


if __name__ == "__main__":
    main()
