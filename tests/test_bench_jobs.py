"""The benchmark's library jobs run on this checkout without a failure.

The warm-up jobs of the `audit`, `point`, `maps` and `cli` workloads
call every public name that `bench/workloads.py` takes from the package
and run every subcommand with its expected exit code, so a renamed or
dropped entry point fails here, not only in a benchmark run.
The benchmark files are read, never changed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["audit", "point", "maps", "cli"])
def test_warmup_jobs_pass(name, tmp_path):
    api = workloads.load_api()
    workload = workloads.make(name, tmp_path)
    tracer = tracing.Tracer(False)
    try:
        jobs = workload.warmup(0)
        fails = [workload.run(api, tracer, job) for job in jobs]
    finally:
        workload.close()
    assert jobs and fails == [[]] * len(jobs)
