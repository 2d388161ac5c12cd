"""Closed-loop benchmark of ncdomain: one client, one job at a time.

Run from the root of a checkout:

    python3 bench/run.py --workload audit --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: jobs run back to back in
this process, in whole cycles, until ``--seconds`` of job time has
passed.  ``--trace 1`` runs a fixed number of cycles twice, once with a
span around every public call and once without, writes the spans to
``bench/out/`` and prints the per-layer metrics derived from them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines above
it list the metrics and the run record.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS/OpenMP pools are pinned before numpy is first imported.
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Set up this many times in fresh interpreters (plus once here) and
# report the median.  The probes are spread over the measured run, one
# after every 1/SETUP_PROBES of it, because the import time here drifts
# in stretches of several seconds; back-to-back probes would all land in
# the same stretch.
SETUP_PROBES = 6

# Kept out of every tuning run; later claims must also hold on it.
HELD_OUT_SEED = 7919

LAYERS = (
    "words.enumerate_words",
    "weights.weights_direct",
    "weights.weights_oracle",
    "series.compose",
    "series.evaluate",
    "fock_model.build_model",
    "fock_model.model_defect",
    "fock_model.symbol_row_diagonal",
    "fock_model.grade_row_diagonal",
    "fock_model.model_monomial",
    "fock_model.hardy_norm_estimate",
    "cp_maps.sample_member",
    "cp_maps.membership",
    "berezin.berezin_transform_kernel",
    "berezin.berezin_transform_resolvent",
    "rigidity.check_linear_biholomorphism",
    "rigidity.cartan_iteration_probe",
)
SUBCOMMANDS = (
    "weights", "model", "member", "norm", "compose", "berezin", "biholo",
    "probe-cartan", "selftest",
)
# (span name, summed count attribute); counts are computed from array
# sizes and return values, so they repeat exactly for a seed.
COUNTS = (
    ("fock_model.model_defect", "bytes_computed"),
    ("berezin.berezin_transform_resolvent", "bytes_computed"),
    ("series.compose", "terms_out"),
    ("rigidity.cartan_iteration_probe", "iterations"),
)
ALLOC_SPANS = ("fock_model.model_defect", "berezin.berezin_transform_resolvent")


END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "verified_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for name in LAYERS + tuple(f"cli.{s}" for s in SUBCOMMANDS):
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
    for name, attr in COUNTS:
        units[f"{name}.{attr}"] = "bytes" if attr.startswith("bytes") else "count"
    units["berezin.berezin_transform_resolvent.accept_ratio"] = "ratio"
    for name in ALLOC_SPANS:
        units[f"{name}.peak_alloc_mb"] = "MB"
    units.update({
        "job.calls": "count",
        "job.busy_s": "s",
        "job.self_s": "s",
        "trace.jobs_per_s_traced": "1/s",
        "trace.jobs_per_s_untraced": "1/s",
        "trace.overhead_ratio": "ratio",
    })
    return units


def tail_percentile(count: int) -> int:
    """Highest integer percentile with at least 10 samples above it (nearest rank)."""
    for q in range(99, 49, -1):
        if count - math.ceil(q * count / 100) >= 10:
            return q
    return 50


def nearest_rank(sorted_values: list[float], q: int) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values) / 100) - 1)]


class Tally:
    """Job outcomes of one loop: wall times, failures, known defects."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: dict[str, int] = {}

    def add(self, wl, job, dt: float, fails: list[str]) -> None:
        self.times.append(dt)
        if not fails:
            return
        self.failed += 1
        defect = wl.known_defect(job, fails)
        if defect is not None:
            self.known[defect] = self.known.get(defect, 0) + 1
        else:
            self.unexpected.extend(fails)

    @property
    def attempted(self) -> int:
        return len(self.times)


def run_job(wl, api, tr, job, job_id: int) -> tuple[float, list[str]]:
    t0 = time.perf_counter()
    tr.begin_job(job_id, job.kind, job.sizes)
    try:
        fails = wl.run(api, tr, job)
    except Exception as exc:  # a job that raises is a failed job; keep going
        fails = [f"{job.kind}: raised {type(exc).__name__}: {exc}"]
    tr.end_job(not fails)
    return time.perf_counter() - t0, fails


def setup(workload: str, seed: int):
    """Import ncdomain and run the warm-up jobs; returns the timed cost."""
    t0 = time.perf_counter()
    import ncdomain  # noqa: F401
    import ncdomain.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    if not Path(ncdomain.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported ncdomain from {ncdomain.__file__}, not {SRC}")
    import tracing
    import workloads

    api = workloads.load_api()
    OUT.mkdir(exist_ok=True)
    wl = workloads.make(workload, OUT)
    jobs = wl.warmup(seed)  # input generation is not part of setup
    off = tracing.Tracer(False)
    warm = Tally()
    t1 = time.perf_counter()
    for k, job in enumerate(jobs):
        dt, fails = run_job(wl, api, off, job, k)
        warm.add(wl, job, dt, fails)
    return api, wl, import_s + time.perf_counter() - t1, warm


def setup_probe(workload: str, seed: int) -> float:
    """Set up in a fresh interpreter and return its setup time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_untraced(wl, api, seed: int, seconds: float, probe) -> tuple[Tally, float, int, list]:
    """Whole cycles until ``seconds`` of job time; ``probe()`` runs between cycles."""
    import tracing

    off = tracing.Tracer(False)
    tally = Tally()
    measured = 0.0
    cycle = 0
    probes: list[float] = []
    while measured < seconds or cycle < wl.min_cycles:
        for job in wl.cycle(seed, cycle):  # inputs drawn outside the timed jobs
            dt, fails = run_job(wl, api, off, job, tally.attempted)
            tally.add(wl, job, dt, fails)
            measured += dt
        cycle += 1
        # untimed: the probe's time never counts as job time
        while (len(probes) < SETUP_PROBES
               and measured >= (len(probes) + 1) * seconds / SETUP_PROBES):
            probes.append(probe())
    while len(probes) < SETUP_PROBES:
        probes.append(probe())
    return tally, measured, cycle, probes


def run_traced(wl, api, seed: int, span_path: Path) -> tuple[Tally, dict]:
    """Fixed cycles, each once traced and once untraced, order alternating."""
    import tracing

    on, off = tracing.Tracer(True), tracing.Tracer(False)
    tally = Tally()
    time_on = time_off = 0.0
    jobs_on = jobs_off = 0
    for c in range(wl.trace_cycles):
        jobs = wl.cycle(seed, c)
        for tr in (off, on) if c % 2 == 0 else (on, off):
            for job in jobs:
                dt, fails = run_job(wl, api, tr, job, tally.attempted)
                tally.add(wl, job, dt, fails)
                if tr.enabled:
                    time_on, jobs_on = time_on + dt, jobs_on + 1
                else:
                    time_off, jobs_off = time_off + dt, jobs_off + 1
    on.write(span_path)
    derived = tracing.derive(tracing.read_spans(span_path))
    metrics = {}
    layers = derived["layers"]
    for name in LAYERS + tuple(f"cli.{s}" for s in SUBCOMMANDS):
        entry = layers.get(name, {})
        metrics[f"{name}.calls"] = entry.get("calls", 0)
        metrics[f"{name}.busy_s"] = entry.get("busy_s", 0.0)
    for name, attr in COUNTS:
        metrics[f"{name}.{attr}"] = layers.get(name, {}).get("sums", {}).get(attr, 0)
    res = layers.get("berezin.berezin_transform_resolvent", {})
    metrics["berezin.berezin_transform_resolvent.accept_ratio"] = (
        res["returned"] / res["calls"] if res else 0.0
    )
    for name in ALLOC_SPANS:
        peak = layers.get(name, {}).get("peaks", {}).get("peak_alloc_bytes", 0)
        metrics[f"{name}.peak_alloc_mb"] = peak / 2**20
    traced_jps = jobs_on / time_on
    untraced_jps = jobs_off / time_off
    metrics.update({
        "job.calls": derived["jobs"],
        "job.busy_s": derived["job_busy_s"],
        "job.self_s": derived["job_self_s"],
        "trace.jobs_per_s_traced": traced_jps,
        "trace.jobs_per_s_untraced": untraced_jps,
        "trace.overhead_ratio": untraced_jps / traced_jps - 1.0,
    })
    return tally, metrics


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when ROOT is not the top of a git repo."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run_record(args, tally: Tally, extra: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "load": "closed loop, 1 client, jobs sequential in one process",
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted,
        "known_defects": tally.known,
        "unexpected_failures": tally.unexpected[:20],
        **extra,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="Closed-loop benchmark of ncdomain.")
    p.add_argument("--workload", required=True, choices=("audit", "point", "maps", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("bench: --seed must be nonnegative", file=sys.stderr)
        return 64
    if not (SRC / "ncdomain" / "__init__.py").is_file():
        print(f"bench: no ncdomain sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.setup_probe:
        _, wl, setup_s, _ = setup(args.workload, args.seed)
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    api, wl, own_setup, warm = setup(args.workload, args.seed)
    try:
        if args.trace:
            span_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            tally, metrics = run_traced(wl, api, args.seed, span_path)
            units = per_layer_units()
            extra = {"trace_cycles": wl.trace_cycles, "span_file": str(span_path.relative_to(ROOT)),
                     "counts": "computed from array sizes and return values"}
        else:
            tally, measured, cycles, probes = run_untraced(
                wl, api, args.seed, args.seconds,
                lambda: setup_probe(args.workload, args.seed))
            times = sorted(tally.times)
            q = tail_percentile(len(times))
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "jobs_per_s": (tally.attempted - tally.failed) / measured,
                "job_p50_s": statistics.median(times),
                "job_tail_s": nearest_rank(times, q),
                "verified_ratio": (tally.attempted - tally.failed) / tally.attempted,
                "setup_s": statistics.median(probes + [own_setup]),
                "peak_rss_mb": rss_kb / 1024.0,
            }
            units = END_TO_END_UNITS
            extra = {"cycles": cycles, "measured_s": measured,
                     "job_tail_s": f"p{q} of {len(times)} jobs",
                     "job_p50_s": f"median of {len(times)} jobs",
                     "setup_samples_s": probes + [own_setup]}
    finally:
        wl.close()
    warm_bad = warm.unexpected
    record = run_record(args, tally, extra)
    record["warmup_unexpected_failures"] = warm_bad[:20]
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for name, unit in units.items():
        print(f"{name:55s} {metrics[name]:>16.6g} {unit}")
    print(f"{'failed_ratio':55s} {record['failed_ratio']:>16.6g} ratio")
    print(json.dumps({"record": record}))
    result = {
        "correct": not tally.unexpected and not warm_bad and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
