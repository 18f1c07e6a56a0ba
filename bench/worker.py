"""One benchmark child process, started fresh by run.py for every sample.

It imports protspin from the checkout's src/, builds the workload's inputs and
prints {"ready": <time.monotonic()>}; run.py takes set-up time as that instant
minus the moment it started the process.  It then prints the machine-speed
calibration measured right after set-up, and with --setup-only stops there.
Otherwise it computes references, warms up, runs the jobs and prints one JSON
result line, including its own peak resident memory.
"""

import argparse
import collections
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WARMUP_SECONDS = 0.5
CALIBRATION_EVERY_S = 0.1
CALIBRATION_WINDOW = 21
MAX_UNITS_PER_GAP = 5


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-file", default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--corrupt", action="store_true")
    return p.parse_args()


def run_one(workload, i, call, stats, failures):
    """Run job i; a failure of any kind is recorded, never raised."""
    try:
        workload.run_job(i % workload.size, call, stats)
    except Exception as exc:  # the run must survive any failing job
        failures.append(f"job {i % workload.size}: {type(exc).__name__}: {exc}")


def timed_loop(workload, seconds, jobs):
    """Run jobs 0, 1, ... until `jobs` are done, else until `seconds` have passed
    at the end of a whole pass over the job list.

    Stopping only between passes keeps every run's cost mix that of the full
    seeded list.  A calibration unit runs between jobs every CALIBRATION_EVERY_S.
    Returns (latencies in s, calibration time next to each job, failure messages).
    """
    stats = collections.Counter()
    latencies, owners, calibrations, failures = [], [], [], []
    t0 = last = time.perf_counter()
    i = 0
    while True:
        start = time.perf_counter()
        run_one(workload, i, spans.direct, stats, failures)
        end = time.perf_counter()
        latencies.append(end - start)
        owners.append(len(calibrations))
        i += 1
        done = (i >= jobs) if jobs is not None else (i % workload.size == 0 and end - t0 >= seconds)
        if done or end - last >= CALIBRATION_EVERY_S:
            # one unit per CALIBRATION_EVERY_S of jobs, so long jobs get several
            units = min(MAX_UNITS_PER_GAP, max(1, int((end - last) / CALIBRATION_EVERY_S)))
            calibrations.append(statistics.median(calibration.unit() for _ in range(units)))
            last = time.perf_counter()
        if done:
            break
    # A single unit is as noisy as a single job; each job takes the median of
    # the CALIBRATION_WINDOW units around the one after it.
    half = CALIBRATION_WINDOW // 2
    nearby = [
        statistics.median(calibrations[max(0, k - half):k + half + 1]) for k in range(len(calibrations))
    ]
    return latencies, [nearby[k] for k in owners], failures


def warm_up(workload):
    deadline = time.perf_counter() + WARMUP_SECONDS
    i = workload.size - 1
    while True:
        run_one(workload, i, spans.direct, collections.Counter(), [])
        i -= 1
        if i < 0 or time.perf_counter() >= deadline:
            return


def measure(workload, args):
    latencies, calibrations, failures = timed_loop(workload, args.seconds, args.jobs)
    scaled = [lat * calibration.REFERENCE_S / cal for lat, cal in zip(latencies, calibrations)]
    result = {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "jobs_per_s": len(scaled) / math.fsum(scaled),
        "job_p50_ms": 1e3 * statistics.median(scaled),
        "raw_jobs_per_s": len(latencies) / math.fsum(latencies),
        "raw_job_p50_ms": 1e3 * statistics.median(latencies),
        "calibration_ms": 1e3 * statistics.median(calibrations),
    }
    if len(latencies) >= 100:
        result["job_p90_ms"] = 1e3 * statistics.quantiles(scaled, n=10, method="inclusive")[8]
    return result


LAYER_SPANS = (
    "core.phased_integral_builtin",
    "core.phased_integral_tabulated",
    "core.normalization_residual",
    "core.profile_load",
    "exact",
    "dyson",
    "oracle.propagate",
    "oracle.crosscheck",
    "multimeas",
    "reconstruct",
    "design",
    "cli.main",
)


def measure_traced(workload, args):
    """Each job twice, untraced then traced; per-layer counts and self times.

    Interleaving the two runs of every job keeps drift in machine speed out of
    the tracing overhead.
    """
    jobs = args.jobs if args.jobs is not None else workload.trace_jobs
    tracer = spans.Tracer()
    stats = collections.Counter()
    plain_s = traced_s = 0.0
    failures = []
    for i in range(jobs):
        start = time.perf_counter()
        run_one(workload, i, spans.direct, collections.Counter(), failures)
        middle = time.perf_counter()
        tracer.job = i
        tracer.call("job", run_one, workload, i, tracer.call, stats, failures)
        end = time.perf_counter()
        plain_s += middle - start
        traced_s += end - middle
    if args.trace_file:
        tracer.write(Path(args.trace_file))

    summary = tracer.summary()
    metrics = {}
    for name in LAYER_SPANS:
        calls, self_ms = summary.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_ms"] = self_ms
    metrics["oracle.crosscheck.steps_used"] = stats["oracle.crosscheck.steps_used"]
    metrics["oracle.errors"] = tracer.errors["oracle.propagate"] + tracer.errors["oracle.crosscheck"]
    metrics["cli.stdout_bytes"] = stats["cli.stdout_bytes"]
    metrics["bench.jobs"] = jobs
    metrics["bench.check.self_ms"] = summary["job"][1]
    # difference in jobs_per_s as a fraction of the untraced rate
    metrics["bench.trace_overhead_frac"] = 1.0 - plain_s / traced_s
    return {
        "attempted": 2 * jobs,
        "failed": len(failures),
        "failures": failures[:5],
        "layers": metrics,
    }


def main():
    args = parse_args()
    sys.path.insert(0, str(SRC))
    import protspin
    import protspin.cli  # noqa: F401  (the CLI is part of what users load)

    if Path(protspin.__file__).resolve().parent != (SRC / "protspin").resolve():
        raise SystemExit(f"protspin imported from {protspin.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[args.workload](protspin, args.seed, Path(args.workdir))
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    print(json.dumps({"calibration_s": calibration.median_unit()}), flush=True)
    if args.setup_only:
        return

    workload.prepare()
    if args.corrupt:
        workload.corrupt()
    warm_up(workload)
    result = measure_traced(workload, args) if args.trace else measure(workload, args)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
