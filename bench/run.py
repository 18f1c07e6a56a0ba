"""protspin benchmark: one command for every workload, end to end or traced.

    python3 bench/run.py --workload closed-forms --seed 1 --seconds 20 --trace 0

Workloads: closed-forms, static-oracle, driven-oracle, tabulated-profiles
(see BENCHMARK.json for why each exists).  Load model: a closed loop with one
client; each job runs after the previous one returns, in one fresh child
process with BLAS threads pinned to 1.

--trace 0 measures the end-to-end metrics: setup_s (median over several fresh
interpreters, from process start until the first job could run: importing
protspin and building the seeded inputs), then jobs_per_s, job_p50_ms and
peak_rss_mb over whole passes of the job list lasting at least --seconds.
Times are reported at a reference machine speed (see calibration.py).
failed_frac, the uncalibrated times and, from 100 jobs up, job_p90_ms are
printed alongside.

--trace 1 measures the per-layer metrics: a fixed number of jobs run once
untraced and once with a span around every call the benchmark makes into
protspin, plus import times of numpy, scipy.integrate and protspin, each in a
fresh interpreter.  The spans are written to .bench_out/.

Every job checks its outputs against references computed before timing
starts.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when that line is printed
and nonzero otherwise (for instance when src/protspin is missing).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = HERE / "worker.py"
WORKLOADS = ("closed-forms", "static-oracle", "driven-oracle", "tabulated-profiles")
SETUP_SAMPLES = 2          # set-up-only interpreters, plus the measuring one
IMPORT_SAMPLES = 3
RUN_LIMIT_S = 170.0        # the whole run, children included

CHILD_ENV = dict(
    os.environ,
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    NUMEXPR_NUM_THREADS="1",
    PYTHONHASHSEED="0",
)

IMPORT_PROBES = {
    "import.numpy_s": "import time; t = time.perf_counter(); import numpy; "
                      "print(time.perf_counter() - t)",
    "import.scipy_integrate_s": "import time, numpy; t = time.perf_counter(); import scipy.integrate; "
                                "print(time.perf_counter() - t)",
    "import.protspin_s": "import resource, sys, time; sys.path.insert(0, sys.argv[1]); "
                         "t = time.perf_counter(); import protspin; "
                         "print(time.perf_counter() - t, "
                         "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)",
}


class BenchError(Exception):
    pass


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=None,
                   help="run exactly this many jobs instead (self-check)")
    p.add_argument("--corrupt", action="store_true",
                   help="make one reference wrong (self-check)")
    return p.parse_args()


def run_child(argv, deadline):
    """Run a child to completion; return (start time, stdout lines)."""
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(argv[1:4])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return start, proc.stdout.splitlines()


def worker_argv(args, workdir, *extra):
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir), *extra]


def setup_time(start, lines):
    """Set-up time of one child at the reference machine speed."""
    ready = json.loads(lines[0])["ready"]
    measured = json.loads(lines[1])["calibration_s"]
    return (ready - start) * calibration.REFERENCE_S / measured


def import_probes(deadline):
    metrics = {}
    for name, code in IMPORT_PROBES.items():
        samples = []
        for _ in range(IMPORT_SAMPLES):
            _, lines = run_child([sys.executable, "-c", code, str(SRC)], deadline)
            samples.append([float(x) for x in lines[-1].split()])
        metrics[name] = statistics.median(s[0] for s in samples)
        if name == "import.protspin_s":
            metrics["import.protspin_peak_rss_mb"] = statistics.median(s[1] for s in samples)
    return metrics


def measure(args, workdir, deadline):
    extra = []
    if args.jobs is not None:
        extra += ["--jobs", str(args.jobs)]
    if args.corrupt:
        extra.append("--corrupt")
    if args.trace:
        extra += ["--trace-file", str(OUT / f"trace-{args.workload}-seed{args.seed}.json")]
        layers = import_probes(deadline)
        _, lines = run_child(worker_argv(args, workdir, *extra), deadline)
        result = json.loads(lines[-1])
        layers.update(result["layers"])
        return result, layers, {}

    setups = []
    for _ in range(SETUP_SAMPLES):
        setups.append(setup_time(*run_child(worker_argv(args, workdir, "--setup-only"), deadline)))
    start, lines = run_child(worker_argv(args, workdir, *extra), deadline)
    setups.append(setup_time(start, lines))
    result = json.loads(lines[-1])
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": result["jobs_per_s"],
        "job_p50_ms": result["job_p50_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    extras = {
        "failed_frac": result["failed"] / result["attempted"],
        "raw_jobs_per_s": result["raw_jobs_per_s"],
        "raw_job_p50_ms": result["raw_job_p50_ms"],
        "calibration_ms": result["calibration_ms"],
    }
    if "job_p90_ms" in result:
        extras["job_p90_ms"] = result["job_p90_ms"]
    return result, metrics, extras


UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_frac": "fraction", "_per_s": "1/s", "_bytes": "bytes"}


def unit(name):
    for suffix, u in sorted(UNITS.items(), key=lambda kv: -len(kv[0])):
        if name.endswith(suffix):
            return u
    return "count"


def main():
    args = parse_args()
    if not (SRC / "protspin" / "__init__.py").is_file():
        print(f"error: no protspin sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, metrics, extras = measure(args, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {args.workload} seed {args.seed}: {result['attempted']} jobs, {result['failed']} failed"
          f"{' (traced)' if args.trace else ''}")
    for failure in result["failures"]:
        print(f"#   FAILED {failure}")
    for name, value in {**metrics, **extras}.items():
        print(f"# {name:36s} {value:>14.6g} {unit(name)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
