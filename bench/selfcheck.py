"""Self-check of the benchmark itself (about three minutes).

    python3 bench/selfcheck.py

1. A short run of every workload prints every end-to-end metric, and a short
   traced run every per-layer metric, each with the unit BENCHMARK.json gives.
2. A deliberately wrong reference is reported as a failed job, not a crash.
3. The counts (*.calls, oracle.crosscheck.steps_used, cli.stdout_bytes,
   oracle.errors) are identical across two traced runs with the same seed.

Exits nonzero on the first problem.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
# enough jobs to reach each workload's crosscheck or CLI share
TRACE_JOBS = {"closed-forms": 16, "static-oracle": 4, "driven-oracle": 12, "tabulated-profiles": 2}
COUNT_SUFFIXES = (".calls", ".steps_used", ".stdout_bytes", ".errors", "bench.jobs")


def bench(workload, *extra):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED), *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {' '.join(argv[2:])}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def expect(condition, message):
    if not condition:
        raise SystemExit(f"FAIL {message}")
    print(f"ok   {message}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        result = bench(workload, "--seconds", "1", "--trace", "0")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(result["correct"] and got == end_to_end, f"{workload}: end-to-end metrics and units")

        jobs = str(TRACE_JOBS[workload])
        traced = [bench(workload, "--seconds", "1", "--trace", "1", "--jobs", jobs) for _ in range(2)]
        got = {k: v["unit"] for k, v in traced[0]["metrics"].items()}
        expect(traced[0]["correct"] and got == per_layer, f"{workload}: per-layer metrics and units")
        counts = [
            {k: v["value"] for k, v in t["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
            for t in traced
        ]
        expect(counts[0] == counts[1], f"{workload}: counts repeat exactly with the same seed")

        wrong = bench(workload, "--seconds", "1", "--trace", "0", "--jobs", "1", "--corrupt")
        expect(not wrong["correct"] and wrong["failed"] == 1 and wrong["attempted"] == 1,
               f"{workload}: a wrong reference counts as one failed job")


if __name__ == "__main__":
    main()
