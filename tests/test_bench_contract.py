"""The benchmark's jobs run against this checkout, each once, in tier-1.

bench/workloads.py is imported as it stands (no bytecode is written under
bench/).  For every workload BENCHMARK.json declares, at the default and the
held-out seed of bench/baseline.json: the inputs are built in a temporary
directory, the references computed, every job of the seeded list run once,
its crosscheck calls must take the benchmark's step total, and then a
corrupted reference must make job 0 fail its check.
A change to the library's API or output that would fail the benchmark's
jobs fails here first.
"""

import collections
import importlib
import json
import sys
from pathlib import Path

import pytest

import protspin
import protspin.cli  # noqa: F401  (closed-forms calls protspin.cli.main)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SEEDS = json.loads((BENCH / "baseline.json").read_text())["seeds"]
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# Midpoint steps each seed's job list's crosscheck calls take in all, a
# per-layer metric of the benchmark; a workload absent here calls none.
CROSSCHECK_STEPS = {
    1: {"static-oracle": 196608, "driven-oracle": 884736},
    9001: {"static-oracle": 196608, "driven-oracle": 1146880},
}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))


def call(span, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def test_seeds_are_the_baselines():
    assert sorted(CROSSCHECK_STEPS) == sorted([SEEDS["default"], SEEDS["held_out"]])


# the default seed's cases keep the bare workload name as their id
@pytest.mark.parametrize("name, seed", [
    pytest.param(name, seed, id=name if seed == SEEDS["default"] else f"{name}-seed{seed}")
    for seed in sorted(CROSSCHECK_STEPS) for name in NAMES
])
def test_every_job_passes_and_a_corrupt_reference_fails(workloads, name, seed, tmp_path):
    workload = workloads.WORKLOADS[name](protspin, seed, tmp_path)
    workload.prepare()
    stats = collections.Counter()
    for i in range(workload.size):
        workload.run_job(i, call, stats)
    assert stats["oracle.crosscheck.steps_used"] == CROSSCHECK_STEPS[seed].get(name, 0)
    workload.corrupt()
    with pytest.raises(workloads.CheckFailed):
        workload.run_job(0, call, stats)
