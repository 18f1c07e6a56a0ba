"""Freeze the CLI's exit code, stdout, stderr and written files, case by case.

    python3 tests/make_cli_golden.py
    python3 tests/make_cli_golden.py --check

Rewrites tests/data/cli_golden.json from the current code, and
tests/test_cli.py replays every case through ``cli.main`` and compares the
bytes.  Regenerate the file only in a change that intends to change the CLI's
output, and say so in CHANGES.md.  ``--check`` writes nothing: it prints each
case whose exit, stdout, stderr or written files differ from the file (or
that only one side has), and exits 1 if any does.

Each case runs in a fresh directory that holds the input files of ``FILES``,
so tabulated profiles and lab configs are named by relative path and every
message that quotes a path is the same on any machine.  Help text is
formatted at a fixed width of 80 columns.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from protspin import cli  # noqa: E402

GOLDEN = HERE / "data" / "cli_golden.json"
BENCH_CASES = HERE.parent / "bench" / "cli_cases.json"

LAB = {
    "species": "potassium",
    "b0_tesla": 10.0,
    "grad_b1_tesla_per_meter": 20.0,
    "d_meter": 0.1,
    "t_oven_kelvin": 500.0,
    "gamma_deg": 45.0,
}

# Input files written into each case's working directory.
FILES = {
    "triangle.txt": "# s  gT\n0 0\n\n0.5 2\n1 0\n",
    "trapezoid.txt": "0 0\n0.25 1.3333333333333333\n0.75 1.3333333333333333\n1 0\n",
    # knot intervals 0.1, 0.05, 0.35 and 0.5 divide no power-of-two step
    # count evenly, so the oracle steps on a knot-aligned grid
    "uneven.txt": "0 0\n0.1 0.7547169811320755\n0.15 1.509433962264151\n0.5 1.509433962264151\n1 0\n",
    "unnormalized.txt": "0 1\n1 2\n",
    "descending.txt": "0 0\n0.6 2\n0.4 2\n1 0\n",
    "three_columns.txt": "0 0 0\n1 2 0\n",
    "bad_number.txt": "0.0 0.0\n0.5 1.0\n0.5 abc\n1.0 0.0\n",
    "lab.json": json.dumps(LAB),
    "explicit_lab.json": json.dumps({
        "mu_joule_per_tesla": 1.2e-23,
        "mass_kg": 6.5e-26,
        "b0_tesla": 2.0,
        "grad_b1_tesla_per_meter": 5.0,
        "d_meter": 0.05,
        "t_oven_kelvin": 450.0,
        "gamma_deg": 30.0,
    }),
    "lab_list.json": "[1, 2]",
    "lab_missing.json": json.dumps({"species": "potassium", "b0_tesla": 10.0}),
    "lab_species.json": json.dumps({**LAB, "species": "rubidium"}),
    "lab_negative.json": json.dumps({**LAB, "d_meter": -0.1}),
    "lab_broken.json": "{\"b0_tesla\": ",
    "lab_null.json": json.dumps({**LAB, "b0_tesla": None}),
    "lab_list_value.json": json.dumps({**LAB, "d_meter": [0.1]}),
    "lab_object_value.json": json.dumps({**LAB, "t_oven_kelvin": {"value": 500.0}}),
}

_SWEEP_XI = "sweep --axis xi --min 0.05 --max 0.3 --count 3 --gamma 90 --omega0T 20"
_SWEEP_SHAPED = "sweep --axis omega0T --min 100 --max 1000 --count 2 --xi 0.01 --gamma 90"
_MULTI = "multi --omega0T 21 --xi 0.002 0.0016 0.0012"

# Invocations beyond those of bench/cli_cases.json.
CASES = [
    # help and top-level usage
    "--help",
    *(f"{command} --help" for command in (
        "sweep", "coupling", "multi", "reversal", "reconstruct", "design", "verify")),
    "",
    "frobnicate",
    # sweep: every method, axis, profile and format
    "sweep --axis xi --min 0 --max 0.9 --count 4 --gamma 60 --omega0T 12 --methods all",
    "sweep --axis xi --min 0 --max 0.9 --count 4 --gamma 60 --omega0T 12 --methods all --format json",
    "sweep --axis gamma --min 0 --max 180 --count 7 --xi 0.4 --methods taylor",
    "sweep --axis gamma --min 10 --max 170 --count 5 --xi 0.4 --methods envelope,taylor --format json",
    "sweep --axis omega0T --min 13 --max 1300 --count 5 --spacing log --xi 0.2 --gamma 70 "
    "--methods first-order --profile raised-cosine",
    "sweep --axis omega0T --min 13 --max 1300 --count 5 --spacing log --xi 0.2 --gamma 70 "
    "--methods first-order --profile optimized --format json",
    "sweep --axis omega0T --min 0 --max 40 --count 5 --xi 0.3 --gamma 45 --methods exact,oracle",
    "sweep --axis xi --min 0.5 --max 1 --count 3 --gamma 179 --omega0T 9 --methods exact,envelope",
    f"{_SWEEP_XI} --methods oracle",
    f"{_SWEEP_XI} --methods oracle --steps 64",
    f"{_SWEEP_XI} --methods first-order,oracle --profile raised-cosine",
    f"{_SWEEP_XI} --methods first-order,oracle --profile optimized",
    f"{_SWEEP_XI} --methods first-order,oracle --profile tabulated:triangle.txt",
    f"{_SWEEP_XI} --methods first-order,oracle --profile tabulated:trapezoid.txt --format json",
    f"{_SWEEP_XI} --methods oracle --profile tabulated:trapezoid.txt --steps 256",
    f"{_SWEEP_XI} --methods first-order,oracle --profile tabulated:uneven.txt",
    f"{_SWEEP_XI} --methods first-order,oracle --profile tabulated:uneven.txt --steps 256",
    "sweep --axis xi --min 0 --max 1 --count 3 --gamma 90 --methods 'oracle, exact,taylor,,exact' "
    "--omega0T 5",
    "sweep --axis xi --min 0 --max 1 --count 3 --gamma 90 --methods ' all ' --omega0T 5",
    "sweep --axis xi --min 0 --max 1 --count 3 --gamma 22.5 --output fig.csv --gnuplot",
    "sweep --axis xi --min 0 --max 1 --count 3 --gamma 22.5 --output fig.json --format json --gnuplot",
    "sweep --axis xi --min 0 --max 1 --count 3 --gamma 22.5 --gnuplot",
    "sweep --axis xi --min 0 --max 1 --count 3 --gamma 22.5 --output fig.csv",
    # sweep: errors
    "sweep --axis xi --min 0 --max 1 --count 1 --gamma 90",
    "sweep --axis xi --min 1 --max 0 --gamma 90",
    "sweep --axis xi --min 0 --max 1 --spacing log --gamma 90",
    "sweep --axis xi --min 0 --max 1 --gamma 90 --methods exact,bogus,nope",
    "sweep --axis xi --min 0 --max 1 --gamma 90 --methods exact,first-order,oracle,envelope",
    "sweep --axis omega0T --min 1 --max 2 --gamma 90",
    "sweep --axis gamma --min 1 --max 2 --xi 0.1 --methods oracle",
    "sweep --axis xi --min 0 --max 1",
    "sweep --axis xi --min 0 --max 1 --gamma 90 --profile bogus",
    "sweep --axis xi --min -1 --max 1 --count 3 --gamma 90 --omega0T 10 --methods exact",
    "sweep --axis gamma --min 0 --max 200 --count 3 --xi 0.1",
    "sweep --axis omega0T --min -5 --max 5 --count 3 --xi 0.1 --gamma 90",
    "sweep --axis xi --min 0.5 --max 1 --count 2 --gamma 180 --methods envelope",
    f"{_SWEEP_XI} --methods oracle --steps 0",
    f"{_SWEEP_XI} --methods first-order --profile tabulated:bad_number.txt",
    f"{_SWEEP_XI} --methods first-order --profile tabulated:three_columns.txt",
    f"{_SWEEP_XI} --methods first-order --profile tabulated:unnormalized.txt",
    f"{_SWEEP_XI} --methods first-order --profile tabulated:descending.txt",
    f"{_SWEEP_XI} --methods first-order --profile tabulated:absent.txt",
    "sweep --axis nope --min 0 --max 1",
    "sweep --axis xi --max 1 --gamma 90",
    "sweep --axis xi --min abc --max 1 --gamma 90",
    "sweep --axis xi --min 0 --max 1 --gamma 90 --seed 1",
    # sweep: the closed forms hold for constant coupling only
    f"{_SWEEP_SHAPED} --profile optimized --methods all",
    f"{_SWEEP_SHAPED} --profile optimized",
    f"{_SWEEP_SHAPED} --profile raised-cosine --methods exact,oracle",
    f"{_SWEEP_SHAPED} --profile tabulated:triangle.txt --methods taylor,envelope,first-order",
    # closed forms at field ratios whose square overflows
    "sweep --axis xi --min 1e200 --max 1e300 --count 3 --gamma 60 --omega0T 1e-300 "
    "--methods exact,envelope",
    "sweep --axis xi --min 1e200 --max 1e300 --count 3 --gamma 60 --omega0T 1e10 --methods exact",
    # coupling
    "coupling shape --count 5",
    "coupling shape --count 5 --format json",
    "coupling ratio --min 20 --max 40 --count 3 --spacing linear",
    "coupling ratio --min 40 --max 4000 --count 4 --format json",
    "coupling ratio --count 3 --output ratio.csv --gnuplot",
    "coupling ratio --min 10 --max 80",
    "coupling ratio --min 20 --max 10",
    "coupling ratio --min 20 --max 40 --count 1",
    "coupling shape --count 1",
    "coupling shape --count 0",
    "coupling shape --count -1",
    "coupling nope",
    # multi
    f"{_MULTI}",
    f"{_MULTI} --format csv",
    f"{_MULTI} --oracle",
    f"{_MULTI} --oracle --steps 16",
    f"{_MULTI} --oracle --steps 16 --format csv --output multi.csv",
    "multi --omega0T 5 --xi 0.1 0.2 0.3 --gamma 90 80 0 --eta 0 90 0 --relaxed",
    "multi --omega0T 5 --xi 0.1 0.2 0.3 --gamma 90 80 0 --eta 0 90 0 --relaxed --oracle",
    "multi --omega0T 5 --xi 0.1 0.1 0.1 --gamma 90 80 0",
    "multi --omega0T 5 --xi -0.1 0.1 0.1",
    "multi --omega0T -5 --xi 0.1 0.1 0.1",
    f"{_MULTI} --oracle --steps 0",
    "multi --omega0T 5 --xi 0.1 0.1",
    # reversal
    "reversal --xi 0.2 --gamma 90",
    "reversal --xi 0.2 --gamma 90 --omega0T 11 --format csv",
    "reversal --xi 1.5 --gamma 30 --omega0T 7",
    "reversal --xi 0.3 --gamma 0",
    "reversal --xi -0.2 --gamma 90",
    "reversal --xi 0.2 --gamma 190",
    "reversal --xi 1 --gamma 180 --omega0T 3",
    "reversal --xi 1e100 --gamma 90",
    "reversal --xi 1e300 --gamma 60 --omega0T 1e-300",
    "reversal --xi 1e300 --gamma 60 --omega0T 1e10",
    # reconstruct
    *(f"reconstruct --gamma {gamma}" for gamma in ("0", "15", "30", "60", "90", "120", "180")),
    "reconstruct --gamma 30 --eta 50",
    "reconstruct --gamma 75 --eta -20 --format csv",
    "reconstruct --expectations 0 0 1",
    "reconstruct --expectations 0.6 0.8 1e-5",
    "reconstruct --expectations -0.3 0.4 0.5 --format csv",
    "reconstruct --expectations nan 0 0",
    "reconstruct --expectations 0 inf 0",
    "reconstruct --expectations 1.5 0 0",
    "reconstruct --expectations 0.8 0.8 0",
    "reconstruct --gamma 10 --expectations 0 0 1",
    "reconstruct",
    "reconstruct --gamma 200",
    # design
    "design",
    "design --config lab.json",
    "design --config explicit_lab.json --format csv",
    "design --config lab.json --b0 2 --grad-b1 3 --gamma 60 --target-displacement 5e-4",
    "design --mu 1.5e-23 --mass 1e-25 --d 0.2 --t-oven 400",
    "design --p-max 1",
    "design --p-max 1 --format csv",
    "design --p-max 0.01 --target-displacement 1e-3 --format csv --output design.csv",
    "design --gamma 90 --target-displacement 1e-3",
    "design --target-displacement -1",
    "design --p-max 0",
    "design --p-max 1.5",
    "design --b0 0",
    "design --t-oven -300",
    "design --gamma 200",
    "design --config lab_list.json",
    "design --config lab_missing.json",
    "design --config lab_species.json",
    "design --config lab_negative.json",
    "design --config lab_broken.json",
    "design --config absent.json",
    "design --preset potassium",
    "design --config lab_null.json",
    "design --config lab_list_value.json",
    "design --config lab_object_value.json",
    "design --b0 1e300",
    "design --d 1e300",
    "design --d 1e200",
    "design --grad-b1 1e300",
    # verify
    "verify --cases 10",
    "verify --cases 10 --seed 7 --format csv",
    "verify --cases 10 --exact-tol 1e-9 --first-order-tol 1e-3",
    "verify --cases 10 --exact-tol 1e-30",
    "verify --cases 10 --first-order-tol 1e-30 --format csv",
    "verify --cases 0",
    "verify --cases 1 --first-order-tol nan --format csv",
    "verify --cases 1 --first-order-tol -1",
    "verify --cases 1 --first-order-tol inf",
    "verify --cases 1 --exact-tol nan",
    "verify --cases 1 --exact-tol -1",
    "verify --cases 1 --exact-tol 0",
    "verify --cases 1 --exact-tol inf",
    "verify --cases 1 --seed -1",
    # floats at the edges of the double range: each once ended in a traceback,
    # a NaN or a numpy warning on stderr
    "coupling ratio --min 4000 --max 1e200 --count 2",
    "coupling ratio --max 1.7976931348623157e308",
    "sweep --axis omega0T --min 13 --max 20 --count 2 --xi 1e200 --gamma 90 --methods first-order",
    "sweep --axis xi --min 5e-324 --max 1e300 --count 3 --spacing log --gamma -0 --omega0T 1.7e308"
    " --profile optimized --methods first-order",
    "sweep --axis xi --min 5e-324 --max 1e300 --count 3 --spacing log --gamma 3 --omega0T 1.7e308"
    " --profile optimized --methods first-order",
    "sweep --axis xi --min 0 --max inf --count 2 --gamma 90",
    "design --mu 1e-310 --d 1e-10 --target-displacement 1e-3",
    "reversal --xi 1.7e308 --gamma 180",
    "multi --omega0T 3.595386269724632e228 --xi 0 0 1e80",
    "multi --omega0T 1.7e308 --xi 1 2 1e200",
    "multi --omega0T 2 --xi 1.7e308 1.7e308 0",
    # options a run would ignore are refused: the azimuth, which no
    # single-field weight reads, is gone from sweep and reversal
    "sweep --axis xi --min 0 --max 1 --count 3 --gamma 90 --eta 30",
    "reversal --xi 0.2 --gamma 90 --eta 40",
    "sweep --axis xi --min 0 --max 1 --count 3 --gamma 90 --steps 16",
    "sweep --axis xi --min 0 --max 1 --count 3 --gamma 90 --xi 0.5",
    "sweep --axis gamma --min 0 --max 90 --count 3 --xi 0.1 --gamma 45",
    "sweep --axis omega0T --min 1 --max 10 --count 3 --xi 0.1 --gamma 90 --omega0T 5 --methods exact",
    "sweep --axis xi --min 0 --max 1 --count 3 --gamma 90 --omega0T 7 --methods envelope",
    "sweep --axis xi --min 0 --max 1 --count 3 --gamma 90 --methods ,",
    "sweep --axis xi --min 0 --max 1 --count 3 --gamma 90 --methods ' , '",
    "sweep --axis omega0T --min 1 --max 10 --count 3 --xi 0.1 --gamma 90",
    "sweep --axis omega0T --min 1 --max 10 --count 3 --xi 0.1 --gamma 90 --methods taylor,envelope",
    f"{_MULTI} --steps 16",
    "coupling shape --min 50 --max 60 --spacing linear",
    "coupling shape --count 5 --spacing log",
    "coupling shape --count 5 --output shape.json --format json --gnuplot",
    "coupling ratio --count 3 --gnuplot",
    "reconstruct --expectations 0 0 1 --eta 30",
    # the oracle where a step's exponent overflows: static, then driven
    "sweep --axis xi --min 1e308 --max 1.7e308 --count 2 --gamma 90 --omega0T 2 --methods oracle",
    "multi --omega0T 2 --xi 1e308 0 0 --oracle",
    "sweep --axis xi --min 1e300 --max 1e308 --count 2 --gamma 90 --omega0T 2 --methods oracle"
    " --profile raised-cosine",
    "sweep --axis xi --min 1e300 --max 1e308 --count 2 --gamma 90 --omega0T 2 --methods oracle"
    " --profile tabulated:triangle.txt",
]


def run_case(argv: list[str], directory: Path) -> dict:
    """Run ``cli.main(argv)`` in ``directory``; return what it printed and wrote."""
    for name, text in FILES.items():
        (directory / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    written = {
        path.name: path.read_text()
        for path in sorted(directory.iterdir())
        if path.name not in FILES
    }
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "written": written,
    }


def all_argv() -> list[list[str]]:
    bench = [case["argv"] for case in json.loads(BENCH_CASES.read_text())]
    return bench + [shlex.split(line) for line in CASES]


def run_all() -> list[dict]:
    cases = []
    for argv in all_argv():
        with tempfile.TemporaryDirectory() as tmp:
            cases.append(run_case(argv, Path(tmp)))
    return cases


def check(cases: list[dict]) -> int:
    """Print each case that differs from GOLDEN and what differs; 1 if any does."""
    frozen = {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}
    differ = 0
    for case in cases:
        old = frozen.pop(tuple(case["argv"]), None)
        fields = ["not in the file"] if old is None else [
            key for key in ("exit", "stdout", "stderr", "written") if case[key] != old[key]
        ]
        if fields:
            differ += 1
            print(f"{shlex.join(case['argv'])}: {', '.join(fields)}")
    for argv in frozen:
        differ += 1
        print(f"{shlex.join(argv)}: only in the file")
    print(f"{differ} of {len(cases)} cases differ from {GOLDEN.name}", file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {GOLDEN.name} and write nothing")
    args = parser.parse_args(argv)
    cases = run_all()
    if args.check:
        return check(cases)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
