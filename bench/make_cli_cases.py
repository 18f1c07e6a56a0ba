"""Freeze the CLI invocations of the closed-forms workload and their stdout.

    python3 bench/make_cli_cases.py

Rewrites bench/cli_cases.json from the current code.  Run it only when a
change to the CLI's output is intended; the benchmark fails any job whose
stdout differs from these bytes.  The cases avoid --seed and --preset, which
do not change the output.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from protspin import cli  # noqa: E402

CASES = [
    "sweep --axis xi --min 0 --max 1 --count 21 --gamma 90 --methods envelope",
    "sweep --axis omega0T --min 1 --max 1000 --count 21 --spacing log --xi 0.3 --gamma 60 "
    "--methods exact,envelope,taylor",
    "sweep --axis gamma --min 0 --max 180 --count 19 --xi 0.1 --omega0T 50 --methods exact,first-order",
    "sweep --axis xi --min 0 --max 0.5 --count 11 --gamma 45 --omega0T 30 --methods exact --format json",
    "coupling ratio --min 40 --max 4000 --count 25 --spacing log",
    "coupling shape --count 21",
    "multi --omega0T 31.4159 --xi 0.05 0.05 0.05 --gamma 90 90 0 --eta 0 90 0",
    "reversal --xi 0.001 --gamma 90 --omega0T 100",
    "reversal --xi 0.7 --gamma 150",
    "reconstruct --gamma 45 --eta 0",
    "reconstruct --expectations 0.3 0.2 0.1",
    "design --b0 1 --p-max 0.01 --target-displacement 5e-4",
    "design --format csv",
]


def main():
    cases = []
    for line in CASES:
        argv = line.split()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"case exited with {code}: {line}")
        cases.append({"argv": argv, "stdout": out.getvalue()})
    (HERE / "cli_cases.json").write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    main()
