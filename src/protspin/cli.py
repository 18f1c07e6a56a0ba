"""Command-line interface.

Subcommands map onto the library surface: sweep (disturbance probabilities
along a parameter axis), coupling (profile shapes and suppression ratios),
multi (three orthogonal fields), reversal (momentum-reversal weights),
reconstruct (Bloch inversion), design (lab-parameter bridge), verify
(oracle crosschecks).  Angles are taken in degrees on the command line.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 oracle did not converge within its step cap.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .compare import verify
from .core import (
    CouplingProfile,
    HamiltonianSchedule,
    MeasurementGeometry,
    ProfileKind,
    SpinState,
    coupling_eval,
)
from .design import LabParameters, derive_report, required_gradient, xi_budget
from .dyson import MIN_SMOOTH_OMEGA0T, first_order_amplitude, reduction_ratio
from .exact import (
    amplitude_exact,
    amplitude_envelope,
    probability_taylor,
    reversal_probability,
    survival_split,
)
from .multimeas import (
    MultiFieldConfig,
    simultaneous_amplitude,
    simultaneous_schedule,
    successive_amplitude,
    successive_schedule,
    term_magnitudes,
)
from .oracle import ConvergenceError, propagate
from .reconstruct import (
    ExpectationTriple,
    corrupted_reconstruction,
    reconstruct_state,
)

# sweep axis -> header of its column
_AXES = {"xi": "xi", "gamma": "gamma_deg", "omega0T": "omega0T"}
# coupling ratio's grid options -> their defaults; coupling shape takes none
_RATIO_GRID = {"min": MIN_SMOOTH_OMEGA0T, "max": 4000.0, "spacing": "log"}


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_scalar_text(v) for v in row])
    return buf.getvalue()


def _json_text(value) -> str:
    """Strict JSON (RFC 8259): a non-finite float is written as null."""
    return json.dumps(_finite_or_null(value), indent=2, allow_nan=False) + "\n"


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _flatten(record: dict, prefix: str = ""):
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, f"{name}.")
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    yield from _flatten(item, f"{name}[{i}].")
                else:
                    yield f"{name}[{i}]", item
        else:
            yield name, value


def _scalar_text(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_table(args, header, rows):
    if args.format == "json":
        text = _json_text({"columns": header, "rows": rows})
    else:
        text = _csv_text(header, rows)
    _emit(text, args.output)
    if args.gnuplot:
        _emit(_gnuplot_stub(args.output, header), args.output + ".gp")


def _emit_record(args, record):
    if args.format == "csv":
        text = _csv_text(["key", "value"], _flatten(record))
    else:
        text = _json_text(record)
    _emit(text, args.output)


def _gnuplot_stub(data_path: str, header: list[str]) -> str:
    plots = ", ".join(
        f"'{data_path}' using 1:{c} with lines title '{header[c - 1]}'"
        for c in range(2, len(header) + 1)
    )
    return (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        f"set xlabel '{header[0]}'\n"
        f"plot {plots}\n"
    )


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag, "abs": _abs(z)}


def _abs(z: complex, power: int = 1) -> float:
    """abs(z) ** power, or inf past the float range (where abs and ** raise)."""
    try:
        return abs(z) ** power
    except OverflowError:
        return math.inf


_PROFILE_NAMES = {
    "constant": CouplingProfile.constant,
    "raised-cosine": CouplingProfile.raised_cosine,
    "optimized": CouplingProfile.optimized,
}


def _parse_profile(spec: str) -> CouplingProfile:
    if spec in _PROFILE_NAMES:
        return _PROFILE_NAMES[spec]()
    if spec.startswith("tabulated:"):
        return CouplingProfile.from_file(spec.split(":", 1)[1])
    raise ValueError(f"unknown profile {spec!r}; use {', '.join(_PROFILE_NAMES)} or tabulated:<path>")


def _axis_grid(args) -> list[float]:
    if args.count < 2:
        raise ValueError(f"count must be >= 2, got {args.count}")
    if not (args.min < args.max):
        raise ValueError(f"need min < max, got {args.min} >= {args.max}")
    if not math.isfinite(args.max - args.min):  # numpy would warn on stderr and return nan
        raise ValueError(f"need a finite span from min to max, got {args.min} to {args.max}")
    if args.spacing == "log":
        if args.min <= 0.0:
            raise ValueError("log spacing requires min > 0")
        with np.errstate(over="ignore"):  # 10**log10(max) may overflow; the last point is max
            return np.geomspace(args.min, args.max, args.count).tolist()
    return np.linspace(args.min, args.max, args.count).tolist()


def _oracle_probability(geom: MeasurementGeometry, profile, steps) -> float:
    state = propagate(HamiltonianSchedule.single(geom, profile), SpinState.plus(), steps=steps)
    return abs(state.c_minus) ** 2


# method -> (P_minus(geom, profile, steps), whether it needs --omega0T,
# whether it follows --profile), in column order.  The closed forms hold for
# constant coupling only.
_SWEEP_METHODS = {
    "exact": (lambda geom, profile, steps: amplitude_exact(geom).probability_minus, True, False),
    "envelope": (
        lambda geom, profile, steps: amplitude_envelope(geom).probability_minus, False, False,
    ),
    "taylor": (lambda geom, profile, steps: probability_taylor(geom), False, False),
    "first-order": (
        lambda geom, profile, steps: _abs(first_order_amplitude(profile, geom).amplitude, 2), True, True,
    ),
    "oracle": (_oracle_probability, True, True),
}


def _sweep_methods(args) -> list[str]:
    if args.methods.strip() == "all":
        return list(_SWEEP_METHODS)
    requested = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not requested:
        raise ValueError(f"--methods names no method; use a comma list of {','.join(_SWEEP_METHODS)} or 'all'")
    unknown = [m for m in requested if m not in _SWEEP_METHODS]
    if unknown:
        raise ValueError(f"unknown method(s): {', '.join(unknown)}")
    return [m for m in _SWEEP_METHODS if m in requested]


def cmd_sweep(args) -> int:
    methods = _sweep_methods(args)
    grid = _axis_grid(args)
    profile = _parse_profile(args.profile)
    if profile.kind is not ProfileKind.CONSTANT:
        # a table mixes no profiles: 'all' keeps the methods that follow it
        fixed = [m for m in methods if not _SWEEP_METHODS[m][2]]
        if args.methods.strip() == "all":
            methods = [m for m in methods if m not in fixed]
        elif fixed:
            raise ValueError(
                f"method(s) {', '.join(fixed)} assume constant coupling and ignore "
                f"--profile {args.profile}; use first-order or oracle"
            )

    needs_omega = [m for m in methods if _SWEEP_METHODS[m][1]]
    if args.axis != "omega0T" and args.omega0T is None and needs_omega:
        raise ValueError(f"methods {sorted(needs_omega)} need --omega0T")
    for name in ("xi", "gamma"):
        if args.axis != name and getattr(args, name) is None:
            raise ValueError(f"--{name} is required unless it is the sweep axis")
    if getattr(args, args.axis) is not None:
        raise ValueError(f"--{args.axis} is the sweep axis, which --min and --max span")
    if args.omega0T is not None and not needs_omega:
        raise ValueError(f"--omega0T is read by none of the methods {', '.join(methods)}")
    if args.steps is not None and "oracle" not in methods:
        raise ValueError("--steps sets the oracle's step count, and no oracle column is requested")

    geoms = [
        MeasurementGeometry(
            xi=value if args.axis == "xi" else args.xi,
            gamma=math.radians(value if args.axis == "gamma" else args.gamma),
            omega0T=value if args.axis == "omega0T" else (args.omega0T or 0.0),
        )
        for value in grid
    ]
    # after the grid is validated, so an invalid axis value names itself
    if args.axis == "omega0T" and not needs_omega:
        raise ValueError(f"--axis omega0T sweeps what none of the methods {', '.join(methods)} reads")

    header = [_AXES[args.axis]] + [f"p_minus_{m.replace('-', '_')}" for m in methods]
    probabilities = [_SWEEP_METHODS[m][0] for m in methods]
    rows = [[value] + [p(geom, profile, args.steps) for p in probabilities] for value, geom in zip(grid, geoms)]
    _emit_table(args, header, rows)
    return 0


def cmd_coupling(args) -> int:
    if args.what == "shape":
        if given := [f"--{name}" for name in _RATIO_GRID if getattr(args, name) is not None]:
            raise ValueError(f"coupling shape takes no {', '.join(given)}; they set the ratio grid")
        args.min, args.max, args.spacing = 0.0, 1.0, "linear"
        profiles = [make() for make in _PROFILE_NAMES.values()]
        header = ["t_over_T"] + [name.replace("-", "_") for name in _PROFILE_NAMES]
        grid = _axis_grid(args)
        # one array call per profile; coupling_eval has the same bits on an array as point by point
        columns = [coupling_eval(p, np.array(grid)).tolist() for p in profiles]
        rows = list(zip(grid, *columns))
        _emit_table(args, header, rows)
        return 0

    # suppression-ratio table
    for name, default in _RATIO_GRID.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.min < MIN_SMOOTH_OMEGA0T - 1e-12:
        raise ValueError(
            f"suppression ratios are only defined for omega0T >= 4*pi "
            f"(~{MIN_SMOOTH_OMEGA0T:.6f}), got min = {args.min}"
        )
    grid = _axis_grid(args)
    header = ["omega0T", "raised_cosine", "optimized"]
    rows = [
        [w, reduction_ratio(ProfileKind.RAISED_COSINE, w), reduction_ratio(ProfileKind.OPTIMIZED, w)]
        for w in grid
    ]
    _emit_table(args, header, rows)
    return 0


def cmd_multi(args) -> int:
    if args.steps is not None and not args.oracle:
        raise ValueError("--steps sets the oracle's step count, so it needs --oracle")
    fields = tuple(
        MeasurementGeometry(
            xi=args.xi[k],
            gamma=math.radians(args.gamma[k]),
            eta=math.radians(args.eta[k]),
        )
        for k in range(3)
    )
    config = MultiFieldConfig(fields=fields, omega0T=args.omega0T, relaxed=args.relaxed)

    sim = simultaneous_amplitude(config)
    succ = successive_amplitude(config)
    record = {
        "omega0T": config.omega0T,
        "fields": [
            {
                "xi": f.xi,
                "gamma_deg": math.degrees(f.gamma),
                "eta_deg": math.degrees(f.eta),
                "direction_index": k,
            }
            for k, f in enumerate(config.fields, start=1)
        ],
        "orthogonal": config.orthogonal,
        "simultaneous": _complex_dict(sim),
        "successive": _complex_dict(succ),
        "term_magnitudes": term_magnitudes(config),
        "absolute_difference": _abs(sim - succ),
    }
    if args.oracle:
        sim_state = propagate(simultaneous_schedule(config), SpinState.plus(), steps=args.steps)
        succ_state = propagate(successive_schedule(config), SpinState.plus(), steps=args.steps)
        record["oracle_simultaneous"] = _complex_dict(sim_state.c_minus)
        record["oracle_successive"] = _complex_dict(succ_state.c_minus)
    _emit_record(args, record)
    return 0


def cmd_reversal(args) -> int:
    geom = MeasurementGeometry(xi=args.xi, gamma=math.radians(args.gamma), omega0T=args.omega0T or 0.0)
    exact, leading = reversal_probability(geom)
    record = {
        "xi": args.xi,
        "gamma_deg": args.gamma,
        "reversal_exact": exact,
        "reversal_leading_order": leading,
    }
    if args.omega0T is not None:
        correct, reversed_ = survival_split(geom)
        record["omega0T"] = args.omega0T
        record["amp_correct"] = _complex_dict(correct)
        record["amp_reversed"] = _complex_dict(reversed_)
        record["survival_probability"] = abs(correct + reversed_) ** 2
    _emit_record(args, record)
    return 0


def cmd_reconstruct(args) -> int:
    if args.expectations is not None and args.gamma is not None:
        raise ValueError("pass either --gamma or --expectations, not both")
    if args.expectations is not None:
        if args.eta is not None:
            raise ValueError("--eta is the corrupted mode's azimuth; --expectations takes none")
        triple = ExpectationTriple(
            directions=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
            values=tuple(args.expectations),
        )
        result = reconstruct_state(triple)
        record = {
            "mode": "axes",
            "expectations": list(args.expectations),
            "clipped": result.clipped,
            "rho": result.rho.as_dict(),
        }
    elif args.gamma is not None:
        eta = 0.0 if args.eta is None else args.eta
        rho, fid = corrupted_reconstruction(math.radians(args.gamma), math.radians(eta))
        record = {
            "mode": "corrupted",
            "gamma_deg": args.gamma,
            "eta_deg": eta,
            "fidelity": fid,
            "rho": rho.as_dict(),
        }
    else:
        raise ValueError("pass either --gamma (corrupted mode) or --expectations e1 e2 e3")
    _emit_record(args, record)
    return 0


def cmd_design(args) -> int:
    if args.config:
        lab = LabParameters.from_json(args.config)
    else:
        lab = LabParameters.potassium()
    overrides = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(LabParameters)
        if getattr(args, field.name) is not None
    }
    if args.gamma is not None:
        overrides["gamma"] = math.radians(args.gamma)
    lab = dataclasses.replace(lab, **overrides)
    record = {"inputs": lab.as_config(), "report": derive_report(lab).as_dict()}
    if args.target_displacement is not None:
        record["required_gradient_tesla_per_meter"] = required_gradient(
            args.target_displacement, lab
        )
    if args.p_max is not None:
        record["max_gradient_tesla_per_meter"] = xi_budget(args.p_max, lab)
    _emit_record(args, record)
    return 0


def cmd_verify(args) -> int:
    record = verify(args.seed, args.cases, args.exact_tol, args.first_order_tol)
    _emit_record(args, record)
    return 0 if record["all_passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every main call.

    Sharing is safe because nothing mutates it after it is built: parse_args
    fills a fresh namespace, every default is immutable, and help text takes
    the terminal width when it is formatted, not when the parser is built.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write to this path instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default: csv for tables, json for records)")

    parser = argparse.ArgumentParser(
        prog="protspin",
        description="Protective spin measurement: disturbance, pointer fidelity, design.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", parents=[common], help="probability sweep along one axis")
    p.add_argument("--axis", choices=_AXES, required=True)
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--count", type=int, default=101)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p.add_argument("--xi", type=float)
    p.add_argument("--gamma", type=float, help="polar angle in degrees")
    p.add_argument("--omega0T", type=float)
    p.add_argument("--methods", default="envelope",
                   help=f"comma list of {','.join(_SWEEP_METHODS)} or 'all'")
    p.add_argument("--profile", default="constant",
                   help=" | ".join([*_PROFILE_NAMES, "tabulated:<path>"]))
    p.add_argument("--steps", type=int, default=None,
                   help="fixed oracle step count (default: adaptive)")
    p.add_argument("--gnuplot", action="store_true", help="also write <output>.gp")
    p.set_defaults(func=cmd_sweep, table=True)

    p = sub.add_parser("coupling", parents=[common], help="profile shapes and suppression ratios")
    p.add_argument("what", choices=("shape", "ratio"))
    p.add_argument("--count", type=int, default=201)
    p.add_argument("--min", type=float)
    p.add_argument("--max", type=float)
    p.add_argument("--spacing", choices=("linear", "log"))
    p.add_argument("--gnuplot", action="store_true", help="also write <output>.gp")
    p.set_defaults(func=cmd_coupling, table=True)

    p = sub.add_parser("multi", parents=[common], help="three orthogonal measurement fields")
    p.add_argument("--omega0T", type=float, required=True)
    p.add_argument("--xi", type=float, nargs=3, required=True, metavar=("XI1", "XI2", "XI3"))
    p.add_argument("--gamma", type=float, nargs=3, default=(90.0, 90.0, 0.0),
                   metavar=("G1", "G2", "G3"),
                   help="polar angles in degrees (default: x, y, z axes)")
    p.add_argument("--eta", type=float, nargs=3, default=(0.0, 90.0, 0.0),
                   metavar=("E1", "E2", "E3"), help="azimuths in degrees")
    p.add_argument("--relaxed", action="store_true",
                   help="allow non-orthogonal directions (flagged in output)")
    p.add_argument("--oracle", action="store_true", help="include oracle propagation")
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_multi, table=False)

    p = sub.add_parser("reversal", parents=[common], help="momentum-reversal probability")
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True, help="polar angle in degrees")
    p.add_argument("--omega0T", type=float, default=None,
                   help="include branch amplitudes at this omega0T")
    p.set_defaults(func=cmd_reversal, table=False)

    p = sub.add_parser("reconstruct", parents=[common], help="Bloch inversion")
    p.add_argument("--gamma", type=float, help="corrupted mode: third-axis polar angle, degrees")
    p.add_argument("--eta", type=float, help="azimuth in degrees")
    p.add_argument("--expectations", type=float, nargs=3, metavar=("E1", "E2", "E3"),
                   help="axes mode: expectation values along x, y, z")
    p.set_defaults(func=cmd_reconstruct, table=False)

    p = sub.add_parser("design", parents=[common], help="lab-parameter bridge")
    p.add_argument("--config",
                   help="JSON file with unit-bearing field names (default: potassium)")
    p.add_argument("--mu", type=float, help="magnetic moment, J/T")
    p.add_argument("--mass", type=float, help="atomic mass, kg")
    p.add_argument("--b0", type=float, help="protection field, T")
    p.add_argument("--grad-b1", dest="grad_b1", type=float, help="gradient, T/m")
    p.add_argument("--d", type=float, help="field-region length, m")
    p.add_argument("--t-oven", dest="t_oven", type=float, help="oven temperature, K")
    p.add_argument("--gamma", type=float, help="polar angle in degrees")
    p.add_argument("--target-displacement", type=float, default=None,
                   help="report the gradient needed for this displacement (m)")
    p.add_argument("--p-max", type=float, default=None,
                   help="report the largest gradient keeping P_minus <= this")
    p.set_defaults(func=cmd_design, table=False)

    p = sub.add_parser("verify", parents=[common], help="oracle crosscheck matrix")
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
    p.add_argument("--exact-tol", dest="exact_tol", type=float, default=1e-10)
    p.add_argument("--first-order-tol", dest="first_order_tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_verify, table=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.format is None:
        args.format = "csv" if args.table else "json"
    try:
        if args.table and args.gnuplot and not (args.output and args.format == "csv"):
            raise ValueError("--gnuplot writes <output>.gp beside CSV, so it needs --output and CSV")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
