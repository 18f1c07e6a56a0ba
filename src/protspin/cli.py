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
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import (
    CouplingProfile,
    FieldSpec,
    MeasurementGeometry,
    ProfileKind,
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
from .oracle import ConvergenceError, HamiltonianSchedule, SpinState, propagate
from .reconstruct import (
    ExpectationTriple,
    corrupted_reconstruction,
    reconstruct_state,
)

_METHOD_ORDER = ("exact", "envelope", "taylor", "first-order", "oracle")
_AXES = ("xi", "gamma", "omega0T")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _csv_text(header: list[str], rows: list[list[float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _json_table(header: list[str], rows: list[list[float]]) -> str:
    return json.dumps({"columns": header, "rows": rows}, indent=2) + "\n"


def _record_csv(record: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flatten(record):
        writer.writerow([key, value])
    return buf.getvalue()


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
                    yield f"{name}[{i}]", _scalar_text(item)
        else:
            yield name, _scalar_text(value)


def _scalar_text(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_table(args, header, rows):
    if args.format == "json":
        text = _json_table(header, rows)
    else:
        text = _csv_text(header, rows)
    _emit(text, args.output)
    if args.gnuplot and args.output and args.format == "csv":
        _emit(_gnuplot_stub(args.output, header), args.output + ".gp")


def _emit_record(args, record):
    if args.format == "csv":
        text = _record_csv(record)
    else:
        text = json.dumps(record, indent=2) + "\n"
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
    return {"re": z.real, "im": z.imag, "abs": abs(z)}


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
    raise ValueError(
        f"unknown profile {spec!r}; use constant, raised-cosine, optimized "
        "or tabulated:<path>"
    )


def _axis_grid(args) -> np.ndarray:
    if args.count < 2:
        raise ValueError(f"count must be >= 2, got {args.count}")
    if not (args.min < args.max):
        raise ValueError(f"need min < max, got {args.min} >= {args.max}")
    if args.spacing == "log":
        if args.min <= 0.0:
            raise ValueError("log spacing requires min > 0")
        return np.geomspace(args.min, args.max, args.count)
    return np.linspace(args.min, args.max, args.count)


def _sweep_methods(args) -> list[str]:
    if args.methods.strip() == "all":
        return list(_METHOD_ORDER)
    requested = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in requested if m not in _METHOD_ORDER]
    if unknown:
        raise ValueError(f"unknown method(s): {', '.join(unknown)}")
    return [m for m in _METHOD_ORDER if m in requested]


def _sweep_probability(method: str, geom: MeasurementGeometry, profile, steps) -> float:
    if method == "exact":
        return amplitude_exact(geom).probability_minus
    if method == "envelope":
        return amplitude_envelope(geom).probability_minus
    if method == "taylor":
        return probability_taylor(geom)
    if method == "first-order":
        return abs(first_order_amplitude(profile, geom).amplitude) ** 2
    state = propagate(HamiltonianSchedule.single(geom, profile), SpinState.plus(), steps=steps)
    return abs(state.c_minus) ** 2


def cmd_sweep(args) -> int:
    methods = _sweep_methods(args)
    grid = _axis_grid(args)
    profile = _parse_profile(args.profile)

    needs_omega = {"exact", "first-order", "oracle"}
    if args.axis != "omega0T" and args.omega0T is None and needs_omega & set(methods):
        raise ValueError(
            f"methods {sorted(needs_omega & set(methods))} need --omega0T"
        )
    if args.axis != "xi" and args.xi is None:
        raise ValueError("--xi is required unless it is the sweep axis")
    if args.axis != "gamma" and args.gamma is None:
        raise ValueError("--gamma is required unless it is the sweep axis")

    eta = math.radians(args.eta)
    header = [{"xi": "xi", "gamma": "gamma_deg", "omega0T": "omega0T"}[args.axis]]
    header += [f"p_minus_{m.replace('-', '_')}" for m in methods]
    rows = []
    for value in grid:
        xi = value if args.axis == "xi" else args.xi
        gamma = math.radians(value) if args.axis == "gamma" else math.radians(args.gamma)
        omega0T = value if args.axis == "omega0T" else (args.omega0T or 0.0)
        geom = MeasurementGeometry(xi=xi, gamma=gamma, eta=eta, omega0T=omega0T)
        row = [float(value)]
        for method in methods:
            row.append(_sweep_probability(method, geom, profile, args.steps))
        rows.append(row)
    _emit_table(args, header, rows)
    return 0


def cmd_coupling(args) -> int:
    if args.what == "shape":
        grid = np.linspace(0.0, 1.0, args.count)
        profiles = [make() for make in _PROFILE_NAMES.values()]
        header = ["t_over_T"] + [name.replace("-", "_") for name in _PROFILE_NAMES]
        rows = [
            [float(s)] + [float(coupling_eval(p, float(s))) for p in profiles]
            for s in grid
        ]
        _emit_table(args, header, rows)
        return 0

    # suppression-ratio table
    if args.min < MIN_SMOOTH_OMEGA0T - 1e-12:
        raise ValueError(
            f"suppression ratios are only defined for omega0T >= 4*pi "
            f"(~{MIN_SMOOTH_OMEGA0T:.6f}), got min = {args.min}"
        )
    grid = _axis_grid(args)
    header = ["omega0T", "raised_cosine", "optimized"]
    rows = [
        [
            float(w),
            reduction_ratio(ProfileKind.RAISED_COSINE, float(w)),
            reduction_ratio(ProfileKind.OPTIMIZED, float(w)),
        ]
        for w in grid
    ]
    _emit_table(args, header, rows)
    return 0


def cmd_multi(args) -> int:
    fields = tuple(
        FieldSpec(
            xi=args.xi[k],
            gamma=math.radians(args.gamma[k]),
            eta=math.radians(args.eta[k]),
            direction_index=k + 1,
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
                "direction_index": f.direction_index,
            }
            for f in config.fields
        ],
        "orthogonal": config.orthogonal,
        "simultaneous": _complex_dict(sim),
        "successive": _complex_dict(succ),
        "term_magnitudes": term_magnitudes(config),
        "absolute_difference": abs(sim - succ),
    }
    if args.oracle:
        sim_state = propagate(simultaneous_schedule(config), SpinState.plus(), steps=args.steps)
        succ_state = propagate(successive_schedule(config), SpinState.plus(), steps=args.steps)
        record["oracle_simultaneous"] = _complex_dict(sim_state.c_minus)
        record["oracle_successive"] = _complex_dict(succ_state.c_minus)
    _emit_record(args, record)
    return 0


def cmd_reversal(args) -> int:
    gamma = math.radians(args.gamma)
    eta = math.radians(args.eta)
    geom = MeasurementGeometry(
        xi=args.xi, gamma=gamma, eta=eta, omega0T=args.omega0T or 0.0
    )
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
        rho, fid = corrupted_reconstruction(math.radians(args.gamma), math.radians(args.eta))
        record = {
            "mode": "corrupted",
            "gamma_deg": args.gamma,
            "eta_deg": args.eta,
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
        name: getattr(args, name)
        for name in ("mu", "mass", "b0", "grad_b1", "d", "t_oven")
        if getattr(args, name) is not None
    }
    if args.gamma is not None:
        overrides["gamma"] = math.radians(args.gamma)
    lab = dataclasses.replace(lab, **overrides)
    report = derive_report(lab)
    record = {
        "inputs": {
            "mu_joule_per_tesla": lab.mu,
            "mass_kg": lab.mass,
            "b0_tesla": lab.b0,
            "grad_b1_tesla_per_meter": lab.grad_b1,
            "d_meter": lab.d,
            "t_oven_kelvin": lab.t_oven,
            "gamma_deg": math.degrees(lab.gamma),
        },
        "report": report.as_dict(),
    }
    if args.target_displacement is not None:
        record["required_gradient_tesla_per_meter"] = required_gradient(
            args.target_displacement, lab
        )
    if args.p_max is not None:
        record["max_gradient_tesla_per_meter"] = xi_budget(args.p_max, lab)
    _emit_record(args, record)
    return 0


def _verify_checks(rng: np.random.Generator, cases: int, exact_tol: float, fo_tol: float):
    checks = []

    worst = 0.0
    for _ in range(cases):
        geom = MeasurementGeometry(
            xi=float(rng.uniform(0.0, 2.0)),
            gamma=float(rng.uniform(0.0, math.pi)),
            eta=float(rng.uniform(0.0, 2.0 * math.pi)),
            omega0T=float(np.exp(rng.uniform(math.log(0.1), math.log(1000.0)))),
        )
        schedule = HamiltonianSchedule.single(geom, CouplingProfile.constant())
        state = propagate(schedule, SpinState.plus())
        a_minus = amplitude_exact(geom).amplitude_minus
        correct, reversed_ = survival_split(geom)
        dev = max(
            abs(state.c_minus - a_minus),
            abs(state.c_plus - (correct + reversed_)),
        )
        worst = max(worst, dev)
    checks.append({
        "name": "exact-vs-oracle",
        "cases": cases,
        "max_deviation": worst,
        "tolerance": exact_tol,
        "passed": bool(worst < exact_tol),
    })

    worst = 0.0
    for kind_name, profile in _PROFILE_NAMES.items():
        # gamma = pi/2 suppresses the quadratic correction term
        geom = MeasurementGeometry(xi=1e-3, gamma=0.5 * math.pi, eta=0.4, omega0T=5.0)
        state = propagate(HamiltonianSchedule.single(geom, profile()), SpinState.plus())
        fo = first_order_amplitude(profile(), geom).amplitude
        rel = abs(state.c_minus - fo) / abs(fo)
        worst = max(worst, rel)
    checks.append({
        "name": "first-order-small-xi",
        "cases": len(_PROFILE_NAMES),
        "max_deviation": worst,
        "tolerance": fo_tol,
        "passed": bool(worst < fo_tol),
    })

    config = MultiFieldConfig.axes(0.01, 0.008, 0.006, omega0T=10.0 * math.pi)
    sim = simultaneous_amplitude(config)
    succ = successive_amplitude(config)
    dev = abs(sim - succ)
    checks.append({
        "name": "successive-equals-simultaneous-at-2pi-multiple",
        "cases": 1,
        "max_deviation": dev,
        "tolerance": 1e-12,
        "passed": bool(dev < 1e-12),
    })

    geom = MeasurementGeometry(xi=0.3, gamma=1.0, eta=0.7, omega0T=50.0)
    state = propagate(
        HamiltonianSchedule.single(geom, CouplingProfile.raised_cosine()),
        SpinState.plus(),
        steps=2 ** 14,
    )
    drift = abs(state.norm() - 1.0)
    checks.append({
        "name": "unitarity",
        "cases": 1,
        "max_deviation": drift,
        "tolerance": 1e-12,
        "passed": bool(drift < 1e-12),
    })

    return checks


def cmd_verify(args) -> int:
    if args.cases < 1:
        raise ValueError(f"cases must be >= 1, got {args.cases}")
    rng = np.random.default_rng(args.seed)
    checks = _verify_checks(rng, args.cases, args.exact_tol, args.first_order_tol)
    all_passed = all(c["passed"] for c in checks)
    record = {
        "seed": args.seed,
        "checks": checks,
        "all_passed": all_passed,
    }
    _emit_record(args, record)
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--eta", type=float, default=0.0, help="azimuth in degrees")
    p.add_argument("--omega0T", type=float)
    p.add_argument("--methods", default="envelope",
                   help="comma list of exact,envelope,taylor,first-order,oracle or 'all'")
    p.add_argument("--profile", default="constant",
                   help="constant | raised-cosine | optimized | tabulated:<path>")
    p.add_argument("--steps", type=int, default=None,
                   help="fixed oracle step count (default: adaptive)")
    p.add_argument("--gnuplot", action="store_true", help="also write <output>.gp")
    p.set_defaults(func=cmd_sweep, table=True)

    p = sub.add_parser("coupling", parents=[common], help="profile shapes and suppression ratios")
    p.add_argument("what", choices=("shape", "ratio"))
    p.add_argument("--count", type=int, default=201)
    p.add_argument("--min", type=float, default=MIN_SMOOTH_OMEGA0T)
    p.add_argument("--max", type=float, default=4000.0)
    p.add_argument("--spacing", choices=("linear", "log"), default="log")
    p.add_argument("--gnuplot", action="store_true", help="also write <output>.gp")
    p.set_defaults(func=cmd_coupling, table=True)

    p = sub.add_parser("multi", parents=[common], help="three orthogonal measurement fields")
    p.add_argument("--omega0T", type=float, required=True)
    p.add_argument("--xi", type=float, nargs=3, required=True, metavar=("XI1", "XI2", "XI3"))
    p.add_argument("--gamma", type=float, nargs=3, default=[90.0, 90.0, 0.0],
                   metavar=("G1", "G2", "G3"),
                   help="polar angles in degrees (default: x, y, z axes)")
    p.add_argument("--eta", type=float, nargs=3, default=[0.0, 90.0, 0.0],
                   metavar=("E1", "E2", "E3"), help="azimuths in degrees")
    p.add_argument("--relaxed", action="store_true",
                   help="allow non-orthogonal directions (flagged in output)")
    p.add_argument("--oracle", action="store_true", help="include oracle propagation")
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_multi, table=False)

    p = sub.add_parser("reversal", parents=[common], help="momentum-reversal probability")
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True, help="polar angle in degrees")
    p.add_argument("--eta", type=float, default=0.0, help="azimuth in degrees")
    p.add_argument("--omega0T", type=float, default=None,
                   help="include branch amplitudes at this omega0T")
    p.set_defaults(func=cmd_reversal, table=False)

    p = sub.add_parser("reconstruct", parents=[common], help="Bloch inversion")
    p.add_argument("--gamma", type=float, help="corrupted mode: third-axis polar angle, degrees")
    p.add_argument("--eta", type=float, default=0.0, help="azimuth in degrees")
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
