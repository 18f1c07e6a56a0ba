"""Command-line surface: schemas, determinism, exit codes."""

import argparse
import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import random
import shlex
import tempfile
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protspin.cli
from make_cli_golden import BENCH_CASES, GOLDEN, all_argv, run_case
from protspin import ConvergenceError, LabParameters, core, derive_report
from protspin.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "np.float64" not in err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestSweep:
    def test_envelope_reaches_half_at_equal_fields(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--axis", "xi", "--min", "0", "--max", "1",
            "--count", "5", "--gamma", "90", "--methods", "envelope",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["xi", "p_minus_envelope"]
        column = [float(r[1]) for r in rows]
        assert column == sorted(column)
        assert abs(column[-1] - 0.5) < 1e-12

    def test_oracle_converges_at_large_budget(self, capsys):
        # omega0T = 3e4 is past the step cap of the adaptive midpoint rule
        code, out, _ = run(
            capsys, "sweep", "--axis", "xi", "--min", "0.1", "--max", "0.5", "--count", "2",
            "--gamma", "90", "--omega0T", "3e4", "--methods", "oracle,first-order",
            "--profile", "raised-cosine",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["xi", "p_minus_first_order", "p_minus_oracle"]
        assert len(rows) == 2
        assert all(0.0 <= float(r[2]) < 1e-12 for r in rows)

    def test_aligned_field_sweep_is_all_zero(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--axis", "xi", "--min", "0", "--max", "1",
            "--count", "4", "--gamma", "0", "--methods", "envelope",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_taylor_dominates_envelope_rowwise(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--axis", "xi", "--min", "0.01", "--max", "1",
            "--count", "7", "--gamma", "45", "--methods", "envelope,taylor",
        )
        assert code == 0
        _, rows = parse_csv(out)
        for r in rows:
            assert float(r[2]) >= float(r[1])

    def test_full_seventeen_digit_precision(self, capsys):
        _, out, _ = run(
            capsys, "sweep", "--axis", "xi", "--min", "0", "--max", "1",
            "--count", "3", "--gamma", "90", "--methods", "envelope",
        )
        assert "0.19999999999999998" in out

    def test_byte_identical_reruns(self, capsys):
        argv = (
            "sweep", "--axis", "omega0T", "--min", "1", "--max", "100",
            "--count", "9", "--spacing", "log", "--xi", "0.1", "--gamma", "45",
            "--methods", "exact,envelope",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--axis", "xi", "--min", "0", "--max", "0.5",
            "--count", "2", "--gamma", "90", "--methods", "envelope",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["xi", "p_minus_envelope"]
        assert len(payload["rows"]) == 2

    def test_output_file_and_gnuplot_stub(self, capsys, tmp_path):
        target = tmp_path / "fig.csv"
        code, out, _ = run(
            capsys, "sweep", "--axis", "xi", "--min", "0", "--max", "1",
            "--count", "3", "--gamma", "22.5", "--methods", "envelope",
            "--output", str(target), "--gnuplot",
        )
        assert code == 0
        assert out == ""
        assert target.exists()
        stub = target.with_suffix(".csv.gp")
        assert stub.exists()
        assert "fig.csv" in stub.read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--axis", "xi", "--min", "0", "--max", "1", "--count", "1", "--gamma", "90"),
            ("sweep", "--axis", "xi", "--min", "1", "--max", "0", "--gamma", "90"),
            ("sweep", "--axis", "xi", "--min", "0", "--max", "1", "--spacing", "log", "--gamma", "90"),
            ("sweep", "--axis", "xi", "--min", "0", "--max", "1"),
            ("sweep", "--axis", "nope", "--min", "0", "--max", "1"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2

    def test_domain_error_shows_plain_numbers(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--axis", "xi", "--min", "-1", "--max", "1", "--count", "3",
            "--gamma", "90", "--omega0T", "10", "--methods", "exact",
        )
        assert_one_line_error(code, out, err)
        assert err == "error: xi must be finite and >= 0, got -1.0\n"

    def test_bad_tabulated_entry_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 0.0\n0.5 1.0\n0.5 abc\n1.0 0.0\n")
        code, out, err = run(
            capsys, "sweep", "--axis", "xi", "--min", "0", "--max", "1", "--count", "3",
            "--gamma", "90", "--omega0T", "10", "--profile", f"tabulated:{path}", "--methods", "first-order",
        )
        assert_one_line_error(code, out, err)
        assert err.startswith(f"error: {path}:3: ")
        assert "'abc'" in err

    @pytest.mark.parametrize("methods", [None, "exact", "taylor,oracle", "first-order,envelope"])
    @pytest.mark.parametrize("profile", ["raised-cosine", "optimized"])
    def test_closed_forms_refuse_a_shaped_profile(self, capsys, methods, profile):
        argv = ["sweep", "--axis", "omega0T", "--min", "100", "--max", "1000", "--count", "2",
                "--xi", "0.01", "--gamma", "90", "--profile", profile]
        if methods is not None:
            argv += ["--methods", methods]
        code, out, err = run(capsys, *argv)
        assert_one_line_error(code, out, err)
        fixed = [m for m in ("exact", "envelope", "taylor") if m in (methods or "envelope")]
        assert err.startswith(f"error: method(s) {', '.join(fixed)} assume constant coupling")
        assert f"--profile {profile};" in err

    @pytest.mark.parametrize("profile", ["raised-cosine", "optimized"])
    def test_all_follows_a_shaped_profile(self, capsys, profile):
        argv = ("sweep", "--axis", "omega0T", "--min", "100", "--max", "1000", "--count", "2",
                "--xi", "0.01", "--gamma", "90", "--profile", profile)
        code, out, _ = run(capsys, *argv, "--methods", "all")
        assert code == 0
        _, explicit, _ = run(capsys, *argv, "--methods", "first-order,oracle")
        assert out == explicit
        assert parse_csv(out)[0] == ["omega0T", "p_minus_first_order", "p_minus_oracle"]

    @pytest.mark.parametrize("axis, fixed, integrals", [
        ("xi", "--min 0.1 --max 0.3 --gamma 90 --omega0T 20", 1),
        ("gamma", "--min 10 --max 90 --xi 0.1 --omega0T 20", 1),
        ("omega0T", "--min 10 --max 50 --xi 0.1 --gamma 90", 5),
    ])
    def test_tabulated_sweep_integrates_once_per_frequency(self, capsys, monkeypatch, tmp_path,
                                                            axis, fixed, integrals):
        path = tmp_path / "triangle.txt"
        path.write_text("0 0\n0.5 2\n1 0\n")
        frequencies = []
        knot_integral = core._knot_integral

        def counted(profile, omega):
            frequencies.append(omega)
            return knot_integral(profile, omega)

        monkeypatch.setattr(core, "_knot_integral", counted)
        code, out, _ = run(capsys, "sweep", "--axis", axis, *fixed.split(), "--count", "5",
                           "--methods", "first-order", "--profile", f"tabulated:{path}")
        assert code == 0 and len(parse_csv(out)[1]) == 5
        assert len(frequencies) == integrals == len(set(frequencies))

    def test_oracle_method_column(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--axis", "xi", "--min", "0.05", "--max", "0.2",
            "--count", "2", "--gamma", "90", "--omega0T", "10",
            "--methods", "exact,oracle", "--profile", "constant",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["xi", "p_minus_exact", "p_minus_oracle"]
        for r in rows:
            assert abs(float(r[1]) - float(r[2])) < 1e-10


class TestCoupling:
    def test_shape_starts_gradually(self, capsys):
        code, out, _ = run(capsys, "coupling", "shape", "--count", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t_over_T", "constant", "raised_cosine", "optimized"]
        first = rows[0]
        assert float(first[2]) == 0.0
        assert abs(float(first[3])) < 1e-15

    def test_ratio_reference_points(self, capsys):
        omega = 20.0 * math.pi
        code, out, _ = run(
            capsys, "coupling", "ratio", "--min", str(omega), "--max", str(2 * omega), "--count", "2",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(float(rows[0][1]) / 1e-4 - 1.0) < 1e-12
        assert abs(float(rows[0][2]) / 1.6e-7 - 1.0) < 1e-12

    def test_ratio_slopes_from_emitted_table(self, capsys):
        code, out, _ = run(
            capsys, "coupling", "ratio", "--min", "40", "--max", "4000",
            "--count", "20", "--spacing", "log",
        )
        assert code == 0
        _, rows = parse_csv(out)
        om = np.array([float(r[0]) for r in rows])
        for col, slope in ((1, -4.0), (2, -8.0)):
            vals = np.array([float(r[col]) for r in rows])
            fit = np.polyfit(np.log(om), np.log(vals), 1)
            assert abs(fit[0] - slope) < 0.05

    def test_ratio_refuses_short_budgets(self, capsys):
        code, _, err = run(capsys, "coupling", "ratio", "--min", "10", "--max", "80")
        assert code == 2
        assert "4*pi" in err


class TestMulti:
    def test_full_period_orderings_coincide(self, capsys):
        code, out, _ = run(
            capsys, "multi", "--omega0T", str(10.0 * math.pi), "--xi", "0.05", "0.04", "0.03",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["orthogonal"] is True
        assert payload["absolute_difference"] < 1e-12

    def test_term_magnitudes_schema(self, capsys):
        _, out, _ = run(capsys, "multi", "--omega0T", "9.7", "--xi", "0.05", "0.04", "0.03")
        payload = json.loads(out)
        assert len(payload["term_magnitudes"]) == 3
        x = 0.5 * 9.7
        sinc = abs(math.sin(x) / x)
        assert abs(payload["term_magnitudes"][0] - x * 0.05 * sinc) < 1e-15

    def test_skewed_directions_need_relaxed(self, capsys):
        argv = (
            "multi", "--omega0T", "5", "--xi", "0.1", "0.1", "0.1",
            "--gamma", "90", "80", "0",
        )
        code, _, err = run(capsys, *argv)
        assert code == 2
        code, out, _ = run(capsys, *argv, "--relaxed")
        assert code == 0
        assert json.loads(out)["orthogonal"] is False

    @pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["closed-form", "oracle"])
    def test_default_directions_are_the_axes(self, capsys, oracle):
        argv = ("multi", "--omega0T", "21", "--xi", "0.002", "0.0016", "0.0012", *oracle)
        code, implicit, _ = run(capsys, *argv)
        assert code == 0
        _, explicit, _ = run(capsys, *argv, "--gamma", "90", "90", "0", "--eta", "0", "90", "0")
        assert implicit == explicit

    def test_direction_defaults_are_tuples(self):
        args = build_parser().parse_args(["multi", "--omega0T", "1", "--xi", "0", "0", "0"])
        assert args.gamma == (90.0, 90.0, 0.0)
        assert args.eta == (0.0, 90.0, 0.0)

    def test_oracle_flag_adds_propagation(self, capsys):
        code, out, _ = run(
            capsys, "multi", "--omega0T", "21", "--xi", "0.002", "0.0016", "0.0012", "--oracle",
        )
        assert code == 0
        payload = json.loads(out)
        assert "oracle_simultaneous" in payload
        assert "oracle_successive" in payload
        assert payload["oracle_simultaneous"]["abs"] == pytest.approx(
            payload["simultaneous"]["abs"], rel=2e-2
        )


class TestReversal:
    def test_reference_point(self, capsys):
        code, out, _ = run(capsys, "reversal", "--xi", "0.2", "--gamma", "90")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["reversal_leading_order"] - 1e-4) < 1e-15
        assert 0.9 < payload["reversal_exact"] / payload["reversal_leading_order"] < 1.0

    def test_branch_amplitudes_on_request(self, capsys):
        _, out, _ = run(capsys, "reversal", "--xi", "0.2", "--gamma", "90", "--omega0T", "11")
        payload = json.loads(out)
        assert "amp_correct" in payload
        assert "amp_reversed" in payload
        assert payload["survival_probability"] < 1.0


class TestReconstruct:
    @pytest.mark.parametrize("gamma,expected", [(0.0, 0.0), (45.0, math.sin(math.pi / 4)), (90.0, 1.0)])
    def test_corrupted_fidelity(self, capsys, gamma, expected):
        code, out, _ = run(capsys, "reconstruct", "--gamma", str(gamma))
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["fidelity"] - expected) < 1e-12

    def test_expectation_mode(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "--expectations", "0", "0", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["rho"]["rho00"]["re"] == pytest.approx(1.0, abs=1e-15)
        assert payload["clipped"] is False

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_expectation_is_rejected(self, capsys, value):
        code, out, err = run(capsys, "reconstruct", "--expectations", value, "0", "0")
        assert_one_line_error(code, out, err)
        assert "expectation values must lie in [-1, 1]" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_eta_is_rejected(self, capsys, value):
        code, out, err = run(capsys, "reconstruct", "--gamma", "45", "--eta", value)
        assert_one_line_error(code, out, err)
        assert err == f"error: eta must be finite, got {value}\n"

    def test_requires_exactly_one_mode(self, capsys):
        code, _, _ = run(capsys, "reconstruct")
        assert code == 2
        code, _, _ = run(capsys, "reconstruct", "--gamma", "10", "--expectations", "0", "0", "1")
        assert code == 2


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which RFC 8259 does not allow."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    def test_unconstrained_budget_is_null(self, capsys):
        code, out, _ = run(capsys, "design", "--p-max", "1")
        assert code == 0
        assert "Infinity" not in out
        assert strict_json(out)["max_gradient_tesla_per_meter"] is None

    def test_csv_keeps_inf(self, capsys):
        code, out, _ = run(capsys, "design", "--p-max", "1", "--format", "csv")
        assert code == 0
        assert "max_gradient_tesla_per_meter,inf\n" in out

    def test_table_writes_non_finite_as_null(self):
        text = protspin.cli._json_text({"columns": ["x", "y"], "rows": [[1.5, math.inf], [-math.inf, math.nan]]})
        assert strict_json(text) == {"columns": ["x", "y"], "rows": [[1.5, None], [None, None]]}

    def test_finite_output_is_unchanged(self, capsys):
        record = {"a": [0.1, 2.0, {"b": 1e-300}], "c": True, "d": "text", "e": 3}
        assert protspin.cli._json_text(record) == json.dumps(record, indent=2) + "\n"
        _, out, _ = run(capsys, "design", "--p-max", "0.01")
        assert strict_json(out) == json.loads(out)


class TestDesign:
    def test_potassium_preset_report(self, capsys):
        code, out, _ = run(capsys, "design")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["xi"] == pytest.approx(0.2, abs=1e-15)
        assert payload["report"]["p_minus_taylor"] == pytest.approx(0.02, abs=1e-15)

    def test_aligned_gradient_never_disturbs(self, capsys):
        _, out, _ = run(capsys, "design", "--gamma", "0")
        payload = json.loads(out)
        assert payload["report"]["p_minus_envelope"] == 0.0

    def test_budget_scale_at_unit_field(self, capsys):
        _, out, _ = run(capsys, "design", "--b0", "1")
        payload = json.loads(out)
        assert 3.7e7 < payload["report"]["omega0T"] < 4.0e7

    def test_preset_flag_is_gone(self, capsys):
        code, out, err = run(capsys, "design", "--preset", "potassium")
        assert code == 2
        assert out == ""
        assert "--preset" in err

    @pytest.mark.parametrize(
        "flag, value, field, converted",
        [
            ("--mu", "1.5e-23", "mu", 1.5e-23),
            ("--mass", "1e-25", "mass", 1e-25),
            ("--b0", "2", "b0", 2.0),
            ("--grad-b1", "3", "grad_b1", 3.0),
            ("--d", "0.2", "d", 0.2),
            ("--t-oven", "400", "t_oven", 400.0),
            ("--gamma", "30", "gamma", math.radians(30.0)),
        ],
    )
    def test_override_matches_direct_parameters(self, capsys, flag, value, field, converted):
        code, out, _ = run(capsys, "design", flag, value)
        assert code == 0
        lab = LabParameters(**{**dataclasses.asdict(LabParameters.potassium()), field: converted})
        expected = json.loads(json.dumps(derive_report(lab).as_dict()))
        assert json.loads(out)["report"] == expected

    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "lab.json"
        path.write_text(json.dumps({
            "species": "potassium",
            "b0_tesla": 10.0,
            "grad_b1_tesla_per_meter": 20.0,
            "d_meter": 0.1,
            "t_oven_kelvin": 500.0,
            "gamma_deg": 45.0,
        }))
        code, out, _ = run(capsys, "design", "--config", str(path), "--target-displacement", "5e-4")
        assert code == 0
        payload = json.loads(out)
        assert "required_gradient_tesla_per_meter" in payload

    @pytest.mark.parametrize("config, kind", [("[1, 2]", "list"), ("5", "int")])
    def test_config_must_be_an_object(self, capsys, tmp_path, config, kind):
        path = tmp_path / "lab.json"
        path.write_text(config)
        code, out, err = run(capsys, "design", "--config", str(path))
        assert_one_line_error(code, out, err)
        assert err == f"error: config must be a JSON object, got {kind}\n"

    def test_config_number_past_the_float_range_is_one_line(self, capsys, tmp_path):
        # json reads 1 followed by 400 zeros as an int, which float() refuses with OverflowError
        path = tmp_path / "lab.json"
        path.write_text(json.dumps({
            "species": "potassium",
            "b0_tesla": 12345.0,
            "grad_b1_tesla_per_meter": 20.0,
            "d_meter": 0.1,
            "t_oven_kelvin": 500.0,
            "gamma_deg": 45.0,
        }).replace("12345.0", "1" + "0" * 400))
        code, out, err = run(capsys, "design", "--config", str(path))
        assert_one_line_error(code, out, err)
        assert err.startswith("error: config field b0_tesla must be a number, got 1000")

    def test_config_missing_field_is_named(self, capsys, tmp_path):
        path = tmp_path / "lab.json"
        path.write_text(json.dumps({"species": "potassium", "b0_tesla": 10.0}))
        code, _, err = run(capsys, "design", "--config", str(path))
        assert code == 2
        assert "grad_b1_tesla_per_meter" in err


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--cases", "25")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert {"exact-vs-oracle", "first-order-small-xi"} <= names

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--cases", "5", "--exact-tol", "1e-30")
        assert code == 1
        payload = json.loads(out)
        assert payload["all_passed"] is False

    def test_seeded_reproducibility(self, capsys):
        _, first, _ = run(capsys, "verify", "--cases", "10", "--seed", "7")
        _, second, _ = run(capsys, "verify", "--cases", "10", "--seed", "7")
        assert first == second

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_cases_below_one_is_usage_error(self, capsys, cases):
        code, out, err = run(capsys, "verify", "--cases", cases)
        assert code == 2
        assert out == ""
        assert err == f"error: cases must be >= 1, got {cases}\n"


GOLDEN_VERIFY = [
    case for case in json.loads(GOLDEN.read_text())
    if case["argv"][:1] == ["verify"] and "--help" not in case["argv"]
]


def verify_arguments(argv):
    """protspin.verify's keyword arguments for a verify argv, and the output format it asks for."""
    args = build_parser().parse_args(argv)
    names = ("seed", "cases", "exact_tol", "first_order_tol")
    return {name: getattr(args, name) for name in names}, args.format


class TestLibraryVerify:
    """protspin.verify is the check matrix the CLI prints; cmd_verify only emits it."""

    @pytest.mark.parametrize(
        "case", [c for c in GOLDEN_VERIFY if c["exit"] in (0, 1)], ids=lambda c: " ".join(c["argv"]),
    )
    def test_returns_the_record_the_cli_prints(self, case):
        kwargs, fmt = verify_arguments(case["argv"])
        record = json.loads(json.dumps(protspin.verify(**kwargs)))
        assert case["exit"] == (0 if record["all_passed"] else 1)
        if fmt == "csv":
            printed = dict(parse_csv(case["stdout"])[1])
            assert printed == {key: protspin.cli._scalar_text(v) for key, v in protspin.cli._flatten(record)}
        else:
            assert record == json.loads(case["stdout"])

    @pytest.mark.parametrize(
        "case", [c for c in GOLDEN_VERIFY if c["exit"] == 2], ids=lambda c: " ".join(c["argv"]),
    )
    def test_refuses_with_the_cli_message(self, case):
        kwargs, _ = verify_arguments(case["argv"])
        with pytest.raises(ValueError) as error:
            protspin.verify(**kwargs)
        assert case["stderr"] == f"error: {error.value}\n"

    def test_golden_covers_every_refusal(self):
        refused = " ".join(" ".join(c["argv"]) for c in GOLDEN_VERIFY if c["exit"] == 2)
        for flag in ("--cases 0", "--seed -1", "--exact-tol nan", "--exact-tol 0", "--first-order-tol inf"):
            assert flag in refused

    def test_defaults_are_the_cli_defaults(self):
        kwargs, _ = verify_arguments(["verify"])
        defaults = {name: p.default for name, p in inspect.signature(protspin.verify).parameters.items()}
        assert defaults == kwargs


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_oracle_non_convergence_is_exit_3(self, capsys, monkeypatch):
        def never_converges(*args, **kwargs):
            raise ConvergenceError("no convergence to 1e-10 within 4194304 steps")

        monkeypatch.setattr(protspin.cli, "propagate", never_converges)
        code, out, err = run(
            capsys, "multi", "--omega0T", "21", "--xi", "0.002", "0.0016", "0.0012", "--oracle",
        )
        assert code == 3
        assert out == ""
        assert err == "error: no convergence to 1e-10 within 4194304 steps\n"


# Argument lists that together reach every branch that reads an option.
_READER_ARGV = {
    "sweep": [
        ["--axis", "xi", "--min", "0", "--max", "0.5", "--count", "2", "--spacing", "linear",
         "--gamma", "90", "--omega0T", "5", "--methods", "exact,oracle",
         "--profile", "constant", "--steps", "8", "--gnuplot", "--format", "csv"],
        ["--axis", "gamma", "--min", "10", "--max", "20", "--count", "2", "--xi", "0.1"],
    ],
    "coupling": [
        ["shape", "--count", "3"],
        ["ratio", "--min", "20", "--max", "40", "--count", "2", "--spacing", "linear", "--gnuplot"],
    ],
    "multi": [
        ["--omega0T", "3", "--xi", "0.1", "0.1", "0.1", "--gamma", "90", "90", "0",
         "--eta", "0", "90", "0", "--relaxed", "--oracle", "--steps", "8"],
    ],
    "reversal": [["--xi", "0.1", "--gamma", "90", "--omega0T", "5"]],
    "reconstruct": [
        ["--gamma", "45", "--eta", "10"],
        ["--expectations", "0", "0", "1"],
    ],
    "design": [
        ["--config", "{config}", "--mu", "1e-23", "--mass", "1e-25", "--b0", "2",
         "--grad-b1", "3", "--d", "0.2", "--t-oven", "400", "--gamma", "30",
         "--target-displacement", "5e-4", "--p-max", "0.01"],
    ],
    "verify": [
        ["--cases", "1", "--seed", "7", "--exact-tol", "1e-10", "--first-order-tol", "1e-4"],
    ],
}


class _ReadRecorder(argparse.Namespace):
    """Namespace that records the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_every_option_is_read(tmp_path):
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert set(subparsers) == set(_READER_ARGV)
    config = tmp_path / "lab.json"
    config.write_text(json.dumps({
        "species": "potassium", "b0_tesla": 10.0, "grad_b1_tesla_per_meter": 20.0,
        "d_meter": 0.1, "t_oven_kelvin": 500.0, "gamma_deg": 45.0,
    }))
    unread = {}
    for command, argv_list in _READER_ARGV.items():
        reads = set()
        for k, argv in enumerate(argv_list):
            argv = [a.format(config=config) for a in argv]
            output = tmp_path / f"{command}{k}.out"
            args = _ReadRecorder()
            parser.parse_args([command, *argv, "--output", str(output)], namespace=args)
            if args.format is None:
                args.format = "csv" if args.table else "json"
            args._reads.clear()
            assert args.func(args) == 0
            assert output.exists()
            reads |= args._reads
        dests = {a.dest for a in subparsers[command]._actions if a.dest != "help"}
        if dests - reads:
            unread[command] = sorted(dests - reads)
    assert unread == {}


_SWEEP = "sweep --axis xi --min 0.1 --max 0.3 --count 3 --gamma 60"
_MULTI = "multi --omega0T 21 --xi 0.002 0.0016 0.0012"

# Every option of every subcommand -> runs (argv without the option, the
# option's words).  Giving the option must change the exit code, stdout or
# written files of each run: where it is read, or where it is refused.
_ACTS = {
    "sweep": {
        "--output": [(_SWEEP, "--output table.csv")],
        "--format": [(_SWEEP, "--format json")],
        "--axis": [("sweep --min 0.1 --max 0.3 --count 2 --gamma 60", "--axis xi")],
        "--min": [("sweep --axis xi --max 0.3 --count 2 --gamma 60", "--min 0.1")],
        "--max": [("sweep --axis xi --min 0.1 --count 2 --gamma 60", "--max 0.3")],
        "--count": [("sweep --axis xi --min 0.1 --max 0.3 --gamma 60", "--count 2")],
        "--spacing": [(_SWEEP, "--spacing log")],
        "--xi": [("sweep --axis gamma --min 10 --max 20 --count 2", "--xi 0.1"), (_SWEEP, "--xi 0.5")],
        "--gamma": [("sweep --axis xi --min 0.1 --max 0.3 --count 2", "--gamma 60"),
                    ("sweep --axis gamma --min 10 --max 20 --count 2 --xi 0.1", "--gamma 45")],
        "--omega0T": [(f"{_SWEEP} --methods exact", "--omega0T 5"),
                      (f"{_SWEEP} --methods envelope", "--omega0T 7")],
        "--methods": [(_SWEEP, "--methods taylor")],
        "--profile": [(f"{_SWEEP} --omega0T 20 --methods first-order", "--profile raised-cosine")],
        "--steps": [(f"{_SWEEP} --omega0T 5 --methods oracle --profile raised-cosine", "--steps 8"),
                    (_SWEEP, "--steps 16")],
        "--gnuplot": [(f"{_SWEEP} --output table.csv", "--gnuplot"), (_SWEEP, "--gnuplot"),
                      (f"{_SWEEP} --output table.json --format json", "--gnuplot")],
    },
    "coupling": {
        "--output": [("coupling shape --count 3", "--output shape.csv")],
        "--format": [("coupling shape --count 3", "--format json")],
        "--count": [("coupling shape", "--count 3")],
        "--min": [("coupling ratio --count 2", "--min 20"), ("coupling shape --count 3", "--min 50")],
        "--max": [("coupling ratio --count 2", "--max 40"), ("coupling shape --count 3", "--max 60")],
        "--spacing": [("coupling ratio --count 3", "--spacing linear"),
                      ("coupling shape --count 3", "--spacing linear")],
        "--gnuplot": [("coupling ratio --count 2 --output ratio.csv", "--gnuplot"),
                      ("coupling ratio --count 2", "--gnuplot")],
    },
    "multi": {
        "--output": [(_MULTI, "--output multi.json")],
        "--format": [(_MULTI, "--format csv")],
        "--omega0T": [("multi --xi 0.002 0.0016 0.0012", "--omega0T 21")],
        "--xi": [("multi --omega0T 21", "--xi 0.002 0.0016 0.0012")],
        "--gamma": [(f"{_MULTI} --relaxed", "--gamma 90 80 0")],
        "--eta": [(_MULTI, "--eta 90 180 0")],
        "--relaxed": [("multi --omega0T 5 --xi 0.1 0.1 0.1 --gamma 90 80 0", "--relaxed")],
        "--oracle": [(_MULTI, "--oracle")],
        "--steps": [(f"{_MULTI} --oracle", "--steps 16"), (_MULTI, "--steps 16")],
    },
    "reversal": {
        "--output": [("reversal --xi 0.2 --gamma 90", "--output reversal.json")],
        "--format": [("reversal --xi 0.2 --gamma 90", "--format csv")],
        "--xi": [("reversal --gamma 90", "--xi 0.2")],
        "--gamma": [("reversal --xi 0.2", "--gamma 90")],
        "--omega0T": [("reversal --xi 0.2 --gamma 90", "--omega0T 11")],
    },
    "reconstruct": {
        "--output": [("reconstruct --gamma 45", "--output rho.json")],
        "--format": [("reconstruct --gamma 45", "--format csv")],
        "--gamma": [("reconstruct", "--gamma 45")],
        "--eta": [("reconstruct --gamma 45", "--eta 30"), ("reconstruct --expectations 0 0 1", "--eta 30")],
        "--expectations": [("reconstruct", "--expectations 0 0 1")],
    },
    "design": {
        "--output": [("design", "--output design.json")],
        "--format": [("design", "--format csv")],
        "--config": [("design", "--config explicit_lab.json")],
        **{flag: [("design", f"{flag} {value}")] for flag, value in (
            ("--mu", "1.5e-23"), ("--mass", "1e-25"), ("--b0", "2"), ("--grad-b1", "3"),
            ("--d", "0.2"), ("--t-oven", "400"), ("--gamma", "30"),
            ("--target-displacement", "5e-4"), ("--p-max", "0.01"),
        )},
    },
    "verify": {
        "--output": [("verify --cases 1", "--output verify.json")],
        "--format": [("verify --cases 1", "--format csv")],
        "--cases": [("verify", "--cases 1")],
        "--seed": [("verify --cases 1", "--seed 7")],
        "--exact-tol": [("verify --cases 1", "--exact-tol 1e-9")],
        "--first-order-tol": [("verify --cases 1", "--first-order-tol 1e-3")],
    },
}


def test_every_option_acts(tmp_path):
    """No option is a no-op: each changes some run, and one it refuses names it."""
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    options = {
        command: {a.option_strings[-1] for a in sub._actions if a.option_strings and a.dest != "help"}
        for command, sub in subparsers.items()
    }
    assert options == {command: set(runs) for command, runs in _ACTS.items()}
    for command, runs in _ACTS.items():
        for option, cases in runs.items():
            for k, (base, words) in enumerate(cases):
                results = []
                for side, argv in enumerate((shlex.split(base), [*shlex.split(base), *shlex.split(words)])):
                    directory = tmp_path / f"{command}{option}{k}-{side}"
                    directory.mkdir()
                    case = run_case(argv, directory)
                    results.append((case["exit"], case["stdout"], case["written"], case["stderr"]))
                without, given = results
                assert given[:3] != without[:3], (base, words)
                if given[0] == 2 and without[0] == 0:
                    assert given[3].count("\n") == 1 and option in given[3], (base, words, given[3])


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--axis", "xi", "--min", "0", "--max", "1", "--gamma", "90"),
        ("coupling", "shape"),
        ("multi", "--omega0T", "5", "--xi", "0.1", "0.1", "0.1"),
        ("reversal", "--xi", "0.1", "--gamma", "90"),
        ("reconstruct", "--gamma", "45"),
        ("design",),
    ],
    ids=lambda argv: argv[0],
)
def test_seed_is_rejected_where_nothing_is_random(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "1")
    assert code == 2
    assert out == ""
    assert "--seed" in err


_GOLDEN = json.loads(GOLDEN.read_text())


def test_golden_file_matches_its_cases():
    assert [case["argv"] for case in _GOLDEN] == all_argv()
    frozen = {tuple(case["argv"]): case["stdout"] for case in _GOLDEN}
    for case in json.loads(BENCH_CASES.read_text()):
        assert frozen[tuple(case["argv"])] == case["stdout"]


@pytest.mark.parametrize(
    "case", _GOLDEN, ids=lambda case: " ".join(case["argv"]) or "no-arguments"
)
def test_output_is_frozen(tmp_path, case):
    """Exit code, stdout, stderr and written files match tests/data/cli_golden.json."""
    assert run_case(case["argv"], tmp_path) == case


def _case(*argv):
    return next(case for case in _GOLDEN if case["argv"] == list(argv))


class TestSharedParser:
    """main builds the parser once per process; no call may leave state for the next."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_golden_file_replays_twice_in_one_process(self, tmp_path):
        shuffled = list(_GOLDEN)
        random.Random(20151215).shuffle(shuffled)
        for n, cases in enumerate((_GOLDEN, shuffled)):
            for k, case in enumerate(cases):
                directory = tmp_path / f"{n}-{k}"
                directory.mkdir()
                assert run_case(case["argv"], directory) == case, (n, case["argv"])

    def test_errors_and_help_leave_no_state(self, tmp_path):
        for k, argv in enumerate([
            ["sweep", "--axis", "nope", "--min", "0", "--max", "1"],
            ["--help"],
            ["sweep", "--help"],
            ["multi", "--omega0T", "5", "--xi", "0.1", "0.1"],
        ]):
            (tmp_path / f"first{k}").mkdir()
            assert run_case(argv, tmp_path / f"first{k}")["exit"] in (0, 2)
        case = _case("multi", "--omega0T", "21", "--xi", "0.002", "0.0016", "0.0012")
        (tmp_path / "last").mkdir()
        assert run_case(case["argv"], tmp_path / "last") == case

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]], ids=" ".join)
    def test_help_reads_the_terminal_width_per_call(self, capsys, tmp_path, argv):
        texts = {}
        for columns in ("40", "120"):
            with mock.patch.dict(os.environ, {"COLUMNS": columns}):
                assert main(argv) == 0
            texts[columns] = capsys.readouterr().out
        case = _case(*argv)
        assert texts["40"] != case["stdout"] != texts["120"]
        assert run_case(argv, tmp_path) == case


# Floats at the edges of the double range, where overflow, underflow and
# cancellation have broken the CLI before, and a few ordinary values.
_EDGE_FLOATS = (
    0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-150, 1e-3, 0.5, 1.0, 2.0, 13.0, 90.0, 180.0, 4000.0,
    1e80, 1e154, 1e200, 1e300, 1.7e308, -1.0, -90.0, -1e300, math.inf, -math.inf, math.nan,
)
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())


def _number(x):
    """x as one argv word that argparse reads as a value, never as an option."""
    if x < 0.0 or math.copysign(1.0, x) < 0.0:
        # a negative value must match argparse's plain-decimal pattern
        return format(Decimal(x), "f") if math.isfinite(x) else None
    return repr(x)


@st.composite
def _options(draw, **specs):
    """'--name=value' words for a random subset of the options in specs."""
    words = []
    for name, (strategy, required) in specs.items():
        if required or draw(st.booleans()):
            words.append(f"--{name}={draw(strategy)}")
    return words


@st.composite
def _triple(draw, name):
    values = draw(st.lists(_floats.map(_number).filter(bool), min_size=3, max_size=3))
    return [f"--{name}", *values]


_formats = st.sampled_from(["csv", "json"])
_counts = st.sampled_from([-1, 0, 1, 2, 3, 5])
# Fixed oracle step counts: on multi's three constant segments 1-3 steps come to
# one step each (the scalar path) and 16 to five each (the array kernel); on
# sweep's one segment only 1 is scalar.
_steps = st.sampled_from([1, 2, 3, 16])
# a table to stdout or to a file in the example's directory, with or without
# the gnuplot stub, which needs CSV in a file
_table_output = st.tuples(
    st.sampled_from([[], ["--output={dir}/table"]]), st.sampled_from([[], ["--gnuplot"]])
).map(lambda parts: parts[0] + parts[1])

_SWEEP_AXES = dict(
    axis=(st.sampled_from(["xi", "gamma", "omega0T"]), True),
    min=(_floats, True),
    max=(_floats, True),
    count=(_counts, True),
    spacing=(st.sampled_from(["linear", "log"]), False),
    xi=(_floats, False),
    gamma=(_floats, False),
    omega0T=(_floats, False),
)
_CLOSED_FORMS = ["exact", "envelope", "taylor", "first-order"]

_COMMANDS = {
    "sweep": st.one_of(
        st.tuples(
            _options(
                **_SWEEP_AXES,
                methods=(st.sets(st.sampled_from(_CLOSED_FORMS), min_size=1).map(",".join), False),
                profile=(st.sampled_from(["constant", "raised-cosine", "optimized"]), False),
                steps=(_steps, False),
            ),
            _table_output,
        ),
        # the oracle on the constant profile: one scalar step (_run_static),
        # or a fixed step count
        st.tuples(
            _options(
                **_SWEEP_AXES,
                methods=(st.sets(st.sampled_from(_CLOSED_FORMS)).map(lambda m: ",".join(["oracle", *m])),
                         True),
                profile=(st.just("constant"), False),
                steps=(_steps, False),
            ),
            _table_output,
        ),
        # the driven oracle on a shaped profile, at a fixed step count
        st.tuples(
            _options(
                **_SWEEP_AXES,
                methods=(st.sampled_from(["oracle", "first-order,oracle"]), True),
                profile=(st.sampled_from(["raised-cosine", "optimized"]), True),
                steps=(st.just(16), True),
            ),
        ),
    ),
    "reversal": st.tuples(
        _options(xi=(_floats, True), gamma=(_floats, True), omega0T=(_floats, False)),
    ),
    "reconstruct": st.one_of(
        st.tuples(_options(gamma=(_floats, True), eta=(_floats, False))),
        st.tuples(_triple("expectations"), _options(eta=(_floats, False))),
    ),
    "design": st.tuples(
        _options(**{
            name: (_floats, False)
            for name in ("mu", "mass", "b0", "grad-b1", "d", "t-oven", "gamma",
                         "target-displacement", "p-max")
        }),
    ),
    "multi": st.tuples(
        _options(omega0T=(_floats, True)),
        _triple("xi"),
        st.one_of(st.just([]), _triple("gamma")),
        st.one_of(st.just([]), _triple("eta")),
        st.sampled_from([[], ["--relaxed"]]),
        st.one_of(st.sampled_from([[], ["--oracle"]]), _steps.map(lambda n: ["--oracle", f"--steps={n}"]),
                  _steps.map(lambda n: [f"--steps={n}"])),
    ),
    "coupling": st.tuples(
        st.sampled_from([["ratio"], ["shape"]]),
        _options(min=(_floats, False), max=(_floats, False), count=(_counts, False),
                 spacing=(st.sampled_from(["linear", "log"]), False)),
        _table_output,
    ),
    "verify": st.tuples(
        _options(cases=(st.sampled_from([-1, 0, 1, 2]), True), seed=(st.integers(-1, 2 ** 64), False),
                 **{"exact-tol": (_floats, False), "first-order-tol": (_floats, False)}),
    ),
}


@given(st.one_of(*(st.tuples(st.just(command), _formats, parts) for command, parts in _COMMANDS.items())))
@settings(deadline=1000)
def test_exit_code_contract(argv):
    """Any input ends in exit 0, 2 or 3 (or 1 from verify) with at most one 'error:' line, never a NaN.

    Every subcommand, in process, with the floats at the edges of the double
    range and counts below 2: the closed forms, the static oracle (`sweep
    --methods oracle` on the constant profile, `multi --oracle`: one scalar
    step per segment at any omega0T, or a fixed --steps of 1, 2, 3 or 16),
    the driven oracle at 16 steps (`sweep` on a shaped profile), `verify` at
    --cases -1 to 2, and the options a run refuses to ignore.
    """
    command, fmt, parts = argv
    words = [command, f"--format={fmt}", *(word for part in parts for word in part)]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([word.replace("{dir}", tmp) for word in words])
    out, err = out.getvalue(), err.getvalue()
    assert code in ((0, 1, 2, 3) if command == "verify" else (0, 2, 3)), (words, err)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), (words, err)
    if code == 0:
        assert "nan" not in out.lower(), (words, out)
