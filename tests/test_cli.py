"""Command-line surface: schemas, determinism, exit codes."""

import argparse
import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

import protspin.cli
from protspin import ConvergenceError, LabParameters, derive_report
from protspin.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_requires_exactly_one_mode(self, capsys):
        code, _, _ = run(capsys, "reconstruct")
        assert code == 2
        code, _, _ = run(capsys, "reconstruct", "--gamma", "10", "--expectations", "0", "0", "1")
        assert code == 2


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
         "--gamma", "90", "--eta", "10", "--omega0T", "5", "--methods", "exact,oracle",
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
    "reversal": [["--xi", "0.1", "--gamma", "90", "--eta", "10", "--omega0T", "5"]],
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
