"""Command-line surface: schemas, determinism, exit codes."""

import csv
import io
import json
import math

import numpy as np
import pytest

import protspin.cli
from protspin import ConvergenceError
from protspin.cli import main


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
        code, out, _ = run(capsys, "design", "--preset", "potassium")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["xi"] == pytest.approx(0.2, abs=1e-15)
        assert payload["report"]["p_minus_taylor"] == pytest.approx(0.02, abs=1e-15)

    def test_aligned_gradient_never_disturbs(self, capsys):
        _, out, _ = run(capsys, "design", "--preset", "potassium", "--gamma", "0")
        payload = json.loads(out)
        assert payload["report"]["p_minus_envelope"] == 0.0

    def test_budget_scale_at_unit_field(self, capsys):
        _, out, _ = run(capsys, "design", "--preset", "potassium", "--b0", "1")
        payload = json.loads(out)
        assert 3.7e7 < payload["report"]["omega0T"] < 4.0e7

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
