"""SI-unit bridge from beam-line parameters to the dimensionless model."""

import dataclasses
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protspin import (
    LabParameters,
    MeasurementGeometry,
    amplitude_envelope,
    derive_report,
    required_gradient,
    xi_budget,
)
from protspin.design import ATOMIC_MASS_UNIT, BOLTZMANN, HBAR, POTASSIUM_MASS, POTASSIUM_MU


class TestLabParameters:
    def test_potassium_preset(self):
        lab = LabParameters.potassium()
        assert lab.mu == 9.3e-24
        assert abs(lab.mass - 39.0 * ATOMIC_MASS_UNIT) < 1e-40
        assert lab.b0 == 10.0
        assert lab.t_oven == 500.0

    @pytest.mark.parametrize("field", ["mu", "mass", "b0", "grad_b1", "d", "t_oven"])
    def test_rejects_nonpositive_magnitudes(self, field):
        kwargs = dict(mu=9.3e-24, mass=6.5e-26, b0=1.0, grad_b1=1.0, d=0.1, t_oven=300.0)
        kwargs[field] = 0.0
        with pytest.raises(ValueError):
            LabParameters(**kwargs)

    def test_rejects_angle_outside_range(self):
        with pytest.raises(ValueError):
            LabParameters.potassium(gamma=3.5)

    def test_from_config_with_species(self):
        lab = LabParameters.from_config(
            {
                "species": "potassium-39",
                "b0_tesla": 2.0,
                "grad_b1_tesla_per_meter": 5.0,
                "d_meter": 0.2,
                "t_oven_kelvin": 450.0,
                "gamma_deg": 90.0,
            }
        )
        assert lab.mu == POTASSIUM_MU
        assert lab.mass == POTASSIUM_MASS
        assert abs(lab.gamma - math.pi / 2) < 1e-15

    def test_from_config_reports_missing_field_by_name(self):
        with pytest.raises(ValueError, match="d_meter"):
            LabParameters.from_config(
                {
                    "species": "potassium",
                    "b0_tesla": 2.0,
                    "grad_b1_tesla_per_meter": 5.0,
                    "t_oven_kelvin": 450.0,
                    "gamma_deg": 90.0,
                }
            )

    @pytest.mark.parametrize("value", [None, [10.0], {"value": 10.0}, "ten", True, False, "10", 10**400])
    def test_from_config_names_a_non_numeric_field(self, value):
        config = {
            "species": "potassium",
            "b0_tesla": value,
            "grad_b1_tesla_per_meter": 20.0,
            "d_meter": 0.1,
            "t_oven_kelvin": 500.0,
            "gamma_deg": 45.0,
        }
        with pytest.raises(ValueError, match="^config field b0_tesla must be a number, got "):
            LabParameters.from_config(config)

    def test_from_config_rejects_unknown_species(self):
        with pytest.raises(ValueError):
            LabParameters.from_config({"species": "cesium", "b0_tesla": 1.0})

    def test_from_json(self, tmp_path):
        path = tmp_path / "lab.json"
        path.write_text(
            json.dumps(
                {
                    "species": "k-39",
                    "b0_tesla": 10.0,
                    "grad_b1_tesla_per_meter": 20.0,
                    "d_meter": 0.1,
                    "t_oven_kelvin": 500.0,
                    "gamma_deg": 45.0,
                }
            )
        )
        lab = LabParameters.from_json(path)
        assert derive_report(lab).xi == pytest.approx(0.2, abs=1e-15)


class TestDeriveReport:
    def test_thermal_velocity(self):
        rep = derive_report(LabParameters.potassium())
        assert abs(rep.v - 461.7264870251387) < 1e-9
        assert abs(rep.v / 450.0 - 1.0) < 0.03

    def test_transit_time(self):
        rep = derive_report(LabParameters.potassium())
        assert abs(rep.T - 0.1 / rep.v) < 1e-18
        assert abs(rep.T / 2.2e-4 - 1.0) < 0.03

    def test_precession_timescale(self):
        rep = derive_report(LabParameters.potassium(b0=1.0))
        assert 5e-12 < 1.0 / rep.omega0 < 7e-12
        assert abs(rep.omega0 - 2.0 * 9.3e-24 / HBAR) < 1e-3

    def test_adiabaticity_budget(self):
        rep = derive_report(LabParameters.potassium(b0=1.0))
        assert 3.7e7 < rep.omega0T < 4.0e7

    def test_field_strength_ratio(self):
        rep = derive_report(LabParameters.potassium())
        assert rep.xi == pytest.approx(20.0 * 0.1 / 10.0, abs=1e-15)

    def test_disturbance_shares_the_envelope_code_path(self):
        lab = LabParameters.potassium()
        rep = derive_report(lab)
        geom = MeasurementGeometry(xi=rep.xi, gamma=lab.gamma, omega0T=rep.omega0T)
        assert rep.p_minus == amplitude_envelope(geom).probability_minus
        assert abs(rep.p_minus - 0.015118955421832685) < 1e-15
        assert abs(rep.p_minus_taylor - 0.02) < 1e-15

    def test_frozen_displacement(self):
        rep = derive_report(LabParameters.potassium())
        expected = 9.3e-24 * 20.0 * math.cos(math.pi / 4) * 0.01 / (4.0 * BOLTZMANN * 500.0)
        assert abs(rep.delta_s - expected) < 1e-20
        assert abs(rep.delta_s - 4.7630448180782325e-05) < 1e-18

    def test_report_dict_uses_unit_bearing_names(self):
        d = derive_report(LabParameters.potassium()).as_dict()
        assert set(d) == {
            "v_meter_per_second",
            "t_second",
            "omega0_per_second",
            "omega0T",
            "xi",
            "p_minus_envelope",
            "p_minus_taylor",
            "delta_s_meter",
        }


    @pytest.mark.parametrize(
        "overrides, figure, inputs",
        [
            ({"b0": 1e300}, "omega0", "mu=9.3e-24, b0=1e+300"),
            ({"d": 1e300}, "omega0T", "d=1e+300"),
            ({"d": 1e200}, "delta_s", "grad_b1=20.0, d=1e+200, t_oven=500.0"),
            ({"t_oven": 1e-320}, "T", "t_oven=1e-320"),
            ({"grad_b1": 1e308, "d": 1e10}, "xi", "b0=10.0, grad_b1=1e+308, d=10000000000.0"),
        ],
    )
    def test_overflow_names_the_inputs(self, overrides, figure, inputs):
        with pytest.raises(ValueError, match=f"^{figure} = .* overflows at .*{re.escape(inputs)}"):
            derive_report(LabParameters.potassium(**overrides))

    def test_huge_field_ratio_keeps_the_envelope(self):
        rep = derive_report(LabParameters.potassium(grad_b1=1e300))
        assert rep.xi == pytest.approx(1e298, rel=1e-15)
        assert abs(rep.p_minus - 0.5) < 1e-15
        assert rep.p_minus_taylor == math.inf


class TestRequiredGradient:
    def test_round_trip_recovers_input_gradient(self):
        lab = LabParameters.potassium()
        assert abs(required_gradient(derive_report(lab).delta_s, lab) / lab.grad_b1 - 1.0) < 1e-9

    def test_long_beam_line_point(self):
        lab = LabParameters.potassium(d=1.0)
        assert abs(required_gradient(5e-4, lab) - 2.099497355566507) < 1e-12

    def test_doubling_length_quarters_the_gradient(self):
        short = required_gradient(1e-4, LabParameters.potassium(d=0.5))
        long = required_gradient(1e-4, LabParameters.potassium(d=1.0))
        assert abs(short / long - 4.0) < 1e-12

    def test_transverse_angle_has_no_solution(self):
        with pytest.raises(ValueError):
            required_gradient(1e-4, LabParameters.potassium(gamma=math.pi / 2))

    def test_underflowing_denominator_is_refused(self):
        # mu cos(gamma) d^2 rounds to 0
        lab = dataclasses.replace(LabParameters.potassium(d=1e-10), mu=1e-310)
        with pytest.raises(ValueError, match=r"mu=1e-310, gamma=0.785\d+, d=1e-10"):
            required_gradient(1e-3, lab)

    def test_target_must_be_positive(self):
        with pytest.raises(ValueError):
            required_gradient(0.0, LabParameters.potassium())

    @given(
        d=st.floats(min_value=0.01, max_value=10.0),
        t_oven=st.floats(min_value=100.0, max_value=1000.0),
        grad=st.floats(min_value=0.01, max_value=100.0),
        gamma=st.floats(min_value=0.0, max_value=math.pi / 2 - 0.05),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, d, t_oven, grad, gamma):
        lab = LabParameters.potassium(d=d, t_oven=t_oven, grad_b1=grad, gamma=gamma)
        assert abs(required_gradient(derive_report(lab).delta_s, lab) / grad - 1.0) < 1e-9


class TestXiBudget:
    def test_one_percent_budget(self):
        assert abs(xi_budget(0.01, LabParameters.potassium()) - 10.05037815259212) < 1e-12

    def test_unit_case(self):
        lab = LabParameters.potassium(b0=1.0, d=1.0)
        assert abs(xi_budget(0.5, lab) - 1.0) < 1e-15

    def test_full_budget_is_unbounded(self):
        assert xi_budget(1.0, LabParameters.potassium()) == math.inf

    def test_rejects_invalid_budget(self):
        with pytest.raises(ValueError):
            xi_budget(0.0, LabParameters.potassium())
