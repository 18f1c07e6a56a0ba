"""First-order perturbative amplitudes, envelopes, and reduction ratios."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protspin import (
    CouplingProfile,
    HamiltonianSchedule,
    MeasurementGeometry,
    ProfileKind,
    SpinState,
    amplitude_exact,
    envelope_closed_form,
    first_order_amplitude,
    propagate,
    reduction_ratio,
)
from protspin import core
import reference
from helpers import (
    outcome,
    panel_omegas,
    reference_knot_integral,
    reference_reduction_ratio,
    signed_profiles,
)

BUILTINS = [
    CouplingProfile.constant(),
    CouplingProfile.raised_cosine(),
    CouplingProfile.optimized(),
]

geometries = st.builds(
    MeasurementGeometry,
    xi=st.floats(min_value=0.0, max_value=2.0),
    gamma=st.floats(min_value=0.0, max_value=math.pi),
    eta=st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9),
    omega0T=st.floats(min_value=0.0, max_value=1.0e3),
)


class TestFirstOrderAmplitude:
    def test_constant_magnitude_formula(self):
        geom = MeasurementGeometry(xi=0.2, gamma=1.0, eta=0.5, omega0T=9.0)
        res = first_order_amplitude(CouplingProfile.constant(), geom)
        x = 4.5
        expected = x * 0.2 * math.sin(1.0) * abs(math.sin(x) / x)
        assert abs(abs(res.amplitude) - expected) < 1e-14

    def test_aligned_field_gives_zero(self):
        geom = MeasurementGeometry(xi=0.3, gamma=0.0, omega0T=15.0)
        for profile in BUILTINS:
            assert first_order_amplitude(profile, geom).amplitude == 0.0

    def test_raised_cosine_at_spectral_zero(self):
        geom = MeasurementGeometry(xi=0.1, gamma=math.pi / 2, omega0T=20.0 * math.pi)
        res = first_order_amplitude(CouplingProfile.raised_cosine(), geom)
        assert abs(res.amplitude) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_constant_zeros_at_full_periods(self, k):
        geom = MeasurementGeometry(xi=0.1, gamma=1.0, omega0T=2.0 * math.pi * k)
        assert abs(first_order_amplitude(CouplingProfile.constant(), geom).amplitude) < 1e-12

    def test_result_carries_profile_kind(self):
        geom = MeasurementGeometry(xi=0.1, gamma=1.0, omega0T=30.0)
        res = first_order_amplitude(CouplingProfile.optimized(), geom)
        assert res.profile_kind is ProfileKind.OPTIMIZED

    @pytest.mark.parametrize("profile", BUILTINS, ids=lambda p: p.kind.value)
    @given(geom=geometries)
    # subnormal sin(gamma): the amplitude rounds up by a subnormal step
    @example(geom=MeasurementGeometry(xi=1.0, gamma=5e-324, eta=0.0, omega0T=2.0))
    @settings(max_examples=60, deadline=None)
    def test_amplitude_within_reported_envelope(self, profile, geom):
        res = first_order_amplitude(profile, geom)
        assert abs(res.amplitude) <= res.envelope_magnitude * (1.0 + 1e-9)

    def test_tabulated_amplitude_within_reported_envelope(self):
        prof = CouplingProfile.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)])
        for omega in [0.5, 3.0, 12.0, 80.0]:
            geom = MeasurementGeometry(xi=0.3, gamma=1.2, eta=0.4, omega0T=omega)
            res = first_order_amplitude(prof, geom)
            assert abs(res.amplitude) <= res.envelope_magnitude * (1.0 + 1e-9)

    def test_tabulated_l1_bound_matches_loop_trapezoid(self):
        rng = np.random.default_rng(5)
        s = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 511)), [1.0]))
        v = np.sin(9.0 * s) + 0.3
        v /= float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(s)))
        prof = CouplingProfile.tabulated(zip(s.tolist(), v.tolist()))
        # the trapezoid of |gT| summed term by term over the sample tuples
        total = 0.0
        for (s0, v0), (s1, v1) in zip(prof.samples, prof.samples[1:]):
            total += 0.5 * (abs(v0) + abs(v1)) * (s1 - s0)
        assert abs(prof._panels.abs_area - total) <= 1e-13 * total
        assert total > 1.0  # the profile changes sign, so int |gT| > int gT = 1

    def test_tabulated_results_keep_their_bits(self, monkeypatch):
        # The stored |gT| trapezoid and first-order amplitudes repr-equal what
        # per-call set-up of the knot panels gave.
        profiles = signed_profiles(seed=21)
        geoms = [
            MeasurementGeometry(xi=0.3, gamma=1.1, eta=0.4, omega0T=omega) for omega in panel_omegas(seed=22)
        ]
        results = [repr(first_order_amplitude(prof, geom)) for prof in profiles for geom in geoms]
        monkeypatch.setattr(
            core, "_knot_integral", lambda prof, omega: reference_knot_integral(*prof._knots, omega)
        )
        assert [repr(first_order_amplitude(prof, geom)) for prof in profiles for geom in geoms] == results
        for prof in profiles:
            s, v = prof._knots
            a = abs(v)
            expected = 0.5 * math.fsum(((a[:-1] + a[1:]) * (s[1:] - s[:-1])).tolist())
            assert repr(prof._panels.abs_area) == repr(expected)

    def test_quadratic_deviation_from_exact_under_halving(self):
        # deviation from the static-field closed form scales as xi^2
        devs = []
        for xi in [2e-3, 1e-3, 5e-4]:
            geom = MeasurementGeometry(xi=xi, gamma=math.pi / 4, omega0T=20.0)
            d = abs(
                amplitude_exact(geom).amplitude_minus
                - first_order_amplitude(CouplingProfile.constant(), geom).amplitude
            )
            devs.append(d)
        for ratio in (devs[0] / devs[1], devs[1] / devs[2]):
            assert abs(ratio - 4.0) < 0.2

    @pytest.mark.parametrize("profile", BUILTINS, ids=lambda p: p.kind.value)
    def test_deviation_against_oracle_shrinks_superlinearly(self, profile):
        scaled = []
        for xi in [1e-2, 1e-3]:
            geom = MeasurementGeometry(xi=xi, gamma=math.radians(55.0), eta=0.4, omega0T=20.0)
            state = propagate(HamiltonianSchedule.single(geom, profile), SpinState.plus())
            dev = abs(state.c_minus - first_order_amplitude(profile, geom).amplitude)
            scaled.append(dev / xi)
        # dev/xi itself decays linearly in xi
        assert 5.0 < scaled[0] / scaled[1] < 20.0


class TestOverflowingAmplitude:
    """Where (omega0T/2) xi overflows, the amplitude is 0 or refused, never NaN."""

    @pytest.mark.parametrize("gamma", [0.0, -0.0])
    @pytest.mark.parametrize("profile", BUILTINS, ids=lambda p: p.kind.value)
    def test_zero_where_the_field_is_axial(self, profile, gamma):
        geom = MeasurementGeometry(xi=1e300, gamma=gamma, omega0T=1.7e308)
        assert first_order_amplitude(profile, geom).amplitude == 0.0

    @pytest.mark.parametrize("profile", BUILTINS, ids=lambda p: p.kind.value)
    def test_refused_elsewhere(self, profile):
        geom = MeasurementGeometry(xi=1e300, gamma=3.0, omega0T=1.7e308)
        with pytest.raises(ValueError, match=r"xi=1e\+300, omega0T=1.7e\+308"):
            first_order_amplitude(profile, geom)


class TestEnvelopeClosedForm:
    def test_constant(self):
        geom = MeasurementGeometry(xi=0.1, gamma=math.pi / 2, omega0T=100.0)
        assert abs(envelope_closed_form(ProfileKind.CONSTANT, geom) - 0.1) < 1e-15

    def test_raised_cosine_relative_to_constant(self):
        geom = MeasurementGeometry(xi=0.1, gamma=math.pi / 2, omega0T=20.0 * math.pi)
        x = 10.0 * math.pi
        ratio = envelope_closed_form(ProfileKind.RAISED_COSINE, geom) / envelope_closed_form(
            ProfileKind.CONSTANT, geom
        )
        assert abs(ratio - math.pi**2 / x**2) < 1e-15
        assert abs(envelope_closed_form(ProfileKind.RAISED_COSINE, geom) - 1e-3) < 1e-15

    def test_optimized_relative_to_constant(self):
        geom = MeasurementGeometry(xi=0.1, gamma=math.pi / 2, omega0T=20.0 * math.pi)
        ratio = envelope_closed_form(ProfileKind.OPTIMIZED, geom) / envelope_closed_form(
            ProfileKind.CONSTANT, geom
        )
        assert abs(ratio - 4e-4) < 1e-15

    def test_tabulated_unsupported(self):
        geom = MeasurementGeometry(xi=0.1, gamma=1.0, omega0T=100.0)
        with pytest.raises(ValueError):
            envelope_closed_form(ProfileKind.TABULATED, geom)

    @pytest.mark.parametrize(
        "xi, omega0T",
        [(1e300, 2e80), (1.0, 2.0**257), (1e308, 2e100), (1e308, 13.0), (1.7e308, 8e154), (1.0, 1e200)],
    )
    def test_past_the_power_overflow(self, xi, omega0T):
        # x**4 overflows past x = 2^256, x**2 past 2^512, xi 4 pi^4 past 4.6e305
        geom = MeasurementGeometry(xi=xi, gamma=math.pi / 2, omega0T=omega0T)
        with reference.context():
            x = Decimal(omega0T) / 2
            base = Decimal(xi) * reference.sin(geom.gamma)
            for kind, ref in [
                (ProfileKind.RAISED_COSINE, base * reference.PI ** 2 / x**2),
                (ProfileKind.OPTIMIZED, 4 * base * reference.PI ** 4 / x**4),
            ]:
                value = envelope_closed_form(kind, geom)
                assert abs(Decimal(value) - ref) <= Decimal(1e-15) * ref + Decimal(5e-324), kind

    @pytest.mark.parametrize("kind", [ProfileKind.RAISED_COSINE, ProfileKind.OPTIMIZED])
    def test_smooth_kinds_refuse_small_budgets(self, kind):
        geom = MeasurementGeometry(xi=0.1, gamma=1.0, omega0T=4.0 * math.pi - 0.1)
        with pytest.raises(ValueError):
            envelope_closed_form(kind, geom)


class TestReductionRatio:
    def test_constant_is_unity(self):
        assert reduction_ratio(ProfileKind.CONSTANT, 77.0) == 1.0

    def test_pinned_values_at_reference_budget(self):
        omega = 20.0 * math.pi
        assert abs(reduction_ratio(ProfileKind.RAISED_COSINE, omega) / 1e-4 - 1.0) < 1e-12
        assert abs(reduction_ratio(ProfileKind.OPTIMIZED, omega) / 1.6e-7 - 1.0) < 1e-12

    def test_refuses_small_budgets(self):
        with pytest.raises(ValueError):
            reduction_ratio(ProfileKind.RAISED_COSINE, 4.0 * math.pi - 1e-3)

    @pytest.mark.parametrize(
        "kind,slope",
        [(ProfileKind.RAISED_COSINE, -4.0), (ProfileKind.OPTIMIZED, -8.0)],
    )
    def test_log_log_slope(self, kind, slope):
        omegas = np.geomspace(40.0, 4000.0, 25)
        ratios = np.array([reduction_ratio(kind, float(om)) for om in omegas])
        fit = np.polyfit(np.log(omegas), np.log(ratios), 1)
        assert abs(fit[0] - slope) < 0.05


class TestReductionRatioMatchesTwoEnvelopes:
    """reduction_ratio equals (env/base)^2 of two envelope_closed_form calls on a reference geometry."""

    FOUR_PI = 4.0 * math.pi
    OMEGAS = (
        [FOUR_PI, math.nextafter(FOUR_PI, 0.0), FOUR_PI - 1e-9, FOUR_PI - 1e-3, math.nextafter(FOUR_PI, 20.0)]
        + np.geomspace(FOUR_PI, 1e308, 61).tolist()
        # past 2^257 x^4 and past 2^513 x^2 overflow: the frexp branch
        + [2.0**257, 2.0**258, 2.0**513, 2.0**514, 2.0**600, 1e308, 1.7976931348623157e308]
    )

    @pytest.mark.parametrize("kind", list(ProfileKind))
    def test_equals_the_two_envelope_formula(self, kind):
        for omega0T in self.OMEGAS:
            assert outcome(reduction_ratio, kind, omega0T) == outcome(
                reference_reduction_ratio, kind, omega0T), omega0T

    @pytest.mark.parametrize("kind", list(ProfileKind))
    @pytest.mark.parametrize("omega0T", [math.nan, -1.0, math.inf, -math.inf, 4.0 * math.pi - 1e-3, 5.0, 0.0])
    def test_raises_what_the_two_envelope_formula_raises(self, kind, omega0T):
        got = outcome(reduction_ratio, kind, omega0T)
        assert got == outcome(reference_reduction_ratio, kind, omega0T)
        if kind is not ProfileKind.CONSTANT:
            assert got.startswith("ValueError: ")

    def test_error_order_is_omega0T_then_kind_then_budget(self):
        assert outcome(reduction_ratio, ProfileKind.TABULATED, math.nan) == (
            "ValueError: omega0T must be finite and >= 0, got nan")
        assert outcome(reduction_ratio, ProfileKind.TABULATED, 1.0) == (
            "ValueError: no closed-form envelope for tabulated profiles")
        assert outcome(reduction_ratio, ProfileKind.OPTIMIZED, 1.0).startswith(
            "ValueError: closed-form envelope for optimized requires omega0T >= 4*pi")
