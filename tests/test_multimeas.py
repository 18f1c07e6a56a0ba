"""Three-direction measurements: one combined field versus three in a row."""

import cmath
import math
import types
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import protspin
from protspin import (
    CouplingProfile,
    HamiltonianSchedule,
    MeasurementGeometry,
    MultiFieldConfig,
    SpinState,
    combined_field_geometry,
    direction_angles,
    direction_vector,
    first_order_amplitude,
    propagate,
    simultaneous_amplitude,
    simultaneous_schedule,
    successive_amplitude,
    successive_schedule,
    term_magnitudes,
)
from helpers import forbid_numpy_vector_algebra


def axes_config(xi1=0.05, xi2=0.05, xi3=0.05, omega0T=10.0):
    return MultiFieldConfig.axes(xi1, xi2, xi3, omega0T=omega0T)


class TestMultiFieldConfig:
    def test_axes_are_orthogonal(self):
        config = axes_config()
        assert config.orthogonal

    def test_requires_three_fields(self):
        fields = (MeasurementGeometry(xi=0.1, gamma=math.pi / 2, eta=0.0),) * 2
        with pytest.raises(ValueError):
            MultiFieldConfig(fields=fields, omega0T=5.0)

    def test_rejects_skewed_directions(self):
        fields = (
            MeasurementGeometry(xi=0.1, gamma=math.pi / 2, eta=0.0),
            MeasurementGeometry(xi=0.1, gamma=math.pi / 2, eta=0.3),
            MeasurementGeometry(xi=0.1, gamma=0.0, eta=0.0),
        )
        with pytest.raises(ValueError):
            MultiFieldConfig(fields=fields, omega0T=5.0)

    def test_relaxed_accepts_skewed_directions_with_flag(self):
        fields = (
            MeasurementGeometry(xi=0.1, gamma=math.pi / 2, eta=0.0),
            MeasurementGeometry(xi=0.1, gamma=math.pi / 2, eta=0.3),
            MeasurementGeometry(xi=0.1, gamma=0.0, eta=0.0),
        )
        config = MultiFieldConfig(fields=fields, omega0T=5.0, relaxed=True)
        assert not config.orthogonal

    def test_checks_count_then_omega0T_then_orthogonality(self):
        skewed = (
            MeasurementGeometry(xi=0.1, gamma=math.pi / 2, eta=0.0),
            MeasurementGeometry(xi=0.1, gamma=math.pi / 2, eta=0.3),
            MeasurementGeometry(xi=0.1, gamma=0.0, eta=0.0),
        )
        with pytest.raises(ValueError, match="exactly three fields required, got 2"):
            MultiFieldConfig(fields=skewed[:2], omega0T=-1.0)
        for omega0T in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"omega0T must be finite and >= 0, got {omega0T!r}"):
                MultiFieldConfig(fields=skewed, omega0T=omega0T)

    def test_stores_fields_with_its_omega0T(self):
        given_fields = (
            MeasurementGeometry(0.1, math.pi / 2, 0.0, omega0T=3.0),
            MeasurementGeometry(0.2, math.pi / 2, math.pi / 2),
            MeasurementGeometry(0.3, 0.0, 0.0, omega0T=1e9),
        )
        config = MultiFieldConfig(fields=given_fields, omega0T=12.0)
        assert config.fields == tuple(
            MeasurementGeometry(f.xi, f.gamma, f.eta, omega0T=12.0) for f in given_fields
        )
        segments = successive_schedule(config).segments
        assert len(segments) == 3
        assert all(seg.geom is f for seg, f in zip(segments, config.fields))


class TestConfigFieldsWithoutRevalidation:
    """A config rebuilds each field at its omega0T as MeasurementGeometry would, checking only omega0T."""

    @given(fields=st.tuples(*[
        st.builds(
            MeasurementGeometry,
            xi=st.floats(min_value=0.0, max_value=1e300),
            gamma=st.floats(min_value=0.0, max_value=math.pi),
            eta=st.floats(min_value=-1e3, max_value=1e3),
            omega0T=st.floats(min_value=0.0, max_value=1e300),
        )
        for _ in range(3)
    ]), omega0T=st.floats(min_value=0.0, max_value=1e300))
    @example(
        fields=(
            MeasurementGeometry(0.1, math.pi / 2, -1e-300),  # stored with eta = 2 pi, rebuilt with 0
            MeasurementGeometry(0.1, math.pi / 2, math.pi / 2),
            MeasurementGeometry(0.1, 0.0, 0.0),
        ),
        omega0T=7.0,
    )
    def test_fields_equal_rebuilt_geometries(self, fields, omega0T):
        config = MultiFieldConfig(fields=fields, omega0T=omega0T, relaxed=True)
        rebuilt = tuple(MeasurementGeometry(f.xi, f.gamma, f.eta, omega0T) for f in fields)
        assert all(type(f) is MeasurementGeometry for f in config.fields)
        assert repr(config.fields) == repr(rebuilt)

    def test_other_field_objects_are_validated_in_full(self):
        valid = types.SimpleNamespace(xi=0.2, gamma=0.5 * math.pi, eta=-0.5 * math.pi)
        axes = axes_config().fields
        config = MultiFieldConfig(fields=(axes[0], valid, axes[2]), omega0T=10.0)
        assert config.fields[1] == MeasurementGeometry(0.2, 0.5 * math.pi, -0.5 * math.pi, 10.0)
        for xi in (-1.0, math.nan, math.inf):
            bad = types.SimpleNamespace(xi=xi, gamma=0.5 * math.pi, eta=0.5 * math.pi)
            with pytest.raises(ValueError) as geom_error:
                MeasurementGeometry(bad.xi, bad.gamma, bad.eta, 10.0)
            with pytest.raises(ValueError) as config_error:
                MultiFieldConfig(fields=(axes[0], bad, axes[2]), omega0T=10.0)
            assert str(config_error.value) == str(geom_error.value)
            assert str(config_error.value).startswith("xi must be finite and >= 0")
        # as before, such a field fails on its own entries before a bad omega0T
        bad = types.SimpleNamespace(xi=0.1, gamma=math.nan, eta=0.0)
        with pytest.raises(ValueError, match="gamma must lie in"):
            MultiFieldConfig(fields=(bad,) + axes[1:], omega0T=math.nan)


class TestFieldSpecFactory:
    def test_returns_the_geometry(self):
        for k, eta in enumerate((0.3, -0.25, 2.0 * math.pi + 0.25), start=1):
            field = protspin.FieldSpec(0.1, 0.5, eta, direction_index=k)
            assert type(field) is MeasurementGeometry
            assert field == MeasurementGeometry(0.1, 0.5, eta)

    @pytest.mark.parametrize("index", [0, 4])
    def test_rejects_direction_index_outside_one_to_three(self, index):
        with pytest.raises(ValueError, match="direction_index must be 1, 2 or 3"):
            protspin.FieldSpec(0.1, 0.5, 0.0, direction_index=index)

    @pytest.mark.parametrize(
        "xi, gamma, eta",
        [
            (-0.1, 0.5, 0.0),
            (math.nan, 0.5, 0.0),
            (math.inf, 0.5, 0.0),
            (0.1, -0.01, 0.0),
            (0.1, math.pi + 0.01, 0.0),
            (0.1, math.nan, 0.0),
            (0.1, 0.5, math.inf),
            (0.1, 0.5, math.nan),
        ],
    )
    def test_rejects_what_geometry_rejects_with_same_message(self, xi, gamma, eta):
        with pytest.raises(ValueError) as geom_error:
            MeasurementGeometry(xi, gamma, eta)
        with pytest.raises(ValueError) as field_error:
            protspin.FieldSpec(xi, gamma, eta, direction_index=1)
        assert str(field_error.value) == str(geom_error.value)


# numpy's norm squares without scaling, so its sum underflows below ~1e-154
strengths = st.one_of(st.just(0.0), st.floats(min_value=1e-150, max_value=2.0))
fields_strategy = st.tuples(*[
    st.builds(
        MeasurementGeometry,
        xi=strengths,
        gamma=st.floats(min_value=0.0, max_value=math.pi),
        eta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    for _ in range(3)
])


def exact_azimuth(fields):
    """Azimuth of sum_k xi_k sin(gamma_k) (cos(eta_k), sin(eta_k)), summed in decimal."""
    with localcontext() as ctx:
        ctx.prec = 100
        hx = hy = Decimal(0)
        for f in fields:
            h = Decimal(f.xi) * Decimal(math.sin(f.gamma))
            hx += h * Decimal(math.cos(f.eta))
            hy += h * Decimal(math.sin(f.eta))
        scale = max(abs(hx), abs(hy))
        if scale == 0:
            return 0.0
        return math.atan2(float(hy / scale), float(hx / scale)) % (2.0 * math.pi)


def numpy_combined(fields):
    """combined_field_geometry's (xi, gamma, eta) through numpy's vector algebra."""
    w = np.zeros(3)
    for f in fields:
        w += f.xi * direction_vector(f.gamma, f.eta)
    scale = float(np.max(np.abs(w)))
    if scale == 0.0:
        return 0.0, 0.0, 0.0
    # scaled, so that the squares of a field near 1e-160 do not underflow
    xi = scale * float(np.linalg.norm(w / scale))
    gamma, eta = direction_angles(w / xi)
    if max(abs(w[0]), abs(w[1])) < 2.0 ** -969:
        # the products in direction_vector and xi * n round to subnormal steps
        eta = exact_azimuth(fields)
    return xi, gamma, eta


def _fields(*specs):
    return tuple(MeasurementGeometry(xi=xi, gamma=gamma, eta=eta) for xi, gamma, eta in specs)


class TestScalarGeometry:
    @given(fields=fields_strategy)
    # a subnormal polar angle: the azimuth was 2e-11 and pi/4 off
    @example(fields=_fields((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.375, 2.2250738585e-313, 1.0)))
    @example(fields=_fields((1.0, 5e-324, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    @example(fields=_fields((0.0, 0.0, 0.0), (1.0, 2.2e-311, 1.0), (0.5, 1e-320, 2.5)))
    # opposite z fields leave x = 1e-150 sin(pi); its square underflows
    @example(fields=_fields((1e-150, 0.0, 0.0), (0.0, 0.0, 0.0), (1e-150, math.pi, 0.0)))
    # two equal fields of subnormal horizontal part nearly cancel: the float
    # sums gave eta 1.7812499999999991, 1.55e-15 off the decimal reference
    @example(fields=_fields(
        (0.0, 0.0, 0.0), (0.078125, 1.1125369292536007e-308, 3.3125), (0.078125, 1.1125369292536007e-308, 0.25),
    ))
    def test_combined_geometry_matches_numpy(self, fields):
        combined = combined_field_geometry(MultiFieldConfig(fields, omega0T=3.0, relaxed=True))
        xi, gamma, eta = numpy_combined(fields)
        assert abs(combined.xi - xi) <= 1e-15 * max(1.0, xi)
        assert abs(combined.gamma - gamma) <= 1e-15
        # azimuth wraps; compare on the circle
        d = abs(combined.eta - eta)
        assert min(d, 2.0 * math.pi - d) <= 1e-15
        assert combined.omega0T == 3.0

    def test_tiny_field_keeps_its_direction(self):
        def combined(xi):
            fields = tuple(MeasurementGeometry(xi=x, gamma=1.0, eta=2.0) for x in (0.0, 0.0, xi))
            return combined_field_geometry(MultiFieldConfig(fields, omega0T=3.0, relaxed=True))

        tiny = combined(3e-199)
        assert abs(tiny.xi / 3e-199 - 1.0) < 1e-15
        assert abs(tiny.gamma - 1.0) < 1e-15
        assert abs(tiny.eta - 2.0) < 1e-15
        # a subnormal field keeps few digits, but still a nonzero field
        assert combined(5e-324).xi > 0.0

    @given(fields=fields_strategy)
    def test_orthogonality_flag_matches_numpy(self, fields):
        config = MultiFieldConfig(fields, omega0T=1.0, relaxed=True)
        dirs = [direction_vector(f.gamma, f.eta) for f in fields]
        worst = max(abs(float(np.dot(dirs[i], dirs[j]))) for i, j in ((0, 1), (0, 2), (1, 2)))
        if abs(worst - 1e-12) > 1e-15:
            assert config.orthogonal == (worst < 1e-12)

    def test_runs_without_numpy_vector_algebra(self, monkeypatch):
        fields = (
            MeasurementGeometry(xi=0.1, gamma=1.1, eta=0.4),
            MeasurementGeometry(xi=0.2, gamma=0.3, eta=2.0),
            MeasurementGeometry(xi=0.3, gamma=2.5, eta=5.0),
        )
        expected = combined_field_geometry(MultiFieldConfig(fields, omega0T=7.0, relaxed=True))
        forbid_numpy_vector_algebra(monkeypatch)
        config = MultiFieldConfig(fields, omega0T=7.0, relaxed=True)
        assert not config.orthogonal
        assert combined_field_geometry(config) == expected
        assert abs(combined_field_geometry(axes_config()).xi - 0.05 * math.sqrt(3.0)) < 1e-16
        assert direction_angles((0.0, 0.0, 1.0)) == (0.0, 0.0)

    def test_skew_message_names_the_worst_product(self):
        fields = (
            MeasurementGeometry(xi=0.1, gamma=math.pi / 2, eta=0.0),
            MeasurementGeometry(xi=0.1, gamma=math.pi / 2, eta=0.3),
            MeasurementGeometry(xi=0.1, gamma=0.0, eta=0.0),
        )
        with pytest.raises(ValueError, match=f"worst [|]n_i . n_j[|] = {math.cos(0.3)!r}"):
            MultiFieldConfig(fields=fields, omega0T=5.0)


class TestSimultaneousAmplitude:
    def test_single_active_field_reduces_to_single_measurement(self):
        config = axes_config(xi1=0.08, xi2=0.0, xi3=0.0, omega0T=13.0)
        geom = MeasurementGeometry(xi=0.08, gamma=math.pi / 2, eta=0.0, omega0T=13.0)
        single = first_order_amplitude(CouplingProfile.constant(), geom).amplitude
        assert abs(simultaneous_amplitude(config) - single) < 1e-15

    def test_all_axial_fields_give_zero(self):
        fields = (MeasurementGeometry(xi=0.1, gamma=0.0, eta=0.0),) * 3
        config = MultiFieldConfig(fields=fields, omega0T=8.0, relaxed=True)
        assert simultaneous_amplitude(config) == 0.0

    def test_spectral_zero_then_adjacent_maximum(self):
        at_zero = axes_config(omega0T=20.0 * math.pi)
        assert abs(simultaneous_amplitude(at_zero)) < 1e-12
        at_peak = axes_config(omega0T=21.0 * math.pi)
        assert abs(abs(simultaneous_amplitude(at_peak)) - 0.05 * math.sqrt(2.0)) < 1e-12

    def test_equals_single_measurement_of_combined_field(self):
        config = axes_config(xi1=0.03, xi2=0.05, xi3=0.02, omega0T=17.0)
        combined = combined_field_geometry(config)
        expected = first_order_amplitude(CouplingProfile.constant(), combined).amplitude
        assert abs(simultaneous_amplitude(config) - expected) < 1e-15


class TestOverflowingTerms:
    def test_axial_field_term_is_zero(self):
        # (omega0T/2) xi overflows on the z field, whose sin(gamma) is 0
        config = axes_config(xi1=0.0, xi2=0.0, xi3=1e80, omega0T=3.6e228)
        assert term_magnitudes(config) == [0.0, 0.0, 0.0]
        assert simultaneous_amplitude(config) == 0.0
        assert successive_amplitude(config) == 0.0

    def test_overflowing_term_is_refused(self):
        config = axes_config(xi1=1e200, xi2=0.0, xi3=0.0, omega0T=1.7e308)
        for amplitude in (simultaneous_amplitude, successive_amplitude):
            with pytest.raises(ValueError, match=r"amplitude overflows at xi=\(1e\+200, 0.0, 0.0\)"):
                amplitude(config)

    def test_overflowing_sum_is_refused(self):
        # finite terms near 1e308 whose phased sum overflows
        config = axes_config(xi1=1.0, xi2=2.0, xi3=1e200, omega0T=1.7e308)
        assert cmath.isfinite(simultaneous_amplitude(config))
        with pytest.raises(ValueError, match=r"amplitude overflows at xi=\(1.0, 2.0, 1e\+200\)"):
            successive_amplitude(config)


class TestSuccessiveAmplitude:
    @pytest.mark.parametrize("m", [1, 5, 50])
    def test_equals_simultaneous_at_full_periods(self, m):
        config = axes_config(xi1=0.05, xi2=0.04, xi3=0.03, omega0T=2.0 * math.pi * m)
        assert abs(successive_amplitude(config) - simultaneous_amplitude(config)) < 1e-12

    def test_single_active_field_magnitude_unchanged(self):
        config = axes_config(xi1=0.0, xi2=0.07, xi3=0.0, omega0T=9.0)
        assert abs(abs(successive_amplitude(config)) - abs(simultaneous_amplitude(config))) < 1e-15

    @pytest.mark.parametrize("omega0T", [3.0, 9.7, 31.0])
    def test_term_magnitudes_match_between_orderings(self, omega0T):
        config = axes_config(xi1=0.05, xi2=0.04, xi3=0.03, omega0T=omega0T)
        sim = term_magnitudes(config)
        x = 0.5 * omega0T
        sinc = abs(math.sin(x) / x)
        for mag, xi in zip(sim, (0.05, 0.04, 0.0)):
            assert abs(mag - x * xi * sinc) < 1e-15

    def test_generic_budget_separates_the_two_orderings(self):
        config = axes_config(xi1=0.05, xi2=0.04, xi3=0.03, omega0T=10.0)
        assert abs(successive_amplitude(config) - simultaneous_amplitude(config)) > 1e-4


class TestSchedules:
    def test_empty_schedule_is_refused(self):
        with pytest.raises(ValueError, match="schedule needs at least one segment"):
            HamiltonianSchedule(())

    def test_simultaneous_schedule_is_single_segment(self):
        config = axes_config(omega0T=12.0)
        sched = simultaneous_schedule(config)
        assert [seg.geom.omega0T for seg in sched.segments] == [12.0]

    def test_successive_schedule_triples_the_budget(self):
        config = axes_config(omega0T=12.0)
        sched = successive_schedule(config)
        assert [seg.geom.omega0T for seg in sched.segments] == [12.0] * 3
        assert [seg.geom.xi for seg in sched.segments] == [f.xi for f in config.fields]

    def test_successive_schedule_builds_at_the_largest_budget(self):
        sched = successive_schedule(axes_config(omega0T=1e308))
        assert [seg.geom.omega0T for seg in sched.segments] == [1e308] * 3

    @pytest.mark.parametrize("builder,predictor", [
        (simultaneous_schedule, simultaneous_amplitude),
        (successive_schedule, successive_amplitude),
    ])
    def test_oracle_confirms_first_order_prediction(self, builder, predictor):
        devs = []
        for lam in (2e-3, 1e-3):
            config = MultiFieldConfig.axes(lam, 0.8 * lam, 0.6 * lam, omega0T=21.0)
            state = propagate(builder(config), SpinState.plus())
            devs.append(abs(state.c_minus - predictor(config)))
        assert abs(devs[0] / devs[1] - 4.0) < 0.25
