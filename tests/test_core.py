"""Geometry, coupling profiles, and the phased coupling integral."""

import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protspin
from protspin import core
from protspin import (
    CouplingProfile,
    FieldSpec,
    MeasurementGeometry,
    ProfileKind,
    coupling_eval,
    direction_angles,
    direction_vector,
    normalization_residual,
    phased_integral,
)
from helpers import simpson_phased_integral

BUILTINS = [
    CouplingProfile.constant(),
    CouplingProfile.raised_cosine(),
    CouplingProfile.optimized(),
]
ALL_KINDS = BUILTINS + [CouplingProfile.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)])]


class TestMeasurementGeometry:
    def test_accepts_valid_parameters(self):
        geom = MeasurementGeometry(xi=0.3, gamma=1.0, eta=2.0, omega0T=50.0)
        assert geom.xi == 0.3
        assert geom.omega0T == 50.0

    def test_eta_normalized_into_principal_range(self):
        geom = MeasurementGeometry(xi=0.1, gamma=0.5, eta=2.0 * math.pi + 0.25)
        assert abs(geom.eta - 0.25) < 1e-12
        geom = MeasurementGeometry(xi=0.1, gamma=0.5, eta=-0.25)
        assert abs(geom.eta - (2.0 * math.pi - 0.25)) < 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"xi": -0.1, "gamma": 0.5},
            {"xi": 0.1, "gamma": -0.01},
            {"xi": 0.1, "gamma": math.pi + 0.01},
            {"xi": 0.1, "gamma": 0.5, "omega0T": -1.0},
            {"xi": math.nan, "gamma": 0.5},
        ],
    )
    def test_rejects_out_of_range_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MeasurementGeometry(**kwargs)


class TestFieldSpec:
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
            FieldSpec(xi, gamma, eta, direction_index=1)
        assert str(field_error.value) == str(geom_error.value)

    @pytest.mark.parametrize("index", [0, 4])
    def test_rejects_direction_index_outside_one_to_three(self, index):
        with pytest.raises(ValueError, match="direction_index must be 1, 2 or 3"):
            FieldSpec(0.1, 0.5, 0.0, direction_index=index)

    def test_eta_normalized_like_geometry(self):
        for eta in (-0.25, 2.0 * math.pi + 0.25):
            assert FieldSpec(0.1, 0.5, eta).eta == MeasurementGeometry(0.1, 0.5, eta).eta


class TestDirectionAngles:
    def test_pole(self):
        gamma, eta = direction_angles((0.0, 0.0, 1.0))
        assert gamma == 0.0
        assert eta == 0.0

    def test_equator(self):
        gamma, eta = direction_angles((1.0, 0.0, 0.0))
        assert abs(gamma - math.pi / 2) < 1e-15
        assert eta == 0.0

    def test_diagonal_in_plane(self):
        r = 1.0 / math.sqrt(2.0)
        gamma, eta = direction_angles((r, r, 0.0))
        assert abs(gamma - math.pi / 2) < 1e-15
        assert abs(eta - math.pi / 4) < 1e-15

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError):
            direction_angles((0.0, 0.0, 2.0))

    @given(
        gamma=st.floats(min_value=1e-6, max_value=math.pi - 1e-6),
        eta=st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9),
    )
    def test_round_trip(self, gamma, eta):
        g2, e2 = direction_angles(direction_vector(gamma, eta))
        assert abs(g2 - gamma) < 1e-9
        # azimuth wraps; compare on the circle
        assert min(abs(e2 - eta), 2.0 * math.pi - abs(e2 - eta)) < 1e-9


class TestCouplingEval:
    def test_constant_midpoint(self):
        assert coupling_eval(CouplingProfile.constant(), 0.5) == 1.0

    def test_raised_cosine_peak(self):
        assert abs(coupling_eval(CouplingProfile.raised_cosine(), 0.5) - 2.0) < 1e-15

    def test_optimized_endpoints_and_peak(self):
        prof = CouplingProfile.optimized()
        assert abs(coupling_eval(prof, 0.0)) < 1e-15
        assert abs(coupling_eval(prof, 0.5) - 8.0 / 3.0) < 1e-15

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("profile", ALL_KINDS, ids=lambda p: p.kind.value)
    def test_zero_outside_window(self, profile):
        for s in (-0.25, 1.25, -math.inf, math.inf, math.nan):
            value = coupling_eval(profile, s)
            assert type(value) is float
            assert value == 0.0

    @pytest.mark.parametrize("profile", BUILTINS, ids=lambda p: p.kind.value)
    def test_builtin_nonnegative(self, profile):
        s = np.linspace(0.0, 1.0, 4001)
        assert np.all(coupling_eval(profile, s) >= -1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("profile", ALL_KINDS, ids=lambda p: p.kind.value)
    def test_array_evaluation_matches_scalar(self, profile):
        s = np.array([-0.5, 0.0, 0.3, 1.0, 1.5, -np.inf, np.inf, np.nan])
        vec = coupling_eval(profile, s)
        assert vec.shape == s.shape
        for si, vi in zip(s, vec):
            assert vi == coupling_eval(profile, float(si))
        assert np.array_equal(coupling_eval(profile, s.reshape(2, 4)), vec.reshape(2, 4))


class TestNormalizationResidual:
    def test_constant_is_exact(self):
        assert normalization_residual(CouplingProfile.constant()) < 1e-15

    @pytest.mark.parametrize("profile", BUILTINS, ids=lambda p: p.kind.value)
    def test_builtins_integrate_to_one(self, profile):
        assert normalization_residual(profile) < 1e-12

    def test_triangle_table(self):
        prof = CouplingProfile.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)])
        assert normalization_residual(prof) < 1e-12

    def test_reports_known_area_error(self):
        # area 1 + 5e-7, inside the construction tolerance
        peak = 2.0 * (1.0 + 5e-7)
        prof = CouplingProfile.tabulated([(0.0, 0.0), (0.25, 0.5 * peak), (0.5, peak), (1.0, 0.0)])
        assert abs(normalization_residual(prof) - 5e-7) < 1e-15


class TestTabulatedProfiles:
    def test_requires_unit_area(self):
        with pytest.raises(ValueError):
            CouplingProfile.tabulated([(0.0, 0.0), (0.5, 3.0), (1.0, 0.0)])

    def test_requires_ascending_knots(self):
        with pytest.raises(ValueError):
            CouplingProfile.tabulated([(0.0, 1.0), (0.7, 1.0), (0.3, 1.0), (1.0, 1.0)])

    def test_requires_full_span(self):
        with pytest.raises(ValueError):
            CouplingProfile.tabulated([(0.1, 1.0), (0.9, 1.0)])

    def test_linear_interpolation_between_knots(self):
        prof = CouplingProfile.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)])
        assert abs(coupling_eval(prof, 0.25) - 1.0) < 1e-15
        assert abs(coupling_eval(prof, 0.75) - 1.0) < 1e-15

    def test_from_file(self, tmp_path):
        path = tmp_path / "triangle.dat"
        path.write_text("# s  g\n0 0\n0.5 2\n1 0\n")
        prof = CouplingProfile.from_file(path)
        assert prof.kind is ProfileKind.TABULATED
        assert abs(coupling_eval(prof, 0.5) - 2.0) < 1e-15


def test_import_does_not_load_scipy():
    src = Path(protspin.__file__).resolve().parents[1]
    code = "import sys; import protspin; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.stdout.strip() == "False"


GRID = [0.1, 1.0, 2.0 * math.pi - 1e-6, 2.0 * math.pi + 1e-6, 10.0, 100.0]


class TestPhasedIntegral:
    @pytest.mark.parametrize("profile", BUILTINS, ids=lambda p: p.kind.value)
    def test_zero_frequency_recovers_normalization(self, profile):
        assert abs(phased_integral(profile, 0.0) - 1.0) < 1e-12

    def test_constant_full_period_vanishes(self):
        assert abs(phased_integral(CouplingProfile.constant(), 2.0 * math.pi)) < 1e-15

    def test_raised_cosine_resonance_magnitude(self):
        # removable singularity, limit value 1/2
        val = phased_integral(CouplingProfile.raised_cosine(), 2.0 * math.pi)
        assert abs(abs(val) - 0.5) < 1e-12

    def test_optimized_resonance_magnitudes(self):
        assert abs(abs(phased_integral(CouplingProfile.optimized(), 2.0 * math.pi)) - 2.0 / 3.0) < 1e-12
        assert abs(abs(phased_integral(CouplingProfile.optimized(), 4.0 * math.pi)) - 1.0 / 6.0) < 1e-12

    @pytest.mark.parametrize("profile", BUILTINS, ids=lambda p: p.kind.value)
    @pytest.mark.parametrize("omega", GRID)
    def test_closed_forms_match_brute_force(self, profile, omega):
        assert abs(phased_integral(profile, omega) - simpson_phased_integral(profile, omega)) < 1e-9

    @pytest.mark.parametrize("omega", [0.5, 7.0, 40.0, 200.0])
    def test_tabulated_quadrature_matches_brute_force(self, omega):
        prof = CouplingProfile.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)])
        assert abs(phased_integral(prof, omega) - simpson_phased_integral(prof, omega)) < 1e-9

    @pytest.mark.parametrize("profile", BUILTINS, ids=lambda p: p.kind.value)
    @given(omega=st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=40, deadline=None)
    def test_magnitude_bounded_by_normalization(self, profile, omega):
        assert abs(phased_integral(profile, omega)) <= 1.0 + 1e-12

    def test_frozen_midrange_values(self):
        # values pinned against an independent Simpson reference
        cases = {
            ProfileKind.CONSTANT: -0.054402111088937 + 0.18390715290764525j,
            ProfileKind.RAISED_COSINE: 0.035486667319563146 - 0.11996321139546358j,
            ProfileKind.OPTIMIZED: 0.096761780887366089 - 0.32710465232088515j,
        }
        for profile in BUILTINS:
            assert abs(phased_integral(profile, 10.0) - cases[profile.kind]) < 1e-12


# 50 digits of pi for the decimal references below.
PI_DEC = Decimal("3.1415926535897932384626433832795028841971693993751")


def _decimal_sinc(x):
    """sin(x)/x from its Taylor series, in the current decimal context."""
    term = total = Decimal(1)
    x2 = x * x
    k = 1
    while abs(term) > Decimal("1e-45"):
        term *= -x2 / ((2 * k) * (2 * k + 1))
        total += term
        k += 1
    return total


def _sinc_sum(x, weights):
    """sum_k w_k (sinc(x + k pi) + sinc(x - k pi)) / (1 if k else 2) at 60 digits.

    The cancellation-free form of the spectral factors: its terms have no
    pole, so evaluated in high precision it is a reference to rounding.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        xd = Decimal(x)
        total = weights[0] * _decimal_sinc(xd)
        for k, w in enumerate(weights[1:], start=1):
            total += w * (_decimal_sinc(xd + k * PI_DEC) + _decimal_sinc(xd - k * PI_DEC))
        return float(total)


def _near(center):
    """center, its float neighbours, and offsets from 1e-15 to 1e-5 on both sides.

    The ladder passes the edge |x - center| ~ 1.6e-6 where a switch between
    the two forms used to sit.
    """
    points = [center]
    for direction in (0.0, 10.0):
        x = center
        for _ in range(8):
            x = math.nextafter(x, direction)
            points.append(x)
    for d in np.logspace(-15, -5, 61):
        points += [center - d, center + d]
    return points


class TestSpectralFactors:
    # A few ulps: the factors take about a dozen rounded operations.  The
    # worst case over these points is 6.7e-16 (optimized, near 2 pi); the
    # same sum evaluated in double precision is off by up to 7.7e-16 itself.
    RTOL = 8e-16

    @pytest.mark.parametrize("center", [math.pi, 2.0 * math.pi], ids=["pi", "2pi"])
    def test_raised_cosine_near_removable_singularity(self, center):
        for x in _near(center):
            ref = _sinc_sum(x, (Decimal(1), Decimal("0.5")))
            assert abs(core._spectral_raised_cosine(x) - ref) <= self.RTOL * abs(ref), x

    @pytest.mark.parametrize("center", [math.pi, 2.0 * math.pi], ids=["pi", "2pi"])
    def test_optimized_near_removable_singularities(self, center):
        weights = (Decimal(1), Decimal(2) / 3, Decimal(1) / 6)
        for x in _near(center):
            ref = _sinc_sum(x, weights)
            assert abs(core._spectral_optimized(x) - ref) <= self.RTOL * abs(ref), x

    def test_zero_frequency_is_exactly_one(self):
        assert core._spectral_raised_cosine(0.0) == 1.0
        assert core._spectral_optimized(0.0) == 1.0


def _triangle_closed_form(omega):
    # e^{i omega/2} sinc^2(omega/4) for the triangle of height 2 on [0, 1]
    q = 0.25 * omega
    sinc_q = math.sin(q) / q if q else 1.0
    return complex(math.cos(0.5 * omega), math.sin(0.5 * omega)) * sinc_q * sinc_q


def _jittered_profile(n, seed):
    # A smooth shape sampled at jittered knots: small slope jumps, so the
    # kinks cost Simpson (n = 2^16) only about 1e-11.
    rng = np.random.default_rng(seed)
    s = np.concatenate(([0.0], (np.arange(1, n - 1) + rng.uniform(-0.4, 0.4, n - 2)) / (n - 1), [1.0]))
    v = 1.0 + 0.5 * np.sin(2.0 * math.pi * s + rng.uniform(0.0, 2.0 * math.pi))
    area = float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(s)))
    return CouplingProfile.tabulated(zip(s.tolist(), (v / area).tolist()))


class TestTabulatedIntegral:
    TRIANGLE = CouplingProfile.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)])
    # the triangle's knot spacing is 1/2, so the series hands over at omega = 4 x_switch
    SWITCH = 4.0 * core._SERIES_SWITCH

    @pytest.mark.parametrize(
        "omega",
        [0.0, 1e-8, 1e-3, 1.0, SWITCH * (1.0 - 1e-12), SWITCH, SWITCH * (1.0 + 1e-12), 1e3, 1e6, 1e7],
    )
    def test_triangle_matches_closed_form(self, omega):
        assert abs(phased_integral(self.TRIANGLE, omega) - _triangle_closed_form(omega)) < 1e-14

    @pytest.mark.parametrize("omega", [0.5, 7.0, 60.0, 300.0])
    def test_jittered_knots_match_brute_force(self, omega):
        prof = _jittered_profile(513, seed=5)
        assert abs(phased_integral(prof, omega) - simpson_phased_integral(prof, omega)) < 1e-9

    def test_memory_does_not_grow_with_frequency(self):
        prof = _jittered_profile(513, seed=6)
        tracemalloc.start()
        try:
            phased_integral(prof, 1e7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("omega", [10.0, 1e3, 1e6])
    def test_sampled_raised_cosine_converges_to_builtin(self, omega):
        # |int e^{i w s} (g - L) ds| <= max|g - L| <= h^2 max|g''| / 8, with
        # max|g''| = (2 pi)^2 for the raised cosine, at every omega
        n = 4096
        s = np.linspace(0.0, 1.0, n + 1)
        prof = CouplingProfile.tabulated(zip(s.tolist(), coupling_eval(CouplingProfile.raised_cosine(), s).tolist()))
        bound = (2.0 * math.pi) ** 2 / (8.0 * n * n)
        assert abs(phased_integral(prof, omega) - phased_integral(CouplingProfile.raised_cosine(), omega)) <= bound
