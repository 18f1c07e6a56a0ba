"""Geometry, coupling profiles, and the phased coupling integral."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protspin
from protspin import core
from protspin import (
    CouplingProfile,
    MeasurementGeometry,
    ProfileKind,
    coupling_eval,
    direction_angles,
    direction_vector,
    normalization_residual,
    phased_integral,
)
import reference
from helpers import (
    line_loop_samples,
    panel_omegas,
    reference_knot_integral,
    signed_profiles,
    simpson_phased_integral,
)

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
            {"xi": math.inf, "gamma": 0.5},
            {"xi": 0.1, "gamma": math.nan},
            {"xi": 0.1, "gamma": 0.5, "eta": math.inf},
            {"xi": 0.1, "gamma": 0.5, "eta": math.nan},
        ],
    )
    def test_rejects_out_of_range_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MeasurementGeometry(**kwargs)


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

    @pytest.mark.parametrize("n", [(0.6, 0.8, 1e-5), (0.0, 0.0, math.nan), (math.inf, 0.0, 0.0)])
    def test_non_unit_message(self, n):
        with pytest.raises(ValueError, match=r"direction must be a unit vector, \|n\| = "):
            direction_angles(n)

    @pytest.mark.parametrize("n, shape", [
        ((0.6, 0.8), "(2,)"),
        (np.array([[1.0], [0.0], [0.0]]), "(3, 1)"),
        (np.array([[1.0, 0.0, 0.0]]), "(1, 3)"),
    ])
    def test_rejects_non_3_vector(self, n, shape):
        with pytest.raises(ValueError, match=re.escape(f"direction must be a 3-vector, got shape {shape}")):
            direction_angles(n)

    def test_accepts_any_3_sequence(self):
        expected = direction_angles((0.6, 0.0, 0.8))
        assert direction_angles([0.6, 0.0, 0.8]) == expected
        assert direction_angles(np.array([0.6, 0.0, 0.8])) == expected
        assert direction_angles((0.6, 0, np.float64(0.8))) == expected

    @given(
        gamma=st.floats(min_value=0.0, max_value=math.pi),
        eta=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_direction_vector_is_the_formula_as_array(self, gamma, eta):
        n = direction_vector(gamma, eta)
        assert isinstance(n, np.ndarray) and n.shape == (3,)
        sg = math.sin(gamma)
        assert n.tolist() == [sg * math.cos(eta), sg * math.sin(eta), math.cos(gamma)]

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


# Profile files whose outcome the one-pass parse of from_file must keep from
# the line loop: comment, blank and whitespace-only lines, a trailing
# '# note' word, CRLF endings, a bad number on each data line k in turn, and
# a bad number and a column fault in either order.
_GOOD_LINES = ["# s gT", "", "  \t", "0 0", "0.25 1.5", "", "0.75 1.5 ", "# end", "1 0"]
_LAYOUTS = [
    "\n".join(_GOOD_LINES),
    "\r\n".join(_GOOD_LINES) + "\r\n",
    "0 0\n0.5 2 # note\n1 0\n",
    "0 0\n0.5 #note\n1 0\n",
    "0 0\n0.5 2\n1 0 #\n",
    "0 0\r\n\r\n0.5 x\r\n1 0\r\n",
    "0 0\x0c0.5 x\n1 0\n",
    "0 0\n0.5 x\n0.7 1 2\n1 0\n",
    "0 0\n0.5 1 2\n0.7 x\n1 0\n",
    "0 0\n0.5 2\n1 nan\n",
    "# only a comment\n",
    *(
        "\n".join(f"{line.strip()}e" if k == bad else line for k, line in enumerate(_GOOD_LINES))
        for bad in (3, 4, 6, 8)
    ),
]


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

    def test_requires_finite_samples(self):
        with pytest.raises(ValueError, match="finite"):
            CouplingProfile.tabulated([(0.0, 1.0), (0.5, math.nan), (1.0, 1.0)])

    def test_built_in_kind_refuses_samples(self):
        with pytest.raises(ValueError, match="samples are only meaningful for tabulated profiles"):
            CouplingProfile(ProfileKind.CONSTANT, ((0.0, 1.0), (1.0, 1.0)))

    def test_knot_arrays_are_built_once_and_read_only(self):
        prof = CouplingProfile.tabulated([(0.0, 0.0), (0.25, 1.0), (0.5, 2.0), (1.0, 0.0)])
        s, v = prof._knots
        panels = prof._panels
        assert prof._knots[0] is s and prof._knots[1] is v and prof._panels is panels
        assert s.tolist() == [0.0, 0.25, 0.5, 1.0] and v.tolist() == [0.0, 1.0, 2.0, 0.0]
        assert panels.width.tolist() == [0.25, 0.25, 0.5]
        assert panels.mid.tolist() == [0.125, 0.375, 0.75]
        assert panels.even.tolist() == [0.125, 0.375, 0.5]
        assert panels.odd.tolist() == [0.125, 0.125, -0.5]
        assert panels.area == panels.abs_area == 1.0
        for array in (s, v, panels.width, panels.mid, panels.even, panels.odd):
            with pytest.raises(ValueError):
                array[1] = 3.0

    def test_integrals_need_no_knot_set_up_per_call(self, monkeypatch):
        prof = signed_profiles(seed=3)[3]
        expected = (phased_integral(prof, 0.0), phased_integral(prof, 50.0), normalization_residual(prof))

        def refuse(*args, **kwargs):
            raise AssertionError("np.diff called after construction")

        monkeypatch.setattr(core.np, "diff", refuse)
        assert (phased_integral(prof, 0.0), phased_integral(prof, 50.0), normalization_residual(prof)) == expected

    def test_knot_arrays_are_not_fields(self, tmp_path):
        path = tmp_path / "triangle.dat"
        path.write_text("0 0\n0.5 2\n1 0\n")
        loaded = CouplingProfile.from_file(path)
        built = CouplingProfile.tabulated(iter([(0, 0), (0.5, 2), (1, 0)]))
        assert [f.name for f in dataclasses.fields(CouplingProfile)] == ["kind", "samples"]
        assert loaded.samples == built.samples == ((0.0, 0.0), (0.5, 2.0), (1.0, 0.0))
        assert all(type(x) is float for pair in loaded.samples for x in pair)
        assert loaded == built and hash(loaded) == hash(built)
        assert repr(loaded) == (
            "CouplingProfile(kind=<ProfileKind.TABULATED: 'tabulated'>, "
            "samples=((0.0, 0.0), (0.5, 2.0), (1.0, 0.0)))"
        )

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

    def test_from_file_skips_comments_and_blank_lines_in_any_layout(self, tmp_path):
        path = tmp_path / "layout.dat"
        path.write_bytes(b"  # indented comment\r\n\t \r\n0\t0\r\n   \n0.5 \t 2\r\n#1 5\n1 0")
        prof = CouplingProfile.from_file(path)
        assert prof.samples == ((0.0, 0.0), (0.5, 2.0), (1.0, 0.0))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 0\n0.5 1 # note\n1 0\n", ":2: expected two columns, got 4"),
            ("0 0\n0.5 1 #note\n1 0\n", ":2: expected two columns, got 3"),
            ("0 0\r\n\r\n0.5\r\n1 0\r\n", ":3: expected two columns, got 1"),
            ("# s gT\n0 0\n0.5 x\n1 0\n", ":3: could not convert string to float: 'x'"),
            ("  # s gT\n\t\n0\t0\t9\n", ":3: expected two columns, got 3"),
        ],
    )
    def test_from_file_names_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.dat"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as info:
            CouplingProfile.from_file(path)
        assert str(info.value) == f"{path}{message}"

    @pytest.mark.parametrize("text", _LAYOUTS)
    def test_from_file_keeps_the_line_loop_outcome(self, tmp_path, text):
        path = tmp_path / "layout.dat"
        path.write_bytes(text.encode())

        def outcome(load):
            try:
                return repr(load())
            except ValueError as exc:
                return f"ValueError: {exc}"

        assert outcome(lambda: CouplingProfile.from_file(path)) == outcome(
            lambda: CouplingProfile.tabulated(line_loop_samples(path)))

    def test_from_file_reads_the_floats_the_line_loop_reads(self, tmp_path):
        # Random knots written in every spelling float() reads back exactly.
        rng = np.random.default_rng(25)
        spellings = [
            repr, "{:.17g}".format, "{:.17e}".format, "{:.25E}".format,
            lambda x: str(Decimal(x)), lambda x: f"+{x!r}" if math.copysign(1.0, x) > 0.0 else repr(x),
        ]
        path = tmp_path / "random.dat"
        for _ in range(60):
            n = int(rng.integers(2, 40))
            s = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]))
            v = rng.uniform(-1.0, 3.0, n)
            v[rng.integers(0, n, 2)] = rng.choice([-0.0, 0.0, 5e-324, -1e-310, 2.5e-308], 2)
            v /= float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(s)))
            lines = []
            for pair in zip(s.tolist(), v.tolist()):
                first, second = (spellings[k](x) for k, x in zip(rng.integers(0, len(spellings), 2), pair))
                gap, lead = rng.choice([" ", "\t", " \t  "]), rng.choice(["", " ", "\t"])
                lines.append(f"{lead}{first}{gap}{second}{lead}")
                if rng.random() < 0.2:
                    lines.append(rng.choice(["", "   ", "# comment 1 2 3", "\t#x"]))
            path.write_bytes(rng.choice(["\n", "\r\n"]).join(lines).encode())
            assert repr(CouplingProfile.from_file(path).samples) == repr(line_loop_samples(path))


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


def _sinc_sum(x, weights):
    """sum_k w_k (sinc(x + k pi) + sinc(x - k pi)) / (1 if k else 2) at 60 digits.

    The cancellation-free form of the spectral factors: its terms have no
    pole, so evaluated in high precision it is a reference to rounding.
    """
    with reference.context():
        xd = Decimal(x)
        total = weights[0] * reference.sinc(xd)
        for k, w in enumerate(weights[1:], start=1):
            total += w * (reference.sinc(xd + k * reference.PI) + reference.sinc(xd - k * reference.PI))
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

    def test_same_bits_as_per_call_set_up(self):
        # Every result from the stored panels repr-equals the reference Filon
        # sum, which rebuilds them on every call, on series-only,
        # closed-form-only and mixed intervals alike.
        branches = set()
        for prof in signed_profiles(seed=11):
            s, v = prof._knots
            assert repr(normalization_residual(prof)) == repr(abs(reference_knot_integral(s, v, 0.0) - 1.0))
            for omega in panel_omegas(seed=12):
                assert repr(phased_integral(prof, omega)) == repr(reference_knot_integral(s, v, omega))
                branches.add(frozenset((0.5 * omega * np.diff(s) >= core._SERIES_SWITCH).tolist()))
        assert branches == {frozenset([True]), frozenset([False]), frozenset([True, False])}

    def test_last_frequency_is_kept_outside_the_fields(self, monkeypatch):
        # One integral per run of calls at a frequency; -0.0 and 0.0 are two
        # frequencies.  Every value repr-equals a fresh profile's.
        prof = _jittered_profile(129, seed=7)
        integrated = []
        knot_integral = core._knot_integral

        def counted(profile, omega):
            if profile is prof:
                integrated.append(repr(omega))
            return knot_integral(profile, omega)

        monkeypatch.setattr(core, "_knot_integral", counted)
        omegas = [3.0, 70.0, 3.0, 3.0, np.float64(3.0), 70.0, 70.0, -0.0, 0.0, 0.0, -0.0, 1e6, 1e6]
        for omega in omegas:
            fresh = CouplingProfile.tabulated(prof.samples)
            assert repr(phased_integral(prof, omega)) == repr(phased_integral(fresh, omega))
        assert integrated == ["3.0", "70.0", "3.0", "70.0", "-0.0", "0.0", "-0.0", "1000000.0"]
        assert prof == fresh and hash(prof) == hash(fresh) and repr(prof) == repr(fresh)

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
