"""Closed-form constant-coupling solution and momentum-branch analysis."""

import math
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protspin import (
    DegenerateFieldError,
    MeasurementGeometry,
    amplitude_envelope,
    amplitude_exact,
    probability_taylor,
    reversal_probability,
    survival_split,
    tilted_field,
    xi_bound,
)
from protspin.dyson import _SUBNORMAL_ALLOWANCE
import reference
from helpers import outcome, reference_reversal_probability, reference_survival_split

geometries = st.builds(
    MeasurementGeometry,
    xi=st.floats(min_value=0.0, max_value=2.0),
    gamma=st.floats(min_value=0.0, max_value=math.pi - 1e-9),
    eta=st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9),
    omega0T=st.floats(min_value=0.0, max_value=1.0e3),
).filter(
    # near xi=1, gamma=pi the total field underflows to zero in float64
    lambda g: 1.0 + g.xi * g.xi + 2.0 * g.xi * math.cos(g.gamma) > 1e-18
)


class TestTiltedField:
    def test_no_transverse_field(self):
        f = tilted_field(MeasurementGeometry(xi=0.0, gamma=1.0))
        assert (f.b_ratio, f.cos_theta, f.sin_theta) == (1.0, 1.0, 0.0)

    def test_collinear_fields(self):
        f = tilted_field(MeasurementGeometry(xi=0.3, gamma=0.0))
        assert abs(f.b_ratio - 1.3) < 1e-15
        assert f.cos_theta == 1.0
        assert f.sin_theta == 0.0

    def test_equal_strength_perpendicular(self):
        f = tilted_field(MeasurementGeometry(xi=1.0, gamma=math.pi / 2))
        assert abs(f.b_ratio - math.sqrt(2.0)) < 1e-15
        assert abs(f.cos_theta - 1.0 / math.sqrt(2.0)) < 1e-15
        assert abs(f.sin_theta - 1.0 / math.sqrt(2.0)) < 1e-15

    def test_cancellation_raises(self):
        with pytest.raises(DegenerateFieldError):
            tilted_field(MeasurementGeometry(xi=1.0, gamma=math.pi))

    @given(geometries)
    def test_angle_consistency_and_bounds(self, geom):
        f = tilted_field(geom)
        assert abs(f.cos_theta**2 + f.sin_theta**2 - 1.0) < 1e-12
        assert f.b_ratio >= abs(1.0 - geom.xi) - 1e-12
        assert f.b_ratio <= 1.0 + geom.xi + 1e-12


class TestAmplitudeExact:
    def test_aligned_field_cannot_flip(self):
        res = amplitude_exact(MeasurementGeometry(xi=0.4, gamma=0.0, omega0T=30.0))
        assert res.amplitude_minus == 0.0

    def test_zero_at_full_oscillation(self):
        # xi=0.75, gamma=pi/2 gives b=1.25; omega0T chosen so (omega0T/2)*b = 8*pi
        geom = MeasurementGeometry(xi=0.75, gamma=math.pi / 2, omega0T=12.8 * math.pi)
        assert abs(amplitude_exact(geom).amplitude_minus) < 1e-12

    def test_frozen_magnitude(self):
        # prefactor (omega0T/2)*xi = 5, oracle-confirmed
        geom = MeasurementGeometry(xi=0.1, gamma=math.pi / 2, omega0T=100.0)
        res = amplitude_exact(geom)
        b = math.sqrt(1.01)
        assert abs(abs(res.amplitude_minus) - 5.0 * abs(math.sin(50.0 * b) / (50.0 * b))) < 1e-15
        assert abs(abs(res.amplitude_minus) - 0.001602373634995072) < 1e-15

    def test_phase_carries_azimuth(self):
        base = amplitude_exact(MeasurementGeometry(xi=0.2, gamma=1.0, eta=0.0, omega0T=7.0))
        rot = amplitude_exact(MeasurementGeometry(xi=0.2, gamma=1.0, eta=0.9, omega0T=7.0))
        assert abs(rot.amplitude_minus - base.amplitude_minus * complex(math.cos(0.9), math.sin(0.9))) < 1e-14

    @given(geometries)
    def test_probability_consistent_and_bounded(self, geom):
        res = amplitude_exact(geom)
        assert abs(res.probability_minus - abs(res.amplitude_minus) ** 2) < 1e-12
        assert 0.0 <= res.probability_minus <= 1.0


class TestAmplitudeEnvelope:
    def test_one_percent_budget_point(self):
        res = amplitude_envelope(MeasurementGeometry(xi=0.1, gamma=math.pi / 2))
        assert abs(res.probability_minus - 0.01 / 1.01) < 1e-15
        assert abs(res.probability_minus - 0.009901) < 1e-6

    def test_zero_field(self):
        res = amplitude_envelope(MeasurementGeometry(xi=0.0, gamma=1.2))
        assert res.probability_minus == 0.0

    def test_frozen_oblique_point(self):
        res = amplitude_envelope(MeasurementGeometry(xi=0.5, gamma=math.pi / 4))
        assert abs(res.probability_minus - 0.06386979044864147) < 1e-15

    def test_cancellation_raises(self):
        with pytest.raises(DegenerateFieldError):
            amplitude_envelope(MeasurementGeometry(xi=1.0, gamma=math.pi))

    def test_clamps_round_off_above_one(self):
        # 1 + xi cos(gamma) = 0: the total field is transverse, the envelope
        # probability is 1, and unclamped |amp|^2 rounds to 1.0000000000000004
        res = amplitude_envelope(MeasurementGeometry(xi=34.07639320968429, gamma=1.6001463691866273))
        assert res.probability_minus == 1.0
        assert abs(res.amplitude_minus) <= 1.0

    @given(geometries)
    # sin(gamma) subnormal: |A_exact| is 5e-324 and the envelope rounds to 0.0
    @example(MeasurementGeometry(xi=1.25, gamma=5e-324, omega0T=1.0))
    @example(MeasurementGeometry(xi=1.5, gamma=5e-324, omega0T=1.0))
    def test_bounds_the_exact_magnitude(self, geom):
        env = amplitude_envelope(geom)
        f = tilted_field(geom)
        if 0.5 * geom.omega0T * f.b_ratio >= 1.0:
            exact = amplitude_exact(geom)
            # each side rounds to whole subnormal steps where the amplitude is subnormal
            bound = abs(env.amplitude_minus) * (1.0 + 1e-12) + _SUBNORMAL_ALLOWANCE
            assert abs(exact.amplitude_minus) <= bound

    @given(geometries)
    def test_probability_never_exceeds_one(self, geom):
        assert amplitude_envelope(geom).probability_minus <= 1.0


class TestProbabilityTaylor:
    def test_two_percent_point(self):
        assert abs(probability_taylor(MeasurementGeometry(xi=0.2, gamma=math.pi / 4)) - 0.02) < 1e-15

    def test_zero_field(self):
        assert probability_taylor(MeasurementGeometry(xi=0.0, gamma=1.0)) == 0.0

    def test_overestimates_envelope_at_moderate_strength(self):
        geom = MeasurementGeometry(xi=0.5, gamma=math.pi / 4)
        assert abs(probability_taylor(geom) - 0.125) < 1e-15
        assert probability_taylor(geom) > amplitude_envelope(geom).probability_minus

    @given(geometries)
    def test_signed_difference_formula(self, geom):
        # taylor minus envelope = xi^2 sin^2(gamma) (xi^2 + 2 xi cos(gamma)) / b^2
        xi, gamma = geom.xi, geom.gamma
        b2 = 1.0 + xi * xi + 2.0 * xi * math.cos(gamma)
        if b2 < 1e-12:
            return
        expected = (xi * math.sin(gamma)) ** 2 * (xi * xi + 2.0 * xi * math.cos(gamma)) / b2
        diff = probability_taylor(geom) - amplitude_envelope(geom).probability_minus
        assert abs(diff - expected) < 1e-12


class TestXiBound:
    def test_one_percent(self):
        assert abs(xi_bound(0.01) - 0.10050378152592121) < 1e-15

    def test_half(self):
        assert abs(xi_bound(0.5) - 1.0) < 1e-15

    def test_small_budget_asymptote(self):
        assert abs(xi_bound(1e-4) - 0.010000500037503125) < 1e-15

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            xi_bound(p)

    @given(st.floats(min_value=1e-8, max_value=1.0 - 1e-8))
    def test_inverts_worst_case_envelope(self, p):
        geom = MeasurementGeometry(xi=xi_bound(p), gamma=math.pi / 2)
        assert abs(amplitude_envelope(geom).probability_minus - p) < 1e-12


class TestSurvivalSplit:
    def test_zero_field_keeps_single_branch(self):
        correct, reversed_ = survival_split(MeasurementGeometry(xi=0.0, gamma=1.0, omega0T=12.0))
        assert reversed_ == 0.0
        assert abs(abs(correct) - 1.0) < 1e-15

    def test_collinear_field_keeps_single_branch(self):
        _, reversed_ = survival_split(MeasurementGeometry(xi=0.4, gamma=0.0, omega0T=12.0))
        assert abs(reversed_) < 1e-15

    def test_branch_weight_ratio(self):
        correct, reversed_ = survival_split(MeasurementGeometry(xi=0.2, gamma=math.pi / 2, omega0T=5.0))
        assert abs(abs(reversed_) / abs(correct) - 0.009804864072151724) < 1e-15

    @given(geometries)
    def test_conservation_with_transition(self, geom):
        correct, reversed_ = survival_split(geom)
        a_plus = correct + reversed_
        a_minus = amplitude_exact(geom).amplitude_minus
        assert abs(abs(a_plus) ** 2 + abs(a_minus) ** 2 - 1.0) < 1e-12


class TestReversalProbability:
    def test_zero_field(self):
        assert reversal_probability(MeasurementGeometry(xi=0.0, gamma=1.0)) == (0.0, 0.0)

    def test_leading_order_value(self):
        _, leading = reversal_probability(MeasurementGeometry(xi=0.2, gamma=math.pi / 2))
        assert abs(leading - 1e-4) < 1e-18

    def test_ratio_approaches_one_in_weak_limit(self):
        exact, leading = reversal_probability(MeasurementGeometry(xi=1e-3, gamma=math.pi / 2))
        assert 0.999 < exact / leading < 1.001

    @given(geometries)
    def test_exact_is_a_probability(self, geom):
        exact, leading = reversal_probability(geom)
        assert 0.0 <= exact <= 1.0
        assert leading >= 0.0


def _near_degenerate_reference(geom):
    """Envelope magnitude, survival branches and reversal probability, in 60-digit decimal.

    At xi = 1 - d and gamma = pi - e, with e the true offset of the float
    gamma from pi, 1 + xi cos(gamma) = (1 - xi) + 2 xi sin^2(e/2) and
    b^2 = (1 - xi)^2 + 4 xi sin^2(e/2), so no step cancels.
    """
    with reference.context():
        xi = Decimal(geom.xi)
        e = reference.PI - Decimal(geom.gamma)
        sin_e, sin_half = reference.sin(e), reference.sin(e / 2)
        b = reference.sqrt((1 - xi) ** 2 + 4 * xi * sin_half**2)
        rim = (1 - xi) + 2 * xi * sin_half**2
        envelope = xi * sin_e / b
        w_minus = (xi * sin_e) ** 2 / (2 * b * (b + rim))
        w_plus = 1 - w_minus
        phi = Decimal(geom.omega0T) / 2 * b
        cos_phi, sin_phi = reference.cos(phi), reference.sin(phi)
        correct = complex(w_plus * cos_phi, w_plus * sin_phi)
        reversed_ = complex(w_minus * cos_phi, -w_minus * sin_phi)
        reversal = w_minus**2 / (w_plus**2 + w_minus**2)
        return float(envelope), correct, reversed_, float(reversal)


class TestNearDegeneratePoint:
    """Along xi = 1 - d, gamma = pi - d the total field shrinks like d."""

    OFFSETS = [10.0**-k for k in range(2, 13)]

    @pytest.mark.parametrize("omega0T", [10.0, 1e3])
    @pytest.mark.parametrize("d", OFFSETS)
    def test_matches_decimal_reference(self, d, omega0T):
        geom = MeasurementGeometry(xi=1.0 - d, gamma=math.pi - d, eta=0.3, omega0T=omega0T)
        envelope, correct, reversed_, reversal = _near_degenerate_reference(geom)
        assert abs(abs(amplitude_envelope(geom).amplitude_minus) / envelope - 1.0) < 1e-15
        got_correct, got_reversed = survival_split(geom)
        assert abs(got_correct - correct) < 2e-15
        assert abs(got_reversed - reversed_) < 2e-15
        assert abs(reversal_probability(geom)[0] / reversal - 1.0) < 1e-15

    @pytest.mark.parametrize("omega0T", [10.0, 1e3])
    @pytest.mark.parametrize("d", OFFSETS)
    def test_conserves_probability(self, d, omega0T):
        geom = MeasurementGeometry(xi=1.0 - d, gamma=math.pi - d, eta=0.3, omega0T=omega0T)
        correct, reversed_ = survival_split(geom)
        a_minus = amplitude_exact(geom).amplitude_minus
        assert abs(abs(correct + reversed_) ** 2 + abs(a_minus) ** 2 - 1.0) < 1e-15

    def test_only_the_point_itself_is_degenerate(self):
        assert tilted_field(MeasurementGeometry(xi=1.0 - 1e-12, gamma=math.pi)).b_ratio > 0.0
        assert tilted_field(MeasurementGeometry(xi=1.0, gamma=math.pi - 1e-12)).b_ratio > 0.0
        with pytest.raises(DegenerateFieldError):
            survival_split(MeasurementGeometry(xi=1.0, gamma=math.pi, omega0T=10.0))


def _decimal_reference(geom):
    """tilted_field, envelope, exact amplitude, survival branches and reversal in 60-digit decimal."""
    with reference.context():
        xi, gamma = Decimal(geom.xi), Decimal(geom.gamma)
        sin_g, cos_g = reference.sin(gamma), reference.cos(gamma)
        b = reference.sqrt(1 + xi * xi + 2 * xi * cos_g)
        rim = 1 + xi * cos_g
        small = (xi * sin_g) ** 2 / (2 * b * (b + abs(rim)))
        w_plus, w_minus = (1 - small, small) if rim >= 0 else (small, 1 - small)
        x = Decimal(geom.omega0T) / 2
        phi = x * b
        cos_phi, sin_phi = reference.cos(phi), reference.sin(phi)
        cos_eta, sin_eta = reference.cos(Decimal(geom.eta)), reference.sin(Decimal(geom.eta))
        flip = x * xi * sin_g * sin_phi / phi
        return {
            "b_over_xi": float(b / xi),
            "cos_theta": float(rim / b),
            "sin_theta": float(xi * sin_g / b),
            "envelope": float((xi * sin_g / b) ** 2),
            "exact": complex(-flip * sin_eta, flip * cos_eta),
            "correct": complex(w_plus * cos_phi, w_plus * sin_phi),
            "reversed": complex(w_minus * cos_phi, -w_minus * sin_phi),
            "reversal": float(w_minus**2 / (w_plus**2 + w_minus**2)),
        }


class TestBenchmarkNearDegenerateJobs:
    """Closed-forms benchmark jobs near xi = 1, gamma = pi, at their exact inputs.

    (xi, gamma, eta, omega0T) of seed 31 job 394, seed 60 job 242 and seed
    166 job 79 in bench/workloads.py.  There the benchmark's float reference
    for amplitude_exact cancels in 1 + xi^2 + 2 xi cos(gamma) and is 5e-13 to
    5e-12 off; the library is not.
    """

    @pytest.mark.parametrize("xi, gamma, eta, omega0T", [
        (1.0125367246051722, 3.12278158943655, 4.737701831901463, 3230.9003812312003),
        (0.9871807804912346, 3.1339980970122396, 2.0719964000317774, 438.7616710094304),
        (1.0133693846148764, 3.1407997176194, 2.360340079936881, 6853.255063959658),
    ])
    def test_amplitude_exact_matches_decimal_reference(self, xi, gamma, eta, omega0T):
        geom = MeasurementGeometry(xi=xi, gamma=gamma, eta=eta, omega0T=omega0T)
        assert abs(amplitude_exact(geom).amplitude_minus - _decimal_reference(geom)["exact"]) <= 1e-15


class TestHugeFieldRatio:
    """Where xi^2 overflows, b = xi to rounding and every closed form stays finite."""

    # 7e153 and 1.3e154 leave 1 + xi^2 + 2 xi cos(gamma) finite but overflow 2 b^2
    XIS = [1e150, 7e153, 1.3e154, 1.4e154, 1e200, 1e250, 1e300]

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("xi", XIS)
    def test_matches_decimal_reference(self, xi, gamma):
        # omega0T ~ 1/xi keeps the phase (omega0T/2) b of order one
        geom = MeasurementGeometry(xi=xi, gamma=gamma, eta=0.7, omega0T=3.0 / xi)
        ref = _decimal_reference(geom)
        tf = tilted_field(geom)
        assert abs(tf.b_ratio / xi - ref["b_over_xi"]) < 1e-15
        assert abs(tf.cos_theta - ref["cos_theta"]) < 1e-15
        assert abs(tf.sin_theta - ref["sin_theta"]) < 1e-15
        assert abs(amplitude_envelope(geom).probability_minus / ref["envelope"] - 1.0) < 1e-15
        assert abs(amplitude_exact(geom).amplitude_minus - ref["exact"]) < 2e-15
        correct, reversed_ = survival_split(geom)
        assert abs(correct - ref["correct"]) < 2e-15
        assert abs(reversed_ - ref["reversed"]) < 2e-15
        assert abs(reversal_probability(geom)[0] / ref["reversal"] - 1.0) < 1e-14

    @pytest.mark.parametrize("xi", XIS)
    def test_no_flip_without_time(self, xi):
        geom = MeasurementGeometry(xi=xi, gamma=1.0)
        assert amplitude_exact(geom).probability_minus == 0.0
        correct, reversed_ = survival_split(geom)
        assert abs(correct + reversed_ - 1.0) < 1e-15

    def test_antiparallel_field_past_the_float_range(self):
        # 2 xi cos(gamma) is -inf and xi^2 is inf, so 1 + xi^2 + 2 xi cos(gamma) is nan
        exact, _ = reversal_probability(MeasurementGeometry(xi=1.7e308, gamma=math.pi))
        assert exact == 1.0
        assert tilted_field(MeasurementGeometry(xi=1.7e308, gamma=math.pi)).b_ratio == 1.7e308

    def test_leading_order_reversal_overflows_to_inf(self):
        _, leading = reversal_probability(MeasurementGeometry(xi=1e100, gamma=0.5 * math.pi))
        assert leading == math.inf
        _, leading = reversal_probability(MeasurementGeometry(xi=2.0**256, gamma=0.5 * math.pi))
        assert leading == 2.0**1020

    @pytest.mark.parametrize("call", [amplitude_exact, survival_split])
    @pytest.mark.parametrize("xi, omega0T", [(1e300, 1e10), (3.0, 1.5e308)])
    def test_overflowing_phase_is_refused(self, call, xi, omega0T):
        with pytest.raises(ValueError, match=r"\(omega0T/2\)\*b overflows"):
            call(MeasurementGeometry(xi=xi, gamma=1.0, omega0T=omega0T))


class TestBranchesWithoutTiltedField:
    """survival_split and reversal_probability equal their tilted_field-based forms, errors included."""

    @staticmethod
    def assert_same(geom):
        assert outcome(survival_split, geom) == outcome(reference_survival_split, geom)
        assert outcome(reversal_probability, geom) == outcome(reference_reversal_probability, geom)

    @pytest.mark.parametrize("omega0T", [0.0, 10.0, 1e3])
    @pytest.mark.parametrize("d", TestNearDegeneratePoint.OFFSETS + [0.0])
    def test_near_degenerate_points(self, d, omega0T):
        self.assert_same(MeasurementGeometry(xi=1.0 - d, gamma=math.pi - d, eta=0.3, omega0T=omega0T))
        self.assert_same(MeasurementGeometry(xi=1.0 - d, gamma=math.pi, omega0T=omega0T))
        self.assert_same(MeasurementGeometry(xi=1.0, gamma=math.pi - d, omega0T=omega0T))

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, 2.0, 3.0, math.pi])
    @pytest.mark.parametrize("xi", TestHugeFieldRatio.XIS + [1.7e308])
    def test_huge_field_ratios(self, xi, gamma):
        for omega0T in (0.0, 3.0 / xi, 1e10):
            self.assert_same(MeasurementGeometry(xi=xi, gamma=gamma, eta=0.7, omega0T=omega0T))

    def test_degenerate_and_overflowing_points_raise_alike(self):
        degenerate = MeasurementGeometry(xi=1.0, gamma=math.pi, omega0T=10.0)
        assert outcome(survival_split, degenerate) == (
            f"DegenerateFieldError: total field vanishes at xi=1.0, gamma={math.pi!r}")
        self.assert_same(degenerate)
        self.assert_same(MeasurementGeometry(xi=3.0, gamma=1.0, omega0T=1.5e308))

    @given(geometries)
    def test_random_geometries(self, geom):
        self.assert_same(geom)
