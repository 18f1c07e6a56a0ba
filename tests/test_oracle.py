"""Brute-force propagator: spec of record for every closed form."""

import cmath
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protspin import (
    ConvergenceError,
    CouplingProfile,
    HamiltonianSchedule,
    MeasurementGeometry,
    MultiFieldConfig,
    ProfileKind,
    Segment,
    SpinState,
    amplitude_exact,
    compare,
    coupling_eval,
    crosscheck,
    first_order_amplitude,
    oracle,
    propagate,
    simultaneous_schedule,
    successive_schedule,
    survival_split,
)
from protspin.oracle import _GRID_TABLE_MIN, coupling_grid
from helpers import (
    propagate_midpoint, random_geometries, reference_adaptive, reference_run, reference_runs,
    richardson_minus,
)

# A normalized state other than |+> or |->.
MIXED_STATE = SpinState(0.6 + 0.0j, 0.48 + 0.64j)


def apply_adjoint(column, state):
    """U^dagger state, for the SU(2) matrix U whose first column is column = U|+>.

    U = [[a, b], [-conj(b), conj(a)]], so a = column.c_plus and
    b = -conj(column.c_minus); U^dagger is the inverse evolution.
    """
    a, b = column.c_plus, -column.c_minus.conjugate()
    return SpinState(
        a.conjugate() * state.c_plus - b * state.c_minus, b.conjugate() * state.c_plus + a * state.c_minus,
    )


geometries = st.builds(
    MeasurementGeometry,
    xi=st.floats(min_value=0.0, max_value=2.0),
    gamma=st.floats(min_value=0.0, max_value=math.pi - 1e-9),
    eta=st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9),
    omega0T=st.floats(min_value=0.0, max_value=100.0),
)


class TestSpinState:
    def test_basis_states(self):
        assert SpinState.plus().c_plus == 1.0
        assert SpinState.minus().c_minus == 1.0
        assert abs(SpinState.plus().norm() - 1.0) < 1e-15

    def test_propagate_rejects_unnormalized_state(self):
        sched = HamiltonianSchedule.single(
            MeasurementGeometry(xi=0.1, gamma=1.0, omega0T=1.0), CouplingProfile.constant()
        )
        with pytest.raises(ValueError):
            propagate(sched, SpinState(c_plus=0.8, c_minus=0.0))


# Budgets at which every schedule the program builds must split the steps
# exactly as 1.0 / len(segments) does, and the step counts tried there.
_SHARE_OMEGA0T = (0.0, 5e-324, 1e-320, 1.0, 21.0, 10.0 * math.pi, 1e3, 1e154, 6e307, 1e308)
_SHARE_STEPS = (*range(1, 70), *sorted({2 ** k + d for k in range(6, 23) for d in (-1, 0, 1)}))


def _budget_legs(*budgets):
    return HamiltonianSchedule(tuple(
        Segment(MeasurementGeometry(xi=0.1, gamma=1.0, omega0T=w), CouplingProfile.constant())
        for w in budgets
    ))


class TestStepShares:
    @pytest.mark.parametrize("omega0T", _SHARE_OMEGA0T)
    def test_built_schedules_split_steps_evenly(self, omega0T):
        config = MultiFieldConfig.axes(0.1, 0.2, 0.3, omega0T)
        schedules = (
            HamiltonianSchedule.single(
                MeasurementGeometry(xi=0.1, gamma=1.0, omega0T=omega0T), CouplingProfile.constant()
            ),
            simultaneous_schedule(config),
            successive_schedule(config),
        )
        for sched in schedules:
            k = len(sched.segments)
            for steps in _SHARE_STEPS:
                assert oracle._grids(sched, steps) == [(None, max(1, round(steps * (1.0 / k))))] * k

    def test_share_follows_the_budget(self):
        assert oracle._grids(_budget_legs(1.5, 4.5), 16) == [(None, 4), (None, 12)]

    def test_zero_budget_leg_takes_one_step(self):
        assert oracle._grids(_budget_legs(2.0, 0.0, 6.0), 16) == [(None, 4), (None, 1), (None, 12)]

    def test_all_zero_budgets_share_equally(self):
        assert oracle._grids(_budget_legs(0.0, 0.0), 16) == [(None, 8), (None, 8)]

    def test_budgets_summing_past_the_float_range(self):
        sched = _budget_legs(1.7e308, 1.7e308, 0.85e308)
        assert oracle._grids(sched, 20) == [(None, 8), (None, 8), (None, 4)]


class TestPropagate:
    def test_free_precession(self):
        geom = MeasurementGeometry(xi=0.0, gamma=1.0, omega0T=17.0)
        st_out = propagate(HamiltonianSchedule.single(geom, CouplingProfile.constant()), SpinState.plus())
        assert abs(st_out.c_plus - cmath.exp(0.5j * 17.0)) < 1e-11
        assert st_out.c_minus == 0.0

    def test_static_case_is_exact_with_one_step(self):
        geom = MeasurementGeometry(xi=0.35, gamma=1.2, eta=0.8, omega0T=9.0)
        st_out = propagate(
            HamiltonianSchedule.single(geom, CouplingProfile.constant()), SpinState.plus(), steps=1
        )
        correct, reversed_ = survival_split(geom)
        assert abs(st_out.c_plus - (correct + reversed_)) < 1e-12
        assert abs(st_out.c_minus - amplitude_exact(geom).amplitude_minus) < 1e-12

    def test_matches_closed_form_at_large_budget(self):
        geom = MeasurementGeometry(xi=0.1, gamma=math.pi / 2, omega0T=100.0)
        st_out = propagate(
            HamiltonianSchedule.single(geom, CouplingProfile.constant()), SpinState.plus(), steps=2**16
        )
        assert abs(st_out.c_minus - amplitude_exact(geom).amplitude_minus) < 1e-10

    def test_steps_must_be_positive(self):
        geom = MeasurementGeometry(xi=0.1, gamma=1.0, omega0T=1.0)
        with pytest.raises(ValueError):
            propagate(HamiltonianSchedule.single(geom, CouplingProfile.constant()), SpinState.plus(), steps=0)

    def test_raises_when_budget_needs_more_steps_than_allowed(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_ADAPTIVE_STEPS", 2**15)
        geom = MeasurementGeometry(xi=0.5, gamma=1.0, eta=0.3, omega0T=1e4)
        sched = HamiltonianSchedule.single(geom, CouplingProfile.raised_cosine())
        with pytest.raises(ConvergenceError):
            propagate(sched, SpinState.plus())

    @given(geometries)
    @settings(max_examples=25, deadline=None)
    def test_unitarity(self, geom):
        sched = HamiltonianSchedule.single(geom, CouplingProfile.raised_cosine())
        st_out = propagate(sched, SpinState.plus(), steps=2**12)
        assert abs(st_out.norm() - 1.0) < 1e-12

    def test_time_reversal_returns_initial_state(self):
        geom = MeasurementGeometry(xi=0.5, gamma=1.0, eta=0.3, omega0T=50.0)
        sched = HamiltonianSchedule.single(geom, CouplingProfile.optimized())
        fwd = propagate(sched, MIXED_STATE, steps=2**12)
        back = apply_adjoint(propagate(sched, SpinState.plus(), steps=2**12), fwd)
        assert abs(back.c_plus - MIXED_STATE.c_plus) < 1e-10
        assert abs(back.c_minus - MIXED_STATE.c_minus) < 1e-10

    def test_second_order_convergence(self):
        geom = MeasurementGeometry(xi=0.5, gamma=1.0, eta=0.3, omega0T=200.0)
        sched = HamiltonianSchedule.single(geom, CouplingProfile.raised_cosine())
        ref = propagate_midpoint(sched, SpinState.plus(), 2**18).as_array()
        errs = [
            float(np.max(np.abs(propagate_midpoint(sched, SpinState.plus(), n).as_array() - ref)))
            for n in (2**10, 2**11, 2**12)
        ]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert abs(order - 2.0) < 0.1

    def test_fourth_order_convergence(self):
        geom = MeasurementGeometry(xi=0.5, gamma=1.0, eta=0.3, omega0T=200.0)
        sched = HamiltonianSchedule.single(geom, CouplingProfile.raised_cosine())
        ref = propagate(sched, SpinState.plus(), steps=2**14).as_array()
        errs = [
            float(np.max(np.abs(propagate(sched, SpinState.plus(), steps=n).as_array() - ref)))
            for n in (2**8, 2**9, 2**10)
        ]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert abs(order - 4.0) < 0.1

    def test_adaptive_agrees_with_deep_fixed_grid(self):
        geom = MeasurementGeometry(xi=0.4, gamma=0.9, eta=1.1, omega0T=30.0)
        sched = HamiltonianSchedule.single(geom, CouplingProfile.optimized())
        auto = propagate(sched, SpinState.plus())
        deep = propagate(sched, SpinState.plus(), steps=2**19)
        assert abs(auto.c_plus - deep.c_plus) < 1e-10
        assert abs(auto.c_minus - deep.c_minus) < 1e-10

    def test_exact_equivalence_over_random_geometries(self):
        rng = np.random.default_rng(7)
        for geom in random_geometries(rng, 50, omega_max=100.0):
            st_out = propagate(HamiltonianSchedule.single(geom, CouplingProfile.constant()), SpinState.plus())
            assert abs(st_out.c_minus - amplitude_exact(geom).amplitude_minus) < 1e-10


class TestLargeBudget:
    """omega0T = 1e4, where the adaptive midpoint rule would exceed its step cap."""

    @pytest.mark.parametrize("profile", [CouplingProfile.raised_cosine(), CouplingProfile.optimized()])
    def test_adaptive_matches_deep_midpoint_grid(self, profile):
        geom = MeasurementGeometry(xi=0.1, gamma=1.0, eta=0.3, omega0T=1e4)
        sched = HamiltonianSchedule.single(geom, profile)
        auto = propagate(sched, SpinState.plus()).as_array()
        deep = propagate_midpoint(sched, SpinState.plus(), 2**22).as_array()
        assert np.max(np.abs(auto - deep)) < 1e-10

    @pytest.mark.parametrize("profile", [CouplingProfile.raised_cosine(), CouplingProfile.optimized()])
    def test_adaptive_matches_first_order(self, profile):
        # gamma = pi/2 suppresses the quadratic correction term
        geom = MeasurementGeometry(xi=1e-3, gamma=0.5 * math.pi, eta=0.4, omega0T=1e4)
        state = propagate(HamiltonianSchedule.single(geom, profile), SpinState.plus())
        assert abs(state.c_minus - first_order_amplitude(profile, geom).amplitude) < 1e-11


class TestOverflowingSteps:
    """Where a step's exponent overflows the oracle refuses, naming xi and omega0T."""

    @pytest.mark.parametrize(
        "profile",
        [
            CouplingProfile.constant(),
            CouplingProfile.raised_cosine(),
            CouplingProfile.tabulated([(0.0, 0.0), (0.3, 2.0), (1.0, 0.0)]),
        ],
        ids=lambda p: p.kind.value,
    )
    @pytest.mark.parametrize("xi", [1e300, 1e308])
    def test_refused_at_once_without_warnings(self, profile, xi):
        geom = MeasurementGeometry(xi=xi, gamma=0.5 * math.pi, omega0T=2.0)
        schedule = HamiltonianSchedule.single(geom, profile)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                propagate(schedule, SpinState.plus())
            assert str(info.value) == f"oracle step overflows at xi={xi!r}, omega0T=2.0"
            with pytest.raises(ValueError, match="oracle step overflows"):
                crosscheck(geom, profile)


class TestTabulatedGrid:
    """Step edges on the knots: a pulse narrower than a coarse step still counts."""

    # A triangle pulse of area 1 on [0.5009, 0.5015].  It lies between the
    # Gauss nodes 0.500825 of 2**8 uniform steps and 0.501540 of 2**9, so
    # both coarsest uniform grids would read a zero coupling throughout.
    NARROW = CouplingProfile.tabulated(
        [(0.0, 0.0), (0.5009, 0.0), (0.5012, 1.0 / 0.0003), (0.5015, 0.0), (1.0, 0.0)]
    )

    def test_narrow_pulse_matches_first_order(self):
        # gamma = pi/2 suppresses the quadratic correction term
        geom = MeasurementGeometry(xi=1e-4, gamma=0.5 * math.pi, eta=0.3, omega0T=10.0)
        state = propagate(HamiltonianSchedule.single(geom, self.NARROW), SpinState.plus())
        expected = first_order_amplitude(self.NARROW, geom).amplitude
        assert abs(expected) > 4e-4
        assert abs(state.c_minus - expected) < 1e-10

    def test_narrow_pulse_matches_deep_midpoint_grid(self):
        geom = MeasurementGeometry(xi=0.1, gamma=1.0, eta=0.3, omega0T=10.0)
        state = propagate(HamiltonianSchedule.single(geom, self.NARROW), SpinState.plus())
        assert abs(state.c_minus) > 0.3
        assert abs(state.c_minus - richardson_minus(geom, self.NARROW, 2**18)) < 1e-11


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _hamiltonian(geom, profile, s):
    """(omega0T/2) [sigma_z + xi gT(s) n.sigma], the generator of d psi/ds = i H psi."""
    n_sigma = (
        math.sin(geom.gamma) * math.cos(geom.eta) * SIGMA_X
        + math.sin(geom.gamma) * math.sin(geom.eta) * SIGMA_Y
        + math.cos(geom.gamma) * SIGMA_Z
    )
    return 0.5 * geom.omega0T * (SIGMA_Z + geom.xi * coupling_eval(profile, s) * n_sigma)


def _dense_product(exponents):
    """U[n-1] @ ... @ U[0] with U = exp(i K), each K Hermitian and diagonalized."""
    unitary = np.eye(2, dtype=complex)
    for k in exponents:
        energies, vectors = np.linalg.eigh(k)
        unitary = vectors @ np.diag(np.exp(1j * energies)) @ vectors.conj().T @ unitary
    return unitary


def step_grid(profile, n):
    """(left edge, width) of every step for a nominal n steps.

    n equal steps, except on a tabulated profile with unequal knot
    intervals: there each interval of width h holds ceil(n h) equal steps.
    """
    if profile.kind is not ProfileKind.TABULATED:
        return [(j / n, 1.0 / n) for j in range(n)]
    knots = [s for s, _ in profile.samples]
    steps = []
    for lo, hi in zip(knots, knots[1:]):
        count = math.ceil(n * (hi - lo))
        steps.extend((lo + k * (hi - lo) / count, (hi - lo) / count) for k in range(count))
    return steps


def dense_midpoint_product(geom, profile, n):
    """Product of exponential midpoint steps on step_grid as dense 2x2 matrices."""
    return _dense_product(
        _hamiltonian(geom, profile, left + 0.5 * h) * h for left, h in step_grid(profile, n)
    )


def dense_magnus_product(geom, profile, n):
    """Product of two-Gauss-point Magnus steps on step_grid as dense 2x2 matrices.

    With A = i H, Omega = h/2 (A1 + A2) + (sqrt(3) h^2/12) [A2, A1] is i K
    for the Hermitian K = h/2 (H1 + H2) + i (sqrt(3) h^2/12) [H2, H1].
    """
    offset = math.sqrt(3.0) / 6.0

    def exponent(left, h):
        h1 = _hamiltonian(geom, profile, left + (0.5 - offset) * h)
        h2 = _hamiltonian(geom, profile, left + (0.5 + offset) * h)
        return 0.5 * h * (h1 + h2) + 1j * (math.sqrt(3.0) * h * h / 12.0) * (h2 @ h1 - h1 @ h2)

    return _dense_product(exponent(left, h) for left, h in step_grid(profile, n))


def exact_schedule_unitary(schedule):
    """Compose each constant segment's exact SU(2) propagator from the closed forms."""
    unitary = np.eye(2, dtype=complex)
    for seg in schedule.segments:
        correct, reversed_ = survival_split(seg.geom)
        alpha = correct + reversed_
        beta = -np.conjugate(amplitude_exact(seg.geom).amplitude_minus)
        unitary = np.array([[alpha, beta], [-np.conjugate(beta), np.conjugate(alpha)]]) @ unitary
    return unitary


def three_field_config(omega0T):
    return MultiFieldConfig(
        fields=(
            MeasurementGeometry(0.4, 0.7, 0.2),
            MeasurementGeometry(0.3, 0.7 + 0.5 * math.pi, 0.2),
            MeasurementGeometry(0.2, 0.5 * math.pi, 0.2 + 0.5 * math.pi),
        ),
        omega0T=omega0T,
    )


# Uneven knots, so that the grid is knot-aligned rather than uniform; the
# values are 1 + cos(2 pi (s - 1/2)) rescaled to unit area.
_UNEVEN_KNOTS = (0.0, 0.07, 0.2, 0.31, 0.5, 0.58, 0.77, 0.9, 1.0)
_UNEVEN_VALUES = [1.0 + math.cos(2.0 * math.pi * (s - 0.5)) for s in _UNEVEN_KNOTS]
_UNEVEN_AREA = sum(
    0.5 * (b - a) * (u + v)
    for a, b, u, v in zip(_UNEVEN_KNOTS, _UNEVEN_KNOTS[1:], _UNEVEN_VALUES, _UNEVEN_VALUES[1:])
)
UNEVEN_TABULATED = CouplingProfile.tabulated(
    [(s, v / _UNEVEN_AREA) for s, v in zip(_UNEVEN_KNOTS, _UNEVEN_VALUES)]
)
KERNEL_PROFILES = [CouplingProfile.raised_cosine(), CouplingProfile.optimized(), UNEVEN_TABULATED]


class TestKernel:
    # At omega0T = 20 every one of the 2**8 steps has |c|^2 <= 1/16 and takes
    # the series; at 400 the chunk takes the sine and cosine.
    @pytest.mark.parametrize("omega0T", [20.0, 400.0])
    @pytest.mark.parametrize("profile", KERNEL_PROFILES, ids=lambda p: p.kind.value)
    def test_matches_dense_matrix_product(self, profile, omega0T):
        geom = MeasurementGeometry(xi=0.6, gamma=1.1, eta=0.4, omega0T=omega0T)
        dense = dense_midpoint_product(geom, profile, 2**8)
        sched = HamiltonianSchedule.single(geom, profile)
        for psi0, column in ((SpinState.plus(), 0), (SpinState.minus(), 1)):
            out = propagate_midpoint(sched, psi0, 2**8).as_array()
            assert np.max(np.abs(out - dense[:, column])) < 1e-13

    @pytest.mark.parametrize("omega0T", [20.0, 400.0])
    @pytest.mark.parametrize("profile", KERNEL_PROFILES, ids=lambda p: p.kind.value)
    def test_magnus_matches_dense_matrix_product(self, profile, omega0T):
        geom = MeasurementGeometry(xi=0.6, gamma=1.1, eta=0.4, omega0T=omega0T)
        dense = dense_magnus_product(geom, profile, 2**8)
        sched = HamiltonianSchedule.single(geom, profile)
        for psi0, column in ((SpinState.plus(), 0), (SpinState.minus(), 1)):
            out = propagate(sched, psi0, steps=2**8).as_array()
            assert np.max(np.abs(out - dense[:, column])) < 1e-13

    @pytest.mark.parametrize("omega0T", [20.0, 400.0])
    def test_dense_cases_reach_both_sides_of_the_series_selection(self, monkeypatch, omega0T):
        chunks = []
        series = oracle._cos_sinc_series

        def spy(p, *args):
            chunks.append(p.size)
            return series(p, *args)

        monkeypatch.setattr(oracle, "_cos_sinc_series", spy)
        geom = MeasurementGeometry(xi=0.6, gamma=1.1, eta=0.4, omega0T=omega0T)
        for profile in KERNEL_PROFILES:
            sched = HamiltonianSchedule.single(geom, profile)
            propagate_midpoint(sched, SpinState.plus(), 2**8)
            propagate(sched, SpinState.plus(), steps=2**8)
        # one chunk per run; all take the series at 20, none at 400
        assert len(chunks) == (2 * len(KERNEL_PROFILES) if omega0T == 20.0 else 0)

    def test_series_matches_math_within_two_ulp(self):
        rng = np.random.default_rng(3)
        edges = [x for x in oracle._SERIES_REACH if x < oracle._SERIES_MAX_P]
        ps = np.concatenate([
            [0.0, 1e-300, oracle._SERIES_MAX_P],
            edges,
            np.nextafter(edges, 0.0),
            np.nextafter(edges, 1.0),
            10.0 ** rng.uniform(-20.0, math.log10(oracle._SERIES_MAX_P), 3000),
            rng.uniform(0.0, oracle._SERIES_MAX_P, 3000),
        ])
        for p in ps:
            out = np.empty((2, 1))
            oracle._cos_sinc_series(np.array([p]), p, out)
            cos, sinc = out
            x = math.sqrt(p)
            ref_cos = math.cos(x)
            ref_sinc = math.sin(x) / x if x > 0.0 else 1.0
            assert abs(cos[0] - ref_cos) <= 2.0 * math.ulp(ref_cos), p
            assert abs(sinc[0] - ref_sinc) <= 2.0 * math.ulp(ref_sinc), p

    @pytest.mark.parametrize("profile", KERNEL_PROFILES[:2], ids=lambda p: p.kind.value)
    def test_grid_coupling_matches_coupling_eval(self, profile):
        for n in (2**7, 2**8, 2**14, 2**15, 2**22):
            width = 1.0 / n
            for count in (1, 127, 128, 129, 2**14):
                if count > n:
                    continue
                for start in sorted({0, (n - count) // 3, (n - count) // 2, n - count}):
                    j = np.arange(start, start + count, dtype=float)
                    for offset in (0.5, 0.5 - oracle._GAUSS_OFFSET, 0.5 + oracle._GAUSS_OFFSET):
                        grid = coupling_grid(profile, n, start, start + count, offset)
                        ref = coupling_eval(profile, j * width + offset * width)
                        assert np.max(np.abs(grid - ref)) <= 1e-15, (n, count, start, offset)

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("profile", KERNEL_PROFILES[:2], ids=lambda p: p.kind.value)
    def test_no_sine_or_cosine_per_step(self, monkeypatch, profile, order):
        sizes = []

        def counted(func):
            def wrapper(x, *args, **kwargs):
                sizes.append(np.size(x))
                return func(x, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "sin", counted(np.sin))
        monkeypatch.setattr(np, "cos", counted(np.cos))
        geom = MeasurementGeometry(xi=0.6, gamma=1.1, eta=0.4, omega0T=50.0)
        seg = Segment(geom, profile)
        alpha, _ = oracle._steps(seg, [((None, 2**16), 2**14, 2**15)], order)
        assert alpha.size == 2**14
        assert sizes and max(sizes) <= 256

    @pytest.mark.parametrize(
        "geom, profile, steps",
        [
            (MeasurementGeometry(xi=0.3, gamma=1.0, eta=0.2, omega0T=150.0),
             CouplingProfile.raised_cosine(), 2**19),
            (MeasurementGeometry(xi=0.05, gamma=0.7, eta=0.4, omega0T=400.0),
             CouplingProfile.optimized(), 2**17),
        ],
    )
    def test_crosscheck_steps_used_pinned(self, geom, profile, steps):
        # recorded with the sine-and-cosine kernel the series replaced
        assert crosscheck(geom, profile).steps_used == steps

    def test_unitarity_forward_and_reverse_across_chunks(self):
        # 2**18 steps span several chunks of the product reduction
        geom = MeasurementGeometry(xi=0.5, gamma=1.0, eta=0.3, omega0T=50.0)
        sched = HamiltonianSchedule.single(geom, CouplingProfile.optimized())
        for run in (propagate, propagate_midpoint):
            column = run(sched, SpinState.plus(), steps=2**18)
            fwd = run(sched, MIXED_STATE, steps=2**18)
            back = apply_adjoint(column, fwd)
            assert abs(column.norm() - 1.0) < 1e-14
            assert abs(fwd.norm() - 1.0) < 1e-14
            assert abs(back.c_plus - MIXED_STATE.c_plus) < 1e-12
            assert abs(back.c_minus - MIXED_STATE.c_minus) < 1e-12

    def test_constant_segment_computes_one_step(self, monkeypatch):
        sizes = []
        series = oracle._cos_sinc_series

        def spy(p, *args):
            sizes.append(p.size)
            return series(p, *args)

        def counted(func):
            def wrapper(x, *args, **kwargs):
                sizes.append(np.size(x))
                return func(x, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(oracle, "_cos_sinc_series", spy)
        monkeypatch.setattr(np, "sin", counted(np.sin))
        monkeypatch.setattr(np, "cos", counted(np.cos))
        constant = CouplingProfile.constant()
        # 20 takes the series, 3e4 the sine and cosine
        for omega0T in (20.0, 3e4):
            geom = MeasurementGeometry(xi=0.6, gamma=1.1, eta=0.4, omega0T=omega0T)
            crosscheck(geom, constant)
            propagate(HamiltonianSchedule.single(geom, constant), SpinState.plus(), steps=2**15)
        assert sizes and set(sizes) == {1}


# Equally spaced knots: the tabulated profile steps on the uniform grid.
_EVEN_KNOTS = [k / 128 for k in range(129)]
_EVEN_VALUES = [1.0 + math.cos(2.0 * math.pi * (s - 0.5)) for s in _EVEN_KNOTS]
_EVEN_AREA = math.fsum(0.5 * (u + v) / 128 for u, v in zip(_EVEN_VALUES, _EVEN_VALUES[1:]))
EVEN_TABULATED = CouplingProfile.tabulated([(s, v / _EVEN_AREA) for s, v in zip(_EVEN_KNOTS, _EVEN_VALUES)])
BIT_PROFILES = [CouplingProfile.constant(), *KERNEL_PROFILES[:2], EVEN_TABULATED, UNEVEN_TABULATED]
BIT_STEPS = (1, 2, 3, 255, 2**14 - 1, 2**14, 2**14 + 1, 2**15 + 3)
# Several full chunks and a tail; full chunks only.
LONG_STEPS = (3 * 2**14 + 1, 2**17)


def profile_id(profile):
    return profile.kind.value if profile.samples is None else f"{profile.kind.value}-{len(profile.samples)}"


def same_bits(x, y):
    return repr(x.tolist()) == repr(y.tolist())


class TestKernelBits:
    """The chunk kernel returns the bits of the reference copy in helpers."""

    def assert_same_bits(self, sched, order, step_counts=BIT_STEPS):
        for steps in step_counts:
            grids = oracle._grids(sched, steps)
            out = oracle._run(sched, MIXED_STATE.as_array(), grids, order)
            assert same_bits(out, reference_run(sched, MIXED_STATE.as_array(), grids, order)), steps

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("omega0T", [20.0, 400.0, 3e4])
    @pytest.mark.parametrize("profile", BIT_PROFILES, ids=profile_id)
    def test_single_segment(self, profile, omega0T, order):
        geom = MeasurementGeometry(xi=0.6, gamma=1.1, eta=0.4, omega0T=omega0T)
        sched = HamiltonianSchedule.single(geom, profile)
        steps = BIT_STEPS + LONG_STEPS if profile.kind is ProfileKind.CONSTANT else BIT_STEPS
        profile._grid_memo.clear()
        self.assert_same_bits(sched, order, steps)
        # again with the memo warm, on the counts whose passes it holds
        self.assert_same_bits(sched, order, [n for n in steps if n < _GRID_TABLE_MIN])

    @staticmethod
    def constant_and_driven_legs():
        constant_leg = MeasurementGeometry(xi=0.4, gamma=0.7, eta=0.2, omega0T=300.0)
        driven_leg = MeasurementGeometry(xi=0.3, gamma=2.2, eta=1.9, omega0T=50.0)
        return (
            Segment(constant_leg, CouplingProfile.constant()),
            Segment(driven_leg, CouplingProfile.raised_cosine()),
        )

    @pytest.mark.parametrize("order", [2, 4])
    def test_constant_leg_then_driven_leg(self, order):
        sched = HamiltonianSchedule(self.constant_and_driven_legs())
        self.assert_same_bits(sched, order, BIT_STEPS + LONG_STEPS)

    @pytest.mark.parametrize("order", [2, 4])
    def test_driven_leg_then_constant_leg(self, order):
        sched = HamiltonianSchedule(self.constant_and_driven_legs()[::-1])
        self.assert_same_bits(sched, order, LONG_STEPS)

    def test_three_field_succession(self):
        sched = successive_schedule(three_field_config(21.0))
        grids = oracle._grids(sched, 2**17)
        out = propagate(sched, MIXED_STATE, steps=2**17).as_array()
        assert same_bits(out, reference_run(sched, MIXED_STATE.as_array(), grids, 4))

    def test_cases_reach_the_series_and_the_trig_branch(self, monkeypatch):
        calls = {"steps": 0, "series": 0}
        kernel, series = oracle._steps, oracle._cos_sinc_series

        def count(key, func):
            def wrapper(*args):
                calls[key] += 1
                return func(*args)
            return wrapper

        monkeypatch.setattr(oracle, "_steps", count("steps", kernel))
        monkeypatch.setattr(oracle, "_cos_sinc_series", count("series", series))
        for omega0T in (20.0, 400.0, 3e4):
            geom = MeasurementGeometry(xi=0.6, gamma=1.1, eta=0.4, omega0T=omega0T)
            sched = HamiltonianSchedule.single(geom, CouplingProfile.raised_cosine())
            for steps in BIT_STEPS:
                oracle._run(sched, MIXED_STATE.as_array(), oracle._grids(sched, steps), 2)
        assert 0 < calls["series"] < calls["steps"]

    def test_constant_crosscheck(self, monkeypatch):
        geoms = random_geometries(np.random.default_rng(20), 200, omega_max=3e4)
        constant = CouplingProfile.constant()
        reports = [crosscheck(geom, constant) for geom in geoms]
        monkeypatch.setattr(oracle, "_runs", reference_runs)
        for geom, report in zip(geoms, reports):
            assert repr(report) == repr(crosscheck(geom, constant)), geom

    def test_constant_segment_reduces_one_full_chunk_per_run(self, monkeypatch):
        full_chunks = []
        compose = oracle._compose

        def spy(alpha, beta, sizes=None):
            full_chunks.extend(size == oracle._CHUNK for size in sizes or [alpha.size])
            return compose(alpha, beta, sizes)

        monkeypatch.setattr(oracle, "_compose", spy)
        geom = MeasurementGeometry(xi=0.6, gamma=1.1, eta=0.4, omega0T=400.0)
        constant = CouplingProfile.constant()
        # runs of 2**14 and 2**15 midpoint steps, one full chunk reduced in each
        assert crosscheck(geom, constant).steps_used == 2**15
        assert sum(full_chunks) == 2
        for sched, steps in (
            (HamiltonianSchedule.single(geom, constant), 2**20),
            (HamiltonianSchedule(self.constant_and_driven_legs()), 3 * 2**14 + 1),
            (HamiltonianSchedule(self.constant_and_driven_legs()[::-1]), 2**17),
            (successive_schedule(three_field_config(21.0)), 2**17),
        ):
            # one reduction per constant segment, every full chunk of a driven one
            expected = 0
            for seg, (_, counts) in zip(sched.segments, oracle._grids(sched, steps)):
                full = counts // oracle._CHUNK
                expected += min(full, 1) if seg.profile.kind is ProfileKind.CONSTANT else full
            full_chunks.clear()
            propagate(sched, MIXED_STATE, steps=steps)
            assert sum(full_chunks) == expected, steps


# Step counts of runs stepped together: the adaptive drivers' first pair and
# order runs, parts below and above _GRID_TABLE_MIN, equal parts, and a
# part of a whole chunk.
BATCHES = ((2**8, 2**9), (2**10, 2**11, 2**12), (2**8, 2**11), (2**9, 2**9), (2**8, 2**14))
ADAPTIVE_PROFILES = [*KERNEL_PROFILES[:2], EVEN_TABULATED, UNEVEN_TABULATED]


class TestRunsTogether:
    """Runs stepped in one pass keep the bits of each run stepped on its own."""

    @pytest.mark.parametrize("order", [2, 4])
    # 1e-9 sums one series term, 3 a different count per part, 400 mixes
    # sine-and-cosine parts with series parts, 3e4 takes sines throughout
    @pytest.mark.parametrize("omega0T", [1e-9, 3.0, 400.0, 3e4])
    @pytest.mark.parametrize("profile", BIT_PROFILES[1:], ids=profile_id)
    def test_runs_match_reference(self, profile, omega0T, order):
        geom = MeasurementGeometry(xi=0.6, gamma=1.1, eta=0.4, omega0T=omega0T)
        sched = HamiltonianSchedule.single(geom, profile)
        psi = MIXED_STATE.as_array()
        profile._grid_memo.clear()
        for counts in BATCHES:
            # given finest first, so the pass has to sort them
            grid_lists = [oracle._grids(sched, n) for n in reversed(counts)]
            ref = reference_runs(sched, psi, grid_lists, order)
            for memo in ("cold", "warm"):
                out = oracle._runs(sched, psi, grid_lists, order)
                assert [same_bits(x, y) for x, y in zip(out, ref)] == [True] * len(counts), (counts, memo)

    def test_series_parts_match_their_own_passes(self):
        rng = np.random.default_rng(26)
        # largest |c|^2 per part: falling, rising (each part then on its
        # own), equal, one-term parts, and sine-and-cosine parts among them
        for tops in ((2.0, 1e-3, 1e-7), (1e-7, 1e-3, 2.0), (1e-3, 1e-3, 1e-21), (0.05, 2.0, 1e-5, 1e-21)):
            parts = [rng.uniform(0.0, top, 37) for top in tops]
            for part, top in zip(parts, tops):
                part[rng.integers(37)] = top
            ends = list(np.cumsum([part.size for part in parts]))
            joined = oracle._cos_sinc(np.concatenate(parts), list(tops), ends)
            alone = np.concatenate(
                [oracle._cos_sinc(part, [top], [part.size]) for part, top in zip(parts, tops)], axis=1,
            )
            assert same_bits(joined, alone), tops

    def test_first_pair_and_order_runs_take_one_pass(self, monkeypatch):
        passes = []
        steps = oracle._steps

        def spy(seg, parts, order, memoized=False):
            passes.append(([stop - start for _, start, stop in parts], memoized))
            return steps(seg, parts, order, memoized)

        monkeypatch.setattr(oracle, "_steps", spy)
        geom = MeasurementGeometry(xi=0.05, gamma=1.0, eta=0.2, omega0T=3.0)
        profile = CouplingProfile.raised_cosine()
        propagate(HamiltonianSchedule.single(geom, profile), SpinState.plus())
        # the first pair is the one pass the profile's memo holds
        assert passes == [([2**8, 2**9], True)]
        passes.clear()
        crosscheck(geom, profile)
        # the adaptive midpoint runs start at a whole chunk of 2**14 steps
        assert [part for part in passes if sum(part[0]) < 2**14] == [([2**10, 2**11, 2**12], False)]

    @pytest.mark.parametrize("profile", ADAPTIVE_PROFILES, ids=profile_id)
    def test_adaptive_driver_keeps_its_bits(self, monkeypatch, profile):
        # Magnus propagate stops at 2**9, 2**10 and 2**11 steps on these
        geoms = random_geometries(np.random.default_rng(26), 8, xi_max=0.5, omega_max=60.0)
        stops = set()
        profile._grid_memo.clear()  # cold on the first geometry, warm on the rest
        for geom in geoms:
            sched = HamiltonianSchedule.single(geom, profile)
            for psi0 in (SpinState.plus(), MIXED_STATE):
                final, steps = reference_adaptive(sched, psi0.as_array(), 4)
                stops.add(steps)
                expected = SpinState(complex(final[0]), complex(final[1]))
                assert repr(propagate(sched, psi0)) == repr(expected), geom
        assert {2**9, 2**10, 2**11} <= stops
        reports = [crosscheck(geom, profile) for geom in geoms]
        monkeypatch.setattr(oracle, "_propagate_adaptive", reference_adaptive)
        monkeypatch.setattr(oracle, "_runs", reference_runs)
        for geom, report in zip(geoms, reports):
            assert repr(report) == repr(crosscheck(geom, profile)), geom


MEMO_PROFILES = [*KERNEL_PROFILES[:2], EVEN_TABULATED]


def first_pair(sched):
    """The grid lists of propagate's first pair, which _runs steps in one pass."""
    grids = oracle._grids(sched, oracle.START_STEPS[4])
    return [grids, oracle._refine(grids)]


class TestGridMemo:
    """A profile keeps the couplings and widths of the small passes _runs steps together."""

    @pytest.mark.parametrize("profile", MEMO_PROFILES, ids=profile_id)
    def test_warm_first_pass_evaluates_no_coupling(self, monkeypatch, profile):
        calls = {"coupling_grid": 0, "interp": 0}

        def count(key, func):
            def counted(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return counted

        monkeypatch.setattr(oracle, "coupling_grid", count("coupling_grid", oracle.coupling_grid))
        monkeypatch.setattr(np, "interp", count("interp", np.interp))
        geom = MeasurementGeometry(xi=0.01, gamma=1.0, eta=0.3, omega0T=5.0)
        sched = HamiltonianSchedule.single(geom, profile)
        psi = SpinState.plus().as_array()
        profile._grid_memo.clear()
        oracle._runs(sched, psi, first_pair(sched), 4)
        # cold: a built-in profile evaluates each part at each Gauss point, a
        # tabulated one the whole pass at each Gauss point
        assert sum(calls.values()) == (2 if profile.kind is ProfileKind.TABULATED else 4)
        calls.update(dict.fromkeys(calls, 0))
        oracle._runs(sched, psi, first_pair(sched), 4)
        assert calls == {"coupling_grid": 0, "interp": 0}

    def test_holds_read_only_arrays(self):
        profile = CouplingProfile.optimized()
        profile._grid_memo.clear()
        geom = MeasurementGeometry(xi=0.1, gamma=1.0, eta=0.3, omega0T=5.0)
        propagate(HamiltonianSchedule.single(geom, profile), SpinState.plus())
        [(width, couplings)] = profile._grid_memo.values()
        # the per-step widths and the couplings at the two Gauss points of the first pair
        arrays = [width, *couplings]
        assert [array.size for array in arrays] == [2**8 + 2**9] * 3
        assert not any(array.flags.writeable for array in arrays)

    @pytest.mark.parametrize("profile", MEMO_PROFILES, ids=profile_id)
    def test_key_set_is_fixed_by_the_first_call(self, profile):
        geoms = random_geometries(np.random.default_rng(30), 51, xi_max=0.5, omega_max=60.0)
        profile._grid_memo.clear()
        propagate(HamiltonianSchedule.single(geoms[0], profile), SpinState.plus())
        keys = set(profile._grid_memo)
        assert keys
        for geom in geoms[1:]:
            propagate(HamiltonianSchedule.single(geom, profile), SpinState.plus())
        assert set(profile._grid_memo) == keys

    def test_constant_and_knot_aligned_profiles_keep_nothing(self):
        geom = MeasurementGeometry(xi=0.3, gamma=1.0, eta=0.3, omega0T=5.0)
        for profile in (CouplingProfile.constant(), UNEVEN_TABULATED):
            profile._grid_memo.clear()
            propagate(HamiltonianSchedule.single(geom, profile), SpinState.plus())
            propagate(HamiltonianSchedule.single(geom, profile), SpinState.plus(), steps=256)
            assert profile._grid_memo == {}

    @pytest.mark.parametrize("profile", MEMO_PROFILES, ids=profile_id)
    def test_multi_segment_schedule_keeps_nothing(self, profile):
        # two equal budgets give each segment 2**k steps below _GRID_TABLE_MIN
        # (128 and 256 of the first pair); segments are never stepped together
        profile._grid_memo.clear()
        geoms = random_geometries(np.random.default_rng(31), 8, xi_max=0.5, omega_max=60.0)
        for first, second in zip(geoms[::2], geoms[1::2]):
            second = MeasurementGeometry(xi=second.xi, gamma=second.gamma, eta=second.eta, omega0T=first.omega0T)
            sched = HamiltonianSchedule((Segment(first, profile), Segment(second, profile)))
            propagate(sched, SpinState.plus())
            propagate(sched, SpinState.plus(), steps=512)
        assert profile._grid_memo == {}

    @pytest.mark.parametrize("profile", MEMO_PROFILES, ids=profile_id)
    def test_fixed_steps_keep_one_key_per_power_of_two_below_the_table(self, profile):
        profile._grid_memo.clear()
        for steps in (256, 300, 512, 1024, 256):
            geom = MeasurementGeometry(xi=0.2, gamma=1.0, eta=0.3, omega0T=float(steps) / 50.0)
            propagate(HamiltonianSchedule.single(geom, profile), SpinState.plus(), steps=steps)
        offsets = (0.5 - oracle._GAUSS_OFFSET, 0.5 + oracle._GAUSS_OFFSET)
        assert set(profile._grid_memo) == {((256,), offsets), ((512,), offsets)}

    def test_import_memoizes_nothing(self):
        code = (
            "import gc\n"
            "import protspin as ps\n"
            "profiles = [p for p in gc.get_objects() if isinstance(p, ps.CouplingProfile)]\n"
            "assert all(p._grid_memo == {} for p in profiles), profiles\n"
        )
        src = str(Path(oracle.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_factories_build_a_new_instance_with_its_own_memo(self):
        profile = CouplingProfile.optimized()
        geom = MeasurementGeometry(xi=0.1, gamma=1.0, eta=0.3, omega0T=5.0)
        propagate(HamiltonianSchedule.single(geom, profile), SpinState.plus())
        fresh = CouplingProfile.optimized()
        assert fresh is not profile and fresh == profile and hash(fresh) == hash(profile)
        assert repr(fresh) == repr(profile) == f"CouplingProfile(kind={ProfileKind.OPTIMIZED!r}, samples=None)"
        assert profile._grid_memo and fresh._grid_memo == {}


class TestStaticFastPath:
    @pytest.mark.parametrize("make_schedule", [successive_schedule, simultaneous_schedule])
    @pytest.mark.parametrize("omega0T", [0.3, 21.0, 700.0])
    def test_matches_composed_exact_propagators(self, make_schedule, omega0T):
        sched = make_schedule(three_field_config(omega0T))
        exact = exact_schedule_unitary(sched)
        plus = propagate(sched, SpinState.plus()).as_array()
        minus = propagate(sched, SpinState.minus()).as_array()
        assert np.max(np.abs(plus - exact[:, 0])) < 1e-12
        assert np.max(np.abs(minus - exact[:, 1])) < 1e-12

    def test_takes_one_step_per_segment(self):
        sched = successive_schedule(three_field_config(21.0))
        assert propagate(sched, SpinState.plus()) == propagate(sched, SpinState.plus(), steps=3)

    @staticmethod
    def random_state(rng):
        c = rng.normal(size=4)
        c /= np.linalg.norm(c)
        return SpinState(complex(c[0], c[1]), complex(c[2], c[3]))

    @staticmethod
    def static_schedules(geoms):
        """One field alone, then three fields in succession and superposed."""
        config = MultiFieldConfig(geoms, omega0T=geoms[0].omega0T, relaxed=True)
        return (
            HamiltonianSchedule.single(geoms[0], CouplingProfile.constant()),
            successive_schedule(config),
            simultaneous_schedule(config),
        )

    def test_scalar_step_matches_array_kernel(self):
        rng = np.random.default_rng(11)
        for geoms in zip(*[iter(random_geometries(rng, 90, omega_max=1e4))] * 3):
            psi0 = self.random_state(rng)
            for sched in self.static_schedules(geoms):
                grids = [(None, 1)] * len(sched.segments)
                kernel = oracle._run(sched, psi0.as_array(), grids, 4)
                scalar = propagate(sched, psi0).as_array()
                assert np.max(np.abs(scalar - kernel)) < 1e-15

    def test_zero_budget_returns_initial_state(self):
        rng = np.random.default_rng(12)
        geoms = [MeasurementGeometry(g.xi, g.gamma, g.eta, 0.0) for g in random_geometries(rng, 3)]
        psi0 = self.random_state(rng)
        for sched in self.static_schedules(geoms):
            assert propagate(sched, psi0) == psi0

    def test_never_reaches_array_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("static schedule reached the array kernel")

        monkeypatch.setattr(oracle, "_steps", refuse)
        monkeypatch.setattr(oracle, "_compose", refuse)
        single = HamiltonianSchedule.single(
            MeasurementGeometry(xi=0.3, gamma=1.1, eta=0.2, omega0T=40.0), CouplingProfile.constant()
        )
        successive = successive_schedule(three_field_config(21.0))
        for sched in (single, successive):
            assert abs(propagate(sched, SpinState.plus()).norm() - 1.0) < 1e-15
        assert abs(propagate(successive, SpinState.plus(), steps=3).norm() - 1.0) < 1e-15


class TestNearDegeneratePoint:
    """Along xi = 1 - d, gamma = pi - d the total field shrinks like d.

    The closed forms there are pinned against a decimal reference in
    test_exact; the oracle must follow them.
    """

    @pytest.mark.parametrize("omega0T", [10.0, 1e3])
    @pytest.mark.parametrize("d", [10.0**-k for k in range(2, 13)])
    def test_oracle_matches_closed_forms(self, d, omega0T):
        geom = MeasurementGeometry(xi=1.0 - d, gamma=math.pi - d, eta=0.3, omega0T=omega0T)
        constant = CouplingProfile.constant()
        sched = HamiltonianSchedule.single(geom, constant)
        adaptive = propagate(sched, SpinState.plus())
        assert compare.closed_form_deviation(geom, adaptive) < 1e-13
        midpoint = propagate_midpoint(sched, SpinState.plus(), 2**14)
        assert compare.closed_form_deviation(geom, midpoint) < 1e-13
        assert crosscheck(geom, constant).exact_deviation < 1e-13


class TestCrosscheck:
    def test_constant_profile_matches_closed_form(self):
        rep = crosscheck(
            MeasurementGeometry(xi=0.3, gamma=1.1, eta=0.2, omega0T=40.0), CouplingProfile.constant()
        )
        assert rep.exact_deviation is not None
        assert rep.exact_deviation < 1e-10
        # crosscheck keeps the adaptive driver, which the static fast path rests on
        assert rep.steps_used >= 2**15
        assert rep.convergence_order is None

    def test_perturbative_regime(self):
        rep = crosscheck(
            MeasurementGeometry(xi=1e-3, gamma=math.pi / 2, omega0T=20.0),
            CouplingProfile.raised_cosine(),
        )
        assert rep.exact_deviation is None
        assert rep.first_order_relative < 1e-5
        assert rep.convergence_order is not None
        assert abs(rep.convergence_order - 2.0) < 0.1

    def test_zero_coupling_gives_zero_deviations(self):
        rep = crosscheck(
            MeasurementGeometry(xi=0.0, gamma=1.0, omega0T=15.0), CouplingProfile.optimized()
        )
        assert rep.first_order_deviation == 0.0
        assert rep.first_order_relative == 0.0


class TestRosenZener:
    """An exact answer for a driven pulse: the sech switch at gamma = pi/2.

    With n transverse to z the Hamiltonian is (omega0T/2)[sigma_z + xi g(s)
    n.sigma].  For g(s) = sech((s - 1/2)/tau)/(pi tau), whose integral over
    the line is 1, Rosen and Zener (Phys. Rev. 40 (1932) 502) found
    p_minus = sin^2(xi omega0T/2) sech^2(pi omega0T tau/2).  At tau = 1/60
    the tails cut off by [0, 1] hold about 1e-13 of the pulse, far below the
    bounds here.  The pulse replaces the raised cosine in the oracle's
    coupling function, and each case takes a fresh profile, whose coupling
    memo then holds only sech values.  The bounds are relative on p_minus,
    several times the largest error measured over omega0T 10-200 and xi 1e-3
    to 0.05 (2e-11 at 2**16 fixed steps, 1.5e-9 adaptive); zeroing the
    Magnus commutator term makes the fixed-step error 4e-9 to 1.7e-6.
    """

    TAU = 1.0 / 60.0
    CASES = [(omega0T, xi) for omega0T in (10.0, 50.0, 200.0) for xi in (1e-3, 0.05)]

    @pytest.fixture
    def sech_pulse(self, monkeypatch):
        tau = self.TAU

        def grid(profile, n, start, stop, offset):
            s = (np.arange(start, stop, dtype=float) + offset) / n
            return 1.0 / (math.pi * tau * np.cosh((s - 0.5) / tau))

        monkeypatch.setattr(oracle, "coupling_grid", grid)
        return grid

    def exact(self, omega0T, xi):
        return (math.sin(0.5 * xi * omega0T) / math.cosh(0.5 * math.pi * omega0T * self.TAU)) ** 2

    def relative_error(self, omega0T, xi, steps):
        geom = MeasurementGeometry(xi=xi, gamma=math.pi / 2, eta=0.7, omega0T=omega0T)
        schedule = HamiltonianSchedule.single(geom, CouplingProfile.raised_cosine())
        p_minus = abs(propagate(schedule, SpinState.plus(), steps=steps).c_minus) ** 2
        return abs(p_minus / self.exact(omega0T, xi) - 1.0)

    def test_pulse_is_normalized(self, sech_pulse):
        # (2/pi) gd(1/(2 tau)), the integral over [0, 1], with gd(x) = 2 atan(tanh(x/2))
        assert abs(4.0 / math.pi * math.atan(math.tanh(0.25 / self.TAU)) - 1.0) < 1e-12
        # the midpoint rule is spectrally accurate on a pulse whose ends are flat
        assert abs(float(np.mean(sech_pulse(None, 2**16, 0, 2**16, 0.5))) - 1.0) < 1e-12

    @pytest.mark.parametrize("omega0T, xi", CASES)
    def test_fixed_steps(self, sech_pulse, omega0T, xi):
        assert self.relative_error(omega0T, xi, 2**16) < 1e-10

    @pytest.mark.parametrize("omega0T, xi", CASES)
    def test_adaptive(self, sech_pulse, omega0T, xi):
        assert self.relative_error(omega0T, xi, None) < 1e-8
