"""The oracle against the closed forms and first order: crosscheck and verify.

This is the one module that imports both the oracle and the closed forms;
neither imports it, nor does the oracle import the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CouplingProfile, HamiltonianSchedule, MeasurementGeometry, ProfileKind, SpinState
from .dyson import first_order_amplitude
from .exact import amplitude_exact, survival_split
from .multimeas import MultiFieldConfig, simultaneous_amplitude, successive_amplitude
from .oracle import _midpoint_check, propagate


def closed_form_deviation(geom: MeasurementGeometry, state: SpinState) -> float:
    """Largest deviation of state, evolved from |+> at constant coupling, from the closed forms.

    max(|c_minus - A_minus|, |c_plus - A_plus|) with A_minus from
    amplitude_exact and A_plus the sum of survival_split's two branches.
    """
    a_minus = amplitude_exact(geom).amplitude_minus
    correct, reversed_ = survival_split(geom)
    return max(abs(state.c_minus - a_minus), abs(state.c_plus - (correct + reversed_)))


def _first_order_deviation(profile: CouplingProfile, geom: MeasurementGeometry, c_minus: complex):
    """|c_minus - A1| and that over |A1|, A1 the first-order amplitude; 0/0 reads 0, x/0 inf."""
    fo = first_order_amplitude(profile, geom).amplitude
    fo_dev = abs(c_minus - fo)
    if abs(fo) > 0.0:
        return fo_dev, fo_dev / abs(fo)
    return fo_dev, 0.0 if fo_dev == 0.0 else math.inf


@dataclass(frozen=True)
class CrosscheckReport:
    """Oracle-versus-closed-form deviations for one geometry and profile."""

    profile_kind: ProfileKind
    steps_used: int
    exact_deviation: float | None
    first_order_deviation: float
    first_order_relative: float
    convergence_order: float | None


def crosscheck(geom: MeasurementGeometry, profile: CouplingProfile) -> CrosscheckReport:
    """Propagate |+> through (geom, profile) and compare against closed forms.

    The oracle here is the adaptive midpoint rule, whatever propagate's
    default.  exact_deviation is only defined for the constant profile (max
    difference over both amplitudes); the first-order comparison applies to
    every kind.  The convergence order is a Richardson estimate of the
    midpoint rule from three coarse runs (2**10 to 2**12 steps) and is None
    when successive refinements sit at round-off (static Hamiltonian).
    """
    state, steps_used, order = _midpoint_check(HamiltonianSchedule.single(geom, profile))
    exact_dev = None
    if profile.kind is ProfileKind.CONSTANT:
        exact_dev = closed_form_deviation(geom, state)
    fo_dev, fo_rel = _first_order_deviation(profile, geom, state.c_minus)
    return CrosscheckReport(
        profile_kind=profile.kind,
        steps_used=steps_used,
        exact_deviation=exact_dev,
        first_order_deviation=fo_dev,
        first_order_relative=fo_rel,
        convergence_order=order,
    )


def _check(name: str, cases: int, deviation: float, tolerance: float) -> dict:
    return {
        "name": name,
        "cases": cases,
        "max_deviation": deviation,
        "tolerance": tolerance,
        "passed": bool(deviation < tolerance),
    }


def verify(seed: int = 42, cases: int = 100, exact_tol: float = 1e-10, first_order_tol: float = 1e-4) -> dict:
    """The record of `protspin verify`: the oracle against the closed forms and first order.

    Raises the CLI's ValueError for cases < 1, seed < 0 or a tolerance that is not finite and positive.
    """
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for flag, tol in (("exact-tol", exact_tol), ("first-order-tol", first_order_tol)):
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"{flag} must be finite and > 0, got {tol}")
    rng = np.random.default_rng(seed)
    exact_worst = 0.0
    for _ in range(cases):
        geom = MeasurementGeometry(
            xi=float(rng.uniform(0.0, 2.0)),
            gamma=float(rng.uniform(0.0, math.pi)),
            eta=float(rng.uniform(0.0, 2.0 * math.pi)),
            omega0T=float(np.exp(rng.uniform(math.log(0.1), math.log(1000.0)))),
        )
        schedule = HamiltonianSchedule.single(geom, CouplingProfile.constant())
        state = propagate(schedule, SpinState.plus())
        exact_worst = max(exact_worst, closed_form_deviation(geom, state))

    profiles = (CouplingProfile.constant(), CouplingProfile.raised_cosine(), CouplingProfile.optimized())
    first_order_worst = 0.0
    for profile in profiles:
        # gamma = pi/2 suppresses the quadratic correction term
        geom = MeasurementGeometry(xi=1e-3, gamma=0.5 * math.pi, eta=0.4, omega0T=5.0)
        state = propagate(HamiltonianSchedule.single(geom, profile), SpinState.plus())
        first_order_worst = max(first_order_worst, _first_order_deviation(profile, geom, state.c_minus)[1])

    config = MultiFieldConfig.axes(0.01, 0.008, 0.006, omega0T=10.0 * math.pi)
    dev = abs(simultaneous_amplitude(config) - successive_amplitude(config))

    geom = MeasurementGeometry(xi=0.3, gamma=1.0, eta=0.7, omega0T=50.0)
    state = propagate(
        HamiltonianSchedule.single(geom, CouplingProfile.raised_cosine()),
        SpinState.plus(),
        steps=2 ** 14,
    )
    checks = [
        _check("exact-vs-oracle", cases, exact_worst, exact_tol),
        _check("first-order-small-xi", len(profiles), first_order_worst, first_order_tol),
        _check("successive-equals-simultaneous-at-2pi-multiple", 1, dev, 1e-12),
        _check("unitarity", 1, abs(state.norm() - 1.0), 1e-12),
    ]
    return {"seed": seed, "checks": checks, "all_passed": all(c["passed"] for c in checks)}
