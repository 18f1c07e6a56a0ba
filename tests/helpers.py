"""Shared test utilities: brute-force integral references and geometry sampling."""

import math

import numpy as np

from protspin import (
    CouplingProfile,
    HamiltonianSchedule,
    MeasurementGeometry,
    SpinState,
    coupling_eval,
    oracle,
)


def simpson_phased_integral(profile, omega0T, n=2**16):
    """Composite-Simpson reference for the phased coupling integral.

    Deliberately a different algorithm from the library's closed forms so
    the two can cross-check each other.
    """
    s = np.linspace(0.0, 1.0, n + 1)
    f = coupling_eval(profile, s) * np.exp(1j * omega0T * s)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = 1.0 / n
    return complex(np.sum(w * f) * h / 3.0)


def propagate_midpoint(schedule, psi0, steps):
    """propagate with fixed exponential midpoint steps instead of Magnus steps.

    The second-order rule is private to the oracle, where crosscheck runs
    it; the tests pin it and check the Magnus steps against it.
    """
    psi = oracle._run(schedule, psi0.as_array(), oracle._grids(schedule, steps), 2)
    return SpinState(complex(psi[0]), complex(psi[1]))


def forbid_numpy_vector_algebra(monkeypatch):
    """Make numpy's small-vector routines raise, for code that must not call them."""
    def refuse(*args, **kwargs):
        raise AssertionError("numpy vector algebra called")

    for name in ("cross", "dot", "eye", "zeros"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)


def richardson_minus(geom, profile, n_coarse=2**17):
    """Step-doubled midpoint transition amplitude with the leading error term removed."""
    sched = HamiltonianSchedule.single(geom, profile)
    a1 = propagate_midpoint(sched, SpinState.plus(), n_coarse).c_minus
    a2 = propagate_midpoint(sched, SpinState.plus(), 2 * n_coarse).c_minus
    return a2 + (a2 - a1) / 3.0


def random_geometries(rng, count, xi_max=2.0, omega_max=1.0e3):
    """Seeded random geometries spanning the supported parameter ranges."""
    out = []
    for _ in range(count):
        out.append(
            MeasurementGeometry(
                xi=float(rng.uniform(0.0, xi_max)),
                gamma=float(rng.uniform(0.0, math.pi)),
                eta=float(rng.uniform(0.0, 2.0 * math.pi)),
                omega0T=float(np.exp(rng.uniform(math.log(0.1), math.log(omega_max)))),
            )
        )
    return out
