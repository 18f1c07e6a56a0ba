"""First-order transition amplitude for an arbitrary coupling profile.

To lowest order in xi the spin-flip amplitude factorizes into the geometry
prefactor and the phased integral of the profile:

    A1 = i e^{-i omega0T/2} (omega0T/2) xi e^{i eta} sin(gamma)
         * int_0^1 e^{i omega0T s} gT(s) ds.

Smooth profiles suppress the integral at large omega0T: the raised-cosine
envelope falls off as pi^2/(omega0T/2)^3 relative to the constant-profile
prefactor, the two-harmonic optimized profile as 4 pi^4/(omega0T/2)^5.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import (
    TWO_PI,
    CouplingProfile,
    MeasurementGeometry,
    ProfileKind,
    _check_omega0T,
    phased_integral,
)

# Below this the smooth-profile envelopes are not meaningful approximations.
MIN_SMOOTH_OMEGA0T = 2.0 * TWO_PI

# Absolute rounding allowance of the envelope: where the amplitude is
# subnormal (sin(gamma) or xi near 5e-324), each of the few products forming
# it may round by half a subnormal step, far beyond any relative error.
# Added to a normal envelope it is absorbed without changing it.
_SUBNORMAL_ALLOWANCE = 8.0 * math.ulp(0.0)


@dataclass(frozen=True)
class FirstOrderResult:
    """First-order amplitude together with a rigorous magnitude bound.

    envelope_magnitude majorizes |amplitude| for every omega0T (it replaces
    the oscillatory factor by 1 without any large-omega0T approximation), so
    it traces the decay envelope of the oscillation.
    """

    amplitude: complex
    envelope_magnitude: float
    profile_kind: ProfileKind


def _envelope_bound(profile: CouplingProfile, geom: MeasurementGeometry) -> float:
    x = 0.5 * geom.omega0T
    base = geom.xi * math.sin(geom.gamma)
    pi_sq = math.pi * math.pi
    if profile.kind is ProfileKind.CONSTANT:
        return base * min(x, 1.0)
    if profile.kind is ProfileKind.RAISED_COSINE:
        denom = abs(x * x - pi_sq)
        factor = x if denom == 0.0 else min(x, pi_sq / denom)
        return base * factor
    if profile.kind is ProfileKind.OPTIMIZED:
        denom = abs(x * x - pi_sq) * abs(x * x - 4.0 * pi_sq)
        factor = x if denom == 0.0 else min(x, 4.0 * pi_sq * pi_sq / denom)
        return base * factor
    # Trapezoid of |gT| over the knots, stored at construction; >= int |gT|
    # by convexity of |.|, hence still a valid envelope factor.
    return base * x * profile._panels.abs_area


def first_order_amplitude(profile: CouplingProfile, geom: MeasurementGeometry) -> FirstOrderResult:
    """Spin-flip amplitude to first order in xi for any coupling profile.

    Where (omega0T/2) xi overflows it is 0 if xi sin(gamma) = 0, else ValueError.
    """
    x = 0.5 * geom.omega0T
    prefactor = (
        1j
        * cmath.exp(-1j * x)
        * x
        * geom.xi
        * cmath.exp(1j * geom.eta)
        * math.sin(geom.gamma)
    )
    amp = prefactor * phased_integral(profile, geom.omega0T)
    if not cmath.isfinite(amp):
        # inf times a zero sin(gamma) is nan
        if geom.xi * math.sin(geom.gamma):
            raise ValueError(f"first-order amplitude overflows at xi={geom.xi!r}, "
                             f"omega0T={geom.omega0T!r}")
        amp = 0j
    return FirstOrderResult(
        amplitude=complex(amp),
        envelope_magnitude=_envelope_bound(profile, geom) + _SUBNORMAL_ALLOWANCE,
        profile_kind=profile.kind,
    )


def envelope_closed_form(kind: ProfileKind, geom: MeasurementGeometry) -> float:
    """Large-omega0T amplitude envelope of the first-order result.

    Constant:       xi sin(gamma)                      (any omega0T)
    Raised cosine:  (omega0T/2) xi sin(gamma) pi^2 / (omega0T/2)^3
    Optimized:      (omega0T/2) xi sin(gamma) 4 pi^4 / (omega0T/2)^5

    The smooth forms only hold well past the profile harmonics, so they
    refuse omega0T < 4*pi.  Tabulated profiles have no closed form.
    """
    return _envelope(kind, geom.xi * math.sin(geom.gamma), geom.omega0T)


def _envelope(kind: ProfileKind, base: float, omega0T: float) -> float:
    """envelope_closed_form for base = xi sin(gamma) at a checked omega0T."""
    if kind is ProfileKind.CONSTANT:
        return base
    if kind is ProfileKind.TABULATED:
        raise ValueError("no closed-form envelope for tabulated profiles")
    if omega0T < MIN_SMOOTH_OMEGA0T:
        raise ValueError(
            f"closed-form envelope for {kind.value} requires omega0T >= 4*pi, "
            f"got {omega0T!r}"
        )
    if kind is ProfileKind.RAISED_COSINE:
        c, n = math.pi ** 2, 2
    elif kind is ProfileKind.OPTIMIZED:
        c, n = 4.0 * math.pi ** 4, 4
    else:
        raise ValueError(f"unsupported profile kind {kind!r}")
    x = 0.5 * omega0T
    # float ** raises OverflowError instead of returning inf, and x**n is finite
    # below 2^(1024/n).  Past that, or where base c overflows, the envelope
    # (finite, as x >= 2 pi) is formed with the binary exponents split off.
    if x < 2.0 ** (1024 // n) and base * c < math.inf:
        return base * c / x ** n
    (a, f), (m, e) = math.frexp(base), math.frexp(x)
    return math.ldexp(a * c / m ** n, f - n * e)


def reduction_ratio(kind: ProfileKind, omega0T: float) -> float:
    """Transition-probability suppression relative to constant coupling.

    The squared envelope ratio: pi^4/(omega0T/2)^4 for the raised cosine,
    16 pi^8/(omega0T/2)^8 for the optimized profile, 1 for constant.
    """
    if kind is ProfileKind.CONSTANT:
        return 1.0
    _check_omega0T(omega0T)
    base = 1.0 * math.sin(0.5 * math.pi)  # xi sin(gamma) at xi = 1, gamma = pi/2
    ratio = _envelope(kind, base, omega0T) / base
    return ratio * ratio
