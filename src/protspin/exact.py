"""Closed-form transition amplitudes for constant coupling.

With a constant switching profile the total field is static: the protection
field plus the measurement field tilt into a single direction at polar angle
theta from z, with magnitude ratio

    b = sqrt(1 + xi^2 + 2*xi*cos(gamma))

relative to the protection field alone.  Diagonalizing in the tilted basis
gives the spin-flip amplitude exactly, and everything else here (envelope,
small-xi limit, momentum-reversal weights) follows from that one solution.
Inputs are validated once, by MeasurementGeometry; the helpers take them as they are.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import MeasurementGeometry, sinc


class DegenerateFieldError(ValueError):
    """Total field vanishes (xi = 1, gamma = pi): the tilted basis is undefined."""


@dataclass(frozen=True)
class TiltedField:
    """Static total field in units of the protection field.

    b_ratio is the field-magnitude ratio; theta is its polar angle, with
    sin_theta >= 0 because gamma is confined to [0, pi].
    """

    b_ratio: float
    cos_theta: float
    sin_theta: float


@dataclass(frozen=True)
class TransitionResult:
    amplitude_minus: complex
    probability_minus: float


# Where b^2 = 1 + xi^2 + 2 xi cos(gamma) falls below this, the sum has lost
# over ten bits to cancellation near the degenerate point (xi = 1, gamma = pi).
# There b^2 and 1 + xi cos(gamma) are formed from cos^2(gamma/2), which does
# not cancel.  Elsewhere the direct sums stay, so results away from the point
# keep their last digits.
_CANCELLATION_B_SQ = 2.0 ** -10


def _b_ratio(geom: MeasurementGeometry) -> float:
    xi = geom.xi
    b_sq = 1.0 + xi * xi + 2.0 * xi * math.cos(geom.gamma)
    if not b_sq < math.inf:
        # xi > 1.3e154 (past 9e307, inf - inf makes b_sq nan near gamma = pi).
        # b = xi sqrt(1 + (2 cos(gamma) + 1/xi)/xi), and the correction under
        # the root is below 2^-510, so b rounds to xi itself.
        return xi
    if b_sq < _CANCELLATION_B_SQ:
        if xi == 1.0 and geom.gamma == math.pi:
            # math.pi falls short of pi by 1.2e-16; the point is still degenerate
            return 0.0
        half = math.cos(0.5 * geom.gamma)
        b_sq = (1.0 - xi) * (1.0 - xi) + 4.0 * xi * half * half
    return math.sqrt(max(b_sq, 0.0))


def _rim(geom: MeasurementGeometry, b: float) -> float:
    """1 + xi cos(gamma), the total field's z component, for field ratio b."""
    if b * b < _CANCELLATION_B_SQ:
        half = math.cos(0.5 * geom.gamma)
        return (1.0 - geom.xi) + 2.0 * geom.xi * half * half
    return 1.0 + geom.xi * math.cos(geom.gamma)


def _branch_weights(geom: MeasurementGeometry, b: float) -> tuple[float, float]:
    # (w_plus, w_minus) = ((1 +- cos theta)/2) summing to 1 exactly.
    # The smaller weight comes from the cancellation-free product form
    # b -+ (1 + xi cos g) = xi^2 sin^2 g / (b +- (1 + xi cos g)); since
    # b >= |1 + xi cos g| the denominator b + |...| never cancels.
    rim = _rim(geom, b)
    s = geom.xi * math.sin(geom.gamma)
    den = 2.0 * b * (b + abs(rim))
    if den == math.inf:
        # b > 6.7e153: the same ratio, sin^2(theta) / (2 (1 + |cos(theta)|))
        sin_theta = s / b
        small = sin_theta * sin_theta / (2.0 * (1.0 + abs(rim) / b))
    else:
        small = s * s / den
    if rim >= 0.0:
        return 1.0 - small, small
    return small, 1.0 - small


def _nonzero_b_ratio(geom: MeasurementGeometry) -> float:
    """_b_ratio(geom), or DegenerateFieldError where the total field vanishes."""
    b = _b_ratio(geom)
    if b == 0.0:
        raise DegenerateFieldError(f"total field vanishes at xi={geom.xi!r}, gamma={geom.gamma!r}")
    return b


def tilted_field(geom: MeasurementGeometry) -> TiltedField:
    """Tilted-basis parameters (b, cos(theta), sin(theta)) for constant coupling.

    Raises
    ------
    DegenerateFieldError
        If the measurement field exactly cancels the protection field
        (xi = 1 with gamma = pi), where no tilted basis exists.
    """
    b = _nonzero_b_ratio(geom)
    cos_theta = _rim(geom, b) / b
    sin_theta = geom.xi * math.sin(geom.gamma) / b
    cos_theta = min(1.0, max(-1.0, cos_theta))
    sin_theta = min(1.0, max(0.0, sin_theta))
    return TiltedField(b_ratio=b, cos_theta=cos_theta, sin_theta=sin_theta)


def _phase(geom: MeasurementGeometry, b: float) -> float:
    """The rotation angle (omega0T/2) b, which must be finite."""
    phi = 0.5 * geom.omega0T * b
    if phi == math.inf:
        raise ValueError(
            f"(omega0T/2)*b overflows at omega0T={geom.omega0T!r}, xi={geom.xi!r}"
        )
    return phi


def amplitude_exact(geom: MeasurementGeometry) -> TransitionResult:
    """Exact spin-flip amplitude for a constant coupling profile.

    A_minus = i e^{i eta} (omega0T/2) xi sin(gamma) sinc((omega0T/2) b).
    Raises ValueError where (omega0T/2) b overflows.
    """
    x = 0.5 * geom.omega0T
    b = _b_ratio(geom)
    phi = _phase(geom, b)
    amp = 1j * cmath.exp(1j * geom.eta) * x * geom.xi * math.sin(geom.gamma) * sinc(phi)
    prob = min(1.0, abs(amp) ** 2)
    return TransitionResult(amplitude_minus=amp, probability_minus=prob)


def amplitude_envelope(geom: MeasurementGeometry) -> TransitionResult:
    """Oscillation-free envelope of the exact amplitude (|sin| replaced by 1).

    P_minus = xi^2 sin^2(gamma) / (1 + xi^2 + 2 xi cos(gamma)), independent of
    omega0T.  The probability is clamped to 1 as a round-off guard; equality
    is only approached toward the degenerate field point.
    """
    b = _nonzero_b_ratio(geom)
    amp = 1j * cmath.exp(1j * geom.eta) * geom.xi * math.sin(geom.gamma) / b
    prob = abs(amp) ** 2
    if prob > 1.0:
        amp /= math.sqrt(prob)
        prob = 1.0
    return TransitionResult(amplitude_minus=amp, probability_minus=prob)


def probability_taylor(geom: MeasurementGeometry) -> float:
    """Leading-order envelope probability xi^2 sin^2(gamma)."""
    s = geom.xi * math.sin(geom.gamma)
    return s * s


def xi_bound(p_max: float) -> float:
    """Largest xi whose envelope probability at gamma = pi/2 stays <= p_max.

    This is not a worst case over gamma: at fixed xi < 1 the envelope peaks
    at cos(gamma) = -xi, where it equals xi^2.  For example xi_bound(0.01) is
    0.1005, which allows P_minus = 0.0101 there.
    """
    if not (math.isfinite(p_max) and 0.0 < p_max < 1.0):
        raise ValueError(f"p_max must lie strictly between 0 and 1, got {p_max!r}")
    return math.sqrt(p_max / (1.0 - p_max))


def survival_split(geom: MeasurementGeometry) -> tuple[complex, complex]:
    """Survival amplitude split by pointer-shift branch.

    Returns (amp_correct, amp_reversed): the part of the no-flip amplitude
    co-moving with the expected pointer displacement and the part moving the
    opposite way.  Their sum is the full survival amplitude

        A_plus = (1+cos theta)/2 e^{+i phi} + (1-cos theta)/2 e^{-i phi},

    with phi = (omega0T/2) b.  Raises ValueError where phi overflows.
    """
    b = _nonzero_b_ratio(geom)
    w_plus, w_minus = _branch_weights(geom, b)
    phi = _phase(geom, b)
    phase = cmath.exp(1j * phi)
    return w_plus * phase, w_minus / phase


def reversal_probability(geom: MeasurementGeometry) -> tuple[float, float]:
    """Conditional probability that the pointer moved the wrong way.

    Returns (exact, leading_order) where

        exact         = w_-^2 / (w_+^2 + w_-^2),   w_+- = (1 +- cos theta)/2
        leading_order = (xi sin(gamma) / 2)^4.
    """
    w_plus, w_minus = _branch_weights(geom, _nonzero_b_ratio(geom))
    exact = w_minus * w_minus / (w_plus * w_plus + w_minus * w_minus)
    half = 0.5 * geom.xi * math.sin(geom.gamma)
    # float ** raises OverflowError instead of returning inf; half**4 is
    # finite for every half below 2^256
    leading = half ** 4 if half < 2.0 ** 256 else math.inf
    return exact, leading
