"""Closed-form transition amplitudes for constant coupling.

With a constant switching profile the total field is static: the protection
field plus the measurement field tilt into a single direction at polar angle
theta from z, with magnitude ratio

    b = sqrt(1 + xi^2 + 2*xi*cos(gamma))

relative to the protection field alone.  Diagonalizing in the tilted basis
gives the spin-flip amplitude exactly, and everything else here (envelope,
small-xi limit, momentum-reversal weights) follows from that one solution.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .core import MeasurementGeometry, sinc


class DegenerateFieldError(ValueError):
    """Total field vanishes (xi = 1, gamma = pi): the tilted basis is undefined."""


class Method(enum.Enum):
    EXACT_SINC = "exact-sinc"
    ENVELOPE = "envelope"


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
    method: Method


def _b_ratio(geom: MeasurementGeometry) -> float:
    b_sq = 1.0 + geom.xi * geom.xi + 2.0 * geom.xi * math.cos(geom.gamma)
    return math.sqrt(max(b_sq, 0.0))


def _branch_weights(geom: MeasurementGeometry, b: float) -> tuple[float, float]:
    # (w_plus, w_minus) = ((1 +- cos theta)/2) summing to 1 exactly.
    # The smaller weight comes from the cancellation-free product form
    # b -+ (1 + xi cos g) = xi^2 sin^2 g / (b +- (1 + xi cos g)); since
    # b >= |1 + xi cos g| the denominator b + |...| never cancels.
    rim = 1.0 + geom.xi * math.cos(geom.gamma)
    s = geom.xi * math.sin(geom.gamma)
    small = s * s / (2.0 * b * (b + abs(rim)))
    if rim >= 0.0:
        return 1.0 - small, small
    return small, 1.0 - small


def tilted_field(geom: MeasurementGeometry) -> TiltedField:
    """Tilted-basis parameters (b, cos(theta), sin(theta)) for constant coupling.

    Raises
    ------
    DegenerateFieldError
        If the measurement field exactly cancels the protection field
        (xi = 1 with gamma = pi), where no tilted basis exists.
    """
    b = _b_ratio(geom)
    if b == 0.0:
        raise DegenerateFieldError(
            f"total field vanishes at xi={geom.xi!r}, gamma={geom.gamma!r}"
        )
    cos_theta = (1.0 + geom.xi * math.cos(geom.gamma)) / b
    sin_theta = geom.xi * math.sin(geom.gamma) / b
    cos_theta = min(1.0, max(-1.0, cos_theta))
    sin_theta = min(1.0, max(0.0, sin_theta))
    return TiltedField(b_ratio=b, cos_theta=cos_theta, sin_theta=sin_theta)


def amplitude_exact(geom: MeasurementGeometry) -> TransitionResult:
    """Exact spin-flip amplitude for a constant coupling profile.

    A_minus = i e^{i eta} (omega0T/2) xi sin(gamma) sinc((omega0T/2) b).
    """
    x = 0.5 * geom.omega0T
    b = _b_ratio(geom)
    amp = 1j * cmath.exp(1j * geom.eta) * x * geom.xi * math.sin(geom.gamma) * sinc(x * b)
    prob = min(1.0, abs(amp) ** 2)
    return TransitionResult(amplitude_minus=amp, probability_minus=prob, method=Method.EXACT_SINC)


def amplitude_envelope(geom: MeasurementGeometry) -> TransitionResult:
    """Oscillation-free envelope of the exact amplitude (|sin| replaced by 1).

    P_minus = xi^2 sin^2(gamma) / (1 + xi^2 + 2 xi cos(gamma)), independent of
    omega0T.  The probability is clamped to 1 as a round-off guard; equality
    is only approached toward the degenerate field point.
    """
    b = _b_ratio(geom)
    if b == 0.0:
        raise DegenerateFieldError(
            f"total field vanishes at xi={geom.xi!r}, gamma={geom.gamma!r}"
        )
    amp = 1j * cmath.exp(1j * geom.eta) * geom.xi * math.sin(geom.gamma) / b
    prob = abs(amp) ** 2
    if prob > 1.0:
        amp /= math.sqrt(prob)
        prob = 1.0
    return TransitionResult(amplitude_minus=amp, probability_minus=prob, method=Method.ENVELOPE)


def probability_taylor(geom: MeasurementGeometry) -> float:
    """Leading-order envelope probability xi^2 sin^2(gamma)."""
    s = geom.xi * math.sin(geom.gamma)
    return s * s


def xi_bound(p_max: float) -> float:
    """Largest xi whose worst-case (gamma = pi/2) envelope probability stays <= p_max."""
    if not (math.isfinite(p_max) and 0.0 < p_max < 1.0):
        raise ValueError(f"p_max must lie strictly between 0 and 1, got {p_max!r}")
    return math.sqrt(p_max / (1.0 - p_max))


def survival_split(geom: MeasurementGeometry) -> tuple[complex, complex]:
    """Survival amplitude split by pointer-shift branch.

    Returns (amp_correct, amp_reversed): the part of the no-flip amplitude
    co-moving with the expected pointer displacement and the part moving the
    opposite way.  Their sum is the full survival amplitude

        A_plus = (1+cos theta)/2 e^{+i phi} + (1-cos theta)/2 e^{-i phi},

    with phi = (omega0T/2) b.
    """
    tf = tilted_field(geom)
    w_plus, w_minus = _branch_weights(geom, tf.b_ratio)
    phi = 0.5 * geom.omega0T * tf.b_ratio
    phase = cmath.exp(1j * phi)
    return w_plus * phase, w_minus / phase


def reversal_probability(geom: MeasurementGeometry) -> tuple[float, float]:
    """Conditional probability that the pointer moved the wrong way.

    Returns (exact, leading_order) where

        exact         = w_-^2 / (w_+^2 + w_-^2),   w_+- = (1 +- cos theta)/2
        leading_order = (xi sin(gamma) / 2)^4.
    """
    tf = tilted_field(geom)
    w_plus, w_minus = _branch_weights(geom, tf.b_ratio)
    exact = w_minus * w_minus / (w_plus * w_plus + w_minus * w_minus)
    leading = (0.5 * geom.xi * math.sin(geom.gamma)) ** 4
    return exact, leading
