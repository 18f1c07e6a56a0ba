"""Measuring along three orthogonal directions: together or one after another.

At first order the three weak fields contribute additively.  Applied
simultaneously for a window T they reduce to a single effective field (the
vector sum of the three), while applying them in three successive windows of
duration T tags each term with an extra phase exp(i (k-2) omega0T).  The
per-term magnitudes are identical either way.  At omega0T = 2 pi m the two
protocols agree at first order, where both amplitudes are zero
(sinc(omega0T/2) = 0), but the exact amplitudes differ: the fields shift
the transition frequency off that zero.

Each field is validated once, when its MeasurementGeometry is built; a
config checks only its omega0T and the orthogonality, and the helpers take
validated floats.  Directions, their dot products and the superposed field
are scalar float arithmetic; this module does not use numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .core import (
    CouplingProfile, HamiltonianSchedule, MeasurementGeometry, Segment, _at_omega0T, _unit_vector, sinc,
)

ORTHOGONALITY_TOLERANCE = 1e-12

# 2^53 times the smallest normal float.  Horizontal sums below it may hold
# products that rounded to a subnormal step (a polar angle or a strength near
# 1e-308), which can leave the azimuth only a few correct digits.
_SUBNORMAL_MARGIN = 2.0 ** -969


def FieldSpec(xi: float, gamma: float, eta: float = 0.0, direction_index: int = 1) -> MeasurementGeometry:
    """MeasurementGeometry(xi, gamma, eta), once direction_index is checked to be 1, 2 or 3.

    Only the benchmark's workloads still call it; moving them to
    MeasurementGeometry deletes it.
    """
    geom = MeasurementGeometry(xi, gamma, eta)
    if direction_index not in (1, 2, 3):
        raise ValueError(f"direction_index must be 1, 2 or 3, got {direction_index!r}")
    return geom


@dataclass(frozen=True)
class MultiFieldConfig:
    """Three measurement fields sharing one omega0T window each.

    The fields are stored as geometries with the config's omega0T.
    Directions must be mutually orthogonal unit vectors unless relaxed=True,
    in which case the orthogonal flag (set by the check, not passed in)
    records the failed check instead of raising.
    """

    fields: tuple[MeasurementGeometry, MeasurementGeometry, MeasurementGeometry]
    omega0T: float
    relaxed: bool = False
    orthogonal: bool = field(init=False, default=True)

    def __post_init__(self):
        fields = tuple(self.fields)
        if len(fields) != 3:
            raise ValueError(f"exactly three fields required, got {len(fields)}")
        # omega0T is checked before the orthogonality check
        f1, f2, f3 = fields
        omega0T = self.omega0T
        f1, f2, f3 = _at_omega0T(f1, omega0T), _at_omega0T(f2, omega0T), _at_omega0T(f3, omega0T)
        object.__setattr__(self, "fields", (f1, f2, f3))
        u, v, w = (_unit_vector(f1.gamma, f1.eta), _unit_vector(f2.gamma, f2.eta),
                   _unit_vector(f3.gamma, f3.eta))
        worst = max(
            abs(u[0] * v[0] + u[1] * v[1] + u[2] * v[2]),
            abs(u[0] * w[0] + u[1] * w[1] + u[2] * w[2]),
            abs(v[0] * w[0] + v[1] * w[1] + v[2] * w[2]),
        )
        ok = worst < ORTHOGONALITY_TOLERANCE
        object.__setattr__(self, "orthogonal", ok)
        if not ok and not self.relaxed:
            raise ValueError(
                f"field directions must be mutually orthogonal "
                f"(worst |n_i . n_j| = {worst!r}); pass relaxed=True to override"
            )

    @classmethod
    def axes(cls, xi1: float, xi2: float, xi3: float, omega0T: float) -> "MultiFieldConfig":
        """Fields along the x, y and z axes with the given strengths."""
        half_pi = 0.5 * math.pi
        return cls(
            fields=(
                MeasurementGeometry(xi1, half_pi, 0.0),
                MeasurementGeometry(xi2, half_pi, half_pi),
                MeasurementGeometry(xi3, 0.0, 0.0),
            ),
            omega0T=omega0T,
        )


def _term_coefficients(config: MultiFieldConfig) -> list[complex]:
    x = 0.5 * config.omega0T
    terms = []
    for f in config.fields:
        term = x * f.xi * math.sin(f.gamma) * cmath.exp(1j * f.eta)
        # where x xi overflows, inf times a zero sin(gamma) is nan; the term is 0
        terms.append(term if cmath.isfinite(term) or f.xi * math.sin(f.gamma) else 0j)
    return terms


def simultaneous_amplitude(config: MultiFieldConfig) -> complex:
    """First-order spin-flip amplitude with all three fields on at once.

    i * (sum_k (omega0T/2) xi_k sin(gamma_k) e^{i eta_k}) * sinc(omega0T/2).
    """
    x = 0.5 * config.omega0T
    return _finite(1j * sum(_term_coefficients(config)) * sinc(x), config)


def successive_amplitude(config: MultiFieldConfig) -> complex:
    """First-order amplitude after three back-to-back windows of duration T.

    Term k (k = 1, 2, 3 in schedule order) picks up the relative phase
    e^{i (k-2) omega0T}; magnitudes per term match the simultaneous case.
    At omega0T = 2 pi m it equals simultaneous_amplitude, both being zero;
    the exact amplitudes differ (see the module docstring).
    """
    x = 0.5 * config.omega0T
    total = 0j
    for k, coeff in enumerate(_term_coefficients(config), start=1):
        total += coeff * cmath.exp(1j * (k - 2) * config.omega0T)
    return _finite(1j * total * sinc(x), config)


def _finite(amplitude: complex, config: MultiFieldConfig) -> complex:
    """The amplitude, or ValueError where a term or their sum overflowed."""
    if not cmath.isfinite(amplitude):
        xis = ", ".join(repr(f.xi) for f in config.fields)
        raise ValueError(f"amplitude overflows at xi=({xis}), omega0T={config.omega0T!r}")
    return amplitude


def term_magnitudes(config: MultiFieldConfig) -> list[float]:
    """Per-field amplitude magnitudes, common to both protocols."""
    x = 0.5 * config.omega0T
    return [abs(coeff) * abs(sinc(x)) for coeff in _term_coefficients(config)]


def combined_field_geometry(config: MultiFieldConfig) -> MeasurementGeometry:
    """Single-field geometry equivalent to the three simultaneous fields.

    The superposed measurement field is (sum_k xi_k n_k); its magnitude is the
    effective xi and its direction the effective (gamma, eta).  The angles
    come from the unnormalized sum, so a field of any magnitude keeps its
    direction; where the horizontal part is near the subnormal range the
    azimuth is taken from the exact sum (see _rescaled_horizontal).
    """
    wx = wy = wz = 0.0
    for f in config.fields:
        x, y, z = _unit_vector(f.gamma, f.eta)
        wx += f.xi * x
        wy += f.xi * y
        wz += f.xi * z
    xi_eff = math.hypot(wx, wy, wz)
    if xi_eff == 0.0:
        return MeasurementGeometry(0.0, 0.0, 0.0, config.omega0T)
    gamma = math.atan2(math.hypot(wx, wy), wz)
    if abs(wx) < _SUBNORMAL_MARGIN and abs(wy) < _SUBNORMAL_MARGIN:
        wx, wy = _rescaled_horizontal(config.fields)
    return MeasurementGeometry(xi_eff, gamma, math.atan2(wy, wx), config.omega0T)


def _rescaled_horizontal(fields) -> tuple[float, float]:
    """sum_k xi_k sin(gamma_k) (cos(eta_k), sin(eta_k)) over its larger component.

    The sums are formed exactly, in rational arithmetic, and rounded once
    after the division; so neither a product that would round to a subnormal
    step nor the cancellation of nearly opposite fields costs the azimuth a
    digit.
    """
    from fractions import Fraction  # here, as it loads decimal: 2-3 ms of start-up for a rare branch
    hx = hy = Fraction(0)
    for f in fields:
        h = Fraction(f.xi) * Fraction(math.sin(f.gamma))
        hx += h * Fraction(math.cos(f.eta))
        hy += h * Fraction(math.sin(f.eta))
    scale = max(abs(hx), abs(hy))
    if not scale:
        return 0.0, 0.0
    return float(hx / scale), float(hy / scale)


def simultaneous_schedule(config: MultiFieldConfig) -> HamiltonianSchedule:
    """Schedule for one window with the superposed field, constant coupling."""
    return HamiltonianSchedule.single(combined_field_geometry(config), CouplingProfile.constant())


def successive_schedule(config: MultiFieldConfig) -> HamiltonianSchedule:
    """Schedule for three equal windows, one field each, constant coupling."""
    constant = CouplingProfile.constant()
    return HamiltonianSchedule(tuple(Segment(f, constant) for f in config.fields))
