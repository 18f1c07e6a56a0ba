"""Dimensionless geometry and coupling profiles for protective spin measurement.

A spin-1/2 particle sits in a strong uniform protection field along z while a
weak inhomogeneous measurement field along the direction

    n = (sin(gamma)cos(eta), sin(gamma)sin(eta), cos(gamma))

is switched on for a time T with a normalized coupling profile g(t),
int_0^T g(t) dt = 1.  Everything downstream depends only on the dimensionless
set (xi, gamma, eta, omega0T):

    xi       measurement-field strength relative to the protection field
    gamma    polar angle of the measurement-field direction
    eta      azimuthal angle of the measurement-field direction
    omega0T  spin transition frequency times measurement duration

In these units the spin Hamiltonian reads

    H(t) * T / hbar = -(omega0T / 2) * [sigma_z + xi * gT(t/T) * (n . sigma)]

where gT(s) = g(t) * T is the dimensionless coupling value at s = t/T.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
# pi - math.pi, so that (math.pi - x) + _PI_LO is pi - x to rounding even
# where the difference cancels.
_PI_LO = 1.2246467991473532e-16

# Tabulated profiles must integrate to 1; larger residuals are construction
# errors rather than round-off.
TABULATED_NORMALIZATION_TOLERANCE = 1e-6


def sinc(x: float) -> float:
    """sin(x)/x with the removable singularity at x = 0 filled in."""
    if x == 0.0:
        return 1.0
    return math.sin(x) / x


class ProfileKind(enum.Enum):
    CONSTANT = "constant"
    RAISED_COSINE = "raised-cosine"
    OPTIMIZED = "optimized"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class MeasurementGeometry:
    """Dimensionless parameters of a single protective measurement.

    Parameters
    ----------
    xi : float
        Relative measurement-field strength, >= 0.
    gamma : float
        Polar angle of the measurement direction, in [0, pi] (radians).
    eta : float
        Azimuthal angle (radians); stored normalized into [0, 2*pi).
    omega0T : float
        Product of the transition frequency omega0 = 2*mu*B0/hbar and the
        measurement duration T, >= 0.
    """

    xi: float
    gamma: float
    eta: float = 0.0
    omega0T: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.xi) and self.xi >= 0.0):
            raise ValueError(f"xi must be finite and >= 0, got {self.xi!r}")
        if not (math.isfinite(self.gamma) and 0.0 <= self.gamma <= math.pi):
            raise ValueError(f"gamma must lie in [0, pi], got {self.gamma!r}")
        if not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta!r}")
        if not (math.isfinite(self.omega0T) and self.omega0T >= 0.0):
            raise ValueError(f"omega0T must be finite and >= 0, got {self.omega0T!r}")
        object.__setattr__(self, "eta", self.eta % TWO_PI)


def direction_angles(n) -> tuple[float, float]:
    """Polar and azimuthal angles (gamma, eta) of a unit vector n.

    Raises ValueError unless |n| = 1 within 1e-12.  At the poles the azimuth
    is conventionally 0.
    """
    v = np.asarray(n, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"direction must be a unit vector, |n| = {norm!r}")
    gamma = math.atan2(math.hypot(v[0], v[1]), v[2])
    eta = math.atan2(v[1], v[0]) % TWO_PI
    return gamma, eta


def direction_vector(gamma: float, eta: float) -> np.ndarray:
    """Unit vector with polar angle gamma and azimuth eta."""
    sg = math.sin(gamma)
    return np.array([sg * math.cos(eta), sg * math.sin(eta), math.cos(gamma)])


@dataclass(frozen=True)
class FieldSpec:
    """One measurement field of a multi-field protocol.

    The dimensionless strength xi is defined with respect to that field's own
    measurement window, so three successive fields of equal duration T carry
    the same xi they would in isolation.
    """

    xi: float
    gamma: float
    eta: float = 0.0
    direction_index: int = 1

    def __post_init__(self):
        geom = MeasurementGeometry(self.xi, self.gamma, self.eta)
        if self.direction_index not in (1, 2, 3):
            raise ValueError(f"direction_index must be 1, 2 or 3, got {self.direction_index!r}")
        object.__setattr__(self, "eta", geom.eta)

    def direction(self) -> np.ndarray:
        return direction_vector(self.gamma, self.eta)


@dataclass(frozen=True)
class CouplingProfile:
    """Normalized switching profile g(t)*T on the unit interval s = t/T.

    Built-in kinds evaluate analytically; TABULATED interpolates linearly
    between (s, gT) knots that must start at s = 0, end at s = 1, and
    integrate to 1 within TABULATED_NORMALIZATION_TOLERANCE.
    """

    kind: ProfileKind
    samples: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind is ProfileKind.TABULATED:
            if self.samples is None or len(self.samples) < 2:
                raise ValueError("tabulated profile needs at least two (s, gT) samples")
            samples = tuple((float(s), float(v)) for s, v in self.samples)
            object.__setattr__(self, "samples", samples)
            s_vals = [s for s, _ in samples]
            if any(b <= a for a, b in zip(s_vals, s_vals[1:])):
                raise ValueError("tabulated sample positions must be strictly ascending")
            if abs(s_vals[0]) > 1e-12 or abs(s_vals[-1] - 1.0) > 1e-12:
                raise ValueError("tabulated samples must span s = 0 to s = 1")
            if not all(math.isfinite(s) and math.isfinite(v) for s, v in samples):
                raise ValueError("tabulated samples must be finite")
            area = _knot_integral(*_knot_arrays(self), 0.0).real
            if abs(area - 1.0) > TABULATED_NORMALIZATION_TOLERANCE:
                raise ValueError(
                    f"tabulated profile integrates to {area!r}, "
                    f"residual exceeds {TABULATED_NORMALIZATION_TOLERANCE}"
                )
        elif self.samples is not None:
            raise ValueError(f"samples are only meaningful for tabulated profiles, kind is {self.kind}")

    @classmethod
    def constant(cls) -> "CouplingProfile":
        return cls(ProfileKind.CONSTANT)

    @classmethod
    def raised_cosine(cls) -> "CouplingProfile":
        return cls(ProfileKind.RAISED_COSINE)

    @classmethod
    def optimized(cls) -> "CouplingProfile":
        return cls(ProfileKind.OPTIMIZED)

    @classmethod
    def tabulated(cls, samples) -> "CouplingProfile":
        return cls(ProfileKind.TABULATED, tuple((float(s), float(v)) for s, v in samples))

    @classmethod
    def from_file(cls, path) -> "CouplingProfile":
        """Load a tabulated profile from two whitespace-separated columns (s, gT)."""
        rows = []
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            rows.append((float(parts[0]), float(parts[1])))
        return cls.tabulated(rows)


def _knot_arrays(profile: CouplingProfile) -> tuple[np.ndarray, np.ndarray]:
    s = np.array([p[0] for p in profile.samples])
    v = np.array([p[1] for p in profile.samples])
    return s, v


def coupling_eval(profile: CouplingProfile, t_over_T):
    """Dimensionless coupling value gT at s = t/T; zero outside [0, 1].

    Accepts a scalar or an ndarray and matches the input shape.  The cosine
    shapes are evaluated on the input clipped to [0, 1], so that infinities
    reach no cosine.
    """
    s = np.asarray(t_over_T, dtype=float)
    if profile.kind is ProfileKind.CONSTANT:
        g = 1.0
    elif profile.kind is ProfileKind.RAISED_COSINE:
        g = 1.0 + np.cos(TWO_PI * (np.clip(s, 0.0, 1.0) - 0.5))
    elif profile.kind is ProfileKind.OPTIMIZED:
        u = TWO_PI * (np.clip(s, 0.0, 1.0) - 0.5)
        g = 1.0 + (4.0 / 3.0) * np.cos(u) + (1.0 / 3.0) * np.cos(2.0 * u)
    else:
        g = np.interp(s, *_knot_arrays(profile))
    out = np.where((s >= 0.0) & (s <= 1.0), g, 0.0)
    return float(out) if out.ndim == 0 else out


def normalization_residual(profile: CouplingProfile) -> float:
    """|int_0^1 gT(s) ds - 1|, i.e. |phased_integral(profile, 0) - 1|.

    Exact up to rounding: the built-in kinds give their closed form at zero
    frequency, which is 1 exactly, and tabulated profiles give the exact
    integral of their linear interpolant (the trapezoid sum over the knots).
    """
    return abs(phased_integral(profile, 0.0) - 1.0)


def _one_minus_ratio_squared(x: float, period: float, period_lo: float) -> float:
    # 1 - (x/p)^2 = (p - x)(p + x)/p^2 for p = period + period_lo, the exact
    # multiple of pi.  period - x is exact near x = period, so adding
    # period_lo leaves no cancellation at the pole of the spectral factor.
    return ((period - x) + period_lo) * (period + x) / (period * period)


def _spectral_raised_cosine(x: float) -> float:
    # sinc(x) / (1 - (x/pi)^2); the zeros of sin(x) and of the denominator
    # at x = pi cancel to rounding, so the removable singularity needs no branch.
    return sinc(x) / _one_minus_ratio_squared(x, math.pi, _PI_LO)


def _spectral_optimized(x: float) -> float:
    return sinc(x) / (
        _one_minus_ratio_squared(x, math.pi, _PI_LO)
        * _one_minus_ratio_squared(x, TWO_PI, 2.0 * _PI_LO)
    )


# Below x = _SERIES_SWITCH the closed form of (sin x - x cos x)/x^2 loses
# about eps/x to cancellation; there both factors of _sinc_j1 come from their
# Taylor series in x^2, which ten terms make exact to rounding on [0, 1).
_SERIES_SWITCH = 1.0
_SINC_SERIES = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(10))
_J1_SERIES = tuple((-1) ** k * (2 * k + 2) / math.factorial(2 * k + 3) for k in range(10))


def _sinc_j1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin(x)/x and (sin(x) - x cos(x))/x^2, elementwise for x >= 0."""
    large = x >= _SERIES_SWITCH
    xl = np.where(large, x, 1.0)
    sinc_l = np.sin(xl) / xl
    j1_l = (sinc_l - np.cos(xl)) / xl
    x2 = np.where(large, 0.0, x * x)
    sinc_s = np.zeros_like(x)
    j1_s = np.zeros_like(x)
    for c_sinc, c_j1 in zip(reversed(_SINC_SERIES), reversed(_J1_SERIES)):
        sinc_s = sinc_s * x2 + c_sinc
        j1_s = j1_s * x2 + c_j1
    return np.where(large, sinc_l, sinc_s), np.where(large, j1_l, x * j1_s)


def _knot_integral(s: np.ndarray, v: np.ndarray, omega: float) -> complex:
    """Exact int_0^1 e^{i omega u} L(u) du for the linear interpolant L of (s, v).

    On the knot interval [s_j, s_j + h] with x = omega h / 2 this is the
    Filon-type closed form h e^{i omega s_j} (v_j (E0 - E1) + v_{j+1} E1),
    E0 = int_0^1 e^{2ixt} dt = e^{ix} sinc(x) and
    E1 = int_0^1 t e^{2ixt} dt = e^{ix} (sinc(x) + i j1(x))/2 with
    j1(x) = (sin x - x cos x)/x^2.  About the interval midpoint m_j it reads

        h e^{i omega m_j} [(v_j + v_{j+1})/2 sinc(x) + i (v_{j+1} - v_j)/2 j1(x)].

    At omega = 0 each term is the
    trapezoid h (v_j + v_{j+1})/2.  The terms are summed with math.fsum, so
    the cost is O(knots) at any omega.
    """
    h = np.diff(s)
    sinc_x, j1_x = _sinc_j1(0.5 * omega * h)
    even = 0.5 * h * (v[:-1] + v[1:]) * sinc_x
    odd = 0.5 * h * (v[1:] - v[:-1]) * j1_x
    phase = omega * (0.5 * (s[:-1] + s[1:]))
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    return complex(
        math.fsum(even * cos_p - odd * sin_p),
        math.fsum(even * sin_p + odd * cos_p),
    )


def phased_integral(profile: CouplingProfile, omega0T: float) -> complex:
    """int_0^1 exp(i*omega0T*s) * gT(s) ds.

    The built-in kinds use closed forms, written so that the removable
    singularities of the raised-cosine and optimized spectral factors (at
    omega0T = 2 pi and 4 pi) cancel without a branch.  Tabulated profiles
    are piecewise linear, and their integral is the exact per-interval
    closed form: exact up to rounding at any omega0T, at O(knots) cost.
    """
    if not (math.isfinite(omega0T) and omega0T >= 0.0):
        raise ValueError(f"omega0T must be finite and >= 0, got {omega0T!r}")
    if profile.kind is ProfileKind.TABULATED:
        return _knot_integral(*_knot_arrays(profile), float(omega0T))
    x = 0.5 * float(omega0T)
    if profile.kind is ProfileKind.CONSTANT:
        spectral = sinc(x)
    elif profile.kind is ProfileKind.RAISED_COSINE:
        spectral = _spectral_raised_cosine(x)
    else:
        spectral = _spectral_optimized(x)
    return complex(math.cos(x), math.sin(x)) * spectral
