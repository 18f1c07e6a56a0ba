"""Dimensionless geometry, coupling profiles, schedules and spin states for protective spin measurement.

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
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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


def _check_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and 0.0 <= gamma <= math.pi):
        raise ValueError(f"gamma must lie in [0, pi], got {gamma!r}")


def _check_eta(eta: float) -> None:
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta!r}")


def _check_omega0T(omega0T: float) -> None:
    if not (math.isfinite(omega0T) and omega0T >= 0.0):
        raise ValueError(f"omega0T must be finite and >= 0, got {omega0T!r}")


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
        _check_gamma(self.gamma)
        _check_eta(self.eta)
        _check_omega0T(self.omega0T)
        object.__setattr__(self, "eta", self.eta % TWO_PI)


def _at_omega0T(source, omega0T: float) -> MeasurementGeometry:
    """The geometry of source at omega0T; of a MeasurementGeometry only omega0T is checked."""
    if type(source) is not MeasurementGeometry:
        return MeasurementGeometry(source.xi, source.gamma, source.eta, omega0T)
    _check_omega0T(omega0T)
    geom = object.__new__(MeasurementGeometry)
    # Set one by one, as __init__ does: a geometry whose __dict__ was touched
    # reads its attributes more slowly in the oracle.  eta is reduced again,
    # as __post_init__ would: a tiny negative eta was stored as TWO_PI.
    object.__setattr__(geom, "xi", source.xi)
    object.__setattr__(geom, "gamma", source.gamma)
    object.__setattr__(geom, "eta", source.eta % TWO_PI)
    object.__setattr__(geom, "omega0T", omega0T)
    return geom


def direction_angles(n) -> tuple[float, float]:
    """Polar and azimuthal angles (gamma, eta) of a unit vector n.

    Raises ValueError unless |n| = 1 within 1e-12.  At the poles the azimuth
    is conventionally 0.
    """
    v = np.asarray(n, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {v.shape}")
    x, y, z = v.tolist()
    norm = math.hypot(x, y, z)
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"direction must be a unit vector, |n| = {norm!r}")
    gamma = math.atan2(math.hypot(x, y), z)
    eta = math.atan2(y, x) % TWO_PI
    return gamma, eta


def _unit_vector(gamma: float, eta: float) -> tuple[float, float, float]:
    """(sin(gamma)cos(eta), sin(gamma)sin(eta), cos(gamma)) as plain floats."""
    sg = math.sin(gamma)
    return sg * math.cos(eta), sg * math.sin(eta), math.cos(gamma)


def direction_vector(gamma: float, eta: float) -> np.ndarray:
    """Unit vector with polar angle gamma and azimuth eta."""
    return np.array(_unit_vector(gamma, eta))


class _KnotPanels(NamedTuple):
    """What a tabulated profile's Fourier integral needs of its knots alone.

    For knot interval j of width h_j the panel weights are the trapezoid
    term (h_j/2)(v_j + v_{j+1}) and the slope term (h_j/2)(v_{j+1} - v_j) of
    _knot_integral; area is the trapezoid integral of the interpolant (the
    fsum of the trapezoid terms) and abs_area that of |gT|.  The arrays are
    read-only.
    """

    width: np.ndarray
    mid: np.ndarray
    even: np.ndarray
    odd: np.ndarray
    area: float
    abs_area: float

    @classmethod
    def build(cls, s: np.ndarray, v: np.ndarray) -> "_KnotPanels":
        h = np.diff(s)
        mid = 0.5 * (s[:-1] + s[1:])
        half_h = 0.5 * h
        even = half_h * (v[:-1] + v[1:])
        odd = half_h * (v[1:] - v[:-1])
        a = abs(v)
        abs_area = 0.5 * math.fsum(((a[:-1] + a[1:]) * h).tolist())
        for array in (h, mid, even, odd):
            array.flags.writeable = False
        return cls(h, mid, even, odd, math.fsum(even.tolist()), abs_area)


@dataclass(frozen=True)
class CouplingProfile:
    """Normalized switching profile g(t)*T on the unit interval s = t/T.

    Built-in kinds evaluate analytically; TABULATED interpolates linearly
    between (s, gT) knots that must start at s = 0, end at s = 1, and
    integrate to 1 within TABULATED_NORMALIZATION_TOLERANCE.  Tabulated
    samples may be any iterable of pairs; they are stored as a tuple of
    float pairs.  What depends only on the knots is built once, read-only,
    outside the dataclass fields (so equality, hash and repr see the samples
    alone): the knot arrays, their _KnotPanels, and the trapezoid integrals
    of gT and |gT|.  Outside the fields too, phased_integral keeps its last
    (omega0T, value), so a run of calls at one frequency integrates once,
    and every kind has _grid_memo, which only the oracle reads and fills:
    the step widths and couplings of its small batched passes on a driven
    profile (see oracle._runs).
    """

    kind: ProfileKind
    samples: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind is ProfileKind.TABULATED:
            pairs = () if self.samples is None else self.samples
            if type(pairs) is _FloatPairs:
                samples = tuple(pairs)
            else:
                samples = tuple([(float(s), float(v)) for s, v in pairs])
            if len(samples) < 2:
                raise ValueError("tabulated profile needs at least two (s, gT) samples")
            object.__setattr__(self, "samples", samples)
            s_vals, v_vals = (np.array(column) for column in zip(*samples))
            if np.any(s_vals[1:] <= s_vals[:-1]):
                raise ValueError("tabulated sample positions must be strictly ascending")
            if abs(s_vals[0]) > 1e-12 or abs(s_vals[-1] - 1.0) > 1e-12:
                raise ValueError("tabulated samples must span s = 0 to s = 1")
            if not (np.all(np.isfinite(s_vals)) and np.all(np.isfinite(v_vals))):
                raise ValueError("tabulated samples must be finite")
            s_vals.flags.writeable = False
            v_vals.flags.writeable = False
            panels = _KnotPanels.build(s_vals, v_vals)
            if abs(panels.area - 1.0) > TABULATED_NORMALIZATION_TOLERANCE:
                raise ValueError(
                    f"tabulated profile integrates to {panels.area!r}, "
                    f"residual exceeds {TABULATED_NORMALIZATION_TOLERANCE}"
                )
            object.__setattr__(self, "_knots", (s_vals, v_vals))
            object.__setattr__(self, "_panels", panels)
            object.__setattr__(self, "_last_phased", (None, None))
        elif self.samples is not None:
            raise ValueError(f"samples are only meaningful for tabulated profiles, kind is {self.kind}")
        object.__setattr__(self, "_grid_memo", {})

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
        return cls(ProfileKind.TABULATED, samples)

    @classmethod
    def from_file(cls, path) -> "CouplingProfile":
        """Load a tabulated profile from two whitespace-separated columns (s, gT).

        Blank lines and lines whose first word starts with '#' are skipped.
        Each line is split once and all numbers are converted in one pass;
        an error names the file and the line of the first fault.
        """
        lines = Path(path).read_text().splitlines()
        words = []
        for lineno, line in enumerate(lines, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 2:
                _parse_floats(path, lines, words)  # a bad number above is the first fault
                raise ValueError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            words += parts
        numbers = iter(_parse_floats(path, lines, words))
        return cls.tabulated(_FloatPairs(zip(numbers, numbers)))


class _FloatPairs(tuple):
    """(s, gT) pairs of floats from from_file, which __post_init__ need not convert again."""


def _parse_floats(path, lines: list[str], words: list[str]) -> list[float]:
    """float() of each word; on a bad one, a ValueError naming the line it is on.

    words are the data words of lines, in order; lines are searched again
    only after a conversion fails.
    """
    try:
        return list(map(float, words))
    except ValueError:
        for lineno, line in enumerate(lines, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        raise


@dataclass(frozen=True)
class SpinState:
    """Spin amplitudes in the protection-field eigenbasis (c_plus, c_minus)."""

    c_plus: complex
    c_minus: complex

    @classmethod
    def plus(cls) -> "SpinState":
        return cls(1.0 + 0.0j, 0.0 + 0.0j)

    @classmethod
    def minus(cls) -> "SpinState":
        return cls(0.0 + 0.0j, 1.0 + 0.0j)

    def norm(self) -> float:
        return math.sqrt(abs(self.c_plus) ** 2 + abs(self.c_minus) ** 2)

    def as_array(self) -> np.ndarray:
        return np.array([self.c_plus, self.c_minus], dtype=complex)


@dataclass(frozen=True)
class Segment:
    """One leg of a schedule: its field, with its own omega0T, and its coupling profile."""

    geom: MeasurementGeometry
    profile: CouplingProfile


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Ordered measurement segments covering the full evolution window.

    Each segment's geom.omega0T is the dimensionless budget of that segment
    alone.  The protection field, hence omega0, is common to all segments,
    so a segment's share of the window is its share of the summed omega0T.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        object.__setattr__(self, "segments", tuple(self.segments))

    @classmethod
    def single(cls, geom: MeasurementGeometry, profile: CouplingProfile) -> "HamiltonianSchedule":
        return cls((Segment(geom, profile),))


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
        g = np.interp(s, *profile._knots)
    out = np.where((s >= 0.0) & (s <= 1.0), g, 0.0)
    return float(out) if out.ndim == 0 else out


def normalization_residual(profile: CouplingProfile) -> float:
    """|int_0^1 gT(s) ds - 1|, i.e. |phased_integral(profile, 0) - 1|.

    Exact up to rounding: the built-in kinds give their closed form at zero
    frequency, which is 1 exactly, and tabulated profiles give the exact
    integral of their linear interpolant, the trapezoid sum over the knots
    stored at construction.
    """
    if profile.kind is ProfileKind.TABULATED:
        return abs(profile._panels.area - 1.0)
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
# Both series' coefficients as columns, highest order first, for _sinc_j1_series.
_SERIES_ROWS = np.array([_SINC_SERIES, _J1_SERIES]).T[::-1, :, None].copy()


def _sinc_j1_closed(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sinc_x = np.sin(x) / x
    return sinc_x, (sinc_x - np.cos(x)) / x


def _sinc_j1_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Horner's rule on both series at once, one row each
    x2 = x * x
    acc = np.zeros((2, x.size))
    for coefficients in _SERIES_ROWS:
        acc *= x2
        acc += coefficients
    sinc_x, j1_over_x = acc
    return sinc_x, x * j1_over_x


def _sinc_j1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin(x)/x and (sin(x) - x cos(x))/x^2, elementwise for x >= 0.

    Each element takes one formula: the closed form from _SERIES_SWITCH on,
    the Taylor series below it.
    """
    large = x >= _SERIES_SWITCH
    n_large = np.count_nonzero(large)
    if n_large == x.size:
        return _sinc_j1_closed(x)
    if n_large == 0:
        return _sinc_j1_series(x)
    small = ~large
    sinc_x, j1_x = np.empty_like(x), np.empty_like(x)
    sinc_x[large], j1_x[large] = _sinc_j1_closed(x[large])
    sinc_x[small], j1_x[small] = _sinc_j1_series(x[small])
    return sinc_x, j1_x


def _knot_integral(profile: CouplingProfile, omega: float) -> complex:
    """Exact int_0^1 e^{i omega u} L(u) du for the linear interpolant L of a tabulated profile.

    On the knot interval [s_j, s_j + h] with x = omega h / 2 this is the
    Filon-type closed form h e^{i omega s_j} (v_j (E0 - E1) + v_{j+1} E1),
    E0 = int_0^1 e^{2ixt} dt = e^{ix} sinc(x) and
    E1 = int_0^1 t e^{2ixt} dt = e^{ix} (sinc(x) + i j1(x))/2 with
    j1(x) = (sin x - x cos x)/x^2.  About the interval midpoint m_j it reads

        h e^{i omega m_j} [(v_j + v_{j+1})/2 sinc(x) + i (v_{j+1} - v_j)/2 j1(x)].

    The widths, midpoints and the two panel weights h (v_j + v_{j+1})/2 and
    h (v_{j+1} - v_j)/2 are the profile's _KnotPanels, built once, so a call
    does only the work that depends on omega.  At omega = 0 each term is the
    trapezoid h (v_j + v_{j+1})/2.  The terms are summed with math.fsum, so
    the cost is O(knots) at any omega.
    """
    panels = profile._panels
    sinc_x, j1_x = _sinc_j1(0.5 * omega * panels.width)
    even = panels.even * sinc_x
    odd = panels.odd * j1_x
    phase = omega * panels.mid
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    return complex(
        math.fsum((even * cos_p - odd * sin_p).tolist()),
        math.fsum((even * sin_p + odd * cos_p).tolist()),
    )


def phased_integral(profile: CouplingProfile, omega0T: float) -> complex:
    """int_0^1 exp(i*omega0T*s) * gT(s) ds.

    The built-in kinds use closed forms, written so that the removable
    singularities of the raised-cosine and optimized spectral factors (at
    omega0T = 2 pi and 4 pi) cancel without a branch.  Tabulated profiles
    are piecewise linear, and their integral is the exact per-interval
    closed form: exact up to rounding at any omega0T, at O(knots) cost.  A
    tabulated profile returns its last value again when called at the same
    omega0T (the same float, sign of zero included) without integrating.
    """
    _check_omega0T(omega0T)
    if profile.kind is ProfileKind.TABULATED:
        omega = float(omega0T)
        key = (omega, math.copysign(1.0, omega))  # -0.0 is a key of its own
        last_key, last_value = profile._last_phased
        if key == last_key:
            return last_value
        value = _knot_integral(profile, omega)
        # one tuple, so a reader in another thread sees a key with its own value
        object.__setattr__(profile, "_last_phased", (key, value))
        return value
    x = 0.5 * float(omega0T)
    if profile.kind is ProfileKind.CONSTANT:
        spectral = sinc(x)
    elif profile.kind is ProfileKind.RAISED_COSINE:
        spectral = _spectral_raised_cosine(x)
    else:
        spectral = _spectral_optimized(x)
    return complex(math.cos(x), math.sin(x)) * spectral
