"""Direct numerical propagation of the two-level Schrodinger equation.

This module is the ground truth the closed forms are checked against.  It
shares no algebra with them: each time step applies the exact 2x2 unitary
exp(+i (omega0T/2) ds [sigma_z + xi gT(s) (n.sigma)]) evaluated at the step
midpoint (exponential midpoint rule, second order in the step size, exactly
unitary at every step).

Every step and every product of steps is an SU(2) matrix, stored as its
Cayley-Klein pair (alpha, beta) with U = [[alpha, beta], [-conj(beta),
conj(alpha)]].  Steps are multiplied by pairwise reduction at four complex
multiplies per product, and each reduced product is rescaled by
sqrt(|alpha|^2 + |beta|^2) to hold it on SU(2).

For a constant profile the Hamiltonian is static and the stepping is exact at
any step count, so adaptive propagation of a schedule whose segments are all
constant takes one step per segment.  Otherwise the adaptive rule doubles the
step count until successive refinements agree within ADAPTIVE_TOLERANCE; for
this second-order rule the error of the finer result is then about a third of
their difference.  crosscheck always runs the doubling, which is the check
that static stepping is exact at every step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CouplingProfile, MeasurementGeometry, ProfileKind, coupling_eval
from .dyson import first_order_amplitude
from .exact import amplitude_exact, survival_split

DEFAULT_STEPS = 2 ** 14
MAX_ADAPTIVE_STEPS = 2 ** 22
ADAPTIVE_TOLERANCE = 1e-10
_CHUNK = 2 ** 17


class ConvergenceError(RuntimeError):
    """Adaptive step doubling hit the cap without meeting the tolerance."""


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
    """One leg of a schedule: a fraction of total time with its own field."""

    fraction: float
    geom: MeasurementGeometry
    profile: CouplingProfile

    def __post_init__(self):
        if not (math.isfinite(self.fraction) and self.fraction > 0.0):
            raise ValueError(f"segment fraction must be positive, got {self.fraction!r}")


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Ordered measurement segments covering the full evolution window.

    Each segment's geom.omega0T is the dimensionless budget of that segment
    alone, so it must be proportional to the segment's duration fraction
    (the protection field, hence omega0, is common to all segments).
    """

    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        total_fraction = math.fsum(seg.fraction for seg in segments)
        if abs(total_fraction - 1.0) > 1e-12:
            raise ValueError(f"segment fractions must sum to 1, got {total_fraction!r}")
        total = self.omega0T_total
        for k, seg in enumerate(segments):
            expected = seg.fraction * total
            if abs(expected - seg.geom.omega0T) > 1e-9 * max(total, 1.0):
                raise ValueError(
                    f"segment {k}: omega0T {seg.geom.omega0T!r} inconsistent with "
                    f"fraction {seg.fraction!r} of total {total!r}"
                )

    @property
    def omega0T_total(self) -> float:
        return math.fsum(seg.geom.omega0T for seg in self.segments)

    @classmethod
    def single(cls, geom: MeasurementGeometry, profile: CouplingProfile) -> "HamiltonianSchedule":
        return cls((Segment(1.0, geom, profile),))

    @classmethod
    def successive(cls, geoms, profiles=None) -> "HamiltonianSchedule":
        """Equal-duration segments, one per geometry, in the given order."""
        geoms = tuple(geoms)
        if not geoms:
            raise ValueError("need at least one geometry")
        if profiles is None:
            profiles = tuple(CouplingProfile.constant() for _ in geoms)
        else:
            profiles = tuple(profiles)
            if len(profiles) != len(geoms):
                raise ValueError("profiles and geometries must pair up")
        frac = 1.0 / len(geoms)
        return cls(tuple(Segment(frac, g, p) for g, p in zip(geoms, profiles)))


def _compose(alpha: np.ndarray, beta: np.ndarray) -> tuple[complex, complex]:
    """Time-ordered product of Cayley-Klein factors, element 0 applied first.

    Factor k is U_k = [[alpha_k, beta_k], [-conj(beta_k), conj(alpha_k)]].
    Pairwise reduction: U_2 U_1 has alpha = a2 a1 - b2 conj(b1) and
    beta = a2 b1 + b2 conj(a1), four complex multiplies per product.
    """
    while alpha.size > 1:
        m = alpha.size // 2
        a1, a2 = alpha[0:2 * m:2], alpha[1:2 * m:2]
        b1, b2 = beta[0:2 * m:2], beta[1:2 * m:2]
        head_a = a2 * a1 - b2 * np.conjugate(b1)
        head_b = a2 * b1 + b2 * np.conjugate(a1)
        if alpha.size % 2:
            head_a = np.append(head_a, alpha[-1])
            head_b = np.append(head_b, beta[-1])
        alpha, beta = head_a, head_b
    a, b = complex(alpha[0]), complex(beta[0])
    # The form is closed under products, so the only drift from SU(2) is
    # in det U = |a|^2 + |b|^2.  Determinants multiply, so one rescale of
    # the root removes the drift of every level below it.
    norm = math.sqrt(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag)
    return a / norm, b / norm


def _midpoint_steps(
    seg: Segment, n_steps: int, start: int, stop: int, reverse: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Cayley-Klein pairs of midpoint steps start..stop-1 out of n_steps.

    Step j is exp(+i phi_j (a_j.sigma)) with v_j = e_z + xi gT(s_j) n,
    phi_j = (omega0T/2) |v_j| / n_steps and a_j = v_j/|v_j|, so alpha =
    cos phi + i a_z sin phi and beta = (a_y + i a_x) sin phi.  reverse gives
    the inverse steps in reversed order.
    """
    geom = seg.geom
    ds = 1.0 / n_steps
    sin_g = math.sin(geom.gamma)
    nx = sin_g * math.cos(geom.eta)
    ny = sin_g * math.sin(geom.eta)
    nz = math.cos(geom.gamma)

    mid = (np.arange(start, stop, dtype=float) + 0.5) * ds
    g = coupling_eval(seg.profile, mid) * geom.xi
    vx = g * nx
    vy = g * ny
    vz = 1.0 + g * nz
    norm = np.sqrt(vx * vx + vy * vy + vz * vz)
    phi = (0.5 * geom.omega0T * ds) * norm
    # sin(phi)/|v|; phi = 0 wherever |v| = 0, so the guard leaves it exact
    t = np.sin(phi) / np.where(norm > 0.0, norm, 1.0)
    if reverse:
        t = -t
    alpha = np.empty(stop - start, dtype=complex)
    beta = np.empty(stop - start, dtype=complex)
    alpha.real = np.cos(phi)
    alpha.imag = vz * t
    beta.real = vy * t
    beta.imag = vx * t
    if reverse:
        return alpha[::-1], beta[::-1]
    return alpha, beta


def _allocate_steps(schedule: HamiltonianSchedule, steps: int) -> list[int]:
    return [max(1, round(steps * seg.fraction)) for seg in schedule.segments]


def _run(schedule: HamiltonianSchedule, psi: np.ndarray, counts: list[int], reverse: bool) -> np.ndarray:
    """Apply counts[k] midpoint steps to segment k of the schedule, to psi."""
    # Each chunk of at most _CHUNK steps reduces to one factor; the chunk
    # factors then reduce through the same kernel, in the order applied.
    factors = []
    order = range(len(schedule.segments))
    for k in reversed(order) if reverse else order:
        n_steps = counts[k]
        starts = range(0, n_steps, _CHUNK)
        for start in reversed(starts) if reverse else starts:
            stop = min(start + _CHUNK, n_steps)
            factors.append(_compose(*_midpoint_steps(schedule.segments[k], n_steps, start, stop, reverse)))
    a, b = _compose(*(np.array(column) for column in zip(*factors)))
    return np.array([a * psi[0] + b * psi[1], -b.conjugate() * psi[0] + a.conjugate() * psi[1]])


def _propagate_adaptive(
    schedule: HamiltonianSchedule, psi: np.ndarray, reverse: bool,
    max_steps: int,
) -> tuple[np.ndarray, int]:
    steps = DEFAULT_STEPS
    previous = _run(schedule, psi, _allocate_steps(schedule, steps), reverse)
    while steps < max_steps:
        steps *= 2
        current = _run(schedule, psi, _allocate_steps(schedule, steps), reverse)
        if np.max(np.abs(current - previous)) < ADAPTIVE_TOLERANCE:
            return current, steps
        previous = current
    raise ConvergenceError(
        f"no convergence to {ADAPTIVE_TOLERANCE} within {max_steps} steps"
    )


def propagate(
    schedule: HamiltonianSchedule,
    psi0: SpinState,
    steps: int | None = None,
    reverse: bool = False,
    max_steps: int = MAX_ADAPTIVE_STEPS,
) -> SpinState:
    """Propagate psi0 through the schedule.

    Parameters
    ----------
    schedule : HamiltonianSchedule
    psi0 : SpinState
        Must be normalized within 1e-10.
    steps : int or None
        Fixed midpoint-step count (allocated across segments by duration).
        None selects the adaptive rule.  If every segment has a constant
        profile the Hamiltonian is piecewise static and each segment takes
        one exact step.  Otherwise the step count doubles from 2**14 until
        two successive refinements agree within 1e-10, capped at max_steps;
        the midpoint rule is second order, so the error of the returned
        state is about a third of that last difference.
    reverse : bool
        Apply the exact inverse evolution (negated Hamiltonian, reversed
        time order).
    max_steps : int
        Adaptive-doubling cap; exceeded means ConvergenceError.

    Returns
    -------
    SpinState
    """
    if abs(psi0.norm() - 1.0) > 1e-10:
        raise ValueError(f"initial state must be normalized, |psi| = {psi0.norm()!r}")
    psi = psi0.as_array()
    if steps is not None:
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps!r}")
        final = _run(schedule, psi, _allocate_steps(schedule, int(steps)), reverse)
    elif all(seg.profile.kind is ProfileKind.CONSTANT for seg in schedule.segments):
        final = _run(schedule, psi, [1] * len(schedule.segments), reverse)
    else:
        final, _ = _propagate_adaptive(schedule, psi, reverse, max_steps)
    return SpinState(complex(final[0]), complex(final[1]))


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

    exact_deviation is only defined for the constant profile (max difference
    over both amplitudes); the first-order comparison applies to every kind.
    The convergence order is a Richardson estimate from three coarse runs and
    is None when successive refinements sit at round-off (static Hamiltonian).
    """
    schedule = HamiltonianSchedule.single(geom, profile)
    psi = SpinState.plus().as_array()
    final, steps_used = _propagate_adaptive(schedule, psi, False, MAX_ADAPTIVE_STEPS)
    c_plus, c_minus = complex(final[0]), complex(final[1])

    exact_dev = None
    if profile.kind is ProfileKind.CONSTANT:
        a_minus = amplitude_exact(geom).amplitude_minus
        correct, reversed_ = survival_split(geom)
        a_plus = correct + reversed_
        exact_dev = max(abs(a_minus - c_minus), abs(a_plus - c_plus))

    fo = first_order_amplitude(profile, geom).amplitude
    fo_dev = abs(c_minus - fo)
    if abs(fo) > 0.0:
        fo_rel = fo_dev / abs(fo)
    else:
        fo_rel = 0.0 if fo_dev == 0.0 else math.inf

    order = None
    if profile.kind is not ProfileKind.CONSTANT:
        # static Hamiltonians are integrated exactly, leaving only round-off
        coarse = [_run(schedule, psi, [2 ** k], False) for k in (10, 11, 12)]
        d1 = float(np.max(np.abs(coarse[0] - coarse[1])))
        d2 = float(np.max(np.abs(coarse[1] - coarse[2])))
        if d1 > 1e-13 and d2 > 1e-13:
            order = math.log2(d1 / d2)

    return CrosscheckReport(
        profile_kind=profile.kind,
        steps_used=steps_used,
        exact_deviation=exact_dev,
        first_order_deviation=fo_dev,
        first_order_relative=fo_rel,
        convergence_order=order,
    )
