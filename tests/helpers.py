"""Shared test utilities: brute-force references, an older oracle kernel and driver, the closed forms'
earlier compositions, and geometry sampling."""

import bisect
import cmath
import math
from pathlib import Path

import numpy as np

from protspin import (
    CouplingProfile,
    ExpectationTriple,
    HamiltonianSchedule,
    MeasurementGeometry,
    ProfileKind,
    SpinState,
    coupling_eval,
    envelope_closed_form,
    exact,
    fidelity,
    oracle,
    reconstruct,
    reconstruct_state,
    tilted_field,
)
from protspin.core import _check_gamma
from protspin.oracle import coupling_grid


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


# A reference Filon sum in core._knot_integral's arithmetic order that builds
# every knot quantity on each call and evaluates both formulas of sinc and j1
# on every interval.  The library, with its stored knot panels and one formula
# per interval, must match it bit for bit.
_SINC_SERIES = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(10))
_J1_SERIES = tuple((-1) ** k * (2 * k + 2) / math.factorial(2 * k + 3) for k in range(10))


def reference_sinc_j1(x):
    large = x >= 1.0
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


def reference_knot_integral(s, v, omega):
    h = np.diff(s)
    sinc_x, j1_x = reference_sinc_j1(0.5 * omega * h)
    even = 0.5 * h * (v[:-1] + v[1:]) * sinc_x
    odd = 0.5 * h * (v[1:] - v[:-1]) * j1_x
    phase = omega * (0.5 * (s[:-1] + s[1:]))
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    return complex(
        math.fsum(even * cos_p - odd * sin_p),
        math.fsum(even * sin_p + odd * cos_p),
    )


def line_loop_samples(path):
    """The (s, gT) pairs of a profile file, parsed line by line as from_file once did.

    Raises the ValueError from_file raises for the first faulty line.
    """
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return tuple(rows)


def signed_profiles(seed):
    """Tabulated profiles of 2 to 2049 uneven knots whose values change sign."""
    rng = np.random.default_rng(seed)
    profiles = [CouplingProfile.tabulated([(0.0, -0.5), (1.0, 2.5)])]
    for n in (3, 17, 129, 513, 2049):
        s = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]))
        v = np.sin(9.0 * s + rng.uniform(0.0, 2.0 * math.pi)) + 0.4
        v /= float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(s)))
        profiles.append(CouplingProfile.tabulated(zip(s.tolist(), v.tolist())))
    return profiles


def panel_omegas(seed, draws=12):
    """omega0T from 0 through 3e7: fixed edge values plus log-uniform draws."""
    rng = np.random.default_rng(seed)
    fixed = [0.0, 5e-324, 1e-3, 0.7, 2.0, 1e6, 3e7]
    return fixed + np.exp(rng.uniform(math.log(1e-3), math.log(3e7), draws)).tolist()


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


# The oracle's chunk kernel as it was before constant segments computed one
# step per chunk and the kernel cut its temporaries: every step computed on
# its own, two Horner arrays, products and sums in fresh arrays, and the
# chunk factors always reduced through reference_compose.  The library must
# match it bit for bit.
def reference_compose(alpha, beta):
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
    norm = math.sqrt(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag)
    return a / norm, b / norm


def reference_cos_sinc_series(p, p_max):
    terms = bisect.bisect_right(oracle._SERIES_REACH, p_max) + 1
    cos = np.full_like(p, oracle._COS_SERIES[terms - 1])
    sinc = np.full_like(p, oracle._SINC_SERIES[terms - 1])
    for k in range(terms - 2, -1, -1):
        cos *= p
        cos += oracle._COS_SERIES[k]
        sinc *= p
        sinc += oracle._SINC_SERIES[k]
    return cos, sinc


def reference_steps(seg, grid, start, stop, order):
    geom = seg.geom
    profile = seg.profile
    edges, counts = grid
    if edges is None and profile.kind is not ProfileKind.TABULATED:
        width = 1.0 / counts

        def coupling(offset):
            return coupling_grid(profile, counts, start, stop, offset) * geom.xi
    else:
        if edges is None:
            width = 1.0 / counts
            left = np.arange(start, stop, dtype=float) * width
        else:
            left, width = oracle._step_edges(edges, counts, start, stop)

        def coupling(offset):
            return coupling_eval(profile, left + offset * width) * geom.xi

    half = 0.5 * geom.omega0T * width
    sin_g = math.sin(geom.gamma)
    nx = sin_g * math.cos(geom.eta)
    ny = sin_g * math.sin(geom.eta)
    nz = math.cos(geom.gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        if order == 2 or profile.kind is ProfileKind.CONSTANT:
            g = coupling(0.5)
            cx = (half * nx) * g
            cy = (half * ny) * g
        else:
            g1 = coupling(0.5 - oracle._GAUSS_OFFSET)
            g2 = coupling(0.5 + oracle._GAUSS_OFFSET)
            g = 0.5 * (g1 + g2)
            w = (oracle._GAUSS_OFFSET * half * half) * (g2 - g1)
            cx = (half * nx) * g - ny * w
            cy = (half * ny) * g + nx * w
        cz = half * (1.0 + g * nz)
        p = cx * cx
        p += cy * cy
        p += cz * cz
        p_max = float(p.max())
    if not math.isfinite(p_max):
        raise oracle._overflow(geom)
    if p_max <= oracle._SERIES_MAX_P:
        cos, t = reference_cos_sinc_series(p, p_max)
    else:
        phi = np.sqrt(p)
        cos = np.cos(phi)
        t = np.sin(phi) / np.where(phi > 0.0, phi, 1.0)
    alpha = np.empty(stop - start, dtype=complex)
    beta = np.empty(stop - start, dtype=complex)
    alpha.real = cos
    alpha.imag = cz * t
    beta.real = cy * t
    beta.imag = cx * t
    return alpha, beta


def reference_run(schedule, psi, grids, order):
    factors = []
    for seg, grid in zip(schedule.segments, grids):
        edges, counts = grid
        total = counts if edges is None else int(counts.sum())
        for start in range(0, total, oracle._CHUNK):
            stop = min(start + oracle._CHUNK, total)
            factors.append(reference_compose(*reference_steps(seg, grid, start, stop, order)))
    a, b = reference_compose(*(np.array(column) for column in zip(*factors)))
    return np.array([a * psi[0] + b * psi[1], -b.conjugate() * psi[0] + a.conjugate() * psi[1]])


def reference_runs(schedule, psi, grid_lists, order):
    return [reference_run(schedule, psi, grids, order) for grids in grid_lists]


# The adaptive driver as it was before runs were stepped together: every
# refinement its own reference_run.
def reference_adaptive(schedule, psi, order):
    steps = oracle.START_STEPS[order]
    grids = oracle._grids(schedule, steps)
    previous = reference_run(schedule, psi, grids, order)
    while steps < oracle.MAX_ADAPTIVE_STEPS:
        steps *= 2
        grids = oracle._refine(grids)
        current = reference_run(schedule, psi, grids, order)
        if np.max(np.abs(current - previous)) < oracle.ADAPTIVE_TOLERANCE:
            return current, steps
        previous = current
    raise oracle.ConvergenceError(
        f"no convergence to {oracle.ADAPTIVE_TOLERANCE} within {oracle.MAX_ADAPTIVE_STEPS} steps"
    )


def outcome(call, *args):
    """repr of what call(*args) returns, or the type and message of what it raises."""
    try:
        return repr(call(*args))
    except Exception as exc:  # the error, type and message, is the result compared
        return f"{type(exc).__name__}: {exc}"


# The closed-form entry points as they were composed before they stopped
# building objects they throw away: a reference geometry, a TiltedField, an
# ExpectationTriple and a ReconstructionResult.  The library must match them
# bit for bit and raise the same errors.
def reference_reduction_ratio(kind, omega0T):
    if kind is ProfileKind.CONSTANT:
        return 1.0
    geom = MeasurementGeometry(xi=1.0, gamma=0.5 * math.pi, omega0T=omega0T)
    ratio = envelope_closed_form(kind, geom) / envelope_closed_form(ProfileKind.CONSTANT, geom)
    return ratio * ratio


def reference_survival_split(geom):
    tf = tilted_field(geom)
    w_plus, w_minus = exact._branch_weights(geom, tf.b_ratio)
    phase = cmath.exp(1j * exact._phase(geom, tf.b_ratio))
    return w_plus * phase, w_minus / phase


def reference_reversal_probability(geom):
    tf = tilted_field(geom)
    w_plus, w_minus = exact._branch_weights(geom, tf.b_ratio)
    exact_value = w_minus * w_minus / (w_plus * w_plus + w_minus * w_minus)
    half = 0.5 * geom.xi * math.sin(geom.gamma)
    return exact_value, (half ** 4 if half < 2.0 ** 256 else math.inf)


def reference_corrupted_reconstruction(gamma, eta=0.0):
    _check_gamma(gamma)
    n1, n2, n3 = reconstruct._triple(gamma, eta)
    triple = ExpectationTriple(directions=(n1, n2, n3), values=(n1[2], n2[2], -n3[2]))
    result = reconstruct_state(triple)
    return result.rho, fidelity(result.rho, SpinState.plus())
