"""Reference values computed by the benchmark itself.

Nothing here imports protspin: the driven-propagation reference, the phased
integrals and the first-order prefactor are independent implementations, so a
defect in the library cannot hide by agreeing with itself.
"""

import cmath
import math

import numpy as np

TWO_PI = 2.0 * math.pi
REFERENCE_STEPS = 2 ** 15

# Cosine coefficients a_k of the built-in smooth profiles,
# gT(s) = sum_k a_k cos(2 pi k (s - 1/2)).
TRIG_PROFILES = {
    "constant": (1.0,),
    "raised-cosine": (1.0, 1.0),
    "optimized": (1.0, 4.0 / 3.0, 1.0 / 3.0),
}


def _unit_fourier(theta):
    """(E0, E1) = (int_0^1 e^{i theta t} dt, int_0^1 t e^{i theta t} dt), elementwise.

    The closed forms cancel for small |theta|; a 20-term Taylor series takes
    over below |theta| = 1, where it is accurate to rounding.
    """
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < 1.0
    e0 = np.empty(theta.shape, dtype=complex)
    e1 = np.empty(theta.shape, dtype=complex)

    t = theta[~small]
    ei = np.exp(1j * t)
    e0[~small] = (ei - 1.0) / (1j * t)
    e1[~small] = ei / (1j * t) + (ei - 1.0) / (t * t)

    z = 1j * theta[small]
    term = np.ones_like(z)  # z^n / n!
    s0 = np.zeros_like(z)
    s1 = np.zeros_like(z)
    for n in range(20):
        s0 += term / (n + 1)
        s1 += term / (n + 2)
        term = term * z / (n + 1)
    e0[small] = s0
    e1[small] = s1
    return e0, e1


def piecewise_linear_fourier(s, v, omega):
    """Exact int_0^1 e^{i omega x} L(x) dx for the linear interpolant L of (s, v)."""
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    h = np.diff(s)
    e0, e1 = _unit_fourier(omega * h)
    # on [s_j, s_j + h]: L = v_j (1 - t) + v_{j+1} t with x = s_j + h t
    per_interval = h * np.exp(1j * omega * s[:-1]) * (v[:-1] * (e0 - e1) + v[1:] * e1)
    return complex(math.fsum(per_interval.real), math.fsum(per_interval.imag))


def trig_fourier(coeffs, omega):
    """Exact int_0^1 e^{i omega s} sum_k a_k cos(2 pi k (s - 1/2)) ds."""
    total = 0j
    for k, a in enumerate(coeffs):
        for sign in (1.0, -1.0):
            # cos = (e^{i u} + e^{-i u}) / 2 with u = 2 pi k (s - 1/2)
            w = omega + sign * TWO_PI * k
            phase = cmath.exp(-1j * sign * math.pi * k)
            # (e^{i w} - 1) / (i w) without the cancellation near w = 0
            half = 0.5 * w
            integral = cmath.exp(1j * half) * (math.sin(half) / half if half else 1.0)
            total += 0.5 * a * phase * integral
    return total


def first_order_prefactor(xi, gamma, eta, omega0T):
    """i e^{-i x} x xi e^{i eta} sin(gamma) with x = omega0T / 2."""
    x = 0.5 * omega0T
    return 1j * cmath.exp(1j * (eta - x)) * x * xi * math.sin(gamma)


def profile_values(spec, s):
    """gT(s) for a profile spec: a TRIG_PROFILES name or a (knots_s, knots_v) pair."""
    if isinstance(spec, str):
        u = TWO_PI * (s - 0.5)
        return sum(a * np.cos(k * u) for k, a in enumerate(TRIG_PROFILES[spec]))
    knots_s, knots_v = spec
    return np.interp(s, knots_s, knots_v)


def _cayley_klein_product(alpha, beta):
    # Time-ordered product U[n-1] ... U[0] of U = [[a, -conj(b)], [b, conj(a)]].
    while alpha.shape[0] > 1:
        if alpha.shape[0] % 2:
            alpha = np.append(alpha, 1.0 + 0j)
            beta = np.append(beta, 0j)
        a1, b1 = alpha[0::2], beta[0::2]
        a2, b2 = alpha[1::2], beta[1::2]
        alpha = a2 * a1 - np.conj(b2) * b1
        beta = b2 * a1 + np.conj(a2) * b1
        norm = np.sqrt(alpha.real ** 2 + alpha.imag ** 2 + beta.real ** 2 + beta.imag ** 2)
        alpha = alpha / norm
        beta = beta / norm
    return complex(alpha[0]), complex(beta[0])


def _magnus4(spec, xi, gamma, eta, omega0T, n_steps):
    h = 1.0 / n_steps
    n = np.array([math.sin(gamma) * math.cos(eta), math.sin(gamma) * math.sin(eta), math.cos(gamma)])
    left = np.arange(n_steps) * h
    offset = math.sqrt(3.0) / 6.0
    a = []
    for node in (0.5 - offset, 0.5 + offset):
        g = xi * profile_values(spec, left + node * h)
        # generator i a.sigma of d psi / ds = i (omega0T/2) [sigma_z + xi g n.sigma] psi
        a.append(0.5 * omega0T * (g[:, None] * n[None, :] + np.array([0.0, 0.0, 1.0])))
    a1, a2 = a
    # [i a2.s, i a1.s] = -2 i (a2 x a1).s
    c = 0.5 * h * (a1 + a2) - (math.sqrt(3.0) * h * h / 6.0) * np.cross(a2, a1)
    norm = np.sqrt(np.sum(c * c, axis=1))
    safe = np.where(norm > 0.0, norm, 1.0)
    sin_n = np.sin(norm) / safe
    alpha = np.cos(norm) + 1j * c[:, 2] * sin_n
    beta = (1j * c[:, 0] - c[:, 1]) * sin_n
    return _cayley_klein_product(alpha, beta)


def driven_amplitudes(spec, xi, gamma, eta, omega0T):
    """(c_plus, c_minus) after evolving |+> through one driven window.

    Fourth-order Magnus steps at REFERENCE_STEPS and twice that,
    Richardson-combined.  REFERENCE_STEPS is a multiple of 128, so no step
    straddles a knot of the 129-knot tabulated profiles.
    """
    coarse = _magnus4(spec, xi, gamma, eta, omega0T, REFERENCE_STEPS)
    fine = _magnus4(spec, xi, gamma, eta, omega0T, 2 * REFERENCE_STEPS)
    return tuple(f + (f - c) / 15.0 for c, f in zip(coarse, fine))
