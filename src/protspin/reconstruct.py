"""Bloch-vector state reconstruction from expectation values.

Protective measurements along an orthonormal direction triple {n_k} yield the
expectation values e_k = <sigma . n_k>; the state follows from the Bloch
inversion rho = (I + r . sigma)/2 with r = sum_k e_k n_k.  A sign-corrupted
reading on one axis tilts r but keeps it on the unit sphere, so the
reconstruction stays a pure state while its overlap with the true one drops.

The 3-vector and 2x2 algebra here is written out in scalar float arithmetic:
on vectors this short numpy's fixed cost per call would be nearly all of the
time.  Public results are still ndarrays where they were.  Inputs are
validated once, by the public constructors; the helpers take valid floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SpinState, _check_eta, _check_gamma, _unit_vector

ORTHONORMALITY_TOLERANCE = 1e-9
BLOCH_EXCESS_TOLERANCE = 1e-9
_HERMITICITY_TOLERANCE = 1e-12
_PLUS = SpinState.plus()


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 density matrix, validated on construction.

    Hermiticity and unit trace within 1e-12; positive semidefiniteness up to
    -1e-12 on the diagonal and determinant.
    """

    rho00: complex
    rho01: complex
    rho10: complex
    rho11: complex

    def __post_init__(self):
        rho00, rho01 = complex(self.rho00), complex(self.rho01)
        rho10, rho11 = complex(self.rho10), complex(self.rho11)
        self.__dict__.update(rho00=rho00, rho01=rho01, rho10=rho10, rho11=rho11)
        # each test is written to fail on NaN
        if not abs(rho10 - rho01.conjugate()) <= _HERMITICITY_TOLERANCE:
            raise ValueError("density matrix must be Hermitian")
        if not (abs(rho00.imag) <= _HERMITICITY_TOLERANCE and abs(rho11.imag) <= _HERMITICITY_TOLERANCE):
            raise ValueError("diagonal entries must be real")
        if not abs(rho00 + rho11 - 1.0) <= _HERMITICITY_TOLERANCE:
            raise ValueError("trace must equal 1")
        det = (rho00 * rho11 - rho01 * rho10).real
        if not (rho00.real >= -1e-12 and rho11.real >= -1e-12 and det >= -1e-12):
            raise ValueError("density matrix must be positive semidefinite")

    @classmethod
    def from_bloch(cls, r) -> "DensityMatrix":
        rx, ry, rz = map(float, r)
        return cls(
            rho00=0.5 * (1.0 + rz),
            rho01=0.5 * (rx - 1j * ry),
            rho10=0.5 * (rx + 1j * ry),
            rho11=0.5 * (1.0 - rz),
        )

    @property
    def bloch_vector(self) -> np.ndarray:
        return np.array([
            2.0 * self.rho01.real,
            -2.0 * self.rho01.imag,
            (self.rho00 - self.rho11).real,
        ])

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.rho00, self.rho01], [self.rho10, self.rho11]])

    def as_dict(self) -> dict:
        bloch = self.bloch_vector
        return {
            "rho00": {"re": self.rho00.real, "im": self.rho00.imag},
            "rho01": {"re": self.rho01.real, "im": self.rho01.imag},
            "rho10": {"re": self.rho10.real, "im": self.rho10.imag},
            "rho11": {"re": self.rho11.real, "im": self.rho11.imag},
            "bloch_vector": [float(c) for c in bloch],
        }


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _bloch_sum(directions, values) -> tuple[float, float, float]:
    """r = sum_k e_k n_k as plain floats, for three directions n_k and values e_k."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = directions
    e1, e2, e3 = values
    return (
        ax * e1 + bx * e2 + cx * e3,
        ay * e1 + by * e2 + cy * e3,
        az * e1 + bz * e2 + cz * e3,
    )


def _clip_to_sphere(r) -> tuple[tuple[float, float, float], bool]:
    """(r, False) for |r| <= 1, else (r/|r|, True)."""
    norm = math.hypot(*r)
    if norm > 1.0:
        return (r[0] / norm, r[1] / norm, r[2] / norm), True
    return r, False


@dataclass(frozen=True)
class ExpectationTriple:
    """Spin expectation values along an orthonormal direction triple."""

    directions: tuple[tuple[float, float, float], ...]
    values: tuple[float, float, float]

    def __post_init__(self):
        dirs = tuple([tuple(map(float, d)) for d in self.directions])
        vals = tuple(map(float, self.values))
        if len(dirs) != 3 or list(map(len, dirs)) != [3, 3, 3]:
            raise ValueError("directions must be three 3-vectors")
        if len(vals) != 3:
            raise ValueError("exactly three expectation values required")
        self.__dict__.update(directions=dirs, values=vals)
        d1, d2, d3 = dirs
        gram_defects = [
            _dot(d1, d1) - 1.0, _dot(d2, d2) - 1.0, _dot(d3, d3) - 1.0,
            _dot(d1, d2), _dot(d1, d3), _dot(d2, d3),
        ]
        if not all([abs(e) <= ORTHONORMALITY_TOLERANCE for e in gram_defects]):
            raise ValueError("directions must form an orthonormal triple")
        if not all([abs(v) <= 1.0 + BLOCH_EXCESS_TOLERANCE for v in vals]):
            raise ValueError(f"expectation values must lie in [-1, 1], got {vals!r}")
        norm = math.hypot(*_bloch_sum(dirs, vals))
        if norm > 1.0 + BLOCH_EXCESS_TOLERANCE:
            raise ValueError(f"expectation values imply |r| = {norm!r} > 1")

    def bloch_vector(self) -> np.ndarray:
        return np.array(_bloch_sum(self.directions, self.values))


@dataclass(frozen=True)
class ReconstructionResult:
    rho: DensityMatrix
    bloch_vector: np.ndarray
    clipped: bool


def reconstruct_state(data: ExpectationTriple) -> ReconstructionResult:
    """Invert expectation values to a density matrix.

    A Bloch vector pushed past unit length by measurement noise is clipped
    radially back to the sphere and flagged.
    """
    r, clipped = _clip_to_sphere(_bloch_sum(data.directions, data.values))
    return ReconstructionResult(
        rho=DensityMatrix.from_bloch(r), bloch_vector=np.array(r), clipped=clipped
    )


def fidelity(rho: DensityMatrix, reference: SpinState) -> float:
    """sqrt(<ref| rho |ref>) for a pure reference state."""
    if abs(reference.norm() - 1.0) > 1e-10:
        raise ValueError(f"reference state must be normalized, |psi| = {reference.norm()!r}")
    a, b = reference.c_plus, reference.c_minus
    overlap = (
        a.conjugate() * (rho.rho00 * a + rho.rho01 * b)
        + b.conjugate() * (rho.rho10 * a + rho.rho11 * b)
    ).real
    return math.sqrt(max(overlap, 0.0))


def measurement_triple(gamma: float, eta: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal triple whose third axis has polar angle gamma, azimuth eta."""
    return tuple(np.array(n) for n in _triple(gamma, eta))


def _triple(gamma: float, eta: float):
    """measurement_triple as tuples of floats; n2 = n3 x n1."""
    n3 = _unit_vector(gamma, eta)
    cg = math.cos(gamma)
    n1 = (cg * math.cos(eta), cg * math.sin(eta), -math.sin(gamma))
    n2 = (
        n3[1] * n1[2] - n3[2] * n1[1],
        n3[2] * n1[0] - n3[0] * n1[2],
        n3[0] * n1[1] - n3[1] * n1[0],
    )
    return n1, n2, n3


def corrupted_reconstruction(gamma: float, eta: float = 0.0) -> tuple[DensityMatrix, float]:
    """Reconstruction of |+> with the reading along the third axis sign-flipped.

    The true expectation values of |+> along the triple are the z-components
    of the axes; corrupting e_3 = cos(gamma) to -cos(gamma) rotates the
    reconstructed Bloch vector to r = e_z - 2 cos(gamma) n_3, still a pure
    state, whose fidelity against |+> is sin(gamma).
    """
    _check_gamma(gamma)
    _check_eta(eta)
    n1, n2, n3 = _triple(gamma, eta)
    # _triple is orthonormal by construction, so no ExpectationTriple checks it
    r, _ = _clip_to_sphere(_bloch_sum((n1, n2, n3), (n1[2], n2[2], -n3[2])))
    rho = DensityMatrix.from_bloch(r)
    return rho, fidelity(rho, _PLUS)
