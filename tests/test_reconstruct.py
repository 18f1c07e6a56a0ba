"""Bloch-vector state reconstruction and the flipped-axis corruption study."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protspin import (
    DensityMatrix,
    ExpectationTriple,
    SpinState,
    corrupted_reconstruction,
    fidelity,
    measurement_triple,
    reconstruct_state,
)
from helpers import forbid_numpy_vector_algebra, reference_corrupted_reconstruction
from protspin.reconstruct import _triple

AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def random_orthonormal_triple(rng):
    basis, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return tuple(tuple(float(x) for x in row) for row in basis.T)


# The same quantities through numpy's vector algebra, as the library once
# computed them; the scalar forms must agree to the last bit or two.
def numpy_triple(gamma, eta):
    n3 = np.array([math.sin(gamma) * math.cos(eta), math.sin(gamma) * math.sin(eta), math.cos(gamma)])
    n1 = np.array([math.cos(gamma) * math.cos(eta), math.cos(gamma) * math.sin(eta), -math.sin(gamma)])
    return n1, np.cross(n3, n1), n3


def numpy_reconstructed_bloch(directions, values):
    r = np.array(directions).T @ np.array(values)
    norm = float(np.linalg.norm(r))
    return r / norm if norm > 1.0 else r


def numpy_overlap(rho, state):
    psi = state.as_array()
    return float((psi.conjugate() @ (rho.as_matrix() @ psi)).real)


def entries(rho):
    return np.array([rho.rho00, rho.rho01, rho.rho10, rho.rho11])


polar = st.floats(min_value=0.0, max_value=math.pi)
azimuth = st.floats(min_value=0.0, max_value=2.0 * math.pi)


class TestDensityMatrix:
    def test_from_bloch_round_trip(self):
        rho = DensityMatrix.from_bloch((0.3, -0.4, 0.5))
        assert np.allclose(rho.bloch_vector, (0.3, -0.4, 0.5), atol=1e-15)

    def test_pure_state_projector(self):
        rho = DensityMatrix.from_bloch((0.0, 0.0, 1.0))
        assert rho.rho00 == 1.0
        assert rho.rho11 == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(rho00=0.5, rho01=0.2j, rho10=0.2j, rho11=0.5)

    def test_rejects_trace_defect(self):
        with pytest.raises(ValueError):
            DensityMatrix(rho00=0.6, rho01=0.0, rho10=0.0, rho11=0.5)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(rho00=0.5, rho01=0.9, rho10=0.9, rho11=0.5)

    def test_serialization_carries_entries_and_bloch(self):
        rho = DensityMatrix.from_bloch((0.6, 0.0, 0.8))
        d = rho.as_dict()
        assert d["rho00"] == {"re": rho.rho00.real, "im": 0.0}
        assert tuple(d["bloch_vector"]) == pytest.approx((0.6, 0.0, 0.8))


class TestExpectationTriple:
    def test_rejects_non_orthonormal_directions(self):
        dirs = ((1.0, 0.0, 0.0), (0.7, 0.7, 0.0), (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            ExpectationTriple(directions=dirs, values=(0.1, 0.1, 0.1))

    def test_rejects_two_directions(self):
        with pytest.raises(ValueError, match="directions must be three 3-vectors"):
            ExpectationTriple(directions=AXES[:2], values=(0.1, 0.1, 0.1))

    def test_rejects_two_values(self):
        with pytest.raises(ValueError, match="exactly three expectation values required"):
            ExpectationTriple(directions=AXES, values=(0.1, 0.1))

    def test_rejects_vectors_far_outside_bloch_ball(self):
        with pytest.raises(ValueError):
            ExpectationTriple(directions=AXES, values=(1.0, 1.0, 1.0))

    def test_accepts_boundary(self):
        triple = ExpectationTriple(directions=AXES, values=(0.0, 0.0, 1.0))
        assert np.allclose(triple.bloch_vector(), (0.0, 0.0, 1.0))


class TestReconstructState:
    def test_north_pole(self):
        result = reconstruct_state(ExpectationTriple(directions=AXES, values=(0.0, 0.0, 1.0)))
        assert result.rho.rho00 == pytest.approx(1.0, abs=1e-15)
        assert result.rho.rho11 == pytest.approx(0.0, abs=1e-15)
        assert not result.clipped

    def test_fully_mixed(self):
        result = reconstruct_state(ExpectationTriple(directions=AXES, values=(0.0, 0.0, 0.0)))
        assert result.rho.rho00 == pytest.approx(0.5, abs=1e-15)
        assert abs(result.rho.rho01) < 1e-15

    def test_transverse_polarization(self):
        result = reconstruct_state(ExpectationTriple(directions=AXES, values=(1.0, 0.0, 0.0)))
        mat = result.rho.as_matrix()
        assert np.allclose(mat, 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]]), atol=1e-15)

    def test_noise_just_outside_ball_is_clipped(self):
        values = (1.0, 1e-5, 0.0)
        result = reconstruct_state(ExpectationTriple(directions=AXES, values=values))
        assert result.clipped
        assert np.linalg.norm(result.bloch_vector) <= 1.0 + 1e-15

    def test_flipping_a_zero_component_changes_nothing(self):
        flat = reconstruct_state(ExpectationTriple(directions=AXES, values=(0.6, 0.0, 0.8)))
        flipped = reconstruct_state(ExpectationTriple(directions=AXES, values=(0.6, -0.0, 0.8)))
        assert flat.rho == flipped.rho

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_of_pure_states(self, seed):
        rng = np.random.default_rng(seed)
        # random pure state as a Bloch unit vector, random measurement frame
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        dirs = random_orthonormal_triple(rng)
        values = tuple(float(np.dot(v, d)) for d in dirs)
        result = reconstruct_state(ExpectationTriple(directions=dirs, values=values))
        expected = DensityMatrix.from_bloch(tuple(v))
        assert np.allclose(result.rho.as_matrix(), expected.as_matrix(), atol=1e-12)


class TestScalarGeometry:
    @given(gamma=polar, eta=azimuth)
    def test_triple_matches_numpy(self, gamma, eta):
        for got, want in zip(measurement_triple(gamma, eta), numpy_triple(gamma, eta)):
            assert isinstance(got, np.ndarray) and got.shape == (3,)
            assert np.max(np.abs(got - want)) <= 5e-16

    @given(gamma=polar, eta=azimuth)
    def test_corrupted_reconstruction_matches_numpy(self, gamma, eta):
        rho, f = corrupted_reconstruction(gamma, eta)
        n1, n2, n3 = numpy_triple(gamma, eta)
        r = numpy_reconstructed_bloch((n1, n2, n3), (n1[2], n2[2], -n3[2]))
        assert np.max(np.abs(rho.bloch_vector - r)) <= 5e-16
        assert np.max(np.abs(entries(rho) - entries(DensityMatrix.from_bloch(r)))) <= 5e-16
        assert abs(f * f - max(numpy_overlap(rho, SpinState.plus()), 0.0)) <= 1e-15

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        radius=st.floats(min_value=0.0, max_value=1.0 + 5e-10),
    )
    def test_reconstruct_state_matches_numpy(self, seed, radius):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3)
        r_true = radius * v / np.linalg.norm(v)
        dirs = random_orthonormal_triple(rng)
        values = tuple(float(np.dot(r_true, d)) for d in dirs)
        data = ExpectationTriple(directions=dirs, values=values)
        result = reconstruct_state(data)
        assert isinstance(data.bloch_vector(), np.ndarray)
        assert isinstance(result.bloch_vector, np.ndarray)
        assert np.max(np.abs(data.bloch_vector() - np.array(dirs).T @ np.array(values))) <= 5e-16
        r = numpy_reconstructed_bloch(dirs, values)
        assert np.max(np.abs(result.bloch_vector - r)) <= 5e-16
        assert np.max(np.abs(entries(result.rho) - entries(DensityMatrix.from_bloch(r)))) <= 5e-16

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_fidelity_matches_numpy_overlap(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3)
        rho = DensityMatrix.from_bloch(rng.uniform(0.0, 1.0) * v / np.linalg.norm(v))
        c = rng.normal(size=4)
        c /= np.linalg.norm(c)
        state = SpinState(complex(c[0], c[1]), complex(c[2], c[3]))
        assert abs(fidelity(rho, state) ** 2 - numpy_overlap(rho, state)) <= 1e-15

    def test_runs_without_numpy_vector_algebra(self, monkeypatch):
        expected = corrupted_reconstruction(0.7, 1.3)
        axes = reconstruct_state(ExpectationTriple(directions=AXES, values=(0.3, 0.2, 0.1)))
        forbid_numpy_vector_algebra(monkeypatch)
        assert corrupted_reconstruction(0.7, 1.3) == expected
        again = reconstruct_state(ExpectationTriple(directions=AXES, values=(0.3, 0.2, 0.1)))
        assert again.rho == axes.rho
        assert again.bloch_vector.tolist() == axes.bloch_vector.tolist()

    @pytest.mark.parametrize("values, message", [
        ((math.nan, 0.0, 0.0), "expectation values must lie in"),
        ((math.inf, 0.0, 0.0), "expectation values must lie in"),
        ((0.0, 0.0, 1.0 + 1e-8), "expectation values must lie in"),
        ((0.8, 0.8, 0.0), "expectation values imply"),
        # past the first slot, where a max() over the values would miss a NaN
        ((0.0, math.nan, 0.0), "expectation values must lie in"),
        ((0.0, 0.0, math.nan), "expectation values must lie in"),
        ((0.0, -math.inf, 0.0), "expectation values must lie in"),
        ((0.0, 0.0, math.inf), "expectation values must lie in"),
    ])
    def test_rejects_values_outside_the_ball(self, values, message):
        with pytest.raises(ValueError, match=message):
            ExpectationTriple(directions=AXES, values=values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e-8])
    def test_rejects_non_orthonormal_or_non_finite_directions(self, bad):
        dirs = ((1.0, 0.0, 0.0), (0.0, 1.0, bad), (0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="directions must form an orthonormal triple"):
            ExpectationTriple(directions=dirs, values=(0.1, 0.1, 0.1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row, col", [(r, c) for r in range(3) for c in range(3)])
    def test_rejects_a_non_finite_direction_entry_anywhere(self, bad, row, col):
        dirs = [list(d) for d in AXES]
        dirs[row][col] = bad
        with pytest.raises(ValueError, match="directions must form an orthonormal triple"):
            ExpectationTriple(directions=dirs, values=(0.1, 0.1, 0.1))


class TestFidelity:
    def test_projector_onto_itself(self):
        rho = DensityMatrix.from_bloch((0.0, 0.0, 1.0))
        assert fidelity(rho, SpinState.plus()) == pytest.approx(1.0, abs=1e-15)

    def test_fully_mixed_against_anything(self):
        rho = DensityMatrix.from_bloch((0.0, 0.0, 0.0))
        assert fidelity(rho, SpinState.plus()) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_rejects_unnormalized_reference(self):
        rho = DensityMatrix.from_bloch((0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            fidelity(rho, SpinState(c_plus=0.5, c_minus=0.0))


class TestMeasurementTriple:
    @pytest.mark.parametrize("gamma", [0.0, 0.4, math.pi / 2])
    @pytest.mark.parametrize("eta", [0.0, 1.0, 4.0])
    def test_orthonormal_with_prescribed_third_axis(self, gamma, eta):
        n1, n2, n3 = measurement_triple(gamma, eta)
        basis = np.array([n1, n2, n3])
        assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)
        expected = (
            math.sin(gamma) * math.cos(eta),
            math.sin(gamma) * math.sin(eta),
            math.cos(gamma),
        )
        assert np.allclose(n3, expected, atol=1e-12)


class TestCorruptedReconstruction:
    def test_collinear_axis_destroys_the_state(self):
        _, f = corrupted_reconstruction(0.0)
        assert f == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_axis_is_harmless(self):
        rho, f = corrupted_reconstruction(math.pi / 2)
        assert f == pytest.approx(1.0, abs=1e-14)
        assert rho.rho00 == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_axis_leaves_equal_weights(self):
        rho, f = corrupted_reconstruction(math.pi / 4)
        assert f == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
        assert rho.rho00 == pytest.approx(0.5, abs=1e-12)
        assert rho.rho11 == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("gamma", np.linspace(0.0, math.pi / 2, 7).tolist())
    @pytest.mark.parametrize("eta", [0.0, 0.7, 2.0, 5.5])
    def test_fidelity_depends_only_on_polar_angle(self, gamma, eta):
        _, f = corrupted_reconstruction(gamma, eta)
        assert abs(f - math.sin(gamma)) < 1e-12

    def test_fidelity_agrees_with_direct_overlap(self):
        rho, f = corrupted_reconstruction(0.3, 1.1)
        assert abs(f - fidelity(rho, SpinState.plus())) < 1e-15

    @pytest.mark.parametrize("eta", [math.inf, -math.inf, math.nan])
    def test_non_finite_eta_is_rejected(self, eta):
        with pytest.raises(ValueError, match=f"^eta must be finite, got {eta!r}$"):
            corrupted_reconstruction(0.3, eta)


class TestCorruptedReconstructionComposition:
    """corrupted_reconstruction equals reconstruct_state(ExpectationTriple(...)) plus fidelity, bit for bit."""

    @given(gamma=polar, eta=st.floats(min_value=-10.0, max_value=10.0))
    @example(gamma=0.0, eta=0.0)
    @example(gamma=math.pi, eta=0.0)
    @example(gamma=1e-9, eta=0.0)
    @example(gamma=math.pi - 1e-9, eta=-10.0)
    @example(gamma=0.5 * math.pi, eta=10.0)
    @settings(max_examples=400)
    def test_equals_the_old_composition(self, gamma, eta):
        assert repr(corrupted_reconstruction(gamma, eta)) == repr(reference_corrupted_reconstruction(gamma, eta))

    @given(gamma=polar, eta=st.floats(min_value=-10.0, max_value=10.0))
    @example(gamma=0.0, eta=0.0)
    @example(gamma=math.pi, eta=0.0)
    @example(gamma=1e-9, eta=0.0)
    @settings(max_examples=400)
    def test_triple_passes_the_expectation_checks(self, gamma, eta):
        # corrupted_reconstruction builds no ExpectationTriple: its triple must
        # pass the orthonormality and Bloch-ball checks it would have run
        n1, n2, n3 = _triple(gamma, eta)
        ExpectationTriple(directions=(n1, n2, n3), values=(n1[2], n2[2], -n3[2]))

    @pytest.mark.parametrize("gamma", [-1e-9, math.pi + 1e-9, math.nan, math.inf])
    def test_refuses_what_the_old_composition_refuses(self, gamma):
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, pi\]"):
            corrupted_reconstruction(gamma)
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, pi\]"):
            reference_corrupted_reconstruction(gamma)


class TestNonFiniteDensityMatrix:
    """The validator refuses NaN and inf in any entry, not only where a test reads it first."""

    @pytest.mark.parametrize("entry", ["rho00", "rho01", "rho10", "rho11"])
    @pytest.mark.parametrize("bad", [
        math.nan, complex(math.nan, 0.0), complex(0.0, math.nan), math.inf, complex(0.0, math.inf),
    ])
    def test_density_matrix_entries(self, entry, bad):
        good = dict(rho00=0.75, rho01=0.25j, rho10=-0.25j, rho11=0.25)
        DensityMatrix(**good)
        with pytest.raises(ValueError):
            DensityMatrix(**{**good, entry: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_density_matrix_from_bloch(self, bad):
        for r in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
            with pytest.raises(ValueError):
                DensityMatrix.from_bloch(r)
