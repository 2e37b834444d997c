import numpy as np
import pytest

import qcbounds as qc
from qcbounds.errors import (
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    NotPositive,
    TraceNotOne,
)

from conftest import eigenbasis_matrix, random_instance


def test_make_hermitian_symmetrises_float_noise():
    noisy = np.array([[1.0, 0.5 + 1e-12j], [0.5 - 2e-12j, -1.0]])
    h = qc.make_hermitian(noisy)
    assert np.array_equal(h.mat, h.mat.conj().T)


def test_make_hermitian_rejects_asymmetry():
    with pytest.raises(NotHermitian):
        qc.make_hermitian([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-8, 1e-12, 1e-100, 1e-300])
def test_hermiticity_tolerance_is_relative_at_every_scale(scale):
    # The defect of [[0, 1], [0, 0]] is its largest entry at any scale.  It
    # used to be divided by max(1, max|M|), so below unit scale it was
    # absolute, and 1e-12 times the witness was stored as 5e-13 sigma_x.
    witness = scale * np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        qc.make_hermitian(witness)
    with pytest.raises(NotHermitian):
        qc.HermitianMatrix(witness)
    # Relative noise of about 1e-16 is float noise at any scale.
    g = np.random.default_rng(12)
    raw = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    noise = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    hermitian = (raw + raw.conj().T) / 2.0
    noisy = scale * (hermitian + 1e-16 * (noise - noise.conj().T))
    assert not np.array_equal(noisy, noisy.conj().T)
    assert np.array_equal(qc.make_hermitian(noisy).mat, (noisy + noisy.conj().T) / 2.0)


def test_hermiticity_check_rejects_overflowing_magnitudes():
    # |1.5e308 + 1.5e308j| overflows, so the defect is inf / inf, NaN.  It
    # used to pass the check, and the matrix was stored as its symmetrised
    # half, a different operator.
    z = 1.5e308 + 1.5e308j
    with np.errstate(all="ignore"), pytest.raises(NotHermitian):
        qc.make_hermitian([[0.0, z], [0.0, 0.0]])


def test_make_hermitian_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        qc.make_hermitian(np.zeros((2, 3)))


def test_make_hermitian_rejects_nan():
    with pytest.raises(NonFinite):
        qc.make_hermitian([[np.nan, 0.0], [0.0, 0.0]])


def test_matrices_are_read_only():
    h = qc.make_hermitian(np.eye(2))
    with pytest.raises(ValueError):
        h.mat[0, 0] = 5.0
    d = qc.make_density(np.eye(3) / 3)
    with pytest.raises(ValueError):
        d.eigenvalues[0] = 5.0


def test_make_density_trace_check():
    with pytest.raises(TraceNotOne):
        qc.make_density(np.eye(2))


def test_make_density_clamps_tiny_negative_eigenvalue():
    eps = 5e-11
    raw = np.diag([-eps, 1.0 + eps])
    d = qc.make_density(raw)
    assert d.lambda_min == 0.0
    assert abs(d.eigenvalues.sum() - 1.0) < 1e-15


def test_make_density_rejects_negative_eigenvalue():
    with pytest.raises(NotPositive):
        qc.make_density(np.diag([-1e-6, 1.0 + 1e-6]))


def test_make_density_orders_spectrum():
    d = qc.make_density(np.diag([0.7, 0.1, 0.2]))
    assert np.all(np.diff(d.eigenvalues) >= 0)
    assert d.lambda_min == pytest.approx(0.1)
    assert d.lambda_max == pytest.approx(0.7)


def test_density_decomposition_is_consistent():
    state, _, _ = random_instance(3, 4)
    rebuilt = (state.eigenvectors * state.eigenvalues) @ state.eigenvectors.conj().T
    assert np.max(np.abs(rebuilt - state.mat)) < 1e-12


def test_density_from_decomposition_keeps_exact_zeros():
    frame = np.eye(3, dtype=complex)
    d = qc.density_from_decomposition([0.0, 0.25, 0.75], frame)
    assert d.lambda_min == 0.0


def expectation(state, obs):
    """Tr[rho A] as a real number."""
    return float(np.einsum("ij,ji->", state.mat, obs.mat).real)


def test_expectation_and_center(pauli_z, mixed_qubit):
    # Tr[diag(0.25, 0.75) sz] = -0.5.
    assert expectation(mixed_qubit, pauli_z) == pytest.approx(-0.5)
    centered = qc.center(mixed_qubit, pauli_z)
    assert expectation(mixed_qubit, centered) == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(centered.mat, np.diag([1.5, -0.5]))


def test_center_with_projector():
    # Tr[diag(0,1) diag(1,0)] = 0, so centring changes nothing here.
    state = qc.make_density(np.diag([0.0, 1.0]))
    obs = qc.make_hermitian(np.diag([1.0, 0.0]))
    centered = qc.center(state, obs)
    assert np.allclose(centered.mat, np.diag([1.0, 0.0]))


def test_variance_examples(pauli_z, pauli_x):
    half = qc.make_density(np.eye(2) / 2)
    assert qc.variance(half, pauli_z) == pytest.approx(1.0)
    pure = qc.make_density(np.diag([0.0, 1.0]))
    assert qc.variance(pure, pauli_z) == pytest.approx(0.0, abs=1e-15)
    tilted = qc.make_density(np.diag([0.25, 0.75]))
    assert qc.variance(tilted, pauli_x) == pytest.approx(1.0)


def test_variance_never_negative():
    state, a, _ = random_instance(11, 5)
    assert qc.variance(state, a) >= 0.0


def test_eigenbasis_elements_diagonalises_the_state():
    state, _, _ = random_instance(7, 4)
    in_basis = eigenbasis_matrix(state, qc.make_hermitian(state.mat))
    assert np.allclose(in_basis, np.diag(state.eigenvalues), atol=1e-12)


def test_dimension_mismatch_raised(pauli_x):
    state = qc.make_density(np.eye(3) / 3)
    with pytest.raises(DimensionMismatch):
        qc.variance(state, pauli_x)
    with pytest.raises(DimensionMismatch):
        qc.q_trace_term(state, pauli_x, pauli_x, 0.5)
