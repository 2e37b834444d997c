"""Validation happens once, at the trust boundary.

Generators and the search decoder build their instances through the
unchecked constructors of ``qcbounds.hermitian``.  These tests pin that
those instances are bitwise the ones the validating constructors build
from the same inputs, that they are read-only, and that the public
constructors and ``load_instance`` still reject invalid input.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcbounds as qc
from qcbounds import search
from qcbounds.errors import DimensionMismatch, InvalidSpectrum, NotHermitian
from qcbounds.generators import _random_unitary

from conftest import random_instance


def arrays(value):
    """Every array a matrix value holds, in a fixed order."""
    names = ("mat", "eigenvalues", "eigenvectors")
    return [getattr(value, name) for name in names if hasattr(value, name)]


def parts(value):
    return [arr.tobytes() for arr in arrays(value)]


# Reference copy of the search decoder as it was before the scatter
# rewrite: a per-entry loop, then the validating constructors.
def loop_hermitian_from_reals(vec, n):
    mat = np.zeros((n, n), dtype=complex)
    idx = 0
    for i in range(n):
        mat[i, i] = vec[idx]
        idx += 1
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = complex(vec[idx], vec[idx + 1])
            mat[j, i] = mat[i, j].conjugate()
            idx += 2
    return mat


def loop_decode(theta, n):
    k = n * n
    logits = theta[:n]
    shifted = np.exp(logits - logits.max())
    spectrum = np.sort(shifted / shifted.sum())
    w, v = np.linalg.eigh(loop_hermitian_from_reals(theta[n : n + k], n))
    frame = (v * np.exp(1j * w)) @ v.conj().T
    a = qc.make_hermitian(loop_hermitian_from_reals(theta[n + k : n + 2 * k], n))
    b = qc.make_hermitian(loop_hermitian_from_reals(theta[n + 2 * k :], n))
    return qc.density_from_decomposition(spectrum, frame), a, b


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
# The frame block goes through eigh, which does not converge on entries
# near 1e300; the other blocks take them.
FRAME_COORD = st.one_of(SIGNED_ZEROS, st.floats(-5.0, 5.0))
COORD = st.one_of(SIGNED_ZEROS, st.sampled_from([1e300, -1e300]), st.floats(-50.0, 50.0))


@st.composite
def thetas(draw):
    n = draw(st.integers(1, 8))
    k = n * n
    frame = draw(st.lists(FRAME_COORD, min_size=k, max_size=k))
    rest = draw(st.lists(COORD, min_size=n + 2 * k, max_size=n + 2 * k))
    return n, np.array(rest[:n] + frame + rest[n:])


@given(st.integers(0, 2**32), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_random_hermitian_equals_validating_path(seed, n):
    rng = qc.SeededRng(seed, 3)
    g = rng.generator()
    raw = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    expected = qc.make_hermitian((raw + raw.conj().T) / 2.0)
    assert parts(qc.random_hermitian(n, rng)) == parts(expected)


@given(st.integers(0, 2**32), st.integers(1, 8), st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_density_equals_validating_path(seed, n, deficient):
    rank = max(1, n - 1 - seed % n) if deficient else n
    rng = qc.SeededRng(seed, 5)
    g = rng.generator()
    spectrum = np.zeros(n)
    spectrum[n - rank :] = g.dirichlet(np.ones(rank))
    spectrum.sort()
    expected = qc.density_from_decomposition(spectrum, _random_unitary(n, g))
    assert parts(qc.random_density(n, rank, rng)) == parts(expected)


@given(thetas())
@settings(max_examples=150, deadline=None)
def test_decode_equals_loop_decoder(case):
    n, theta = case
    assert (
        search._hermitian_from_reals(theta[n:], n).tobytes()
        == loop_hermitian_from_reals(theta[n:], n).tobytes()
    )
    decoded = search._decode(theta, n)
    expected = loop_decode(theta, n)
    for got, want in zip(decoded, expected):
        assert parts(got) == parts(want)


def test_decode_handles_signed_zeros_and_huge_coordinates():
    n = 3
    theta = np.zeros(n + 3 * n * n)
    theta[::2] = -0.0
    theta[n + n * n :: 5] = 1e300
    theta[n + n * n + 1 :: 7] = -1e300
    for got, want in zip(search._decode(theta, n), loop_decode(theta, n)):
        assert parts(got) == parts(want)


def test_generated_and_decoded_arrays_are_read_only():
    state, a, b = random_instance(4, 3, rank=2)
    decoded = search._decode(np.linspace(-1.0, 1.0, 2 + 3 * 4), 2)
    for value in (state, a, b, *decoded):
        for arr in arrays(value):
            assert arr.flags.writeable is False
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_public_constructors_still_validate(tmp_path):
    # make_hermitian's own rejections are in test_hermitian.py.
    with pytest.raises(NotHermitian):
        qc.HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        qc.make_density([[0.5, 0.2], [0.0, 0.5]])
    with pytest.raises(DimensionMismatch):
        qc.make_density(np.zeros(4))

    skewed = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    with pytest.raises(InvalidSpectrum):
        qc.density_from_decomposition([0.25, 0.75], skewed)
    with pytest.raises(DimensionMismatch):
        qc.density_from_decomposition([0.25, 0.75], np.eye(3))
    eye = np.eye(2, dtype=complex)
    with pytest.raises(InvalidSpectrum):
        qc.DensityMatrix(np.diag([0.25, 0.75]), np.array([0.25, 0.75]), skewed)
    with pytest.raises(DimensionMismatch):
        qc.DensityMatrix(np.diag([0.25, 0.75]), np.array([1.0]), eye)

    path = tmp_path / "bad.json"
    qc.save_instance(path, *random_instance(8, 2))
    payload = json.loads(path.read_text())
    payload["b"][0][1]["re"] += 1.0
    path.write_text(json.dumps(payload))
    with pytest.raises(NotHermitian):
        qc.load_instance(path)
