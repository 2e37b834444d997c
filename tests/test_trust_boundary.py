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
from qcbounds.errors import (
    DimensionMismatch,
    DomainError,
    InvalidSpectrum,
    NonFinite,
    NotHermitian,
    NotPositive,
    QcboundsError,
    TraceNotOne,
)
from qcbounds.generators import _unitary_frame
from qcbounds.hermitian import (
    EIG_CLAMP,
    HERMITICITY_RTOL,
    TRACE_ATOL,
    _as_square_complex,
    _hermiticity_defect,
)

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
    # A stack of 1 to 8 parameter vectors.  Its first row is drawn by
    # coordinate; the others, whose coordinates would be slow to draw one
    # by one, mix the same kinds of value from a seeded generator.
    n = draw(st.integers(1, 8))
    k = n * n
    frame = draw(st.lists(FRAME_COORD, min_size=k, max_size=k))
    rest = draw(st.lists(COORD, min_size=n + 2 * k, max_size=n + 2 * k))
    g = np.random.default_rng(draw(st.integers(0, 2**32)))
    shape = (draw(st.integers(0, 7)), n + 3 * k)
    rows = g.uniform(-50.0, 50.0, shape)
    rows[:, n : n + k] /= 10.0
    special = g.choice([0.0, -0.0, 1e300, -1e300], shape)
    special[:, n : n + k] = g.choice([0.0, -0.0], (shape[0], k))
    rows = np.where(g.random(shape) < 0.2, special, rows)
    return n, np.vstack([rest[:n] + frame + rest[n:], rows])


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
    raw = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    expected = qc.density_from_decomposition(spectrum, _unitary_frame(raw))
    assert parts(qc.random_density(n, rank, rng)) == parts(expected)


@given(thetas())
@settings(max_examples=150, deadline=None)
def test_decode_equals_loop_decoder(case):
    # Each row of a stacked decode is the loop decoder's instance of that
    # row's parameter vector, and so is a one-row decode.
    n, stack = case
    k = n * n
    blocks = search._hermitian_blocks(stack, n)
    decoded = search._decode_batch(stack, n)
    for row, theta in enumerate(stack):
        for block in range(3):
            coords = theta[n + block * k :]
            assert (
                blocks[row, block].tobytes()
                == loop_hermitian_from_reals(coords, n).tobytes()
            )
        expected = loop_decode(theta, n)
        for got in (decoded.row(row), search._decode_batch(theta[None], n).row(0)):
            for value, want in zip(got, expected, strict=True):
                assert parts(value) == parts(want)


def test_decode_handles_signed_zeros_and_huge_coordinates():
    n = 3
    theta = np.zeros(n + 3 * n * n)
    theta[::2] = -0.0
    theta[n + n * n :: 5] = 1e300
    theta[n + n * n + 1 :: 7] = -1e300
    decoded = search._decode_batch(theta[None], n).row(0)
    for got, want in zip(decoded, loop_decode(theta, n)):
        assert parts(got) == parts(want)


def test_decode_rejects_frame_coordinates_without_eigenbasis():
    # eigh does not converge on a frame block with non-finite entries
    # (NumPy 2.4.6); the decoder raises a qcbounds error, not
    # numpy.linalg.LinAlgError.
    n = 4
    k = n * n
    one_inf = np.linspace(-1.0, 1.0, k)
    one_inf[5] = np.inf
    for frame in (np.full(k, np.nan), np.full(k, -np.inf), one_inf):
        theta = np.zeros(n + 3 * k)
        theta[n : n + k] = frame
        with np.errstate(all="ignore"), pytest.raises(DomainError) as excinfo:
            search._decode_batch(theta[None], n).row(0)
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)


def test_generated_and_decoded_arrays_are_read_only():
    state, a, b = random_instance(4, 3, rank=2)
    decoded = search._decode_batch(np.linspace(-1.0, 1.0, 2 + 3 * 4)[None], 2).row(0)
    for value in (state, a, b, *decoded):
        for arr in arrays(value):
            assert arr.flags.writeable is False
            with pytest.raises(ValueError):
                arr[0] = 0.0


# Reference copies of make_hermitian and make_density as they were when
# they built through the validating dataclass constructors, which checked
# the symmetrised matrix, the spectrum and the eigh frame a second time.
def validating_make_hermitian(raw):
    arr = _as_square_complex(raw, "matrix")
    if _hermiticity_defect(arr) > HERMITICITY_RTOL:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return qc.HermitianMatrix((arr + arr.conj().T) / 2.0)


def validating_make_density(raw):
    arr = _as_square_complex(raw, "density matrix")
    if _hermiticity_defect(arr) > HERMITICITY_RTOL:
        raise NotHermitian("density matrix is not Hermitian within tolerance")
    sym = (arr + arr.conj().T) / 2.0
    trace = complex(np.trace(sym))
    if abs(trace - 1.0) > TRACE_ATOL:
        raise TraceNotOne(f"trace is {trace!r}")
    vals, frame = np.linalg.eigh(sym)
    low = float(vals[0])
    if low < -EIG_CLAMP:
        raise NotPositive(f"negative eigenvalue {low!r}")
    vals = np.where(vals < 0.0, 0.0, vals)
    vals = vals / vals.sum()
    rebuilt = (frame * vals) @ frame.conj().T
    rebuilt = (rebuilt + rebuilt.conj().T) / 2.0
    return qc.DensityMatrix(rebuilt, vals, frame)


def outcome(build, raw):
    """The bytes and write flags of every stored array, or the error type."""
    try:
        value = build(raw)
    except QcboundsError as exc:
        return type(exc)
    return [(arr.tobytes(), arr.flags.writeable) for arr in arrays(value)]


@st.composite
def raw_matrices(draw):
    """A state-like or observable-like matrix with non-Hermitian noise.

    States have full or deficient rank, and their zero eigenvalues may be
    moved into or just past the clamp window [-EIG_CLAMP, 0), with the
    trace kept at one.  The anti-Hermitian noise makes the hermiticity
    defect a chosen multiple of HERMITICITY_RTOL, on either side of it.
    """
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 32]))
    g = qc.SeededRng(draw(st.integers(0, 2**32)), 11).generator()
    if draw(st.integers(0, 3)):
        rank = draw(st.integers(1, n))
        spectrum = np.zeros(n)
        spectrum[n - rank :] = g.dirichlet(np.ones(rank))
        for i in range(n - rank):
            shift = draw(st.sampled_from([0.0, -0.0, 0.5, -0.5, -0.9]))
            spectrum[i] = shift * EIG_CLAMP
        if rank < n and draw(st.booleans()):
            spectrum[0] = -2.0 * EIG_CLAMP
        spectrum[-1] += 1.0 - spectrum.sum()
    else:
        spectrum = g.standard_normal(n) * 10.0 ** draw(st.integers(-3, 3))
    frame = _unitary_frame(g.standard_normal((n, n)) + 1j * g.standard_normal((n, n)))
    raw = (frame * spectrum) @ frame.conj().T
    noise = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    noise = noise - noise.conj().T
    np.fill_diagonal(noise, 0.0)  # keeps the trace at one
    defect = np.max(np.abs(noise - noise.conj().T))
    if defect > 0.0:
        target = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.01, 1.5]))
        scale = float(np.max(np.abs(raw)))
        raw = raw + noise * (target * HERMITICITY_RTOL * scale / defect)
    return raw


@given(raw_matrices())
@settings(max_examples=200, deadline=None)
def test_make_hermitian_and_make_density_equal_validating_path(raw):
    assert outcome(qc.make_hermitian, raw) == outcome(validating_make_hermitian, raw)
    assert outcome(qc.make_density, raw) == outcome(validating_make_density, raw)


def test_make_hermitian_and_make_density_reject_overflowing_symmetrisation():
    # Finite entries whose symmetrisation overflows are refused as
    # NonFinite.  The reference copy above reports an overflowing diagonal
    # of a state as TraceNotOne; make_density now checks finiteness first.
    huge = 1.5e308
    with np.errstate(over="ignore", invalid="ignore"):
        for raw in ([[huge]], [[0.5, huge], [huge, 0.5]]):
            for build in (qc.make_hermitian, qc.make_density):
                assert outcome(build, np.array(raw, dtype=complex)) is NonFinite


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
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    nan_frame = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    refusals = [
        ([np.nan, 0.75], eye, NonFinite, "eigenvalues contain non-finite entries"),
        ([0.75, 0.25], eye, InvalidSpectrum, "eigenvalues must be ascending"),
        ([-0.25, 1.25], eye, NotPositive, "negative eigenvalue -0.25"),
        ([0.25, 0.5], eye, TraceNotOne, "eigenvalues sum to 0.75"),
        ([0.25, 0.75], np.eye(3), DimensionMismatch,
         "eigenvectors must match the matrix dimension"),
        ([0.25, 0.75], nan_frame, NonFinite, "eigenvectors contain non-finite entries"),
        ([0.25, 0.75], swap, InvalidSpectrum,
         "eigendecomposition does not reproduce the matrix"),
    ]  # fmt: skip
    for vals, frame, error, message in refusals:
        with pytest.raises(error) as excinfo:
            qc.DensityMatrix(np.diag([0.25, 0.75]), np.array(vals), frame)
        assert str(excinfo.value) == message

    path = tmp_path / "bad.json"
    qc.save_instance(path, *random_instance(8, 2))
    payload = json.loads(path.read_text())
    payload["b"][0][1]["re"] += 1.0
    path.write_text(json.dumps(payload))
    with pytest.raises(NotHermitian):
        qc.load_instance(path)
