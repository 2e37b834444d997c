import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcbounds as qc
from qcbounds.errors import DomainError, InvalidDimension, InvalidRank


def test_rng_requires_unsigned_64bit():
    with pytest.raises(DomainError):
        qc.SeededRng(-1)
    with pytest.raises(DomainError):
        qc.SeededRng(2**64)
    with pytest.raises(DomainError):
        qc.SeededRng(0, -3)
    for index in (-1, 1.0, 0.5, "1", None):
        with pytest.raises(DomainError):
            qc.SeededRng(0).split(index)


def test_rng_streams_are_reproducible():
    a = qc.SeededRng(42, 7).generator().standard_normal(5)
    b = qc.SeededRng(42, 7).generator().standard_normal(5)
    assert np.array_equal(a, b)


def test_rng_streams_differ():
    a = qc.SeededRng(42, 0).generator().standard_normal(5)
    b = qc.SeededRng(42, 1).generator().standard_normal(5)
    assert not np.array_equal(a, b)


def test_rng_split_is_stable_and_nested():
    base = qc.SeededRng(9, 2)
    assert base.split(4) == qc.SeededRng(9, 2, (4,))
    assert base.split(4).split(1) == qc.SeededRng(9, 2, (4, 1))
    # split builds its child without re-validating; the child must still
    # equal, hash and draw like the validated value, with a plain-int path.
    chained = base.split(4).split(np.int64(1))
    direct = qc.SeededRng(9, 2, (4, 1))
    assert hash(chained) == hash(direct)
    assert type(chained.path[1]) is int
    assert np.array_equal(
        chained.generator().standard_normal(4), direct.generator().standard_normal(4)
    )
    direct = base.split(3).generator().standard_normal(4)
    again = base.split(3).generator().standard_normal(4)
    assert np.array_equal(direct, again)
    assert not np.array_equal(direct, base.generator().standard_normal(4))


def test_random_hermitian_reproducible():
    first = qc.random_hermitian(2, qc.SeededRng(42))
    second = qc.random_hermitian(2, qc.SeededRng(42))
    assert np.array_equal(first.mat, second.mat)


def test_random_hermitian_is_exactly_hermitian():
    h = qc.random_hermitian(8, qc.SeededRng(0))
    assert np.array_equal(h.mat, h.mat.conj().T)


def test_random_hermitian_scalar_case():
    h = qc.random_hermitian(1, qc.SeededRng(5))
    assert h.dim == 1
    assert h.mat[0, 0].imag == 0.0


def test_random_hermitian_rejects_bad_dim():
    with pytest.raises(InvalidDimension):
        qc.random_hermitian(0, qc.SeededRng(1))


def test_random_density_rank_bounds():
    with pytest.raises(InvalidRank):
        qc.random_density(3, 0, qc.SeededRng(1))
    with pytest.raises(InvalidRank):
        qc.random_density(3, 4, qc.SeededRng(1))
    with pytest.raises(InvalidDimension):
        qc.random_density(0, 1, qc.SeededRng(1))


def test_random_density_pure_state():
    d = qc.random_density(4, 1, qc.SeededRng(11))
    assert np.array_equal(d.eigenvalues[:3], np.zeros(3))
    assert d.eigenvalues[3] == 1.0


def test_random_density_deficient_rank_has_exact_zero():
    d = qc.random_density(5, 3, qc.SeededRng(12))
    assert d.lambda_min == 0.0
    assert np.count_nonzero(d.eigenvalues) == 3


def test_random_density_reproducible_spectrum():
    a = qc.random_density(2, 2, qc.SeededRng(123, 4))
    b = qc.random_density(2, 2, qc.SeededRng(123, 4))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.mat, b.mat)


@given(st.integers(0, 2**32), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_random_density_always_validates(seed, n):
    rng = qc.SeededRng(seed)
    rank = 1 + int(rng.split(0).generator().integers(0, n))
    d = qc.random_density(n, rank, rng.split(1))
    assert np.all(np.diff(d.eigenvalues) >= 0)
    assert d.eigenvalues.sum() == pytest.approx(1.0, abs=1e-12)
    frame = d.eigenvectors
    assert np.max(np.abs(frame.conj().T @ frame - np.eye(n))) < 1e-9


def test_maximally_mixed_values():
    assert np.allclose(qc.maximally_mixed(2).mat, np.diag([0.5, 0.5]))
    three = qc.maximally_mixed(3)
    assert np.allclose(three.mat, np.eye(3) / 3)
    assert three.lambda_min == three.lambda_max
    one = qc.maximally_mixed(1)
    assert one.mat[0, 0] == pytest.approx(1.0)
    with pytest.raises(InvalidDimension):
        qc.maximally_mixed(0)
