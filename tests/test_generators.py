import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcbounds as qc
from qcbounds.errors import DomainError, InvalidDimension, InvalidRank
from qcbounds.generators import (
    _derived_streams,
    _DerivedStream,
    _draw_state,
    _spawn_words,
    _spectrum,
)


def test_rng_requires_unsigned_64bit():
    with pytest.raises(DomainError):
        qc.SeededRng(-1)
    with pytest.raises(DomainError):
        qc.SeededRng(2**64)
    with pytest.raises(DomainError):
        qc.SeededRng(0, -3)
    with pytest.raises(DomainError):
        qc.SeededRng(0, 0, (-1,))
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


# One- and two-word seeds (the split is at 2**32), and one-word indices.
SEEDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
                  st.integers(0, 2**64 - 1))
INDICES = st.lists(
    st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1)),
    min_size=1, max_size=6,
)


# One split as an int, or an array of one-word splits broadcast against
# the indices as a column.
SPLITS = st.one_of(
    st.integers(0, 4),
    st.lists(
        st.one_of(st.sampled_from([0, 4, 2**32 - 1]), st.integers(0, 2**32 - 1)),
        min_size=1, max_size=5,
    ),
)


def seed_sequence_words(seed, index, k):
    key = np.random.SeedSequence(entropy=seed, spawn_key=(index, k))
    return key.generate_state(4, np.uint64)


@given(SEEDS, INDICES, SPLITS)
@settings(max_examples=150, deadline=None)
def test_spawn_words_equal_seed_sequence_bitwise(seed, indices, k):
    column = np.array(indices, dtype=np.uint64)
    if isinstance(k, int):
        words = _spawn_words(seed, column, k)
        assert words.shape == (len(indices), 4)
        words, splits = words[:, None], [k]
    else:
        splits = k
        words = _spawn_words(seed, column[:, None], np.array(k, dtype=np.uint64))
        assert words.shape == (len(indices), len(k), 4)
    assert words.dtype == np.uint64
    for row, index in zip(words, indices):
        for cell, split in zip(row, splits):
            assert cell.tolist() == seed_sequence_words(seed, index, split).tolist()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_spawn_words_equal_seed_sequence_at_word_edges(seed):
    indices = [0, 1, 2**32 - 1]
    for k in range(5):
        words = _spawn_words(seed, np.array(indices, dtype=np.uint64), k)
        expected = [seed_sequence_words(seed, i, k).tolist() for i in indices]
        assert words.tolist() == expected


@given(SEEDS, INDICES, st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_derived_streams_draw_like_seeded_rng(seed, indices, n):
    words = _derived_streams(seed, np.array(indices, dtype=np.uint64), 5)
    # PCG64 reads each row of four words through a raw pointer.
    assert words.dtype == np.uint64
    assert words.shape == (len(indices), 5, 4)
    assert words.flags.c_contiguous
    for index, trial_words in zip(indices, words):
        for k, stream_words in enumerate(trial_words):
            derived = _DerivedStream(stream_words).generator()
            reference = qc.SeededRng(seed, index).split(k).generator()
            for draw in (
                lambda g: g.standard_normal((n, n)),
                lambda g: g.dirichlet(np.ones(n)),
                lambda g: g.integers(1, n, size=3),
                lambda g: g.uniform(-3.0, 3.0, size=3),
            ):
                assert draw(derived).tobytes() == draw(reference).tobytes()


def test_spawn_words_reject_wide_indices():
    with pytest.raises(DomainError):
        _spawn_words(5, np.array([0, 2**32], dtype=np.uint64), 0)
    with pytest.raises(DomainError):
        _spawn_words(5, np.array([2**64 - 1], dtype=np.uint64), 2)
    with pytest.raises(DomainError):
        _spawn_words(5, np.array([3], dtype=np.uint64), 2**32)
    column = np.array([[3]], dtype=np.uint64)
    for splits in ([0, 2**32], [-1, 0], [2**64 - 1], [0.5]):
        with pytest.raises(DomainError):
            _spawn_words(5, column, np.array(splits))
    for seed in (-1, 2**64, 5.0):
        with pytest.raises(DomainError):
            _spawn_words(seed, np.array([3], dtype=np.uint64), 0)
    assert _spawn_words(5, np.array([], dtype=np.uint64), 0).shape == (0, 4)


def test_derived_stream_serves_only_pcg64_seeding():
    words = _derived_streams(3, np.array([7], dtype=np.uint64), 1)[0, 0]
    stream = _DerivedStream(words)
    # PCG64's own request takes the identity test; an equal dtype the check.
    assert stream.generate_state(4, np.uint64) is words
    assert stream.generate_state(4, np.dtype("uint64")) is words
    with pytest.raises(DomainError):
        stream.generate_state(8, np.uint32)
    with pytest.raises(DomainError):
        stream.generate_state(4, np.uint32)
    with pytest.raises(DomainError):
        np.random.MT19937(stream)


@st.composite
def padded_ranks(draw):
    rank = draw(st.integers(1, 32))
    return rank, draw(st.integers(rank, 32))


@given(st.integers(0, 2**64 - 1), padded_ranks())
@example(0, (32, 32))
@example(0, (3, 32))
@settings(max_examples=150, deadline=None)
def test_spectrum_equals_padded_sorted_dirichlet(seed, case):
    # NumPy's Dirichlet(1, ..., 1) is standard exponentials times one over
    # their sequential sum, so the state draw equals the old Dirichlet draw
    # bit for bit and leaves the stream where it left it.  Measured on
    # NumPy 2.4.6, as the golden digests in test_cli.py.
    rank, n = case
    stream = qc.SeededRng(seed, 2)
    exps = np.zeros(n)
    pair = np.empty((2, n, n))
    _draw_state(stream.generator(), rank, exps, pair)
    re, im = pair
    # The draw fills the tail of the row, where the padded spectrum has it.
    assert not exps[: n - rank].any()

    g = stream.generator()
    expected = np.zeros(n)
    expected[n - rank :] = g.dirichlet(np.ones(rank))
    expected.sort()
    assert _spectrum(exps).tobytes() == expected.tobytes()
    assert _spectrum(exps[None, :])[0].tobytes() == expected.tobytes()
    assert re.tobytes() == g.standard_normal((n, n)).tobytes()
    assert im.tobytes() == g.standard_normal((n, n)).tobytes()
