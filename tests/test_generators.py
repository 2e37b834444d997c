import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcbounds as qc
from qcbounds import cli, generators
from qcbounds.bounds import _batch_rows
from qcbounds.errors import DomainError, InvalidDimension, InvalidRank
from qcbounds.generators import (
    _DerivedStream,
    _draw_state,
    _first_outputs,
    _lemire,
    _spawn_words,
    _spectrum,
    _uniform,
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
    # split builds its child through the validating constructor, so a
    # NumPy index comes out a plain int: the child equals, hashes and
    # draws like the value built directly.
    chained = base.split(4).split(np.int64(1))
    direct = qc.SeededRng(9, 2, (4, 1))
    assert hash(chained) == hash(direct)
    assert type(chained.path[1]) is int
    assert np.array_equal(
        chained.generator().standard_normal(4), direct.generator().standard_normal(4)
    )
    # A zero path entry is a valid index, validated or split.
    assert qc.SeededRng(9, 2, (0,)) == base.split(0)
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


# The number of splits per index; verify derives five.
SPLITS = st.integers(0, generators._TRIAL_STREAMS)


def seed_sequence_words(seed, index, k):
    key = np.random.SeedSequence(entropy=seed, spawn_key=(index, k))
    return key.generate_state(4, np.uint64)


@given(SEEDS, INDICES, SPLITS)
@settings(max_examples=150, deadline=None)
def test_spawn_words_equal_seed_sequence_bitwise(seed, indices, splits):
    words = _spawn_words(seed, np.array(indices, dtype=np.uint64), splits)
    assert words.shape == (len(indices), splits, 4)
    assert words.dtype == np.uint64
    for row, index in zip(words, indices):
        for split, cell in enumerate(row):
            assert cell.tolist() == seed_sequence_words(seed, index, split).tolist()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_spawn_words_equal_seed_sequence_at_word_edges(seed):
    indices = [0, 1, 2**32 - 1]
    words = _spawn_words(seed, np.array(indices, dtype=np.uint64), 5)
    for k in range(5):
        expected = [seed_sequence_words(seed, i, k).tolist() for i in indices]
        assert words[:, k].tolist() == expected


@given(SEEDS, INDICES, st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_derived_streams_draw_like_seeded_rng(seed, indices, n):
    words = _spawn_words(seed, np.array(indices, dtype=np.uint64), 5)
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
        _spawn_words(5, np.array([0, 2**32], dtype=np.uint64), 1)
    with pytest.raises(DomainError):
        _spawn_words(5, np.array([2**64 - 1], dtype=np.uint64), 3)
    for seed in (-1, 2**64, 5.0):
        with pytest.raises(DomainError):
            _spawn_words(seed, np.array([3], dtype=np.uint64), 1)
    assert _spawn_words(5, np.array([], dtype=np.uint64), 5).shape == (0, 5, 4)


def test_derived_stream_serves_only_pcg64_seeding():
    words = _spawn_words(3, np.array([7], dtype=np.uint64), 1)[0, 0]
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


# PCG64's LCG multiplier, odd, so the LCG step inverts mod 2**128.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
PCG_MULT_INV = pow(PCG_MULT, -1, 2**128)
WORD = st.integers(0, 2**64 - 1)
EDGE_WORDS = [list(w) for w in itertools.product([0, 2**64 - 1], repeat=4)]
W2, W3 = 0x0123456789ABCDEF, 0xFEDCBA9876543210


def increment(w2, w3):
    return (2 * (w2 << 64 | w3) + 1) % 2**128


def step_back(state, w2=W2, w3=W3):
    # The LCG state one step before ``state``.
    return (state - increment(w2, w3)) * PCG_MULT_INV % 2**128


def seed_words(start, w2=W2, w3=W3):
    # Seed words whose stream holds ``start`` after the first seeding step
    # and the addition of the initial state.
    initial = (start - increment(w2, w3)) % 2**128
    return [initial >> 64, initial & (2**64 - 1), w2, w3]


def words_for_output(output):
    # A state whose high word is 0 makes XSL-RR rotate by 0 and output the
    # low word, ``output``; two steps back is the stream's start.
    return seed_words(step_back(step_back(output)))


def raw_outputs(words):
    return [
        int(_DerivedStream(row).generator().bit_generator.random_raw())
        for row in words
    ]


@pytest.fixture
def generator_calls(monkeypatch):
    # The seed words of every stream whose Generator is built.
    calls = []
    original = _DerivedStream.generator

    def counted(self):
        calls.append(self.words.tolist())
        return original(self)

    monkeypatch.setattr(_DerivedStream, "generator", counted)
    return calls


@given(st.lists(st.lists(WORD, min_size=4, max_size=4), min_size=1, max_size=8))
@example(EDGE_WORDS)
# The low word is 0 before the first, then before the second LCG step: the
# step's carry test sees a sum equal to the increment.
@example([seed_words(5 << 64), seed_words(step_back(3 << 64))])
@example([words_for_output(0xDEADBEEF00000000), words_for_output(0x1234567800000001)])
@settings(max_examples=150, deadline=None)
def test_first_outputs_equal_pcg64(rows):
    words = np.array(rows, dtype=np.uint64)
    outputs = _first_outputs(words)
    assert outputs.dtype == np.uint64
    assert outputs.tolist() == raw_outputs(words)
    # Strided views of a chunk, as _trial_batches passes them.
    chunk = np.stack([words, words[::-1]], axis=1)
    assert _first_outputs(chunk).tolist() == [
        [a, b] for a, b in zip(outputs.tolist(), outputs[::-1].tolist())
    ]
    # Zero, tiny, verify's default and huge spans.
    spans = [(0.5, 0.5), (1.0, 1.0 + 2**-40), (0.0, 5e-324), (-3.0, 3.0)]
    for low, high in spans + [(-1e300, 1e300)]:
        expected = [_DerivedStream(row).generator().uniform(low, high) for row in words]
        assert _uniform(outputs, low, high).tolist() == expected
    for dim in (2, 3, 4, 8, 32, 4096):
        below, exact = _lemire(outputs, dim - 1)
        for row, rank, fast in zip(words, (1 + below).tolist(), exact.tolist()):
            if fast:
                assert rank == _DerivedStream(row).generator().integers(1, dim)


def test_lemire_equals_integers_for_every_dim_up_to_4096():
    dims = np.arange(2, 4097, dtype=np.uint64)
    words = _spawn_words(17, dims, 2)[:, 1]
    below, exact = _lemire(_first_outputs(words), dims - 1)
    assert exact.all()
    for row, dim, rank in zip(words, dims.tolist(), (1 + below).tolist()):
        assert rank == _DerivedStream(row).generator().integers(1, dim)
    # At dim 1 there is no rank to draw: mixed batches skip it.
    with pytest.raises(ValueError):
        _DerivedStream(words[0]).generator().integers(1, 1)


def test_rank_falls_back_to_the_generator_only_where_lemire_may_reject(generator_calls):
    # Trial 1 (odd) draws its rank from a stream whose first output has low
    # word 0, so Lemire's rejection test can fire, and at dim 4 NumPy does
    # draw again (2**32 mod 3 = 1 > 0).  Trial 3's low word is 1: its
    # product's low word equals the span, so no redraw can happen.
    words = _spawn_words(8, np.arange(4, dtype=np.uint64), 5)
    words[1, 1] = words_for_output(0xDEADBEEF00000000)
    words[3, 1] = words_for_output(0x1234567800000001)
    for dim in (2, 3, 4, 8):
        generator_calls.clear()
        dims = np.full(4, dim, dtype=np.uint64)
        qs, ranks = generators._q_and_ranks(words, 0, dims, -3.0, 3.0, True)
        assert generator_calls == [words[1, 1].tolist()]
        expected = [
            int(_DerivedStream(words[i, 1]).generator().integers(1, dim))
            for i in (1, 3)
        ]
        assert ranks == [dim, expected[0], dim, expected[1]]
        assert all(type(rank) is int for rank in ranks)
        assert qs[:3] == [-1.0, 0.0, 1.0] and -3.0 <= qs[3] < 3.0


@pytest.mark.parametrize("policy", ["mixed", "full"])
def test_verify_builds_generators_only_for_state_a_and_b(
    generator_calls, tmp_path, policy
):
    plan = cli.TrialPlan(
        dims=(1, 2, 3, 8),
        trials_per_dim=40,
        q_lo=-3.0,
        q_hi=3.0,
        rank_policy=policy,
        seed=4,
        tolerance_rel=1e-9,
        output_format="csv",
    )
    # The seed is one where no odd trial's rank can need Lemire's redraw.
    trials = len(plan.dims) * plan.trials_per_dim
    words = _spawn_words(plan.seed, np.arange(trials, dtype=np.uint64), 2)
    dims = np.repeat(np.array(plan.dims, dtype=np.uint64), plan.trials_per_dim)
    assert _lemire(_first_outputs(words[:, 1]), dims - 1)[1][dims >= 2].all()
    assert cli.cmd_verify(plan, out=str(tmp_path / "out.csv")) == 0
    assert len(generator_calls) == 3 * trials


@pytest.mark.parametrize("dim", [1, 2, 5, 32, 4730])
def test_draw_bytes_are_the_float_stacks_of_a_full_batch(dim):
    # _draw_trials fills an (m, dim) exponential stack and an
    # (m, 3, 2, dim, dim) Gaussian stack for a batch of m trials.
    rows = _batch_rows(dim)
    stacks = (rows * dim, rows * 3 * 2 * dim * dim)
    assert generators._draw_bytes(dim) == sum(8 * size for size in stacks)
