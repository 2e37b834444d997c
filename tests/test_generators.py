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
    _lemire,
    _outputs,
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
    # PCG64's own request, and the same dtype given as a dtype object, pass
    # the one check and get the words themselves.
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
    g = stream.generator()
    exps = np.zeros(n)
    g.standard_exponential(out=exps[n - rank :])
    re, im = g.standard_normal((2, n, n))
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


def raw_outputs(words, count):
    return [
        _DerivedStream(row).generator().bit_generator.random_raw(count).tolist()
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


@given(
    st.lists(st.lists(WORD, min_size=4, max_size=4), min_size=1, max_size=8),
    st.integers(1, 40),
)
@example(EDGE_WORDS, 1)
# The low word is 0 before the first, then before the second LCG step: the
# step's carry test sees a sum equal to the increment.
@example([seed_words(5 << 64), seed_words(step_back(3 << 64))], 3)
@example(
    [words_for_output(0xDEADBEEF00000000), words_for_output(0x1234567800000001)], 2
)
@settings(max_examples=150, deadline=None)
def test_first_outputs_equal_pcg64(rows, count):
    words = np.array(rows, dtype=np.uint64)
    stream = _outputs(words, count)
    assert stream.dtype == np.uint64
    assert stream.tolist() == raw_outputs(words, count)
    outputs = stream[:, 0]
    # Strided views of a chunk, as _trial_batches passes them.
    chunk = np.stack([words, words[::-1]], axis=1)
    assert _outputs(chunk, count).tolist() == [
        [a, b] for a, b in zip(stream.tolist(), stream[::-1].tolist())
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
    below, exact = _lemire(_outputs(words, 1)[:, 0], dims - 1)
    assert exact.all()
    for row, dim, rank in zip(words, dims.tolist(), (1 + below).tolist()):
        assert rank == _DerivedStream(row).generator().integers(1, dim)
    # At dim 1 there is no rank to draw: mixed batches skip it.
    with pytest.raises(ValueError):
        _DerivedStream(words[0]).generator().integers(1, 1)


def test_rank_redraws_without_a_generator_where_lemire_may_reject(generator_calls):
    # Trial 1 (odd) draws its rank from a stream whose first output has low
    # word 0, so Lemire's rejection test can fire, and at dim 4 NumPy does
    # draw again (2**32 mod 3 = 1 > 0), from the high word.  Trial 3's low
    # word is 1: its product's low word equals the span, so no redraw can
    # happen.  Trial 5's first output is 0, so at dim 4 the third word, the
    # low word of output 1, decides.  Trial 7's low word times 3 leaves
    # exactly 2**32 mod 3 = 1, which NumPy keeps at dim 4.
    words = _spawn_words(8, np.arange(8, dtype=np.uint64), 5)
    words[1, 1] = words_for_output(0xDEADBEEF00000000)
    words[3, 1] = words_for_output(0x1234567800000001)
    words[5, 1] = words_for_output(0)
    words[7, 1] = words_for_output(0xAAAAAAAB)
    for dim in (2, 3, 4, 8):
        dims = np.full(8, dim, dtype=np.uint64)
        generator_calls.clear()
        qs, ranks = generators._q_and_ranks(words, 0, dims, -3.0, 3.0, True)
        assert generator_calls == []
        expected = [
            int(_DerivedStream(words[i, 1]).generator().integers(1, dim))
            for i in (1, 3, 5, 7)
        ]
        assert ranks[0::2] == [dim] * 4
        assert ranks[1::2] == expected
        assert all(type(rank) is int for rank in ranks)
        assert qs[:3] == [-1.0, 0.0, 1.0] and -3.0 <= qs[3] < 3.0


@pytest.mark.parametrize("span", [3, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1])
def test_lemire_retry_equals_integers(span):
    # Near 2**31 + 1 about half of the 32-bit words are rejected, so the
    # loop runs through the high and low words of several outputs.
    words = _spawn_words(23, np.arange(300, dtype=np.uint64), 2)[:, 1]
    outputs = _outputs(words, 1)
    for row, first in zip(words, outputs):
        drawn = generators._bounded(generators._Outputs(row, first), span)
        assert drawn == _DerivedStream(row).generator().integers(0, span)


def verify_plan(policy, trials_per_dim):
    return cli.TrialPlan(
        dims=(1, 2, 3, 8, 32),
        trials_per_dim=trials_per_dim,
        q_lo=-3.0,
        q_hi=3.0,
        rank_policy=policy,
        seed=4,
        tolerance_rel=1e-9,
        output_format="csv",
    )


@pytest.mark.parametrize("policy", ["mixed", "full"])
def test_verify_builds_generators_only_for_state_a_and_b(
    generator_calls, tmp_path, policy
):
    # In a run of one chunk only a dim whose streams draw more than
    # _ARRAY_DRAWS values builds Generators, one each for the state, A and
    # B of its trials.
    plan = verify_plan(policy, 20)
    assert cli.cmd_verify(plan, out=str(tmp_path / "out.csv")) == 0
    drawn = [n for n in plan.dims if n + 2 * n * n > generators._ARRAY_DRAWS]
    assert drawn == [32]
    assert len(generator_calls) == 3 * plan.trials_per_dim


def test_verify_past_one_chunk_builds_generators_for_every_trial(
    generator_calls, tmp_path
):
    plan = verify_plan("mixed", 103)
    assert len(plan.dims) * plan.trials_per_dim > generators._CHUNK_TRIALS
    assert cli.cmd_verify(plan, out=str(tmp_path / "out.csv")) == 0
    assert len(generator_calls) == 3 * len(plan.dims) * plan.trials_per_dim


@pytest.mark.parametrize("dims, built", [((1, 2), 0), ((1, 2, 3), 3 * 513)])
def test_one_chunk_is_the_longest_run_drawn_by_array_code(
    generator_calls, tmp_path, dims, built
):
    # 2 x 256 trials fill one chunk exactly; 3 x 171 = 513 do not.
    trials = (generators._CHUNK_TRIALS + len(dims) - 1) // len(dims)
    plan = cli.TrialPlan(
        dims=dims,
        trials_per_dim=trials,
        q_lo=-3.0,
        q_hi=3.0,
        rank_policy="mixed",
        seed=5,
        tolerance_rel=1e-9,
        output_format="csv",
    )
    assert cli.cmd_verify(plan, out=str(tmp_path / "out.csv")) == 0
    assert len(generator_calls) == built


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 32])
def test_draw_bytes_are_the_float_stacks_of_a_full_batch(monkeypatch, dim):
    # _draw_bytes must size the one stack that _draw_trials draws a full
    # batch into, measured as the stack _stream_draws returns.  At dim 32
    # the Generator branch fills a stack of the same layout; the array
    # branch is let in to measure it.
    stacks = []
    original = generators._stream_draws

    def measured(*args):
        stacks.append(original(*args))
        return stacks[-1]

    monkeypatch.setattr(generators, "_stream_draws", measured)
    monkeypatch.setattr(generators, "_ARRAY_DRAWS", dim + 2 * dim * dim)
    rows = _batch_rows(dim)
    words = _spawn_words(9, np.arange(rows, dtype=np.uint64), 5)
    generators._draw_trials(words, np.full(rows, dim), dim, True)
    assert [stack.nbytes for stack in stacks] == [generators._draw_bytes(dim)]


def generator_draws(words, leading, width, count):
    # The reference of _stream_draws: each stream's own Generator fills
    # the right end of ``width`` zeros with ``leading`` exponentials, then
    # draws ``count`` normals.
    rows = []
    for row, lead in zip(words, leading):
        g = _DerivedStream(row).generator()
        exps = np.zeros(width)
        g.standard_exponential(out=exps[width - lead :])
        rows.append(np.concatenate([exps, g.standard_normal(count)]))
    return np.array(rows)


def seeded_draws():
    # 400 streams of 512 normals after 0 to 64 exponentials, and 400 of
    # 512 exponentials and one normal: about 2e5 normals and 2e5
    # exponentials, which reach the wedges and the tails of both.
    words = _spawn_words(2026, np.arange(100, dtype=np.uint64), 4).reshape(-1, 4)
    leading = np.arange(len(words)) % 65
    for width, count, lead in ((64, 512, leading), (512, 1, np.full(400, 512))):
        yield words[: len(lead)], lead, width, count


def test_stream_draws_equal_generator_on_100000_draws_each():
    for args in seeded_draws():
        drawn = generators._stream_draws(*args)
        assert drawn.tobytes() == generator_draws(*args).tobytes()


def ziggurat_edges():
    # First outputs at the last accepted and the first failing try of every
    # table index: rabs = ki[i] - 1 and ki[i] for a normal, of either sign;
    # ri = ke[i] - 1 and ke[i] for an exponential, with the three low bits
    # it ignores set.  ki[1] is 0: index 1 never accepts a first try.
    tables = generators._ziggurat
    normals, exponentials = [], []
    for index in range(256):
        for rabs in (tables.KI[index] - 1, tables.KI[index]):
            for sign in (0, 1) if rabs >= 0 else ():
                normals.append(rabs << 9 | sign << 8 | index)
        for ri in (tables.KE[index] - 1, tables.KE[index]):
            exponentials.append(ri << 11 | index << 3 | 7)
    return normals, exponentials


def edge_draws():
    # Two draws from each crafted stream, so the first settles every entry
    # of ki, wi, ke and we, and the second where the stream went on.
    normals, exponentials = ziggurat_edges()
    words = np.array([words_for_output(x) for x in normals], dtype=np.uint64)
    yield words, np.zeros(len(words), dtype=np.intp), 0, 2
    words = np.array([words_for_output(x) for x in exponentials], dtype=np.uint64)
    yield words, np.full(len(words), 2, dtype=np.intp), 2, 1


def test_stream_draws_pin_every_ziggurat_entry():
    for args in edge_draws():
        drawn = generators._stream_draws(*args)
        assert drawn.tobytes() == generator_draws(*args).tobytes()


@pytest.mark.parametrize("block", [1, 2**40], ids=["stream", "batch"])
def test_stream_draws_keep_their_bits_at_any_block_size(monkeypatch, block):
    # One stream per block, then every stream in one block: each block must
    # form and try its own streams' outputs, from their own leads, into
    # their own rows, through the exponential redraw, both wedge verdicts,
    # the tails and reads past the formed outputs.
    monkeypatch.setattr(generators, "_BLOCK_OUTPUTS", block)
    for args in itertools.chain(edge_draws(), seeded_draws()):
        drawn = generators._stream_draws(*args)
        assert drawn.tobytes() == generator_draws(*args).tobytes()


def test_normal_draws_settle_a_failed_try_on_the_last_formed_output():
    # Every crafted first try fails midway between ki[i] and 2**52, in the
    # wedge, and is the only output formed, so its wedge test would read
    # past the formed outputs: _normal settles it.
    failing = [
        (ki + 2**52) // 2 << 9 | index
        for index, ki in enumerate(generators._ziggurat.KI)
        if index
    ]
    words = np.array([words_for_output(x) for x in failing], dtype=np.uint64)
    zeros = np.zeros(len(words), dtype=np.intp)
    drawn = generators._normal_draws(words, _outputs(words, 1), zeros, 2)
    assert drawn.tobytes() == generator_draws(words, zeros, 0, 2).tobytes()


def test_normal_draws_read_on_past_the_formed_outputs():
    # With only two outputs formed per stream, almost every draw starts
    # past them: _Outputs forms the rest by a jump, then one LCG step each.
    words = _spawn_words(77, np.arange(40, dtype=np.uint64), 3).reshape(-1, 4)
    outputs = _outputs(words, 2)
    start = np.zeros(len(words), dtype=np.intp)
    drawn = generators._normal_draws(words, outputs, start, 60)
    zeros = np.zeros(len(words), dtype=np.intp)
    assert drawn.tobytes() == generator_draws(words, zeros, 0, 60).tobytes()
    stream = generators._Outputs(words[0], outputs[0])
    assert [stream[k] for k in (5, 2, 70)] == [
        raw_outputs(words[:1], 71)[0][k] for k in (5, 2, 70)
    ]


KEYS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 5]),
    st.integers(0, 2**80),
)


@given(SEEDS, st.integers(0, 2**64 - 1), st.lists(KEYS, max_size=4))
@example(0, 0, [])
@example(2**64 - 1, 2**32, [2**32, 0, 2**64])
@settings(max_examples=150, deadline=None)
def test_stream_words_equal_seed_sequence(seed, stream, path):
    rng = qc.SeededRng(seed, stream, tuple(path))
    key = np.random.SeedSequence(entropy=seed, spawn_key=(stream, *path))
    assert generators._stream_words(rng) == key.generate_state(4, np.uint64).tolist()


def test_normals_equal_each_generator():
    root = qc.SeededRng(2**64 - 1, 2**40, (7, 2**33))
    rngs = [root.split(r) for r in (0, 1, 2**32, 2**70)]
    drawn = generators._normals(rngs, 61)
    expected = [rng.generator().standard_normal(61) for rng in rngs]
    assert drawn.tobytes() == np.array(expected).tobytes()
