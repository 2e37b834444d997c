"""Reproducible random ensembles of observables and states.

Randomness is counter-based: a :class:`SeededRng` names a deterministic
stream by ``(seed, stream)`` plus an optional derivation path, and every
consumer builds its own fresh generator from that name, so the draws do
not depend on the order in which trials run.

:meth:`SeededRng.generator` is the reference path.  ``verify`` derives the
same streams in chunks: the private kernel ``_spawn_words`` computes the
PCG64 seed words of ``SeededRng(seed, index).split(k)`` for every index
of a chunk and every split ``k < _TRIAL_STREAMS`` in one vectorised
pass, into one C-contiguous ``(indices, splits, 4)`` array.  A
``_DerivedStream`` is built on use from one row of it, only for a stream
the trial draws from, and builds the generator that
:meth:`SeededRng.generator` would build, bit for bit.

A stream's draws come by one of two paths, with the same bits.  A
Generator draws them in C, but its first use in a process imports
numpy.random, 9-14 ms and 6 MiB.  The array path needs no Generator:
``_outputs`` forms a stream's PCG64 outputs from its seed words by LCG
jump-ahead, and ``_stream_draws`` repeats NumPy's ziggurat on them, with
the tables of ``_ziggurat``, copied from NumPy's static library, one block
of whole streams at a time (``_BLOCK_OUTPUTS`` outputs), so its
temporaries stay small whatever the batch.  It costs about 90 ns per
output against 5 ns in C, so ``verify`` takes it only for streams of at
most ``_ARRAY_DRAWS`` values (n <= 8) in a run of at most one chunk,
where the import it saves outweighs its cost.  ``search`` always takes
it for its start points (``_normals``), from seed words that
``_stream_words`` hashes for any stream.  A trial's q and its rank
are one scalar draw each, a fixed function of the first 64-bit output of
their stream, so those two streams never need a Generator; the rare rank
that Lemire's method rejects reads the stream's later outputs
(``_bounded``).

Instances are drawn the same way on every path.  Every stream draws one
row: ``width`` columns, zeros and then its leading standard exponentials,
then its standard normals.  A state stream of dim n leads with ``rank``
exponentials in n columns, an observable's with none; the normals are
the real and then the imaginary parts of an n x n Gaussian matrix.  A
Generator fills a row by ``standard_exponential`` into its last ``rank``
columns and one ``standard_normal`` into the rest; ``_stream_draws``
fills many rows at once by array code, with the same bits.  Three array
functions act on the draws of one row or a stack: ``_spectrum``,
``_complex_matrix`` and the QR phase fix ``_unitary_frame``.
:func:`random_density` and :func:`random_hermitian` are the reference
path: they call their Generator directly.

``verify``'s trial ensemble lives here too, with its stream layout
(``_TRIAL_STREAMS``).  ``_trial_batches`` yields it in index order, one
stack of consecutive trials of one dim at a time, from seed words
derived ``_CHUNK_TRIALS`` trials per pass.  ``_q_and_ranks`` forms the
chunk's q values and ranks from first outputs (``_uniform`` and
``_lemire`` repeat NumPy's arithmetic on them).  ``_draw_trials`` fills
one row per state, A and B stream of the batch, by the array path for
the whole batch or by a Generator per stream, then runs the array
functions once per batch; they act element by element or, for stacked
QR, round as one matrix at a time, so each trial gets the reference
bytes.

The spectrum is Dirichlet(1, ..., 1) drawn as NumPy's
``Generator.dirichlet`` draws it: ``rank`` standard exponentials, each
multiplied by one over their sequential sum.  So ``_spectrum`` of the
exponentials equals ``g.dirichlet(np.ones(rank))`` bit for bit, and the
stream is left at the same position.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _ziggurat
from .bounds import _batch_rows
from .errors import DomainError, InvalidDimension, InvalidRank
from .hermitian import (
    DensityMatrix,
    HermitianMatrix,
    _density_arrays,
    _density_value,
    _hermitian_value,
    _Instances,
    _symmetrised,
    density_from_decomposition,
)

_UINT64_BOUND = 2**64
# Every 16th, 17th and 18th trial pins q to a boundary value so the exact
# regime edges are always exercised.
BOUNDARY_Q = (-1.0, 0.0, 1.0)
BOUNDARY_PERIOD = 16
# Trial ``index`` draws from ``SeededRng(seed, index).split(k)``: q for
# k = 0, the rank for k = 1, the state for k = 2, A and B for k = 3 and 4.
# The seed words of all five splits of this many consecutive trials are
# derived in one pass.  q and the rank come from the first output of
# their streams; a boundary slot ignores q, and only odd mixed-rank
# trials use the rank.
_TRIAL_STREAMS = 5
_CHUNK_TRIALS = 512

# NumPy's SeedSequence hash (O'Neill's seed_seq_fe), whose output NEP 19
# keeps stable across NumPy releases.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
# NumPy's next_double maps a 64-bit output x to (x >> 11) * 2**-53 in [0, 1).
_DOUBLE_UNIT = 2.0**-53

# In a run of at most _CHUNK_TRIALS trials, verify draws a stream of at
# most this many values by the array path (``_stream_draws``), otherwise by
# a Generator.  The draw stage of 64 trials, 192 streams, in process on a
# 2-core x86 box: at n = 4 (36 values per stream) 0.6 ms by array code
# against 0.7-1.0 ms by Generators, at n = 8 (136) 2.1-2.6 ms against
# 0.9 ms, at n = 32 (2080) 34-37 ms against 5.5 ms.  That is about 90 ns
# per output against 5 ns in C plus 4.5 us to build each Generator.  The
# array path saves the import of numpy.random, 9-14 ms and 6 MiB once per
# process: a full chunk of n = 8 trials costs 10-13 ms more by array code,
# one of n = 9 (171 values) 15 ms or more.
_ARRAY_DRAWS = 136

# _stream_draws forms and tries the outputs of as many whole streams at a
# time as fit in this many outputs, 64 KiB per uint64 temporary, so each
# block reuses the memory the one before it freed instead of faulting in
# fresh pages.  A 64-trial n = 8 batch (192 streams of 148 outputs, four
# blocks), in process on a 2-core x86 box with the sizes interleaved: 2.2
# ms at 2**13 and 2**14, 2.6 ms at 2**15 and in one block, 2.9 ms at 2**12,
# 4.2 ms at 2**11.  A process looping on it peaks at 30.3-30.5 MiB RSS at
# 2**13 and below, 31.0 MiB at 2**14 and 31.9 MiB in one block.
_BLOCK_OUTPUTS = 2**13

# NumPy's ziggurat tables (see ``_ziggurat``) as the array path indexes
# them.  The low nine bits of a normal's output are its table index and
# then its sign bit, so they index ``ki`` twice over and the widths
# followed by their negations.
_KI2 = np.array(_ziggurat.KI * 2, dtype=np.uint64)
_WI_SIGNED = np.array(_ziggurat.WI + tuple(-w for w in _ziggurat.WI))
_KE = np.array(_ziggurat.KE, dtype=np.uint64)
_WE = np.array(_ziggurat.WE)
_FI = np.array(_ziggurat.FI)


@dataclass(frozen=True)
class SeededRng:
    """Value-semantic name of a deterministic random stream.

    ``seed`` and ``stream`` are 64-bit unsigned integers; ``path`` holds
    further derivation indices appended by :meth:`split`.  Two values that
    compare equal always generate bitwise-identical draw sequences for a
    fixed numpy version.
    """

    seed: int
    stream: int = 0
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or not (
                0 <= value < _UINT64_BOUND
            ):
                raise DomainError(f"{name} must be an unsigned 64-bit integer")
            object.__setattr__(self, name, int(value))
        if any(not isinstance(p, (int, np.integer)) or p < 0 for p in self.path):
            raise DomainError("path entries must be nonnegative integers")
        object.__setattr__(self, "path", tuple(int(p) for p in self.path))

    def split(self, index: int) -> "SeededRng":
        """Return the independent sub-stream at ``index`` under this one."""
        if not isinstance(index, (int, np.integer)) or index < 0:
            raise DomainError("split index must be a nonnegative integer")
        return SeededRng(self.seed, self.stream, (*self.path, index))

    def generator(self) -> np.random.Generator:
        """Return a fresh generator positioned at the start of the stream."""
        key = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream, *self.path)
        )
        return np.random.default_rng(key)


class _DerivedStream:
    """A stream whose PCG64 seed words were computed by ``_spawn_words``.

    It stands in for the stream's SeedSequence: registered as NumPy's
    ``ISeedSequence``, it hands PCG64 the precomputed words, and PCG64
    seeds itself from them in C as it would from the SeedSequence.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 asks for (4, np.uint64) and reads the four words through a
        # raw pointer, so ``words`` must be one contiguous uint64 row.
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise DomainError("a derived stream holds exactly four uint64 words")
        return self.words

    def generator(self) -> np.random.Generator:
        """Return a fresh generator positioned at the start of the stream."""
        _register_derived_stream()
        return np.random.Generator(np.random.PCG64(self))


@functools.cache
def _register_derived_stream() -> None:
    # Deferred to first use: a module-level import of numpy.random would
    # add its import time to every start of the command line tool.
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_DerivedStream)


def _spawn_words(seed: int, indices: np.ndarray, splits: int) -> np.ndarray:
    """Return the PCG64 seed words of ``SeededRng(seed, i).split(k)``, k < splits.

    The result is one C-contiguous ``(len(indices), splits, 4)`` uint64
    array; ``_DerivedStream(words[r, k])`` is the stream of ``indices[r]``
    and split ``k``.  Entry ``[r, k]`` equals ``np.random.SeedSequence(
    entropy=seed, spawn_key=(indices[r], k)).generate_state(4,
    np.uint64)``: the hash of ``_seed_words``, run on uint64 arrays under
    a 32-bit mask.  The seed-only part of the pool stays scalar.  Every
    index must be below 2**32, where it is one entropy word; larger ones
    raise.
    """
    seed = SeededRng(seed).seed
    indices = np.asarray(indices, dtype=np.uint64)
    if np.any(indices > _MASK32):
        raise DomainError("batched stream indices must be below 2**32")
    k = np.arange(splits, dtype=np.uint64)
    # Assembled entropy: the seed's one or two words, zero-padded to the
    # pool size because a spawn key follows, then the spawn key.
    entropy = [seed & _MASK32, seed >> 32, 0, 0, indices[:, None], k]
    return np.stack(_seed_words(entropy), axis=-1)


def _stream_words(rng: SeededRng) -> list[int]:
    # The PCG64 seed words of any stream, as Python ints: those of
    # SeedSequence(entropy=rng.seed, spawn_key=(rng.stream, *rng.path)),
    # which splits every key into its little-endian 32-bit words, one word
    # for 0.
    entropy = [rng.seed & _MASK32, rng.seed >> 32, 0, 0]
    for key in (rng.stream, *rng.path):
        entropy.append(key & _MASK32)
        while key := key >> 32:
            entropy.append(key & _MASK32)
    return _seed_words(entropy)


def _seed_words(entropy: list) -> list:
    # NumPy's SeedSequence.generate_state(4, np.uint64) of assembled
    # entropy of at least _POOL_SIZE words, each a Python int or a uint64
    # array (they broadcast): mix_entropy, then eight 32-bit words of
    # output, paired little-endian into four 64-bit ones.
    hashes = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, hashes) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hashes))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, hashes))
    hashes = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i % _POOL_SIZE], hashes) for i in range(8)]
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _outputs(words: np.ndarray, count: int) -> np.ndarray:
    """Return the 64-bit PCG64 outputs 0, ..., count - 1 of every stream.

    ``words`` is a uint64 array whose last axis holds the four seed words
    ``(w0, w1, w2, w3)`` of one stream, as in a ``_spawn_words`` block;
    the result has the other axes, then one of length ``count``.  Entry
    ``[..., k]`` equals the ``k``-th ``random_raw()`` of
    ``_DerivedStream(words[...]).generator().bit_generator``.  It seeds as
    NumPy's ``pcg64_set_seed`` does: the state ``w0 * 2**64 + w1`` and the
    increment ``inc = 2 * (w2 * 2**64 + w3) + 1``, two seeding steps, and
    output ``k`` is the XSL-RR output of the state ``k + 1`` steps further
    (O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
    Good Algorithms for Random Number Generation", 2014).

    ``j`` LCG steps take a state ``s`` to ``A_j s + C_j inc`` (mod
    2**128), so no output waits for the one before it.  The outputs are
    formed in blocks of ``b`` (``_jump_plan``): one jump from the start
    to the state of each block's first output, then jumps of ``0, ...,
    b - 1`` steps from those.  A 128-bit value is a pair of uint64 arrays,
    high and low, that wrap mod 2**64 without a warning, as NumPy scalars
    would not.
    """
    flat = words.reshape(-1, 4)
    block, far, near = _jump_plan(count)
    w0, w1, w2, w3 = (flat[:, i] for i in range(4))
    inc = (w2 << 1 | w3 >> 63, w3 << 1 | 1)
    # The state after the first seeding step is the increment; adding the
    # initial state carries when the low word wraps.
    lo = inc[1] + w1
    start = (inc[0] + w0 + (lo < inc[1]), lo)
    firsts = _add128(_mul128(start, far[0]), _mul128(inc, far[1]))
    hi, lo = _add128(_mul128(firsts, near[0]), _mul128(inc, near[1]))
    # XSL-RR: the xor of the halves, rotated right by the top six bits.
    value = hi ^ lo
    rot = hi >> 58
    out = value >> rot | value << ((64 - rot) & 63)
    # (offset in block, block, stream) to (stream, output).
    out = out.transpose(2, 1, 0).reshape(len(flat), -1)[:, :count]
    return out.reshape(*words.shape[:-1], count)


@functools.cache
def _jump_plan(count: int) -> tuple:
    # The block size b of _outputs, about sqrt(count), and the (A_j, C_j)
    # jumps it makes, each a (high, low) pair of uint64 arrays shaped to
    # broadcast: to output q b of every block q (j = q b + 2), shape
    # (blocks, 1); within a block (j = 0, ..., b - 1), shape (b, 1, 1).
    block = math.isqrt(count - 1) + 1
    jumps = _jumps(count)
    far = [jumps[first + 2] for first in range(0, count, block)]
    near = jumps[:block]
    return (
        block,
        _jump_words(far, (-1, 1)),
        _jump_words(near, (-1, 1, 1)),
    )


def _jump_words(jumps, shape):
    # The A's and the C's of ``jumps``, each a (high, low) pair of uint64
    # arrays of the given shape.
    return tuple(
        tuple(
            np.array(words, dtype=np.uint64).reshape(shape)
            for words in ([v >> 64 for v in half], [v & _MASK64 for v in half])
        )
        for half in zip(*jumps)
    )


@functools.cache
def _jumps(count: int) -> list[tuple[int, int]]:
    # (A_j, C_j) for j = 0, ..., count + 2, Python ints: j LCG steps take a
    # state s to A_j s + C_j inc (mod 2**128).  Output k of a stream is
    # read from the state j = k + 2 steps after the increment plus the
    # initial state, so j = count + 2 reaches the first output past count.
    a, c, pairs = 1, 0, []
    for _ in range(count + 3):
        pairs.append((a, c))
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
    return pairs


def _mul128(x, y):
    # x * y mod 2**128, each a (high, low) pair of uint64 arrays.
    (x_hi, x_lo), (y_hi, y_lo) = x, y
    return _mul_hi(x_lo, y_lo) + x_lo * y_hi + x_hi * y_lo, x_lo * y_lo


def _add128(x, y):
    # x + y mod 2**128, as _mul128; the high word takes the low word's carry.
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < x[1]), lo


def _mul_hi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The high word of the 128-bit product a * b, from 32-bit limbs (Warren,
    # "Hacker's Delight", mulhu): no partial sum overflows 64 bits.
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    low = a1 * b0 + (a0 * b0 >> 32)
    middle = a0 * b1 + (low & _MASK32)
    return a1 * b1 + (low >> 32) + (middle >> 32)


class _Outputs:
    """The outputs of one PCG64 stream, by position from 0.

    The first ``len(outputs)`` are the given uint64 row, as ``_outputs``
    formed them; later ones are formed in Python ints when first read,
    by one jump from the stream's seed words to where the row stopped,
    then one LCG step per output.
    """

    __slots__ = ("words", "outputs", "more", "state", "inc")

    def __init__(self, words: np.ndarray, outputs: np.ndarray) -> None:
        self.words = words
        self.outputs = outputs
        self.more: list[int] = []

    def __getitem__(self, position: int) -> int:
        count = len(self.outputs)
        if position < count:
            return int(self.outputs[position])
        while position >= count + len(self.more):
            if self.more:
                self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
            else:
                w0, w1, w2, w3 = (int(w) for w in self.words)
                self.inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
                a, c = _jumps(count)[count + 2]
                start = (w0 << 64 | w1) + self.inc
                self.state = (a * start + c * self.inc) & _MASK128
            value = (self.state >> 64) ^ (self.state & _MASK64)
            rot = self.state >> 122
            self.more.append((value >> rot | value << (64 - rot)) & _MASK64)
        return self.more[position - count]


def _hash_constants(value: int, mult: int):
    # The hash constant evolves independently of the data; yield the
    # (xor, multiplier) pair of each successive hashmix step.
    while True:
        advanced = value * mult & _MASK32
        yield value, advanced
        value = advanced


def _hashmix(value, hashes):
    xor, mult = next(hashes)
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def random_hermitian(n: int, rng: SeededRng) -> HermitianMatrix:
    """Return (M + M†)/2 for M with standard-normal real and imaginary parts."""
    if n < 1:
        raise InvalidDimension(f"n must be >= 1, got {n}")
    re, im = rng.generator().standard_normal((2, n, n))
    return _hermitian_value(_symmetrised(_complex_matrix(re, im)))


def random_density(n: int, rank: int, rng: SeededRng) -> DensityMatrix:
    """Draw a random state of the given rank, spectrum first.

    Parameters
    ----------
    n : int
        Matrix dimension, at least 1.
    rank : int
        Number of strictly positive eigenvalues, ``1 <= rank <= n``.
        Ranks below ``n`` give exact zeros at the bottom of the spectrum.
    rng : SeededRng
        Stream to draw from.

    Returns
    -------
    DensityMatrix
        Eigenvalues uniform on the (rank-1)-simplex padded with zeros and
        sorted ascending; eigenvectors from orthonormalising a complex
        Gaussian matrix.
    """
    if n < 1:
        raise InvalidDimension(f"n must be >= 1, got {n}")
    if not 1 <= rank <= n:
        raise InvalidRank(f"rank must be in [1, {n}], got {rank}")
    g = rng.generator()
    exps = np.zeros(n)
    g.standard_exponential(out=exps[n - rank :])
    re, im = g.standard_normal((2, n, n))
    frame = _unitary_frame(_complex_matrix(re, im))
    return _density_value(*_density_arrays(_spectrum(exps), frame), frame)


def maximally_mixed(n: int) -> DensityMatrix:
    """Return I/n, the state with uniform spectrum."""
    if n < 1:
        raise InvalidDimension(f"n must be >= 1, got {n}")
    spectrum = np.full(n, 1.0 / n)
    return density_from_decomposition(spectrum, np.eye(n, dtype=complex))


def _trial_batches(seed, dims, trials_per_dim, q_lo, q_hi, mixed):
    """Yield ``(first, qs, stack)`` for every batch of trials, in index order.

    ``qs`` and the ``_Instances`` ``stack`` hold trials ``first, first +
    1, ...``, all of one dim.  ``mixed`` draws a rank below the dim for odd
    trials.  A batch never spans two chunks of ``_CHUNK_TRIALS``.  Per
    chunk, one ``_spawn_words`` pass derives the seed words of every
    stream and one ``_q_and_ranks`` pass forms every q and rank, without a
    Generator; so a batch of four n = 32 trials pays neither pass's fixed
    cost.  A batch holds at most ``_batch_rows(dim)`` trials and is drawn
    by ``_draw_trials`` when it is asked for, by array code only in a run
    of at most one chunk.
    """
    total = len(dims) * trials_per_dim
    short = total <= _CHUNK_TRIALS
    dim_of = np.array(dims, dtype=np.uint64)
    for start in range(0, total, _CHUNK_TRIALS):
        stop = min(start + _CHUNK_TRIALS, total)
        indices = np.arange(start, stop, dtype=np.uint64)
        words = _spawn_words(seed, indices, _TRIAL_STREAMS)
        trial_dims = dim_of[indices // trials_per_dim]
        qs, ranks = _q_and_ranks(words, start, trial_dims, q_lo, q_hi, mixed)
        first = start
        while first < stop:
            group = first // trials_per_dim
            dim = dims[group]
            last = min(stop, (group + 1) * trials_per_dim, first + _batch_rows(dim))
            rows = slice(first - start, last - start)
            stack = _draw_trials(words[rows], ranks[rows], dim, short)
            yield first, qs[rows], stack
            first = last


def _q_and_ranks(words, first, dims, q_lo, q_hi, mixed):
    """Return the q values and the ranks of consecutive trials, as lists.

    Trial ``first + offset`` has dim ``dims[offset]`` (a uint64 array) and
    the streams whose seed words are ``words[offset]`` (a
    ``_spawn_words`` block).  Its q is ``Generator.uniform(q_lo,
    q_hi)`` of split 0 unless its slot pins a boundary value; under
    ``mixed``, an odd trial of dim 2 or more has rank
    ``Generator.integers(1, dim)`` of split 1, and every other trial its
    dim.  Each is one scalar draw, formed from its stream's first output
    (``_outputs``, one pass for all trials) with NumPy's own arithmetic,
    so the same bits without a Generator.  The rank is Lemire's bounded
    draw on the low 32 bits (Lemire, "Fast Random Integer Generation in an
    Interval", ACM TOMACS 2019); only where its rejection test could fire,
    with probability below dim / 2**32, does ``_bounded`` run NumPy's
    whole loop on the stream's later 32-bit words.
    """
    draws = _outputs(words[:, :2], 1)
    index = np.arange(first, first + len(words))
    slot = index % BOUNDARY_PERIOD
    pinned = np.take(BOUNDARY_Q, slot, mode="clip")
    uniform = _uniform(draws[:, 0, 0], q_lo, q_hi)
    qs = np.where(slot < len(BOUNDARY_Q), pinned, uniform).tolist()
    if not mixed:
        return qs, dims.tolist()
    drawn = (index % 2 == 1) & (dims >= 2)
    below, exact = _lemire(draws[:, 1, 0], dims - np.uint64(1))
    ranks = np.where(drawn, 1 + below, dims).tolist()
    for offset in np.flatnonzero(drawn & ~exact).tolist():
        stream = _Outputs(words[offset, 1], draws[offset, 1])
        ranks[offset] = 1 + _bounded(stream, int(dims[offset]) - 1)
    return qs, ranks


def _draw_trials(words, ranks, dim, short):
    """Return the ``_Instances`` stack of consecutive trials of one dim.

    Trial ``offset`` has rank ``ranks[offset]`` and draws its state, A and
    B from the streams whose seed words are ``words[offset, 2:]`` (a
    ``_spawn_words`` block), exactly as ``random_density`` and
    ``random_hermitian`` draw from theirs.  Each stream fills one row of
    ``dim + 2 dim**2`` draws in the layout of ``_stream_draws``; only the
    state's row leads with exponentials, ``rank`` of them.  The spectra,
    the complex matrices and the instances are then formed once for the
    batch.

    In a ``short`` run whose rows hold up to ``_ARRAY_DRAWS`` values,
    ``_stream_draws`` fills every row, a block of streams at a time, with
    no Generator; otherwise each stream's Generator fills its own row.
    """
    m = len(words)
    count = 2 * dim * dim
    streams = words[:, 2:].reshape(-1, 4)
    leading = np.zeros(3 * m, dtype=np.intp)
    leading[::3] = ranks
    if short and dim + count <= _ARRAY_DRAWS:
        draws = _stream_draws(streams, leading, dim, count)
    else:
        draws = np.zeros((3 * m, dim + count))
        for row, stream, lead in zip(draws, streams, leading.tolist()):
            g = _DerivedStream(stream).generator()
            g.standard_exponential(out=row[dim - lead : dim])
            g.standard_normal(out=row[dim:])
    draws = draws.reshape(m, 3, -1)
    pairs = draws[:, :, dim:].reshape(m, 3, 2, dim, dim)
    raw = _complex_matrix(pairs[:, :, 0], pairs[:, :, 1])
    frame = _unitary_frame(raw[:, 0])
    rho, vals = _density_arrays(_spectrum(draws[:, 0, :dim]), frame)
    a, b = _symmetrised(raw[:, 1]), _symmetrised(raw[:, 2])
    return _Instances(rho, vals, frame, a, b)


def _normals(rngs: list[SeededRng], count: int) -> np.ndarray:
    """Return ``count`` standard normals from the start of each stream.

    Row ``r`` equals ``rngs[r].generator().standard_normal(count)`` bit
    for bit; it is drawn by ``_stream_draws``, with no Generator.
    """
    words = np.array([_stream_words(rng) for rng in rngs], dtype=np.uint64)
    return _stream_draws(words, np.zeros(len(rngs), dtype=np.intp), 0, count)


def _stream_draws(words, leading, width, count):
    """Return the draws of streams that draw exponentials, then normals.

    Row ``s`` holds ``width - leading[s]`` zeros, ``leading[s]`` standard
    exponentials and ``count`` standard normals, drawn in that order from
    the stream whose seed words are ``words[s]`` (a ``(streams, 4)``
    uint64 array), with ``leading[s] <= width``.  They equal what
    ``standard_exponential`` and then ``standard_normal`` of that stream's
    Generator would draw, bit for bit, because each draw repeats NumPy's
    ziggurat (``random_standard_exponential`` and
    ``random_standard_normal``; Marsaglia and Tsang, "The Ziggurat Method
    for Generating Random Variables", J. Stat. Softw. 5(8), 2000).

    A ziggurat draw accepts its first try, a function of one output, about
    99 % of the time, so draw ``d`` of a stream mostly reads output ``d``.
    The first ``width + count`` outputs of a stream, and a few spare ones,
    are formed and tried at once, for a block of consecutive streams: as
    many whole streams as fit in ``_BLOCK_OUTPUTS`` outputs, at least one.
    A failed try and what it reads next are settled by
    ``_exponential_draws`` and ``_normal_draws``, and each block fills its
    own rows of the result.  A stream's draws read its own outputs only,
    so the blocks split nothing that changes a bit.
    """
    # Failed tries read about 0.024 outputs more per normal drawn; the
    # spare outputs leave a stream of 128 normals a 3 % chance of running
    # past them, where _normal reads on.
    size = width + count + count // 16 + 4
    step = max(1, _BLOCK_OUTPUTS // size)
    draws = np.zeros((len(words), width + count))
    for first in range(0, len(words), step):
        block = slice(first, first + step)
        streams, rows = words[block], draws[block]
        outputs = _outputs(streams, size)
        start = _exponential_draws(streams, outputs, leading[block], rows[:, :width])
        rows[:, width:] = _normal_draws(streams, outputs, start, count)
    return draws


def _exponential_draws(words, outputs, leading, dest):
    # Fills row s of ``dest`` with zeros, then the first leading[s]
    # standard exponentials of stream s, right-aligned; returns where each
    # stream's next draw starts.  A stream where a try it reads fails,
    # about 1 % of them per draw, draws all of its exponentials by
    # _exponential, NumPy's whole loop.
    width = dest.shape[1]
    tries, fails = _exponential_tries(outputs[:, :width])
    # Column c holds try c - (width - leading); a negative index wraps,
    # and those columns stay zero.
    taken = np.arange(width) - (width - leading)[:, None]
    held = taken >= 0
    dest[:] = np.where(held, np.take_along_axis(tries, taken, axis=1), 0.0)
    start = leading.copy()
    failed = (np.take_along_axis(fails, taken, axis=1) & held).any(axis=1)
    for s in np.flatnonzero(failed).tolist():
        stream, at = _Outputs(words[s], outputs[s]), 0
        for column in range(width - int(leading[s]), width):
            dest[s, column], at = _exponential(stream, at)
        start[s] = at
    return start


def _normal_draws(words, outputs, start, count):
    # The ``count`` standard normals of each stream, the first from output
    # start[s].  Draw d first tries output d + start[s] plus the outputs
    # that earlier draws read past their first try.  Those come from the
    # failed tries, walked in order: a failed try the wedge test accepts
    # reads one more output, one it rejects reads one and starts the draw
    # over, and a tail draw, or one whose test would read past the formed
    # outputs, runs _normal, NumPy's whole loop.  A draw that starts past
    # the formed outputs runs _normal too.
    size = outputs.shape[1]
    tries, fails = _normal_tries(outputs)
    rows, positions = np.nonzero(fails)
    verdicts = _wedge_verdicts(outputs, tries, rows, positions)
    # Draws moved[i], moved[i] + 1, ... of stream moved_rows[i] start
    # further[i] outputs further on.
    moved_rows, moved, further = [], [], []
    redrawn = {}
    row = -1
    for s, p, verdict in zip(rows.tolist(), positions.tolist(), verdicts):
        if s != row:
            row, at = s, int(start[s])
            shift = at  # where draw d starts, less d
        draw = p - shift
        if p < at or draw >= count:
            continue  # read as a wedge test's uniform, or past the draws
        if verdict is None:
            redrawn[s, draw], at = _normal(_Outputs(words[s], outputs[s]), p)
            first, step = draw + 1, at - p - 1
        elif verdict:
            first, step, at = draw + 1, 1, p + 2
        else:
            first, step, at = draw, 2, p + 2
        moved_rows.append(s)
        moved.append(first)
        further.append(step)
        shift += step
    moves = np.zeros((len(outputs), count + 1), dtype=np.intp)
    np.add.at(moves, (moved_rows, moved), further)
    taken = start[:, None] + np.arange(count) + np.cumsum(moves[:, :count], axis=1)
    draws = np.take_along_axis(tries, np.minimum(taken, size - 1), axis=1)
    for (s, draw), value in redrawn.items():
        draws[s, draw] = value
    for s in np.flatnonzero(taken[:, -1] >= size).tolist():
        draw = int(np.argmax(taken[s] >= size))
        stream, at = _Outputs(words[s], outputs[s]), int(taken[s, draw])
        for draw in range(draw, count):
            draws[s, draw], at = _normal(stream, at)
    return draws


def _normal_tries(outputs):
    # The first try of a standard normal on each output, and whether it
    # fails: the output's top 52 bits below its low nine (the sign bit and
    # the table index) times the signed width, accepted below ki[index].
    index = (outputs & 0x1FF).astype(np.intp)
    rabs = outputs >> 9 & 0xFFFFFFFFFFFFF
    return rabs * _WI_SIGNED[index], rabs >= _KI2[index]


def _exponential_tries(outputs):
    # The first try of a standard exponential on each output, and whether
    # it fails: the top 53 bits times we[index], index in bits 3 to 10,
    # accepted below ke[index].
    index = (outputs >> 3 & 0xFF).astype(np.intp)
    ri = outputs >> 11
    return ri * _WE[index], ri >= _KE[index]


def _wedge_verdicts(outputs, tries, rows, positions):
    # For each failed normal try at (rows, positions): whether NumPy's wedge
    # test, which reads the next output as a uniform, accepts it; None for
    # a try in the tail (index 0) or on the last output formed.  math.exp
    # calls the same libm function as NumPy's C code.
    size = outputs.shape[1]
    index = (outputs[rows, positions] & 0xFF).astype(np.intp)
    uniform = (outputs[rows, np.minimum(positions + 1, size - 1)] >> 11) * _DOUBLE_UNIT
    x = tries[rows, positions]
    low, high = _FI[index], _FI[index - 1]
    curve = [math.exp(v) for v in (-0.5 * x * x).tolist()]
    passed = ((high - low) * uniform + low < curve).tolist()
    tested = ((index > 0) & (positions + 1 < size)).tolist()
    return [verdict if ok else None for verdict, ok in zip(passed, tested)]


def _normal(stream: _Outputs, at: int) -> tuple[float, int]:
    # NumPy's random_standard_normal from position ``at`` of ``stream``,
    # step for step; returns the draw and the position after it.  math.exp
    # and math.log1p call the same libm functions as NumPy's C code.
    while True:
        r = stream[at]
        at += 1
        index = r & 0xFF
        r >>= 8
        rabs = r >> 1 & 0xFFFFFFFFFFFFF
        x = rabs * _ziggurat.WI[index]
        if r & 1:
            x = -x
        if rabs < _ziggurat.KI[index]:
            return x, at
        if index == 0:
            # The tail past NOR_R, by Marsaglia's method.
            while True:
                xx = -_ziggurat.NOR_INV_R * math.log1p(-_double(stream[at]))
                yy = -math.log1p(-_double(stream[at + 1]))
                at += 2
                if yy + yy > xx * xx:
                    tail = _ziggurat.NOR_R + xx
                    return (-tail if rabs >> 8 & 1 else tail), at
        low, high = _ziggurat.FI[index], _ziggurat.FI[index - 1]
        if (high - low) * _double(stream[at]) + low < math.exp(-0.5 * x * x):
            return x, at + 1
        at += 1


def _exponential(stream: _Outputs, at: int) -> tuple[float, int]:
    # NumPy's random_standard_exponential from position ``at`` of
    # ``stream``, step for step, as _normal.
    while True:
        ri = stream[at] >> 3
        at += 1
        index = ri & 0xFF
        ri >>= 8
        x = ri * _ziggurat.WE[index]
        if ri < _ziggurat.KE[index]:
            return x, at
        if index == 0:
            return _ziggurat.EXP_R - math.log1p(-_double(stream[at])), at + 1
        low, high = _ziggurat.FE[index], _ziggurat.FE[index - 1]
        if (high - low) * _double(stream[at]) + low < math.exp(-x):
            return x, at + 1
        at += 1


def _double(x: int) -> float:
    # NumPy's next_double of the output x.
    return (x >> 11) * _DOUBLE_UNIT


def _bounded(stream: _Outputs, span: int) -> int:
    # Generator.integers(0, span), 1 <= span < 2**32, from the start of
    # ``stream``: NumPy's Lemire loop, on PCG64's buffered 32-bit words,
    # the low and then the high word of each output, until the product's
    # low word reaches 2**32 mod span.
    threshold = (_MASK32 + 1) % span
    word = 0
    while True:
        output = stream[word >> 1]
        scaled = (output >> 32 if word & 1 else output & _MASK32) * span
        if scaled & _MASK32 >= threshold:
            return scaled >> 32
        word += 1


def _uniform(x: np.ndarray, low: float, high: float) -> np.ndarray:
    # Generator.uniform(low, high) of streams whose first outputs are x:
    # low + (high - low) * ((x >> 11) * 2**-53), the operations of NumPy's
    # random_uniform and next_double in their order, so the same bits.
    return low + (high - low) * ((x >> 11) * _DOUBLE_UNIT)


def _lemire(x: np.ndarray, span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Generator.integers(0, span), 1 <= span < 2**32 (uint64), of streams
    # whose first outputs are x: NumPy draws the low 32 bits and keeps the high word of
    # their product with ``span``.  Where the product's low word is below
    # ``span``, ``exact`` is False: NumPy's rejection loop may draw again.
    scaled = (x & _MASK32) * span
    return scaled >> 32, (scaled & _MASK32) >= span


def _draw_bytes(dim: int) -> int:
    # The bytes of the float stack _draw_trials fills for one batch of
    # ``dim``: three rows of dim + 2 dim**2 draws per trial, its state's, A's
    # and B's.  Exact for any int dim, so a dim past the float range is
    # sized too.
    return 8 * _batch_rows(dim) * 3 * (dim + 2 * dim**2)


def _spectrum(exps: np.ndarray) -> np.ndarray:
    # Each row of exponentials scaled by one over its sequential sum, as
    # NumPy's Dirichlet scales them, then sorted ascending; the zero padding
    # stays exactly zero.  np.sum would sum pairwise from length 8 up and
    # round differently.
    spectrum = exps * (1.0 / np.add.accumulate(exps, axis=-1)[..., -1:])
    spectrum.sort(axis=-1)
    return spectrum


def _complex_matrix(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # The expression the draws were always combined with, so signed zeros
    # round as they did.
    return re + 1j * im


def _unitary_frame(raw: np.ndarray) -> np.ndarray:
    # QR of a complex Gaussian matrix, with the R diagonal's phases folded
    # into Q so the distribution is uniform over the unitary group.  Works
    # on one matrix or a stack; stacked QR rounds as one matrix at a time.
    q, r = np.linalg.qr(raw)
    diag = r.diagonal(0, -2, -1)
    return q * (diag / np.abs(diag))[..., None, :]
