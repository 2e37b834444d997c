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
:meth:`SeededRng.generator` would build, bit for bit.  A trial's q and
its rank are one scalar draw each, a fixed function of the first 64-bit
output of their stream.  ``_first_outputs`` computes that output from
the seed words, for a whole chunk in one vectorised pass of PCG64's
seeding and XSL-RR output, so those two streams need no Generator of
their own, except for the rare rank that Lemire's method might reject.

Instances are drawn the same way on both paths.  The draw order lives in
two private helpers that fill caller-given float buffers, ``_draw_state``
and ``_draw_gaussian``, and the arithmetic on the draws in three array
functions that act on one row or a stack: ``_spectrum``,
``_complex_matrix`` and the QR phase fix ``_unitary_frame``.  A Gaussian
matrix is drawn into one contiguous ``(2, n, n)`` pair, real parts then
imaginary parts, by one ``standard_normal`` fill, which reads the stream
as two fills of ``(n, n)`` would.  :func:`random_density` and
:func:`random_hermitian` are the reference path: they run the helpers on
one-row buffers.

``verify``'s trial ensemble lives here too, with its stream layout
(``_TRIAL_STREAMS``).  ``_trial_batches`` yields it in index order, one
stack of consecutive trials of one dim at a time, from seed words
derived ``_CHUNK_TRIALS`` trials per pass.  ``_q_and_ranks`` forms the
chunk's q values and ranks from first outputs (``_uniform`` and
``_lemire`` repeat NumPy's arithmetic on them).  ``_draw_trials`` builds
Generators for each trial's state, A and B streams, fills one row per
trial of preallocated stacks, then runs the array functions once per
batch; they act element by element or, for stacked QR, round as one
matrix at a time, so each trial gets the reference bytes.

The spectrum is Dirichlet(1, ..., 1) drawn as NumPy's
``Generator.dirichlet`` draws it: ``rank`` standard exponentials, each
multiplied by one over their sequential sum.  So ``_spectrum`` of the
exponentials equals ``g.dirichlet(np.ones(rank))`` bit for bit, and the
stream is left at the same position.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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

# PCG64's 128-bit LCG multiplier, as its high and low words.
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
# Generator.uniform maps a 64-bit output x to (x >> 11) * 2**-53 in [0, 1).
_DOUBLE_UNIT = 2.0**-53


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
        if dtype is np.uint64 and n_words == 4:
            return self.words
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
    np.uint64)``: the same hash, run on uint64 arrays under a 32-bit mask.
    The seed-only part of the pool stays scalar.  Every index must be
    below 2**32, where it is one entropy word; larger ones raise.
    """
    seed = SeededRng(seed).seed
    indices = np.asarray(indices, dtype=np.uint64)
    if np.any(indices > _MASK32):
        raise DomainError("batched stream indices must be below 2**32")
    k = np.arange(splits, dtype=np.uint64)
    # Assembled entropy: the seed's one or two words, zero-padded to the
    # pool size because a spawn key follows, then the spawn key.
    entropy = [seed & _MASK32, seed >> 32, 0, 0, indices[:, None], k]
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
    # Consecutive 32-bit words pair up little-endian into one uint64.
    return np.stack([state[i] | state[i + 1] << 32 for i in range(0, 8, 2)], axis=-1)


def _first_outputs(words: np.ndarray) -> np.ndarray:
    """Return the first 64-bit PCG64 output of every stream, from its seed words.

    ``words`` is a uint64 array of at least two axes whose last axis holds
    the four words ``(w0, w1, w2, w3)`` of one stream, as in a
    ``_spawn_words`` block; the output has the other axes.  Entry ``r``
    equals ``_DerivedStream(words[r]).generator().bit_generator
    .random_raw()``.  It seeds as NumPy's ``pcg64_set_seed`` does: the
    state ``w0 * 2**64 + w1`` and the increment
    ``2 * (w2 * 2**64 + w3) + 1``, two seeding steps, then one more step
    and the XSL-RR output (O'Neill, "PCG: A Family of Simple Fast
    Space-Efficient Statistically Good Algorithms for Random Number
    Generation", 2014).  A 128-bit value is a pair of uint64 arrays, high
    and low, that wrap mod 2**64 without a warning, as NumPy scalars
    would not.
    """
    w0, w1, w2, w3 = (words[..., i] for i in range(4))
    inc_hi = w2 << 1 | w3 >> 63
    inc_lo = w3 << 1 | 1
    # The state is the increment after the first seeding step; adding the
    # initial state carries when the low word wraps.
    lo = inc_lo + w1
    hi = inc_hi + w0 + (lo < inc_lo)
    for _ in range(2):
        product_lo = lo * _PCG_MULT_LO
        hi = _mul_hi(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
        lo = product_lo + inc_lo
        hi = hi + inc_hi + (lo < inc_lo)
    # XSL-RR: the xor of the halves, rotated right by the top six bits.
    value = hi ^ lo
    rot = hi >> 58
    return value >> rot | value << ((64 - rot) & 63)


def _mul_hi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    # The high word of the 128-bit product a * b, from 32-bit limbs, so no
    # partial product overflows 64 bits.
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    cross_a, cross_b = a0 * b1, a1 * b0
    middle = (a0 * b0 >> 32) + (cross_a & _MASK32) + (cross_b & _MASK32)
    return a1 * b1 + (cross_a >> 32) + (cross_b >> 32) + (middle >> 32)


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
    pair = np.empty((2, n, n))
    _draw_gaussian(rng.generator(), pair)
    return _hermitian_value(_symmetrised(_complex_matrix(pair[0], pair[1])))


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
    exps = np.zeros(n)
    pair = np.empty((2, n, n))
    _draw_state(rng.generator(), rank, exps, pair)
    frame = _unitary_frame(_complex_matrix(pair[0], pair[1]))
    return _density_value(*_density_arrays(_spectrum(exps), frame), frame)


def maximally_mixed(n: int) -> DensityMatrix:
    """Return I/n, the state with uniform spectrum."""
    if n < 1:
        raise InvalidDimension(f"n must be >= 1, got {n}")
    spectrum = np.full(n, 1.0 / n)
    return density_from_decomposition(spectrum, np.eye(n, dtype=complex))


def _draw_gaussian(g: np.random.Generator, pair: np.ndarray) -> None:
    # The one draw of random_hermitian, and the frame draw of random_density:
    # the real parts, then the imaginary parts, of an n x n Gaussian matrix,
    # into the contiguous (2, n, n) buffer ``pair`` in one fill.
    g.standard_normal(out=pair)


def _draw_state(
    g: np.random.Generator, rank: int, exps: np.ndarray, pair: np.ndarray
) -> None:
    # The draws of random_density, in order: ``rank`` standard exponentials
    # into the tail of the zeroed row ``exps``, then the Gaussian matrix
    # whose QR gives the frame, into ``pair``.
    g.standard_exponential(out=exps[exps.shape[-1] - rank :])
    _draw_gaussian(g, pair)


def _trial_batches(seed, dims, trials_per_dim, q_lo, q_hi, mixed):
    """Yield ``(first, qs, stack)`` for every batch of trials, in index order.

    ``qs`` and the ``_Instances`` ``stack`` hold trials ``first, first +
    1, ...``, all of one dim.  ``mixed`` draws a rank below the dim for odd
    trials.  A batch never spans two chunks of ``_CHUNK_TRIALS``.  Per
    chunk, one ``_spawn_words`` pass derives the seed words of every
    stream and one ``_q_and_ranks`` pass forms every q and rank, without a
    Generator; so a batch of four n = 32 trials pays neither pass's fixed
    cost.  A batch holds at most ``_batch_rows(dim)`` trials and is drawn
    by ``_draw_trials`` when it is asked for.
    """
    total = len(dims) * trials_per_dim
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
            yield first, qs[rows], _draw_trials(words[rows], ranks[rows], dim)
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
    (``_first_outputs``, one pass for all trials) with NumPy's own
    arithmetic, so the same bits without a Generator.  The rank is
    Lemire's bounded draw on the low 32 bits (Lemire, "Fast Random Integer
    Generation in an Interval", ACM TOMACS 2019); only where its rejection
    test could fire, with probability below dim / 2**32, is the rank
    stream's Generator built to run NumPy's own loop.
    """
    draws = _first_outputs(words[:, :2])
    index = np.arange(first, first + len(words))
    slot = index % BOUNDARY_PERIOD
    pinned = np.take(BOUNDARY_Q, slot, mode="clip")
    uniform = _uniform(draws[:, 0], q_lo, q_hi)
    qs = np.where(slot < len(BOUNDARY_Q), pinned, uniform).tolist()
    if not mixed:
        return qs, dims.tolist()
    drawn = (index % 2 == 1) & (dims >= 2)
    below, exact = _lemire(draws[:, 1], dims - np.uint64(1))
    ranks = np.where(drawn, 1 + below, dims).tolist()
    for offset in np.flatnonzero(drawn & ~exact):
        g = _DerivedStream(words[offset, 1]).generator()
        ranks[offset] = int(g.integers(1, int(dims[offset])))
    return qs, ranks


def _draw_trials(words, ranks, dim):
    """Return the ``_Instances`` stack of consecutive trials of one dim.

    Trial ``offset`` has rank ``ranks[offset]`` and draws its state, A and
    B from the streams whose seed words are ``words[offset, 2:]`` (a
    ``_spawn_words`` block), one Generator each, exactly as
    ``random_density`` and ``random_hermitian`` draw from theirs.  The
    draws go into row ``offset`` of the exponential stack and of the (m,
    3, 2, dim, dim) Gaussian stack, whose pairs hold the real and the
    imaginary parts of the frame, of A and of B.  The spectra, the complex
    matrices and the instances are then formed once for the batch.
    """
    m = len(words)
    exps = np.zeros((m, dim))
    pairs = np.empty((m, 3, 2, dim, dim))
    for trial, rank, row, (state, a, b) in zip(words, ranks, exps, pairs):
        _draw_state(_DerivedStream(trial[2]).generator(), rank, row, state)
        _draw_gaussian(_DerivedStream(trial[3]).generator(), a)
        _draw_gaussian(_DerivedStream(trial[4]).generator(), b)
    raw = _complex_matrix(pairs[:, :, 0], pairs[:, :, 1])
    frame = _unitary_frame(raw[:, 0])
    rho, vals = _density_arrays(_spectrum(exps), frame)
    a, b = _symmetrised(raw[:, 1]), _symmetrised(raw[:, 2])
    return _Instances(rho, vals, frame, a, b)


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
    # The bytes of the float stacks _draw_trials fills for one batch of
    # ``dim``: (m, dim) exponentials and (m, 3, 2, dim, dim) Gaussian pairs.
    # Exact for any int dim, so a dim past the float range is sized too.
    return 8 * _batch_rows(dim) * (6 * dim**2 + dim)


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
