"""Reproducible random ensembles of observables and states.

Randomness is counter-based: a :class:`SeededRng` names a deterministic
stream by ``(seed, stream)`` plus an optional derivation path, and every
consumer builds its own fresh generator from that name, so the draws do
not depend on the order in which trials run.

:meth:`SeededRng.generator` is the reference path.  ``verify`` derives the
same streams in chunks: the private kernel ``_spawn_words`` computes the
PCG64 seed words of ``SeededRng(seed, index).split(k)`` for every index
and split of a chunk in one vectorised pass, into one C-contiguous
``(indices, splits, 4)`` array.  A ``_DerivedStream`` is built on use
from one row of it, only for a stream the trial draws from, and builds
the generator that :meth:`SeededRng.generator` would build, bit for bit.

Instances are drawn the same way on both paths.  The draw order lives in
two private helpers that fill caller-given float buffers, ``_draw_state``
and ``_draw_gaussian``, and the arithmetic on the draws in three array
functions that act on one row or a stack: ``_spectrum``,
``_complex_matrix`` and the QR phase fix ``_unitary_frame``.  A Gaussian
matrix is drawn into one contiguous ``(2, n, n)`` pair, real parts then
imaginary parts, by one ``standard_normal`` fill, which reads the stream
as two fills of ``(n, n)`` would.  :func:`random_density` and
:func:`random_hermitian` are the reference path: they run the helpers on
one-row buffers.  ``verify`` fills one row per trial of preallocated
stacks, then runs the array functions once per batch; they act element
by element or, for stacked QR, round as one matrix at a time, so each
trial gets the reference bytes.

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

from .errors import DomainError, InvalidDimension, InvalidRank
from .hermitian import (
    DensityMatrix,
    HermitianMatrix,
    _density_arrays,
    _density_value,
    _hermitian_value,
    _symmetrised,
    density_from_decomposition,
)

_UINT64_BOUND = 2**64

# NumPy's SeedSequence hash (O'Neill's seed_seq_fe), whose output NEP 19
# keeps stable across NumPy releases.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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
        # seed, stream and path were validated when this value was built.
        child = object.__new__(SeededRng)
        object.__setattr__(child, "seed", self.seed)
        object.__setattr__(child, "stream", self.stream)
        object.__setattr__(child, "path", self.path + (int(index),))
        return child

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


def _derived_streams(seed: int, indices: np.ndarray, splits: int) -> np.ndarray:
    """Return the seed words of ``SeededRng(seed, index).split(k)``, k < splits.

    The result is one C-contiguous ``(len(indices), splits, 4)`` uint64
    array from a single ``_spawn_words`` pass; ``_DerivedStream(words[r, k])``
    is the stream of ``indices[r]`` and split ``k``.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    return _spawn_words(seed, indices[:, None], np.arange(splits, dtype=np.uint64))


def _spawn_words(seed: int, indices: np.ndarray, k) -> np.ndarray:
    """Return the PCG64 seed words of ``SeededRng(seed, i).split(k)`` per index i.

    ``k`` is an int or an array that broadcasts against ``indices``; the
    result has their broadcast shape plus a last axis of the four words.
    Entry ``r`` equals ``np.random.SeedSequence(entropy=seed, spawn_key=(
    indices[r], k[r])).generate_state(4, np.uint64)``: the same hash, run
    on uint64 arrays under a 32-bit mask.  The seed-only part of the pool
    stays scalar.  Every index and split must be below 2**32, where each
    is one entropy word; larger ones raise.
    """
    seed = SeededRng(seed).seed
    indices = np.asarray(indices, dtype=np.uint64)
    splits = np.asarray(k)
    if (
        np.any(indices > _MASK32)
        or splits.dtype.kind not in "iu"
        or np.any(splits < 0)
        or np.any(splits > _MASK32)
    ):
        raise DomainError("batched stream indices must be below 2**32")
    k = splits.astype(np.uint64)
    # Assembled entropy: the seed's one or two words, zero-padded to the
    # pool size because a spawn key follows, then the spawn key.
    entropy = [seed & _MASK32, seed >> 32, 0, 0, indices, k]
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
