"""Reproducible random ensembles of observables and states.

Randomness is counter-based: a :class:`SeededRng` names a deterministic
stream by ``(seed, stream)`` plus an optional derivation path, and every
consumer builds its own fresh generator from that name.  Parallel workers
therefore reproduce the same draws no matter how trials are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidDimension, InvalidRank
from .hermitian import (
    DensityMatrix,
    HermitianMatrix,
    _unchecked_density,
    _unchecked_hermitian,
    density_from_decomposition,
)

_UINT64_BOUND = 2**64


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


def random_hermitian(n: int, rng: SeededRng) -> HermitianMatrix:
    """Return (M + M†)/2 for M with standard-normal real and imaginary parts."""
    if n < 1:
        raise InvalidDimension(f"n must be >= 1, got {n}")
    g = rng.generator()
    raw = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    return _unchecked_hermitian(raw)


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
    spectrum = np.zeros(n)
    spectrum[n - rank :] = g.dirichlet(np.ones(rank))
    spectrum.sort()
    frame = _random_unitary(n, g)
    return _unchecked_density(spectrum, frame)


def maximally_mixed(n: int) -> DensityMatrix:
    """Return I/n, the state with uniform spectrum."""
    if n < 1:
        raise InvalidDimension(f"n must be >= 1, got {n}")
    spectrum = np.full(n, 1.0 / n)
    return density_from_decomposition(spectrum, np.eye(n, dtype=complex))


def _random_unitary(n: int, g: np.random.Generator) -> np.ndarray:
    # QR of a complex Gaussian matrix, with the R diagonal's phases folded
    # into Q so the distribution is uniform over the unitary group.
    raw = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
