"""Validated Hermitian observables and density matrices.

All bound computations in this package start from two value types defined
here: :class:`HermitianMatrix` for observables and :class:`DensityMatrix`
for states.  Both hold read-only arrays, and the density matrix also
carries its eigendecomposition, which the bound coefficients need.

Validation happens once, at the trust boundary.  The dataclass
constructors, :func:`make_hermitian`, :func:`make_density` and
:func:`density_from_decomposition` check every input, and
``instances.load_instance`` builds through them.  Instances the package
builds itself are valid by construction and skip the checks.

The arithmetic lives in two array functions that act on the trailing two
axes, so one call serves one matrix or a stack of them:
:func:`_symmetrised`, the ``(M + M†) / 2`` of :func:`make_hermitian`, and
:func:`_density_arrays`, the matrix and normalised spectrum of a state
given as a spectrum and a frame.  :func:`_hermitian_value` and
:func:`_density_value` wrap their results as they are, read-only, with no
check: :func:`make_hermitian` and :func:`make_density` call them after
their checks, and ``generators.random_hermitian`` and ``random_density``
on their draws.

``verify`` (``generators._draw_trials``) and ``search``
(``search._decode_batch``) build whole stacks of instances at once, as
an :class:`_Instances`, which ``bounds._trace_rows`` evaluates.  Every
step acts row by row, so row ``i`` is bitwise the instance built from
its inputs alone, and :meth:`_Instances.row` wraps read-only copies of
it as value types.  :func:`_centred` and :func:`_trace3`, which
:func:`center`, :func:`variance` and ``bounds`` evaluate through, take
one matrix or a stack as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidSpectrum,
    NonFinite,
    NotHermitian,
    NotPositive,
    TraceNotOne,
)

# Relative tolerance for accepting a raw matrix as Hermitian.
HERMITICITY_RTOL = 1e-10
# Absolute tolerance on the trace of a raw density matrix.
TRACE_ATOL = 1e-10
# Eigenvalues in [-EIG_CLAMP, 0) are treated as zero; below that is an error.
EIG_CLAMP = 1e-10
# Tolerance on eigenvector unitarity and on reconstructing the matrix from
# its stored decomposition.
FRAME_ATOL = 1e-9


def _as_square_complex(raw, name: str) -> np.ndarray:
    # ``raw`` as a finite square complex array, Hermitian within
    # ``HERMITICITY_RTOL``; the checks every validating constructor runs.
    arr = np.asarray(raw, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {arr.shape}")
    _check_finite(arr, name)
    if _hermiticity_defect(arr) > HERMITICITY_RTOL:
        raise NotHermitian(f"{name} is not Hermitian within tolerance")
    return arr


def _check_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{name} contains non-finite entries")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.setflags(write=False)
    return out


def _hermiticity_defect(mat: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 1.0)
    return float(np.max(np.abs(mat - mat.conj().T))) / scale


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A square complex matrix equal to its conjugate transpose.

    The array is copied and frozen; hermiticity is enforced up to a
    relative tolerance of ``HERMITICITY_RTOL`` at construction.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_square_complex(self.mat, "matrix")
        object.__setattr__(self, "mat", _frozen(arr))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A unit-trace positive semidefinite matrix with its eigensystem.

    ``eigenvalues`` are ascending and sum to one; column ``i`` of
    ``eigenvectors`` belongs to ``eigenvalues[i]``.  Consistency between
    the matrix and its stored decomposition is checked on construction.
    """

    mat: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        mat = _as_square_complex(self.mat, "density matrix")
        n = mat.shape[0]

        vals = np.asarray(self.eigenvalues, dtype=float)
        if vals.shape != (n,):
            raise DimensionMismatch("eigenvalues must match the matrix dimension")
        if not np.all(np.isfinite(vals)):
            raise NonFinite("eigenvalues contain non-finite entries")
        if np.any(np.diff(vals) < 0):
            raise InvalidSpectrum("eigenvalues must be ascending")
        if vals[0] < 0:
            raise NotPositive(f"negative eigenvalue {float(vals[0])!r}")
        total = float(vals.sum())
        if abs(total - 1.0) > TRACE_ATOL:
            raise TraceNotOne(f"eigenvalues sum to {total!r}")
        vals = vals / total

        frame = np.asarray(self.eigenvectors, dtype=complex)
        if frame.shape != (n, n):
            raise DimensionMismatch("eigenvectors must match the matrix dimension")
        if not np.all(np.isfinite(frame)):
            raise NonFinite("eigenvectors contain non-finite entries")
        if np.max(np.abs(frame.conj().T @ frame - np.eye(n))) > FRAME_ATOL:
            raise InvalidSpectrum("eigenvector matrix is not unitary within tolerance")
        if np.max(np.abs((frame * vals) @ frame.conj().T - mat)) > FRAME_ATOL:
            raise InvalidSpectrum("eigendecomposition does not reproduce the matrix")

        object.__setattr__(self, "mat", _frozen(mat))
        object.__setattr__(self, "eigenvalues", _frozen(vals))
        object.__setattr__(self, "eigenvectors", _frozen(frame))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def make_hermitian(raw) -> HermitianMatrix:
    """Validate ``raw`` as Hermitian and symmetrise away float noise.

    Parameters
    ----------
    raw : array_like
        Square complex matrix.  Its deviation from the conjugate
        transpose must stay within ``HERMITICITY_RTOL`` relative to the
        largest entry magnitude.

    Returns
    -------
    HermitianMatrix
        Wrapper around ``(raw + raw†) / 2``.
    """
    arr = _as_square_complex(raw, "matrix")
    sym = _symmetrised(arr)
    # Entries near the float maximum can overflow in the symmetrisation.
    _check_finite(sym, "matrix")
    return _hermitian_value(sym)


def make_density(raw) -> DensityMatrix:
    """Validate ``raw`` as a density matrix and return it with its eigensystem.

    The input must be Hermitian within ``HERMITICITY_RTOL`` and have trace
    within ``TRACE_ATOL`` of one.  Eigenvalues in ``[-EIG_CLAMP, 0)`` are
    clamped to zero, anything lower raises ``NotPositive``; the spectrum is
    then renormalised to unit sum and the matrix rebuilt from it, so the
    stored matrix and decomposition agree to rounding.
    """
    arr = _as_square_complex(raw, "density matrix")
    sym = _symmetrised(arr)
    # Finite entries can overflow in the symmetrisation, as in
    # make_hermitian; checked first, so an overflowing diagonal is not
    # reported as a trace of inf.
    _check_finite(sym, "density matrix")
    trace = complex(np.trace(sym))
    if abs(trace - 1.0) > TRACE_ATOL:
        raise TraceNotOne(f"trace is {trace!r}")
    vals, frame = np.linalg.eigh(sym)
    low = float(vals[0])
    if low < -EIG_CLAMP:
        raise NotPositive(f"negative eigenvalue {low!r}")
    vals = np.where(vals < 0.0, 0.0, vals)
    return _density_value(*_density_arrays(vals / vals.sum(), frame), frame)


def _symmetrised(raw: np.ndarray) -> np.ndarray:
    # (raw + raw†) / 2 of one matrix or of a stack, on the trailing two
    # axes.  Not a bitwise no-op on every Hermitian input: the complex
    # division by 2.0 can flip the sign of a zero part.
    return (raw + raw.conj().swapaxes(-1, -2)) / 2.0


def _density_arrays(
    vals: np.ndarray, frame: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # The matrix (frame * vals) @ frame†, symmetrised, and the spectrum
    # normalised to unit sum, of one state or of a stack of states.
    mat = (frame * vals[..., None, :]) @ frame.conj().swapaxes(-1, -2)
    return _symmetrised(mat), vals / vals.sum(axis=-1, keepdims=True)


def _hermitian_value(mat: np.ndarray) -> HermitianMatrix:
    # Wraps an already symmetrised matrix as is, made read-only.
    mat.setflags(write=False)
    out = object.__new__(HermitianMatrix)
    object.__setattr__(out, "mat", mat)
    return out


def _density_value(
    mat: np.ndarray, vals: np.ndarray, frame: np.ndarray
) -> DensityMatrix:
    # Wraps the arrays _density_arrays gives, and their frame, as they
    # are, made read-only.  The caller guarantees a finite, nonnegative,
    # ascending spectrum summing to one within rounding and a frame
    # unitary within rounding, and hands the arrays over.
    for arr in (mat, vals, frame):
        arr.setflags(write=False)
    out = object.__new__(DensityMatrix)
    object.__setattr__(out, "mat", mat)
    object.__setattr__(out, "eigenvalues", vals)
    object.__setattr__(out, "eigenvectors", frame)
    return out


class _Instances(NamedTuple):
    """A stack of instances, one per index of the leading axis."""

    rho: np.ndarray  # (m, n, n)
    vals: np.ndarray  # (m, n), ascending, normalised to unit sum
    frame: np.ndarray  # (m, n, n), column j belongs to vals[:, j]
    a: np.ndarray  # (m, n, n)
    b: np.ndarray  # (m, n, n)

    def row(self, i: int) -> tuple[DensityMatrix, HermitianMatrix, HermitianMatrix]:
        """Return instance ``i`` as value types over read-only copies.

        The copies keep no whole stack alive.
        """
        rho, vals, frame, a, b = (np.array(arr[i]) for arr in self)
        state = _density_value(rho, vals, frame)
        return state, _hermitian_value(a), _hermitian_value(b)


def density_from_decomposition(eigenvalues, eigenvectors) -> DensityMatrix:
    """Build a density matrix from an ascending spectrum and a unitary frame.

    Keeps the given eigenvalues bit-exact (apart from renormalising their
    sum to one), which matters when a zero or a repeated eigenvalue is
    intended exactly.
    """
    vals = np.asarray(eigenvalues, dtype=float)
    frame = np.asarray(eigenvectors, dtype=complex)
    if vals.ndim != 1 or frame.shape != (vals.size, vals.size):
        raise DimensionMismatch("spectrum and frame shapes disagree")
    mat = _symmetrised((frame * vals) @ frame.conj().T)
    return DensityMatrix(mat, vals, frame)


def center(state: DensityMatrix, obs: HermitianMatrix) -> HermitianMatrix:
    """Shift ``obs`` by its expectation so the centred mean vanishes."""
    _check_same_dim(state, obs)
    return HermitianMatrix(_centred(state.mat, obs.mat))


def variance(state: DensityMatrix, obs: HermitianMatrix) -> float:
    """Return Tr[rho A0^2] for the centred observable A0, clamped at zero."""
    _check_same_dim(state, obs)
    a0 = _centred(state.mat, obs.mat)
    return max(float(_trace3(state.mat, a0, a0).real), 0.0)


# Einsum subscripts of Tr[rho X] and Tr[rho X Y], keyed by the number of
# axes of rho: one matrix, or a stack of them along a leading axis.  The
# subscripts are spelled out because ``...`` makes every call slower.
_TRACE2 = {2: "ij,ji->", 3: "nij,nji->n"}
_TRACE3 = {2: "ij,jk,ki->", 3: "nij,njk,nki->n"}


def _trace3(rho: np.ndarray, x: np.ndarray, y: np.ndarray):
    # Tr[rho X Y] of one instance, or per instance of a stack.
    return np.einsum(_TRACE3[rho.ndim], rho, x, y)


def _centred(rho: np.ndarray, obs: np.ndarray) -> np.ndarray:
    # The one centring routine, for one matrix or a stack of them: each
    # observable minus its expectation Tr[rho A] on the diagonal.  A real
    # shift of the diagonal keeps a Hermitian matrix Hermitian, so
    # internal callers skip re-validation.
    mean = np.einsum(_TRACE2[rho.ndim], rho, obs).real
    shifted = obs.copy()
    n = obs.shape[-1]
    diagonal = shifted.reshape(*obs.shape[:-2], n * n)[..., :: n + 1]
    diagonal -= mean[..., None]
    return shifted


def _check_same_dim(state: DensityMatrix, obs: HermitianMatrix) -> None:
    if state.dim != obs.dim:
        raise DimensionMismatch(f"state dim {state.dim} vs observable dim {obs.dim}")
