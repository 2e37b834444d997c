"""q-deformed commutator algebra and the trace functionals built on it.

The deformed bracket ``[A,B]_q = AB - qBA`` interpolates between the
operator product (q=0), the commutator (q=1), and the anti-commutator
(q=-1).  Everything here is a pure function of validated inputs.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .hermitian import DensityMatrix, HermitianMatrix


class QRegime(enum.Enum):
    """Intervals of the deformation parameter, the regime label of each record."""

    POSITIVE_LEQ_ONE = "PositiveLeqOne"
    POSITIVE_GT_ONE = "PositiveGtOne"
    ZERO = "Zero"
    NEGATIVE_GEQ_MINUS_ONE = "NegativeGeqMinusOne"
    LT_MINUS_ONE = "LtMinusOne"


def classify_q(q: float) -> QRegime:
    """Classify a finite deformation parameter into its regime.

    The boundary values q = 1 and q = -1 belong to the inner regimes
    (``POSITIVE_LEQ_ONE`` and ``NEGATIVE_GEQ_MINUS_ONE``) because the
    unit-interval form of the bound covers them.
    """
    q = float(q)
    if not math.isfinite(q):
        raise NonFinite(f"q must be finite, got {q!r}")
    if q == 0.0:
        return QRegime.ZERO
    if 0.0 < q <= 1.0:
        return QRegime.POSITIVE_LEQ_ONE
    if q > 1.0:
        return QRegime.POSITIVE_GT_ONE
    if -1.0 <= q < 0.0:
        return QRegime.NEGATIVE_GEQ_MINUS_ONE
    return QRegime.LT_MINUS_ONE


def _check_dims(a: HermitianMatrix, b: HermitianMatrix) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"operand dims differ: {a.dim} vs {b.dim}")


def q_commutator(a: HermitianMatrix, b: HermitianMatrix, q: float) -> np.ndarray:
    """Return AB - qBA.  Generally non-Hermitian; at q=1 it is skew-Hermitian."""
    _check_dims(a, b)
    return a.mat @ b.mat - q * (b.mat @ a.mat)


def q_trace_term(
    state: DensityMatrix, a0: HermitianMatrix, b0: HermitianMatrix, q: float
) -> complex:
    """Return Tr[rho (A0 B0 - q B0 A0)] by direct matrix products.

    Callers pass observables already centred against ``state``; the value
    is what the bound coefficients multiply.  An eigenbasis-sum evaluation
    of the same number exists in the test suite as an independent oracle.
    """
    _check_dims(a0, b0)
    if a0.dim != state.dim:
        raise DimensionMismatch(f"operand dim {a0.dim} vs state dim {state.dim}")
    forward = np.einsum("ij,jk,ki->", state.mat, a0.mat, b0.mat)
    backward = np.einsum("ij,jk,ki->", state.mat, b0.mat, a0.mat)
    return complex(forward - q * backward)
