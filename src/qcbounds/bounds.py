"""Variance-product lower bounds weighted by the state's spectrum.

For observables A, B in state rho, the classical bound is Robertson's
quarter-squared commutator trace.  Its q-deformed generalisation carries
the prefactor 1/(1+|q|)^2, and the refinement implemented here sharpens
that prefactor using the extreme eigenvalues of rho:

    |q| <= 1:  (l_max + |q| l_min)^2 / [(1+|q|)^2 (l_max - |q| l_min)^2]
    |q| >  1:  (|q| l_max + l_min)^2 / [(1+|q|)^2 (|q| l_max - l_min)^2]

multiplying |Tr[rho [A0,B0]_|q|]|^2 for the centred observables, with the
operands swapped for |q| > 1; negative q needs only |q|, since
{A,B}_q = [A,B]_{-q}.  All bounds read one pass per instance (variances,
Tr[rho A0 B0], Tr[rho B0 A0], the raw commutator trace, extreme
eigenvalues), so each further q costs O(1).  ``bound_report`` evaluates
every bound on one instance; it is the record the CLI streams out.
Values past the float range raise ``NonFinite``, never a bare
``OverflowError``.  Tests check the proof steps behind the bound.

The pass is one kernel, ``_trace_kernel``, that takes one instance or a
stack of them.  ``_traces`` runs it on one instance; ``verify`` and
``search`` run it once per stack of instances (``hermitian._Instances``)
through ``_trace_rows``, build each report from its row with the same
scalar ``_report`` and judge the master inequality with ``_violated``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

# Nothing here calls q_trace_term: the name stays bound for the traced
# benchmark runs, which hook ``bounds.q_trace_term`` (perfbench/spans.py).
from .algebra import QRegime, classify_q, q_trace_term  # noqa: F401
from .errors import DegenerateCoefficient, InvalidSpectrum, NonFinite
from .hermitian import (
    DensityMatrix,
    HermitianMatrix,
    _centred,
    _check_same_dim,
    _Instances,
    _trace3,
)

# Coefficient denominators below this magnitude are flagged infinite.
DEGENERATE_DENOMINATOR = 1e-14
# An infinite coefficient is legal only while the trace term is below this.
DEGENERATE_TERM = 1e-12
# Variance products below this floor report no tightness ratio.
RATIO_FLOOR = 1e-14
# Stacks run through the trace kernel hold at most this many matrix
# entries, 64 KiB of complex128.  ``verify`` and ``search`` cut their
# batches to it: 256 instances at n = 4, four at n = 32.
_BATCH_ENTRIES = 4096


def robertson_bound(
    state: DensityMatrix, a: HermitianMatrix, b: HermitianMatrix
) -> float:
    """Return the classical lower bound, one quarter of |Tr[rho [A,B]]|^2.

    Centring drops out of a commutator trace, so the raw observables are
    used directly.
    """
    return _traces(state, a, b).robertson()


def naive_q_bound(
    state: DensityMatrix, a: HermitianMatrix, b: HermitianMatrix, q: float
) -> float:
    """Return the unrefined deformed bound |Tr[rho [A0,B0]_|q|]|^2 / (1+|q|)^2."""
    classify_q(q)  # rejects non-finite q
    return _traces(state, a, b).naive(abs(float(q)))


def refined_coefficient(q: float, lambda_min: float, lambda_max: float) -> float:
    """Return the spectrum-weighted prefactor of the refined bound.

    Parameters
    ----------
    q : float
        Deformation parameter; only |q| enters.
    lambda_min, lambda_max : float
        Extreme eigenvalues of the state, ``0 <= lambda_min <= lambda_max``
        with ``lambda_max`` positive and finite; anything else, NaN
        included, raises ``InvalidSpectrum``.

    Returns
    -------
    float
        The branch value for |q| <= 1 or |q| > 1 as in the module
        docstring.  At ``lambda_min == 0`` both branches collapse
        algebraically to ``1/(1+|q|)^2``, which is returned exactly.
        ``math.inf`` flags a denominator magnitude below
        ``DEGENERATE_DENOMINATOR``.  Where the |q| > 1 branch overflows
        (|q| past about 1e77), the value is ``C(1/|q|) / |q|^2``, the
        same number in a form that stays in range.
    """
    classify_q(q)  # rejects non-finite q
    aq = abs(float(q))
    if not (0.0 <= lambda_min <= lambda_max < math.inf) or lambda_max <= 0.0:
        raise InvalidSpectrum(
            f"need 0 <= lambda_min <= lambda_max < inf with lambda_max > 0, "
            f"got ({lambda_min!r}, {lambda_max!r})"
        )
    try:
        return _coefficient(aq, lambda_min, lambda_max)
    except OverflowError:
        # Only a huge |q| gets here.  The branches mirror each other:
        # C(|q|) = C(1/|q|) / |q|^2.
        return _coefficient(1.0 / aq, lambda_min, lambda_max) / aq / aq


def _coefficient(aq: float, lambda_min: float, lambda_max: float) -> float:
    # The branch value at |q| = aq, as written in the module docstring.
    # Raises OverflowError where a huge aq overflows it, either from ** or
    # as an infinite denominator that would round the value to 0.
    if lambda_min == 0.0:
        # The extreme-eigenvalue weights cancel; no rounding allowed here.
        return 1.0 / (1.0 + aq) ** 2
    if aq <= 1.0:
        numerator = (lambda_max + aq * lambda_min) ** 2
        denominator = (1.0 + aq) ** 2 * (lambda_max - aq * lambda_min) ** 2
    else:
        numerator = (aq * lambda_max + lambda_min) ** 2
        denominator = (1.0 + aq) ** 2 * (aq * lambda_max - lambda_min) ** 2
        if math.isinf(denominator):
            raise OverflowError("coefficient denominator overflows")
    if denominator < DEGENERATE_DENOMINATOR:
        return math.inf
    return numerator / denominator


def refined_q_bound(
    state: DensityMatrix, a: HermitianMatrix, b: HermitianMatrix, q: float
) -> float:
    """Return the eigenvalue-weighted lower bound on V(A) V(B).

    That is ``refined_coefficient(|q|)`` times |Tr[rho [A0,B0]_|q|]|^2,
    with A0 and B0 swapped when |q| > 1.  Negative q needs only |q|,
    because {A0,B0}_q = [A0,B0]_|q| for q < 0; q = 0 gives |Tr[rho A0 B0]|^2.

    A coefficient denominator below ``DEGENERATE_DENOMINATOR`` flags the
    coefficient infinite.  The bound is then zero while the modulus of the
    matching trace term is below ``DEGENERATE_TERM``, and
    ``DegenerateCoefficient`` is raised when it is at least that.  Valid
    input reaches both, on near-uniform spectra at |q| close to 1, where
    the bound is finite.  Where a huge |q| overflows the |q| > 1 form, the
    bound is evaluated as the equal
    ``refined_coefficient(1/|q|) |Tr[rho [A0,B0]_(1/|q|)]|^2``.
    """
    return _traces(state, a, b).refined(float(q))


class BoundReport(NamedTuple):
    """Every bound evaluated on one (state, A, B, q) instance.

    ``refined`` is ``refined_q_bound`` at ``q``, including at q = 1;
    ``ratio`` is None when the variance product sits below ``RATIO_FLOOR``.
    An immutable named tuple: its fields read by name or by position, in
    the order below.  The CLI records order the same fields as
    ``cli.CSV_COLUMNS`` does, with ``lambda_min`` and ``lambda_max``
    before ``var_a``.
    """

    dim: int
    q: float
    regime: QRegime
    var_a: float
    var_b: float
    product: float
    lambda_min: float
    lambda_max: float
    robertson: float
    naive_q: float
    refined: float
    slack: float
    ratio: float | None


def bound_report(
    state: DensityMatrix, a: HermitianMatrix, b: HermitianMatrix, q: float
) -> BoundReport:
    """Evaluate all bounds on one instance and package them consistently.

    Raises ``NonFinite`` when a field would not be a finite float, as for
    observables whose variance product overflows.
    """
    return _report(_traces(state, a, b), q)


class _Traces(NamedTuple):
    """One evaluation pass over an instance, which every bound reads."""

    dim: int
    var_a: float
    var_b: float
    # NumPy scalars, so each bracket rounds exactly as in q_trace_term.
    forward: complex  # Tr[rho A0 B0] of the centred observables
    backward: complex  # Tr[rho B0 A0]
    commutator: complex  # Tr[rho [A,B]] of the raw observables
    lambda_min: float
    lambda_max: float

    def robertson(self) -> float:
        return 0.25 * _squared(_modulus(self.commutator))

    def naive(self, aq: float) -> float:
        if aq > 1.0:
            try:
                return _naive(aq, self.forward, self.backward)
            except (OverflowError, NonFinite):
                # A huge |q| overflows the direct form.  With p = 1/|q|,
                # |F - |q| B|^2 / (1 + |q|)^2 = |B - p F|^2 / (1 + p)^2.
                return _naive(1.0 / aq, self.backward, self.forward)
        return _naive(aq, self.forward, self.backward)

    def refined(self, q: float) -> float:
        classify_q(q)  # rejects non-finite q
        return self._refined(q, abs(q))

    def _refined(self, q: float, aq: float) -> float:
        # refined at a finite q with aq = |q|.
        if aq > 1.0:
            try:
                return self._weighted(aq, self.backward, self.forward, q)
            except (OverflowError, NonFinite):
                # A huge |q| overflows the direct form.  With p = 1/|q|,
                # C(|q|) |B - |q| F|^2 = C(p) |F - p B|^2.
                return self._weighted(1.0 / aq, self.forward, self.backward, q)
        return self._weighted(aq, self.forward, self.backward, q)

    def _weighted(self, aq: float, first, second, q: float) -> float:
        # C(aq) |first - aq second|^2.  The coefficient comes first, so a
        # |q| that overflows it never forms the bracket.
        coefficient = _coefficient(aq, self.lambda_min, self.lambda_max)
        magnitude = _modulus(complex(first - aq * second))
        if math.isinf(coefficient):
            if magnitude < DEGENERATE_TERM:
                return 0.0
            raise DegenerateCoefficient(
                f"infinite coefficient with trace term {magnitude!r} at q={q!r}"
            )
        return coefficient * _squared(magnitude)

    def _bounds(self, q: float, aq: float) -> tuple[float, float, float]:
        # refined, robertson and naive at a finite q with aq = |q|, raising
        # what refined, robertson and naive raise, in that order.  Where
        # |q| <= 1 and the coefficient is finite, refined and naive square
        # the same bracket |F - |q| B|, so it is formed and squared once.
        if aq <= 1.0:
            coefficient = _coefficient(aq, self.lambda_min, self.lambda_max)
            if not math.isinf(coefficient):
                sq = _squared(_modulus(complex(self.forward - aq * self.backward)))
                return coefficient * sq, self.robertson(), sq / (1.0 + aq) ** 2
        return self._refined(q, aq), self.robertson(), self.naive(aq)


def _naive(aq: float, first, second) -> float:
    # |first - aq second|^2 / (1 + aq)^2.
    denominator = (1.0 + aq) ** 2
    return _squared(_modulus(complex(first - aq * second))) / denominator


def _modulus(z: complex) -> float:
    # A trace term with finite parts can have a modulus past the float
    # range, and Python's abs then raises OverflowError; report it as a
    # qcbounds error instead, as _squared does for the square.
    try:
        return abs(z)
    except OverflowError:
        raise NonFinite(f"modulus of trace term {z!r} overflows") from None


def _squared(magnitude: float) -> float:
    # A finite trace term whose square overflows a float makes Python's **
    # raise OverflowError; report it as a qcbounds error instead.  An
    # infinite or NaN term squares to inf or NaN without raising.
    try:
        return magnitude**2
    except OverflowError:
        raise NonFinite(f"squared trace term {magnitude!r} overflows") from None


def _traces(state: DensityMatrix, a: HermitianMatrix, b: HermitianMatrix) -> _Traces:
    _check_same_dim(state, a)
    _check_same_dim(state, b)
    return _row(state.dim, _trace_kernel(state.mat, state.eigenvalues, a.mat, b.mat))


def _trace_rows(stack: _Instances) -> Iterator[_Traces]:
    """Yield the ``_Traces`` of each instance of ``stack``, in order.

    Row ``i`` equals ``_traces`` of ``stack.row(i)`` bit for bit.
    """
    dim = stack.rho.shape[-1]
    for row in zip(*_trace_kernel(stack.rho, stack.vals, stack.a, stack.b)):
        yield _row(dim, row)


def _trace_kernel(rho, vals, a, b) -> tuple:
    # The one evaluation pass, over one instance (2-D matrices, 1-D
    # spectrum) or a stack of them.  Returns the columns second moments of
    # A0 and B0, Tr[rho A0 B0], Tr[rho B0 A0], Tr[rho [A,B]], lambda_min
    # and lambda_max: NumPy scalars for one instance, arrays for a stack.
    a0 = _centred(rho, a)
    b0 = _centred(rho, b)
    return (
        _trace3(rho, a0, a0).real,
        _trace3(rho, b0, b0).real,
        _trace3(rho, a0, b0),
        _trace3(rho, b0, a0),
        _trace3(rho, a, b) - _trace3(rho, b, a),
        vals[..., 0],
        vals[..., -1],
    )


def _row(dim: int, row) -> _Traces:
    second_a, second_b, forward, backward, commutator, lambda_min, lambda_max = row
    return _Traces(
        dim=dim,
        var_a=max(float(second_a), 0.0),
        var_b=max(float(second_b), 0.0),
        forward=forward,
        backward=backward,
        commutator=complex(commutator),
        lambda_min=float(lambda_min),
        lambda_max=float(lambda_max),
    )


def _report(t: _Traces, q: float) -> BoundReport:
    """Return the ``BoundReport`` of the instance read by ``t`` at ``q``.

    The scalar layer of ``bound_report``, ``sweep_q`` and ``verify``.  It
    classifies q once, which also rejects a non-finite q, and takes the
    three bounds from one ``_Traces._bounds`` call.  Raises ``NonFinite``
    when ``product``, ``robertson``, ``naive_q`` or ``refined`` (checked in
    that order) is not a finite float.
    """
    q = float(q)
    regime = classify_q(q)
    product = t.var_a * t.var_b
    refined, robertson, naive_q = t._bounds(q, abs(q))
    # Observables too large for a float give infinite or NaN fields, which
    # no record may carry; slack and ratio follow from these four.
    for name, value in (
        ("product", product),
        ("robertson", robertson),
        ("naive_q", naive_q),
        ("refined", refined),
    ):
        if not math.isfinite(value):
            raise NonFinite(f"{name} is {value!r}, not a finite float")
    return BoundReport(
        t.dim,
        q,
        regime,
        t.var_a,
        t.var_b,
        product,
        t.lambda_min,
        t.lambda_max,
        robertson,
        naive_q,
        refined,
        product - refined,
        None if product < RATIO_FLOOR else refined / product,
    )


def _violated(report: BoundReport, rtol: float) -> bool:
    """Return whether ``report`` breaks the master inequality at ``rtol``.

    The slack may fall below zero by ``rtol`` times the variance product,
    and by ``rtol`` absolutely where the product is below 1.
    """
    return report.slack < -rtol * max(1.0, report.product)
