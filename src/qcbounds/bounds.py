"""The q-deformed bracket and the variance-product bounds built on it.

The deformed bracket ``[A,B]_q = AB - qBA`` interpolates between the
operator product (q=0), the commutator (q=1) and the anti-commutator
(q=-1); ``classify_q`` labels the regime of q each record carries.  For
observables A, B in state rho, the classical bound is Robertson's
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

The pass is one kernel, ``_trace_kernel``, over a stack of instances
(``hermitian._Instances``), read by one reader, ``_trace_rows``.
``verify`` and ``search`` run it once per stack and judge the master
inequality with ``_violated``; ``_traces`` runs a lone instance as a
one-row stack, with ``DensityMatrix.eigenvectors`` as its frame.  The
reader hands the kernel's columns on as Python numbers, so everything
after the kernel is Python float and complex arithmetic: the same bits
as on NumPy scalars, at about a quarter of the cost per bracket.  Each
field has one per-q path on top of the pass: ``_robertson``, ``_naive``
and ``_refined``, which the one-bound public functions call.  One scalar
layer, ``_reports``, evaluates and checks the fields that read no q
(``product`` and ``robertson``) once per instance, then loops over the q
values for the rest.  Each q there is one straight line of float
arithmetic with the same bits as those paths, which take the rare cases
(``_reports`` says which).  ``sweep_q`` hands ``_reports`` a whole grid;
``bound_report``, ``verify`` and ``search`` call its one-q case
``_report``.  The kernel's centring and trace routines, ``_centred`` and
``_trace3``, serve the public ``center`` and ``q_trace_term`` too, and
``variance`` is the pass's ``var_a``.

The six traces of the pass do not depend on each other.  When one of
them covers at least ``_SPLIT_TRIPLES = 2**16`` triple products (m n^3
for m instances of dim n: the full n = 16 and n = 32 batches of
``verify``, any instance at n >= 41) and the process may run on more
than one CPU, three of them run on a short-lived worker thread while the
calling thread runs the other three; ``np.einsum`` releases the GIL.
Each trace is the same einsum call either way, so the records keep
their bytes.  On a 2-core x86 box that took the kernel on an n = 32
batch of four from 2.79 to 1.78 ms (``BENCH_25.json`` has what it does
to ``verify`` at n = 32).  Smaller passes stay on one thread, where
starting one costs more than it saves.
"""

from __future__ import annotations

import enum
import math
import os
import threading
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateCoefficient,
    DimensionMismatch,
    DomainError,
    InvalidSpectrum,
    NonFinite,
)
from .hermitian import DensityMatrix, HermitianMatrix, _Instances

# Coefficient denominators below this magnitude are flagged infinite.
DEGENERATE_DENOMINATOR = 1e-14
# An infinite coefficient is legal only while the trace term is below this.
DEGENERATE_TERM = 1e-12
# Variance products below this floor report no tightness ratio.
RATIO_FLOOR = 1e-14
# Relative tolerance of search's master inequality check; verify's default.
MASTER_RTOL = 1e-9
# Stacks run through the trace kernel hold at most this many matrix
# entries, 64 KiB of complex128.  ``verify`` and ``search`` cut their
# batches to it: 256 instances at n = 4, four at n = 32.
_BATCH_ENTRIES = 4096
# _trace_kernel runs three of its six traces on a second thread once one
# trace covers this many triple products (m n^3).  Kernel alone, median of
# 40 on a 2-core x86 box, serial -> split: (m, n) = (4, 32) 2.79 -> 1.78
# ms, (16, 16) 1.77 -> 1.22 ms, (1, 64) 5.8 -> 4.4 ms, (64, 8) 0.99 ->
# 0.75 ms.  Below about 2**14 the thread's start and join (about 80 us)
# cost more than it saves: (64, 4) 0.24 -> 0.42 ms, (16, 8) 0.26 -> 0.40
# ms.  At 2**15 the n = 8 batches of a mixed-dim verify run were split
# too, for -0.6 % trials/s and +0.37 MiB peak RSS, so the cut sits at
# 2**16: n = 32 batches, n = 16 batches and any instance at n >= 41.
_SPLIT_TRIPLES = 2**16
# CPUs this process may run on, read once; with one, nothing is split.
_CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)
# ``verify``, ``sweep`` and ``search`` refuse, before allocating, a run
# whose draw stacks (one batch), whose reports or whose simplex and first
# round would pass this many bytes: ``verify --dims 20000`` would ask for
# 18 GiB of draws and ``search --n 64`` for two 1.1 GiB copies.
_MAX_ALLOC_BYTES = 2**30


class QRegime(enum.Enum):
    """Intervals of the deformation parameter, the regime label of each record."""

    POSITIVE_LEQ_ONE = "PositiveLeqOne"
    POSITIVE_GT_ONE = "PositiveGtOne"
    ZERO = "Zero"
    NEGATIVE_GEQ_MINUS_ONE = "NegativeGeqMinusOne"
    LT_MINUS_ONE = "LtMinusOne"


# The members again, for the scalar layer: on CPython 3.11 every attribute
# of an enum class is read through its metaclass's __getattr__ hook, at
# about 0.2 us a lookup, while one unpacking of this tuple reads all five.
_REGIMES = (
    QRegime.POSITIVE_LEQ_ONE,
    QRegime.ZERO,
    QRegime.NEGATIVE_GEQ_MINUS_ONE,
    QRegime.POSITIVE_GT_ONE,
    QRegime.LT_MINUS_ONE,
)


def classify_q(q: float) -> QRegime:
    """Classify a finite deformation parameter into its regime.

    The boundary values q = 1 and q = -1 belong to the inner regimes
    (``POSITIVE_LEQ_ONE`` and ``NEGATIVE_GEQ_MINUS_ONE``) because the
    unit-interval form of the bound covers them.
    """
    q = float(q)
    if not math.isfinite(q):
        raise NonFinite(f"q must be finite, got {q!r}")
    if q > 0.0:
        return QRegime.POSITIVE_LEQ_ONE if q <= 1.0 else QRegime.POSITIVE_GT_ONE
    if q < 0.0:
        return QRegime.NEGATIVE_GEQ_MINUS_ONE if q >= -1.0 else QRegime.LT_MINUS_ONE
    return QRegime.ZERO


def center(state: DensityMatrix, obs: HermitianMatrix) -> HermitianMatrix:
    """Shift ``obs`` by its expectation so the centred mean vanishes."""
    _check_same_dim(state, obs)
    return HermitianMatrix(_centred(state.mat[None], obs.mat[None])[0])


def variance(state: DensityMatrix, obs: HermitianMatrix) -> float:
    """Return Tr[rho A0^2] for the centred observable A0, clamped at zero."""
    return _traces(state, obs, obs).var_a


def q_trace_term(
    state: DensityMatrix, a0: HermitianMatrix, b0: HermitianMatrix, q: float
) -> complex:
    """Return Tr[rho (A0 B0 - q B0 A0)] by direct matrix products.

    Callers pass observables already centred against ``state``; the value
    is what the bound coefficients multiply, bit for bit, since the
    evaluation pass forms its traces through the same routine.  An
    eigenbasis-sum evaluation of the same number exists in the test suite
    as an independent oracle.
    """
    _check_same_dim(state, a0)
    _check_same_dim(state, b0)
    rho, x, y = state.mat[None], a0.mat[None], b0.mat[None]
    return complex(_trace3(rho, x, y)[0] - q * _trace3(rho, y, x)[0])


def robertson_bound(
    state: DensityMatrix, a: HermitianMatrix, b: HermitianMatrix
) -> float:
    """Return the classical lower bound, one quarter of |Tr[rho [A,B]]|^2.

    Centring drops out of a commutator trace, so the raw observables are
    used directly, unless their trace is not finite, as when a huge
    multiple of the identity overflows it; the centred observables give
    the trace then.
    """
    return _robertson(_traces(state, a, b))


def naive_q_bound(
    state: DensityMatrix, a: HermitianMatrix, b: HermitianMatrix, q: float
) -> float:
    """Return the unrefined deformed bound |Tr[rho [A0,B0]_|q|]|^2 / (1+|q|)^2."""
    classify_q(q)  # rejects non-finite q
    return _naive(_traces(state, a, b), abs(float(q)))


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
    t = _traces(state, a, b)
    q = float(q)
    classify_q(q)  # rejects non-finite q
    return _refined(t, q, abs(q))


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


def sweep_q(
    state: DensityMatrix, a: HermitianMatrix, b: HermitianMatrix, q_grid
) -> list[BoundReport]:
    """Evaluate one instance across a grid of q values, order preserved.

    One pass reads the instance, and its q-free fields are evaluated and
    checked once; each q is then O(1).  Raises what ``bound_report`` raises
    at the first grid point where it raises.
    """
    grid = [float(q) for q in q_grid]
    if not grid:
        raise DomainError("q grid must not be empty")
    return _reports(_traces(state, a, b), grid)


class _Traces(NamedTuple):
    """One row of the evaluation pass, which every bound reads."""

    dim: int
    var_a: float  # Tr[rho A0^2], clamped at zero
    var_b: float  # Tr[rho B0^2], clamped at zero
    # Python numbers, read off the kernel's columns by ``_trace_rows``, so
    # every per-q bracket F - |q| B is plain Python arithmetic.  It rounds
    # exactly as q_trace_term's NumPy scalars do: both multiply a float by
    # a complex as (x + 0j) * z, re re - im im and re im + im re, without
    # FMA, then subtract part by part.
    forward: complex  # Tr[rho A0 B0] of the centred observables
    backward: complex  # Tr[rho B0 A0]
    commutator: complex  # Tr[rho [A,B]] of the raw observables
    lambda_min: float
    lambda_max: float


def _robertson(t: _Traces) -> float:
    # robertson of the instance read by t.  A huge multiple of the identity
    # in an observable can overflow the raw trace to inf or NaN; the
    # centred F - B is the same number in exact arithmetic, and is read
    # only then, so every finite raw trace keeps its bytes.
    magnitude = _modulus(t.commutator)
    if not math.isfinite(magnitude):
        magnitude = _modulus(t.forward - t.backward)
    return 0.25 * _squared(magnitude)


def _naive(t: _Traces, aq: float) -> float:
    # naive_q at aq = |q|.
    if aq > 1.0:
        try:
            return _naive_form(aq, t.forward, t.backward)
        except (OverflowError, NonFinite):
            # A huge |q| overflows the direct form.  With p = 1/|q|,
            # |F - |q| B|^2 / (1 + |q|)^2 = |B - p F|^2 / (1 + p)^2.
            return _naive_form(1.0 / aq, t.backward, t.forward)
    return _naive_form(aq, t.forward, t.backward)


def _naive_form(aq: float, first: complex, second: complex) -> float:
    # |first - aq second|^2 / (1 + aq)^2.
    denominator = (1.0 + aq) ** 2
    return _squared(_modulus(first - aq * second)) / denominator


def _refined(t: _Traces, q: float, aq: float) -> float:
    # refined at a finite q with aq = |q|.
    if aq > 1.0:
        try:
            return _weighted(t, aq, t.backward, t.forward, q)
        except (OverflowError, NonFinite):
            # A huge |q| overflows the direct form.  With p = 1/|q|,
            # C(|q|) |B - |q| F|^2 = C(p) |F - p B|^2.
            return _weighted(t, 1.0 / aq, t.forward, t.backward, q)
    return _weighted(t, aq, t.forward, t.backward, q)


def _weighted(
    t: _Traces, aq: float, first: complex, second: complex, q: float
) -> float:
    # C(aq) |first - aq second|^2.  The coefficient comes first, so a |q|
    # that overflows it never forms the bracket.  An infinite coefficient
    # is tested before the square is formed, so a large term raises
    # DegenerateCoefficient, not NonFinite.
    coefficient = _coefficient(aq, t.lambda_min, t.lambda_max)
    magnitude = _modulus(first - aq * second)
    if math.isinf(coefficient):
        if magnitude < DEGENERATE_TERM:
            return 0.0
        raise DegenerateCoefficient(
            f"infinite coefficient with trace term {magnitude!r} at q={q!r}"
        )
    return coefficient * _squared(magnitude)


def _modulus(z: complex) -> float:
    # A trace term with finite parts can have a modulus past the float
    # range, and Python's abs then raises OverflowError; report it as a
    # qcbounds error instead, as _squared does for the square.
    try:
        return abs(z)
    except OverflowError:
        # CPython 3.11's abs leaves errno as it was for a term with a NaN
        # part, and raises when an earlier overflow left it at ERANGE.
        # Such a modulus is NaN, as abs gives it with errno clear.
        if math.isnan(z.real) or math.isnan(z.imag):
            return math.nan
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
    # The pass over one instance, run as a one-row stack.
    _check_same_dim(state, a)
    _check_same_dim(state, b)
    instance = (state.mat, state.eigenvalues, state.eigenvectors, a.mat, b.mat)
    return next(_trace_rows(_Instances(*[arr[None] for arr in instance])))


def _check_same_dim(state: DensityMatrix, obs: HermitianMatrix) -> None:
    if state.dim != obs.dim:
        raise DimensionMismatch(f"state dim {state.dim} vs observable dim {obs.dim}")


def _batch_rows(n: int) -> int:
    # The rows of one stack of n x n instances under _BATCH_ENTRIES, at
    # least one.
    return max(1, _BATCH_ENTRIES // n**2)


def _trace_rows(stack: _Instances) -> Iterator[_Traces]:
    """Yield the ``_Traces`` of each instance of ``stack``, in order.

    The one reader of the kernel's columns: each becomes Python numbers in
    one ``tolist`` call, cheaper than a NumPy scalar per entry, and the
    variances are clamped at zero here.  Row ``i`` equals the row of
    ``stack.row(i)`` run alone bit for bit, in value and in type.
    """
    dim = stack.rho.shape[-1]
    columns = _trace_kernel(stack.rho, stack.vals, stack.a, stack.b)
    for second_a, second_b, *rest in zip(*[column.tolist() for column in columns]):
        yield _Traces(dim, max(second_a, 0.0), max(second_b, 0.0), *rest)


def _trace_kernel(rho, vals, a, b) -> tuple:
    # The one evaluation pass, over (m, n, n) stacks and their (m, n)
    # spectra.  Returns the length-m columns second moments of A0 and B0,
    # Tr[rho A0 B0], Tr[rho B0 A0], Tr[rho [A,B]], lambda_min and
    # lambda_max.  The six traces are independent.  Where one covers
    # _SPLIT_TRIPLES triple products (m n^3) and a second CPU is
    # available, _split_traces makes the same six einsum calls on two
    # threads, so every column keeps its bytes.
    a0 = _centred(rho, a)
    b0 = _centred(rho, b)
    pairs = ((a0, a0), (b0, b0), (a0, b0), (b0, a0), (a, b), (b, a))
    if _CPUS > 1 and rho.size * rho.shape[-1] >= _SPLIT_TRIPLES:
        traces = _split_traces(rho, pairs)
    else:
        traces = [_trace3(rho, x, y) for x, y in pairs]
    second_a, second_b, forward, backward, raw_ab, raw_ba = traces
    return (
        second_a.real,
        second_b.real,
        forward,
        backward,
        raw_ab - raw_ba,
        vals[:, 0],
        vals[:, -1],
    )


def _trace3(rho: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Tr[rho X Y] per instance of (m, n, n) stacks.  The subscripts are
    # spelled out because ``...`` makes every call slower.
    return np.einsum("nij,njk,nki->n", rho, x, y)


def _centred(rho: np.ndarray, obs: np.ndarray) -> np.ndarray:
    # The one centring routine, over (m, n, n) stacks: each observable
    # minus its expectation Tr[rho A] on the diagonal.  A real shift of
    # the diagonal keeps a Hermitian matrix Hermitian, so internal callers
    # skip re-validation.
    mean = np.einsum("nij,nji->n", rho, obs).real
    shifted = obs.copy()
    m, n = obs.shape[:2]
    diagonal = shifted.reshape(m, n * n)[:, :: n + 1]
    diagonal -= mean[:, None]
    return shifted


def _split_traces(rho, pairs) -> list:
    # _trace3 of each (x, y) of ``pairs``, the last three on a worker
    # thread while this thread runs the first three; np.einsum releases
    # the GIL.  The worker runs nothing but _trace3: np.errstate is
    # per-thread, so every step that can raise or warn on a floating-point
    # error stays on the calling thread.  The worker's exception, if any,
    # is raised here after the join.
    theirs: list = []
    failure: list = []

    def work() -> None:
        try:
            theirs.extend(_trace3(rho, x, y) for x, y in pairs[3:])
        except BaseException as exc:  # handed to the calling thread
            failure.append(exc)

    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    try:
        mine = [_trace3(rho, x, y) for x, y in pairs[:3]]
    finally:
        worker.join()
    if failure:
        raise failure[0]
    return mine + theirs


def _report(t: _Traces, q: float) -> BoundReport:
    """Return the ``BoundReport`` of the instance read by ``t`` at ``q``.

    The one-q case of ``_reports``, which ``bound_report``, ``verify`` and
    ``search`` evaluate once per instance.
    """
    return _reports(t, (q,))[0]


def _reports(t: _Traces, qs) -> list[BoundReport]:
    """Return the ``BoundReport`` of the instance read by ``t`` at each q.

    The scalar layer of ``bound_report``, ``sweep_q``, ``verify`` and
    ``search``.  ``product`` and ``robertson`` read no q, so they are
    evaluated and checked once per call.  Each q is then classified, which
    also rejects a non-finite q, and gives ``refined`` and ``naive_q``.  At
    each q the errors come in one order, as if every field were evaluated
    afresh: what ``refined``, ``robertson`` and ``naive_q`` raise, in that
    order, then ``NonFinite`` when ``product``, ``robertson``, ``naive_q``
    or ``refined`` (checked in that order) is not a finite float.  So a
    q-free error found once is raised at the first q whose ``refined``
    does not raise first.

    Where both q-free fields are finite, each q runs as one straight line
    of float arithmetic: each value is formed by the expressions of
    ``_coefficient``, ``_weighted`` and ``_naive_form``, operation for
    operation, so it has the same bits.  The line covers ``lambda_min = 0``
    and every coefficient whose denominator is finite and at least
    ``DEGENERATE_DENOMINATOR``; with eigenvalues at most 1 such a
    coefficient is finite, so ``_weighted``'s infinite branch is never
    skipped.  Everything else goes through ``_refined`` and ``_naive``, as
    the one-bound functions do: a smaller or overflowing denominator (an
    infinite coefficient, or the mirrored form of a huge |q|), an
    ``OverflowError`` anywhere in the line (a modulus or square past the
    float range, which those paths report or mirror), and a q-free field
    that is not finite.  There ``_naive`` forms ``|F - |q| B|^2`` again
    rather than sharing the square ``_refined`` weights: the same
    operations, so the same bits, and any error it could raise
    ``_refined`` has raised first.  ``tests/test_flat_reports.py`` keeps
    the loop as it was before the line, as the reference it must equal.
    """
    product = t.var_a * t.var_b
    try:
        robertson = _robertson(t)
        fault = None
    except NonFinite as exc:
        robertson, fault = math.nan, exc
    # Observables too large for a float give infinite or NaN fields, which
    # no record may carry; slack and ratio follow from the four checked.
    unfinite = _unfinite("product", product) or _unfinite("robertson", robertson)
    flat = fault is None and unfinite is None
    dim, var_a, var_b = t.dim, t.var_a, t.var_b
    forward, backward = t.forward, t.backward
    lambda_min, lambda_max = t.lambda_min, t.lambda_max
    isfinite = math.isfinite
    inf = math.inf
    # BoundReport's own __new__ is Python code; tuple.__new__ builds the
    # same named tuple, as its _make does.
    new = tuple.__new__
    positive, zero, negative, above, below = _REGIMES
    reports = []
    for q in qs:
        q = float(q)
        aq = abs(q)
        if aq <= 1.0:
            regime = positive if q > 0.0 else negative if q < 0.0 else zero
        elif aq < inf:
            regime = below if q < 0.0 else above
        else:
            regime = classify_q(q)  # raises NonFinite for NaN and +-inf
        refined = None
        if flat:
            try:
                spread = (1.0 + aq) ** 2
                square = abs(forward - aq * backward) ** 2
                if aq <= 1.0:
                    weighted = square
                    high = lambda_max + aq * lambda_min
                    low = lambda_max - aq * lambda_min
                else:
                    weighted = abs(backward - aq * forward) ** 2
                    high = aq * lambda_max + lambda_min
                    low = aq * lambda_max - lambda_min
                if lambda_min == 0.0:
                    refined = 1.0 / spread * weighted
                else:
                    denominator = spread * low**2
                    if DEGENERATE_DENOMINATOR <= denominator < inf:
                        refined = high**2 / denominator * weighted
                naive_q = square / spread
            except OverflowError:
                refined = None
        if refined is None:
            refined = _refined(t, q, aq)
            if fault is not None:
                raise fault
            naive_q = _naive(t, aq)
            if unfinite is not None:
                raise unfinite
        if not isfinite(naive_q):
            raise _unfinite("naive_q", naive_q)
        if not isfinite(refined):
            raise _unfinite("refined", refined)
        reports.append(
            new(
                BoundReport,
                (
                    dim,
                    q,
                    regime,
                    var_a,
                    var_b,
                    product,
                    lambda_min,
                    lambda_max,
                    robertson,
                    naive_q,
                    refined,
                    product - refined,
                    None if product < RATIO_FLOOR else refined / product,
                ),
            )
        )
    return reports


def _unfinite(name: str, value: float) -> NonFinite | None:
    # The error of a record field that is not a finite float, else None.
    if math.isfinite(value):
        return None
    return NonFinite(f"{name} is {value!r}, not a finite float")


def _violated(report: BoundReport, rtol: float) -> bool:
    """Return whether ``report`` breaks the master inequality at ``rtol``.

    The slack may fall below zero by ``rtol`` times the variance product,
    and by ``rtol`` absolutely where the product is below 1.
    """
    return report.slack < -rtol * max(1.0, report.product)
