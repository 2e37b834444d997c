"""Tightness exploration: how close does the refined bound get to the product?

``maximize_tightness`` runs a multi-start Nelder-Mead simplex search over
an unconstrained parametrization of (state, A, B) at fixed q, maximising
refined bound / variance product.  Every evaluation doubles as a stress
test of the master inequality; a violation aborts the search with a
``MasterInequalityViolation``, which holds the offending instance only as
text in its message.

Restart ``r`` starts from ``rng.split(r).generator().standard_normal(d)``
for its ``d`` coordinates, the same bits drawn by array code for a whole
wave at once (``generators._normals``), so a search builds no Generator
and never imports numpy.random.

The restarts run in waves: each wave holds as many restarts as
``_LOCKSTEP_FLOATS`` admits, and each step of every restart in it asks
for its points, which are decoded into one stack of instances
(``_decode_batch``, a ``hermitian._Instances``) and evaluated through
``bounds._trace_rows``, ``_report`` and ``_violated``, as ``verify``
evaluates its batches.  The result is the one the restarts would give
run one after another.  The q profile of one instance, ``sweep_q``,
lives in ``bounds`` beside the scalar layer it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .bounds import (
    _MAX_ALLOC_BYTES,
    MASTER_RTOL,
    BoundReport,
    _batch_rows,
    _report,
    _trace_rows,
    _violated,
    classify_q,
)

# Nothing here calls bound_report: the name stays bound for the traced
# benchmark runs, which hook ``search.bound_report`` (perfbench/spans.py).
from .bounds import bound_report  # noqa: F401
from .errors import (
    BudgetZero,
    DomainError,
    InvalidDimension,
    MasterInequalityViolation,
    QcboundsError,
)
from .generators import SeededRng, _normals
from .hermitian import (
    DensityMatrix,
    HermitianMatrix,
    _density_arrays,
    _Instances,
    _symmetrised,
)
from .instances import instance_payload

# A restart stops once its simplex diameter shrinks below this.
SIMPLEX_DIAMETER_TOL = 1e-8
# Initial simplex edge length around each random start.
SIMPLEX_STEP = 0.5
# Budget is split evenly over max(4, budget // RESTART_SHARE) restarts.
RESTART_SHARE = 2000
# One wave holds as many restarts as their simplices, (d + 1) * d floats
# each for d = n + 3 n^2 coordinates, fit in this many floats together
# (2 MiB): 95 restarts at n = 4, 6 at n = 8, one at a time from n = 11 on.
_LOCKSTEP_FLOATS = 2**18


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one tightness search.

    ``trajectory`` records (evaluation index, best ratio so far) at each
    improvement, so its ratios are non-decreasing.  ``best_instance`` is
    the (state, A, B, q) tuple that achieved ``best_ratio``.
    """

    best_ratio: float
    best_instance: tuple[DensityMatrix, HermitianMatrix, HermitianMatrix, float]
    evaluations: int
    trajectory: tuple[tuple[int, float], ...]


def maximize_tightness(
    n: int, q: float, budget: int, rng: SeededRng
) -> SearchResult:
    """Search for instances where the refined bound nears the product.

    Parameters
    ----------
    n : int
        Matrix dimension, at least 2, and small enough that the simplex
        and its first round fit in ``bounds._MAX_ALLOC_BYTES``.
    q : float
        Fixed deformation parameter, finite.
    budget : int
        Total number of instance evaluations allowed, split evenly over
        ``max(4, budget // 2000)`` random restarts.
    rng : SeededRng
        Restart ``r`` draws its start point from ``rng.split(r)``.

    Returns
    -------
    SearchResult
        Best ratio found, the instance achieving it, evaluations spent,
        and the improvement trajectory.

    Notes
    -----
    Each restart's simplex path depends only on its own scores, so the
    restarts run in waves, taken in restart order as many at a time as
    ``_LOCKSTEP_FLOATS`` admits.  A wave runs in lockstep, each round
    evaluating the points all its restarts ask for as one stack, until
    every restart in it has stopped.  The wave's evaluation counts,
    trajectories and best instances are then folded in restart order, so
    the result is the one of running the restarts one after another.  The
    first error in that order is raised and no later wave starts, as a
    violation or a failed decode would have ended the sequential run
    there.  An error ends its own restart only: the rest of its wave runs
    to its allowance first.  No search outside tests that inject errors
    meets one, so that work is not cut short.
    """
    if n < 2:
        raise InvalidDimension(f"n must be >= 2, got {n}")
    if budget < 1:
        raise BudgetZero(f"budget must be >= 1, got {budget}")
    q = float(q)
    classify_q(q)  # rejects non-finite q

    dim_theta = n + 3 * n * n
    # Refused before the first simplex is built: it and the first round's
    # points hold (d + 1) * d floats each.
    need = 2 * 8 * (dim_theta + 1) * dim_theta
    if need > _MAX_ALLOC_BYTES:
        raise InvalidDimension(
            f"n = {n} needs more than the {_MAX_ALLOC_BYTES / 2**30:g} GiB "
            f"limit for the simplex and its first round"
        )
    restarts = max(4, budget // RESTART_SHARE)
    share, extra = divmod(budget, restarts)
    # Restarts past the budget get no evaluation and are never started.
    stop = min(restarts, budget)
    window = max(1, _LOCKSTEP_FLOATS // ((dim_theta + 1) * dim_theta))
    cap = _batch_rows(n)

    best, instance, evals = -np.inf, None, 0
    trajectory: list[tuple[int, float]] = []
    for first in range(0, stop, window):
        indices = range(first, min(first + window, stop))
        starts = _normals([rng.split(r) for r in indices], dim_theta)
        wave = [
            _Restart(start, share + (r < extra))
            for r, start in zip(indices, starts)
        ]
        live = wave
        while live:
            _evaluate_round(live, n, q, cap)
            live = [restart for restart in live if restart.advance()]
        for restart in wave:
            if restart.error is not None:
                raise restart.error
            for used, score in restart.trajectory:
                if score > best:
                    best, instance = score, restart.instance
                    trajectory.append((evals + used, score))
            evals += restart.used

    return SearchResult(
        best_ratio=float(best),
        best_instance=(*instance, q),
        evaluations=evals,
        trajectory=tuple(trajectory),
    )


class _Restart:
    """One restart's simplex run, its pending points and its own bookkeeping.

    ``trajectory`` holds (evaluation index within the restart, score) at
    each rise of the restart's best score, and ``instance`` read-only
    copies of the arrays of the latest such row: only those rows can
    raise the best of the whole search.  ``error`` is the first error its
    evaluations raised, which ends the restart.
    """

    def __init__(self, start: np.ndarray, allowance: int) -> None:
        self.allowance = allowance
        self.used = 0
        self.best = -np.inf
        self.instance = None
        self.trajectory: list[tuple[int, float]] = []
        self.error: QcboundsError | None = None
        self.scores: list[float] = []
        self.steps = _nelder_mead_max(start)
        self._ask(next(self.steps))

    def _ask(self, request: np.ndarray) -> bool:
        # Pends the request, cut to the evaluations left.  The run stops
        # at the first evaluation past the allowance, so a request cut
        # short is the last; False when nothing is left to evaluate.
        self.points = request[: self.allowance - self.used]
        self.cut = len(self.points) < len(request)
        return len(self.points) > 0

    def take(self, outcome, decoded: _Instances | None, row: int) -> None:
        """Book one evaluated point, in the restart's own order."""
        if self.error is not None:
            return
        if isinstance(outcome, QcboundsError):
            self.error = outcome
            return
        self.used += 1
        self.scores.append(outcome)
        if outcome > self.best:
            self.best = outcome
            self.trajectory.append((self.used, outcome))
            self.instance = decoded.row(row)

    def advance(self) -> bool:
        """Send the scores of the evaluated points; False once the run ends."""
        if self.error is not None or self.cut:
            return False
        scores, self.scores = np.array(self.scores), []
        try:
            request = self.steps.send(scores)
        except StopIteration:
            return False
        return self._ask(request)


def _evaluate_round(live: list[_Restart], n: int, q: float, cap: int) -> None:
    # Every pending point of the live restarts, stacked in restart order,
    # evaluated in chunks of ``cap`` instances and booked to its restart.
    owners = [restart for restart in live for _ in range(len(restart.points))]
    thetas = np.concatenate([restart.points for restart in live])
    for lo in range(0, len(thetas), cap):
        outcomes = _outcomes(thetas[lo : lo + cap], n, q)
        for restart, (decoded, row, outcome) in zip(owners[lo : lo + cap], outcomes):
            restart.take(outcome, decoded, row)


def _outcomes(thetas: np.ndarray, n: int, q: float):
    """Yield ``(decoded, row, outcome)`` for each row of ``thetas``, in order.

    ``outcome`` is the score of the row's instance, its ratio or 0.0 when
    it has none, or the ``QcboundsError`` its evaluation raised: a
    ``DomainError`` from decoding, an error of ``_report``, or a
    ``MasterInequalityViolation`` carrying the instance.
    """
    try:
        decoded = _decode_batch(thetas, n)
    except DomainError as exc:
        if len(thetas) == 1:
            yield None, 0, exc
            return
        # A stacked eigh fails as a whole; decode row by row to find the
        # failing rows.
        for row in range(len(thetas)):
            yield from _outcomes(thetas[row : row + 1], n, q)
        return
    for row, t in enumerate(_trace_rows(decoded)):
        try:
            report = _report(t, q)
        except QcboundsError as exc:
            yield decoded, row, exc
            continue
        if _violated(report, MASTER_RTOL):
            message = _violation_message(report, *decoded.row(row))
            yield decoded, row, MasterInequalityViolation(message)
        else:
            yield decoded, row, 0.0 if report.ratio is None else report.ratio


def _decode_batch(thetas: np.ndarray, n: int) -> _Instances:
    # Spectrum via softmax (stays inside the simplex, so states are
    # faithful), eigenframe via the unitary exponential of a Hermitian
    # matrix, observables as raw Hermitian coordinate vectors.  Every
    # step acts row by row, so row i is bitwise the decode of thetas[i]
    # on its own.
    logits = thetas[:, :n]
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    spectra = np.sort(shifted / shifted.sum(axis=1, keepdims=True), axis=1)
    blocks = _hermitian_blocks(thetas, n)
    try:
        w, v = np.linalg.eigh(blocks[:, 0])
    except np.linalg.LinAlgError as exc:
        # Non-finite coordinates stop eigh from converging.
        raise DomainError(f"frame coordinates give no eigenbasis: {exc}") from exc
    frame = (v * np.exp(1j * w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    rho, vals = _density_arrays(spectra, frame)
    a, b = _symmetrised(blocks[:, 1]), _symmetrised(blocks[:, 2])
    return _Instances(rho, vals, frame, a, b)


def _hermitian_blocks(thetas: np.ndarray, n: int) -> np.ndarray:
    # The (m, 3, n, n) complex matrices of the frame, A and B coordinate
    # blocks of each row.  Layout of one block's n*n reals: the real
    # diagonal first, then one (Re m_ij, Im m_ij) pair per i < j in
    # row-major order; m_ji is the conjugate of m_ij.  Entries are written
    # as real and imaginary parts through the float view, never as
    # ``re + 1j*im``, so a -0.0 or huge coordinate lands exactly as
    # ``complex(re, im)`` puts it.
    dest, src, sign = _scatter_plan(n)
    flat = np.zeros((len(thetas), 6 * n * n))
    flat[:, dest] = thetas[:, src] * sign
    return flat.view(complex).reshape(len(thetas), 3, n, n)


@cache
def _scatter_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Index arrays of _hermitian_blocks: float-view position, coordinate
    # of theta and sign (-1 only for Im m_ji) of every nonzero part.
    k = n * n
    rows, cols = np.triu_indices(n, 1)
    pairs = n + 2 * np.arange(rows.size)
    diag = 2 * (n + 1) * np.arange(n)
    upper = 2 * (rows * n + cols)
    lower = 2 * (cols * n + rows)
    dest = np.concatenate((diag, upper, upper + 1, lower, lower + 1))
    src = np.concatenate((np.arange(n), pairs, pairs + 1, pairs, pairs + 1))
    sign = np.ones(dest.size)
    sign[dest.size - rows.size :] = -1.0
    dest = np.concatenate([dest + 2 * k * block for block in range(3)])
    src = np.concatenate([src + n + k * block for block in range(3)])
    sign = np.tile(sign, 3)
    for arr in (dest, src, sign):
        arr.setflags(write=False)
    return dest, src, sign


def _nelder_mead_max(start: np.ndarray):
    # Standard reflect/expand/contract/shrink simplex, maximising by
    # minimising the negated score.  A generator: it yields each stack of
    # points it needs, the initial simplex, one reflect, expand or
    # contract point, or the shrunk vertices, and is sent their scores.
    # It returns once the simplex diameter, the largest coordinate gap
    # between the best vertex and any other, falls below
    # SIMPLEX_DIAMETER_TOL; the caller caps the evaluations.  The worst
    # vertex's gap is tested first, in O(d): it is at most the diameter,
    # so when it is not below the tolerance neither is the diameter, and
    # the O(d^2) maximum over all vertices runs only when it is.  A NaN
    # fails either test.
    d = start.size
    alpha, gamma, beta, delta = 1.0, 2.0, 0.5, 0.5
    verts = np.tile(start, (d + 1, 1))
    verts[np.arange(1, d + 1), np.arange(d)] += SIMPLEX_STEP
    vals = -(yield verts)
    while True:
        order = vals.argsort(kind="stable")
        verts, vals = verts.take(order, axis=0), vals.take(order)
        if (
            abs(verts[-1] - verts[0]).max() < SIMPLEX_DIAMETER_TOL
            and abs(verts[1:] - verts[0]).max() < SIMPLEX_DIAMETER_TOL
        ):
            return
        # What .mean(axis=0) computes, a sum then a division by the
        # count, without its Python-level dispatch.
        centroid = np.add.reduce(verts[:-1], axis=0) / d
        reflected = centroid + alpha * (centroid - verts[-1])
        (f_reflected,) = -(yield reflected[None])
        if f_reflected < vals[0]:
            expanded = centroid + gamma * (reflected - centroid)
            (f_expanded,) = -(yield expanded[None])
            if f_expanded < f_reflected:
                verts[-1], vals[-1] = expanded, f_expanded
            else:
                verts[-1], vals[-1] = reflected, f_reflected
        elif f_reflected < vals[-2]:
            verts[-1], vals[-1] = reflected, f_reflected
        else:
            if f_reflected < vals[-1]:
                contracted = centroid + beta * (reflected - centroid)
            else:
                contracted = centroid + beta * (verts[-1] - centroid)
            (f_contracted,) = -(yield contracted[None])
            if f_contracted < min(f_reflected, vals[-1]):
                verts[-1], vals[-1] = contracted, f_contracted
            else:
                verts[1:] = verts[0] + delta * (verts[1:] - verts[0])
                vals[1:] = -(yield verts[1:])


def _violation_message(
    report: BoundReport, state: DensityMatrix, a: HermitianMatrix, b: HermitianMatrix
) -> str:
    payload = instance_payload(state, a, b)
    payload["q"] = report.q
    payload["refined"] = report.refined
    payload["product"] = report.product
    return f"master inequality violated: {payload!r}"
