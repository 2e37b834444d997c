"""Tightness exploration: how close does the refined bound get to the product?

``maximize_tightness`` runs a multi-start Nelder-Mead simplex search over
an unconstrained parametrization of (state, A, B) at fixed q, maximising
refined bound / variance product.  Every evaluation doubles as a stress
test of the master inequality; a violation aborts the search with the
offending instance attached to the raised error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .bounds import BoundReport, _report, _traces, bound_report
from .errors import (
    BudgetZero,
    DomainError,
    InvalidDimension,
    MasterInequalityViolation,
)
from .generators import SeededRng
from .hermitian import (
    DensityMatrix,
    HermitianMatrix,
    _unchecked_density,
    _unchecked_hermitian,
)
from .instances import instance_payload

# Relative tolerance of the in-search master inequality check.
MASTER_RTOL = 1e-9
# A restart stops once its simplex diameter shrinks below this.
SIMPLEX_DIAMETER_TOL = 1e-8
# Initial simplex edge length around each random start.
SIMPLEX_STEP = 0.5
# Budget is split evenly over max(4, budget // RESTART_SHARE) restarts.
RESTART_SHARE = 2000


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


def tightness_ratio(
    state: DensityMatrix, a: HermitianMatrix, b: HermitianMatrix, q: float
) -> float | None:
    """Return refined bound / variance product, or None below the floor."""
    return bound_report(state, a, b, q).ratio


def sweep_q(
    state: DensityMatrix,
    a: HermitianMatrix,
    b: HermitianMatrix,
    q_grid,
) -> list[BoundReport]:
    """Evaluate one instance across a grid of q values, order preserved."""
    grid = [float(q) for q in q_grid]
    if not grid:
        raise DomainError("q grid must not be empty")
    traces = _traces(state, a, b)  # one pass; each q is then O(1)
    return [_report(traces, q) for q in grid]


def maximize_tightness(
    n: int, q: float, budget: int, rng: SeededRng
) -> SearchResult:
    """Search for instances where the refined bound nears the product.

    Parameters
    ----------
    n : int
        Matrix dimension, at least 2.
    q : float
        Fixed deformation parameter.
    budget : int
        Total number of instance evaluations allowed, split evenly over
        ``max(4, budget // 2000)`` random restarts.
    rng : SeededRng
        Restart ``r`` draws its start point from ``rng.split(r)``, so the
        result is deterministic for a fixed seed regardless of scheduling.

    Returns
    -------
    SearchResult
        Best ratio found, the instance achieving it, evaluations spent,
        and the improvement trajectory.
    """
    if n < 2:
        raise InvalidDimension(f"n must be >= 2, got {n}")
    if budget < 1:
        raise BudgetZero(f"budget must be >= 1, got {budget}")
    q = float(q)

    state_best: dict = {"score": -np.inf, "instance": None}
    evals = [0]
    trajectory: list[tuple[int, float]] = []

    def evaluate(theta: np.ndarray) -> float:
        state, a, b = _decode(theta, n)
        report = bound_report(state, a, b, q)
        if report.slack < -MASTER_RTOL * max(1.0, report.product):
            raise MasterInequalityViolation(_violation_message(report, state, a, b))
        evals[0] += 1
        score = 0.0 if report.ratio is None else report.ratio
        if score > state_best["score"]:
            state_best["score"] = score
            state_best["instance"] = (state, a, b, q)
            trajectory.append((evals[0], score))
        return score

    dim_theta = n + 3 * n * n
    restarts = max(4, budget // RESTART_SHARE)
    share, extra = divmod(budget, restarts)
    for r in range(restarts):
        allowance = share + (1 if r < extra else 0)
        if allowance == 0:
            continue
        start = rng.split(r).generator().standard_normal(dim_theta)
        _nelder_mead_max(evaluate, start, allowance)

    return SearchResult(
        best_ratio=float(state_best["score"]),
        best_instance=state_best["instance"],
        evaluations=evals[0],
        trajectory=tuple(trajectory),
    )


def _decode(
    theta: np.ndarray, n: int
) -> tuple[DensityMatrix, HermitianMatrix, HermitianMatrix]:
    # Spectrum via softmax (stays inside the simplex, so states are
    # faithful), eigenframe via the unitary exponential of a Hermitian
    # matrix, observables as raw Hermitian coordinate vectors.
    k = n * n
    logits = theta[:n]
    shifted = np.exp(logits - logits.max())
    spectrum = np.sort(shifted / shifted.sum())
    frame = _unitary_from_reals(theta[n : n + k], n)
    a = _unchecked_hermitian(_hermitian_from_reals(theta[n + k : n + 2 * k], n))
    b = _unchecked_hermitian(_hermitian_from_reals(theta[n + 2 * k :], n))
    return _unchecked_density(spectrum, frame), a, b


def _hermitian_from_reals(vec: np.ndarray, n: int) -> np.ndarray:
    # Coordinate layout of the n*n reals: vec[:n] is the real diagonal,
    # then one (Re m_ij, Im m_ij) pair per i < j in row-major order; m_ji
    # is the conjugate of m_ij.  Entries are written as real and imaginary
    # parts through the matrix's float view, never as ``re + 1j*im``, so a
    # -0.0 or huge coordinate lands exactly as ``complex(re, im)`` puts it.
    dest, src, sign = _scatter_plan(n)
    flat = np.zeros(2 * n * n)
    flat[dest] = vec[src] * sign
    return flat.view(complex).reshape(n, n)


@cache
def _scatter_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Index arrays of _hermitian_from_reals: float-view position, source
    # coordinate and sign (-1 only for Im m_ji) of every nonzero part.
    rows, cols = np.triu_indices(n, 1)
    pairs = n + 2 * np.arange(rows.size)
    diag = 2 * (n + 1) * np.arange(n)
    upper = 2 * (rows * n + cols)
    lower = 2 * (cols * n + rows)
    dest = np.concatenate((diag, upper, upper + 1, lower, lower + 1))
    src = np.concatenate((np.arange(n), pairs, pairs + 1, pairs, pairs + 1))
    sign = np.ones(dest.size)
    sign[dest.size - rows.size :] = -1.0
    for arr in (dest, src, sign):
        arr.setflags(write=False)
    return dest, src, sign


def _unitary_from_reals(vec: np.ndarray, n: int) -> np.ndarray:
    herm = _hermitian_from_reals(vec, n)
    try:
        w, v = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:
        # Non-finite coordinates stop eigh from converging.
        raise DomainError(f"frame coordinates give no eigenbasis: {exc}") from exc
    return (v * np.exp(1j * w)) @ v.conj().T


class _BudgetExhausted(Exception):
    pass


def _nelder_mead_max(evaluate, start: np.ndarray, max_evals: int) -> None:
    # Standard reflect/expand/contract/shrink simplex, maximising by
    # minimising the negated score, with a hard cap on evaluations.
    used = [0]

    def f(x: np.ndarray) -> float:
        if used[0] >= max_evals:
            raise _BudgetExhausted
        used[0] += 1
        return -evaluate(x)

    d = start.size
    alpha, gamma, beta, delta = 1.0, 2.0, 0.5, 0.5
    try:
        verts = [np.array(start)]
        vals = [f(start)]
        for i in range(d):
            vertex = np.array(start)
            vertex[i] += SIMPLEX_STEP
            verts.append(vertex)
            vals.append(f(vertex))
        verts = np.array(verts)
        vals = np.array(vals)
        while True:
            order = np.argsort(vals, kind="stable")
            verts, vals = verts[order], vals[order]
            diameter = float(np.max(np.abs(verts[1:] - verts[0])))
            if diameter < SIMPLEX_DIAMETER_TOL:
                break
            centroid = verts[:-1].mean(axis=0)
            reflected = centroid + alpha * (centroid - verts[-1])
            f_reflected = f(reflected)
            if f_reflected < vals[0]:
                expanded = centroid + gamma * (reflected - centroid)
                f_expanded = f(expanded)
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
                f_contracted = f(contracted)
                if f_contracted < min(f_reflected, vals[-1]):
                    verts[-1], vals[-1] = contracted, f_contracted
                else:
                    for i in range(1, d + 1):
                        verts[i] = verts[0] + delta * (verts[i] - verts[0])
                        vals[i] = f(verts[i])
    except _BudgetExhausted:
        return


def _violation_message(
    report: BoundReport, state: DensityMatrix, a: HermitianMatrix, b: HermitianMatrix
) -> str:
    payload = instance_payload(state, a, b)
    payload["q"] = report.q
    payload["refined"] = report.refined
    payload["product"] = report.product
    return f"master inequality violated: {payload!r}"
