"""The lockstep search gives the result of its restarts run one by one.

``reference_search`` is a copy of ``maximize_tightness`` and
``_nelder_mead_max`` as they were before the restarts ran in lockstep:
one evaluation at a time through ``bound_report``, the restarts one after
another, the budget enforced by an exception.  It decodes through the
test-side ``loop_decode``.  The search must match it in every field of
``SearchResult``, down to the bytes of the best instance, and must raise
the error it raises first.
"""

from collections import Counter

import numpy as np
import pytest

import qcbounds as qc
from qcbounds import search
from qcbounds.errors import DomainError, MasterInequalityViolation

from test_trust_boundary import arrays, loop_decode, parts


class _BudgetExhausted(Exception):
    pass


def reference_search(n, q, budget, rng, on_report=None):
    """The sequential search; ``on_report(restart, report)`` may replace
    each report before the master inequality check."""
    q = float(q)
    state_best = {"score": -np.inf, "instance": None}
    evals = [0]
    trajectory = []
    current = [0]

    def evaluate(theta):
        state, a, b = loop_decode(theta, n)
        report = qc.bound_report(state, a, b, q)
        if on_report is not None:
            report = on_report(current[0], report)
        if report.slack < -search.MASTER_RTOL * max(1.0, report.product):
            raise MasterInequalityViolation(
                search._violation_message(report, state, a, b)
            )
        evals[0] += 1
        score = 0.0 if report.ratio is None else report.ratio
        if score > state_best["score"]:
            state_best["score"] = score
            state_best["instance"] = (state, a, b, q)
            trajectory.append((evals[0], score))
        return score

    dim_theta = n + 3 * n * n
    restarts = max(4, budget // search.RESTART_SHARE)
    share, extra = divmod(budget, restarts)
    for r in range(restarts):
        allowance = share + (1 if r < extra else 0)
        if allowance == 0:
            continue
        current[0] = r
        start = rng.split(r).generator().standard_normal(dim_theta)
        reference_nelder_mead_max(evaluate, start, allowance)

    return qc.SearchResult(
        best_ratio=float(state_best["score"]),
        best_instance=state_best["instance"],
        evaluations=evals[0],
        trajectory=tuple(trajectory),
    )


def reference_nelder_mead_max(evaluate, start, max_evals):
    used = [0]

    def f(x):
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
            vertex[i] += search.SIMPLEX_STEP
            verts.append(vertex)
            vals.append(f(vertex))
        verts = np.array(verts)
        vals = np.array(vals)
        while True:
            order = np.argsort(vals, kind="stable")
            verts, vals = verts[order], vals[order]
            diameter = float(np.max(np.abs(verts[1:] - verts[0])))
            if diameter < search.SIMPLEX_DIAMETER_TOL:
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


def assert_same_result(got, want):
    assert repr(got.best_ratio) == repr(want.best_ratio)
    assert got.evaluations == want.evaluations
    assert got.trajectory == want.trajectory
    assert got.best_instance[3] == want.best_instance[3]
    for value, expected in zip(got.best_instance[:3], want.best_instance[:3]):
        assert parts(value) == parts(expected)
        assert all(arr.flags.writeable is False for arr in arrays(value))


def both(n, q, budget, seed):
    got = qc.maximize_tightness(n, q, budget, qc.SeededRng(seed))
    want = reference_search(n, q, budget, qc.SeededRng(seed))
    assert_same_result(got, want)
    return got


@pytest.mark.parametrize("q", [0.0, 1.0, -1.0, 0.5, 2.5])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lockstep_equals_sequential_loop(n, q):
    d = n + 3 * n * n
    # Budgets below 4 leave restarts without an evaluation; 7 and
    # 2 (d + 1) + 5 split unevenly and cut every initial simplex short;
    # 4 (d + 1) + 37 runs simplex steps and cuts them at uneven points.
    for budget in (1, 3, 7, 2 * (d + 1) + 5, 4 * (d + 1) + 37):
        both(n, q, budget, seed=budget + n)


@pytest.mark.parametrize(
    "n, q, budget, seed, shrinks, evaluations",
    [
        # Two shrink steps; the budget ends the search.
        (2, 1.0, 600, 1, 2, 600),
        # Every restart's simplex collapses before its allowance is spent.
        (2, 0.0, 4000, 0, 22, 3294),
    ],
)
def test_lockstep_equals_sequential_loop_through_shrinks(
    monkeypatch, n, q, budget, seed, shrinks, evaluations
):
    requests = []
    plain = search._nelder_mead_max

    def counting(start):
        steps = plain(start)
        request = next(steps)
        while True:
            requests.append(len(request))
            try:
                request = steps.send((yield request))
            except StopIteration:
                return

    monkeypatch.setattr(search, "_nelder_mead_max", counting)
    result = both(n, q, budget, seed)
    d = n + 3 * n * n
    assert requests.count(d) == shrinks
    assert result.evaluations == evaluations


@pytest.mark.parametrize("window", [1, 3])
@pytest.mark.parametrize("n, budget", [(2, 200), (3, 601)])
def test_lockstep_equals_sequential_loop_with_restarts_waiting(
    monkeypatch, window, n, budget
):
    # More restarts than the in-flight bound admits: the rest wait for a
    # slot, and each joins as an earlier one ends.
    d = n + 3 * n * n
    monkeypatch.setattr(search, "_LOCKSTEP_FLOATS", window * (d + 1) * d)
    both(n, 0.5, budget, seed=window)


def test_large_n_runs_one_restart_at_a_time():
    # At n = 16 one simplex exceeds the in-flight bound by itself.
    d = 16 + 3 * 16 * 16
    assert search._LOCKSTEP_FLOATS < (d + 1) * d
    both(16, 0.5, 45, seed=3)


def report_key(report):
    return (report.var_a, report.var_b, report.lambda_min, report.lambda_max)


def inflated(report):
    refined = 2.0 * report.product + 1.0
    return report._replace(refined=refined, slack=report.product - refined)


@pytest.mark.parametrize("window", [None, 1])
def test_violation_order_follows_the_sequential_loop(monkeypatch, window):
    n, q, budget, seed = 2, 0.5, 800, 4
    if window is not None:
        d = n + 3 * n * n
        monkeypatch.setattr(search, "_LOCKSTEP_FLOATS", window * (d + 1) * d)
    # Which restart evaluates which instance, and at which of its steps.
    owner = {}
    steps = Counter()

    def record(restart, report):
        owner.setdefault(report_key(report), (restart, steps[restart]))
        steps[restart] += 1
        return report

    reference_search(n, q, budget, qc.SeededRng(seed), on_report=record)
    # In lockstep, restarts 2 and 3 reach their inflated rows before
    # restart 1 does; run one by one, restart 1 comes first.
    first_inflated = {1: 120, 2: 10, 3: 60}
    hits = []

    def inflate(report):
        restart, step = owner.get(report_key(report), (None, 0))
        if restart in first_inflated and step >= first_inflated[restart]:
            hits.append((restart, step))
            return inflated(report)
        return report

    with pytest.raises(MasterInequalityViolation) as want:
        reference_search(
            n, q, budget, qc.SeededRng(seed), on_report=lambda r, rep: inflate(rep)
        )
    assert hits == [(1, 120)]

    honest = search._report
    monkeypatch.setattr(search, "_report", lambda t, q: inflate(honest(t, q)))
    with pytest.raises(MasterInequalityViolation) as got:
        qc.maximize_tightness(n, q, budget, qc.SeededRng(seed))
    assert str(got.value) == str(want.value)
    assert (1, 120) in hits[1:]


def test_failed_stacked_decode_is_found_row_by_row():
    # eigh fails on a whole stack when one frame block is not finite; the
    # other rows of the stack are still evaluated as on their own.
    n = 3
    k = n * n
    thetas = np.random.default_rng(5).standard_normal((4, n + 3 * k))
    thetas[2, n + 4] = np.nan
    with np.errstate(all="ignore"):
        outcomes = [outcome for _, _, outcome in search._outcomes(thetas, n, 0.5)]
    assert isinstance(outcomes[2], DomainError)
    assert isinstance(outcomes[2].__cause__, np.linalg.LinAlgError)
    for row in (0, 1, 3):
        state, a, b = loop_decode(thetas[row], n)
        report = qc.bound_report(state, a, b, 0.5)
        assert outcomes[row] == (0.0 if report.ratio is None else report.ratio)
