import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcbounds as qc
from qcbounds import search
from qcbounds.errors import (
    BudgetZero,
    DegenerateCoefficient,
    DomainError,
    InvalidDimension,
    NonFinite,
)

from conftest import random_instance
from test_search_lockstep import reference_nelder_mead_max


def test_tightness_ratio_equality_instance(mixed_qubit, pauli_x, pauli_y):
    report = qc.bound_report(mixed_qubit, pauli_x, pauli_y, 1.0)
    assert report.ratio == pytest.approx(1.0)


def test_tightness_ratio_commuting(mixed_qubit, pauli_x):
    ratio = qc.bound_report(mixed_qubit, pauli_x, pauli_x, 1.0).ratio
    assert ratio == pytest.approx(0.0, abs=1e-15)


def test_tightness_ratio_absent_for_zero_variance(pauli_z):
    pure = qc.make_density(np.diag([0.0, 1.0]))
    assert qc.bound_report(pure, pauli_z, pauli_z, 1.0).ratio is None


def test_search_scores_a_point_with_no_ratio_zero():
    # A theta whose A coordinates are all 0 decodes to A = 0: the variance
    # product is 0.0, the report has no ratio, and the point must score
    # 0.0, not count as an equality case.
    n, k = 2, 4
    theta = np.zeros((1, n + 3 * k))
    theta[0, n + 2 * k :] = [1.0, -0.5, 0.25, 0.75]
    ((decoded, row, score),) = search._outcomes(theta, n, 0.5)
    report = qc.bound_report(*decoded.row(row), 0.5)
    assert report.product == 0.0 and report.ratio is None
    assert type(score) is float and score == 0.0


def test_sweep_preserves_order(mixed_qubit, pauli_x, pauli_y):
    grid = [-2.0, -1.0, 0.0, 1.0, 2.0]
    reports = qc.sweep_q(mixed_qubit, pauli_x, pauli_y, grid)
    assert [r.q for r in reports] == grid
    assert all(r.slack >= -1e-12 for r in reports)


def commutator_refinement(state, a, b):
    """The q = 1 refinement from the raw commutator trace Tr[rho [A,B]].

    Centring cancels inside a commutator trace, so this must agree with
    the centred bracket the bounds use, up to rounding.
    """
    term = np.einsum("ij,ji->", state.mat, a.mat @ b.mat - b.mat @ a.mat)
    coefficient = qc.refined_coefficient(1.0, state.lambda_min, state.lambda_max)
    return coefficient * abs(term) ** 2


def test_sweep_singleton_matches_commutator_refinement(
    mixed_qubit, pauli_x, pauli_y
):
    (report,) = qc.sweep_q(mixed_qubit, pauli_x, pauli_y, [1.0])
    direct = commutator_refinement(mixed_qubit, pauli_x, pauli_y)
    assert report.refined == pytest.approx(direct, abs=1e-12)


def test_sweep_rejects_empty_grid(mixed_qubit, pauli_x, pauli_y):
    with pytest.raises(DomainError):
        qc.sweep_q(mixed_qubit, pauli_x, pauli_y, [])


def test_search_argument_validation():
    with pytest.raises(InvalidDimension):
        qc.maximize_tightness(1, 1.0, 10, qc.SeededRng(0))
    with pytest.raises(BudgetZero):
        qc.maximize_tightness(2, 1.0, 0, qc.SeededRng(0))


def test_search_rejects_non_finite_q_before_decoding(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decoded a simplex for a non-finite q")

    monkeypatch.setattr(search, "_decode_batch", refuse)
    with pytest.raises(NonFinite):
        qc.maximize_tightness(2, math.inf, 10, qc.SeededRng(0))


def test_search_refuses_a_simplex_past_the_memory_ceiling(monkeypatch):
    # The simplex and its first round hold (d + 1) * d floats each, for
    # d = n + 3 n^2: n = 52 fits in 1 GiB, n = 53 does not.  Building the
    # simplex is patched to fail, so nothing large is allocated.
    def refuse(*args, **kwargs):
        raise AssertionError("built the simplex")

    monkeypatch.setattr(search, "_nelder_mead_max", refuse)
    for n in (53, 64, 10**400):
        with pytest.raises(InvalidDimension, match="1 GiB limit"):
            qc.maximize_tightness(n, 0.5, 10, qc.SeededRng(0))
    with pytest.raises(AssertionError, match="built the simplex"):
        qc.maximize_tightness(52, 0.5, 10, qc.SeededRng(0))


def test_search_single_evaluation():
    result = qc.maximize_tightness(2, 1.0, 1, qc.SeededRng(3))
    assert result.evaluations == 1
    state, a, b, q = result.best_instance
    recomputed = qc.bound_report(state, a, b, q).ratio
    expected = 0.0 if recomputed is None else recomputed
    assert result.best_ratio == pytest.approx(expected, abs=1e-12)
    assert result.trajectory == ((1, result.best_ratio),)


def test_search_is_deterministic():
    first = qc.maximize_tightness(2, 0.5, 400, qc.SeededRng(17))
    second = qc.maximize_tightness(2, 0.5, 400, qc.SeededRng(17))
    assert first.best_ratio == second.best_ratio
    assert first.evaluations == second.evaluations
    assert first.trajectory == second.trajectory
    assert np.array_equal(first.best_instance[0].mat, second.best_instance[0].mat)


def drive_simplex(start, score):
    # Every stack of points _nelder_mead_max requests until it returns,
    # each answered with its scores.
    steps = search._nelder_mead_max(start)
    requests = []
    request = next(steps)
    while True:
        requests.append(request.copy())
        try:
            request = steps.send(np.array([score(x) for x in request]))
        except StopIteration:
            return requests


def concave_score(x):
    # A smooth concave score with its maximum at (0.3, -0.7, 1.1).
    return -float(np.sum(np.array([1.0, 2.0, 3.0]) * (x - [0.3, -0.7, 1.1]) ** 2))


@pytest.mark.parametrize(
    "start", [[1.0, 2.0, -1.5], [0.3, -0.7, 1.1], [-4.0, 0.25, 9.0]]
)
def test_simplex_stops_where_the_full_diameter_test_stops(start):
    # The generator tests the worst vertex's gap before the full O(d^2)
    # diameter; the reference takes the full diameter at every step.
    start = np.array(start)
    requests = drive_simplex(start, concave_score)
    points = []

    def evaluate(x):
        points.append(np.array(x))
        return concave_score(x)

    reference_nelder_mead_max(evaluate, start, 10**6)
    assert len(points) < 10**6  # the reference stopped on its diameter
    requested = np.concatenate(requests)
    assert requested.shape == (len(points), 3)
    assert requested.tobytes() == np.array(points).tobytes()


def test_simplex_runs_on_while_a_vertex_other_than_the_worst_is_far():
    # At 1e20, adding SIMPLEX_STEP to the first coordinate rounds away, so
    # vertex 1 equals the start.  Scored worst, it is within the
    # tolerance of the best vertex, the start, while vertices 2 and 3 are
    # SIMPLEX_STEP away: the simplex has not converged.
    steps = search._nelder_mead_max(np.array([1e20, 0.0, 0.0]))
    simplex = next(steps)
    assert simplex[1].tobytes() == simplex[0].tobytes()
    assert abs(simplex[2] - simplex[0]).max() == search.SIMPLEX_STEP
    (reflected,) = steps.send(np.array([3.0, 0.0, 2.0, 1.0]))
    assert reflected.shape == (3,)


def test_search_respects_budget_and_improves():
    result = qc.maximize_tightness(3, 0.5, 600, qc.SeededRng(2))
    assert result.evaluations <= 600
    ratios = [ratio for _, ratio in result.trajectory]
    assert ratios == sorted(ratios)
    assert result.best_ratio == ratios[-1]
    assert result.best_ratio <= 1.0 + 1e-9


def test_search_best_ratio_recomputes():
    result = qc.maximize_tightness(2, 1.0, 800, qc.SeededRng(6))
    state, a, b, q = result.best_instance
    report = qc.bound_report(state, a, b, q)
    assert report.ratio is not None
    assert result.best_ratio == pytest.approx(report.ratio, abs=1e-12)


# q values where the bracket, the operand swap or the coefficient changes
# form, plus the floats on either side of |q| = 1, and huge |q| where the
# |q| > 1 forms overflow and fall back to their mirrored forms.
EDGE_Q = [
    sign * q
    for sign in (1.0, -1.0)
    for q in (
        0.0,
        1.0,
        math.nextafter(1.0, 0.0),
        math.nextafter(1.0, 2.0),
        3.0,
        1e78,
        1e200,
    )
]


@st.composite
def edge_instances(draw):
    n = draw(st.integers(1, 5))
    rank = n if n == 1 or draw(st.booleans()) else draw(st.integers(1, n - 1))
    state, a, b = random_instance(draw(st.integers(0, 2**32)), n, rank)
    drawn = draw(st.lists(st.floats(-4, 4, allow_nan=False), max_size=4))
    return state, a, b, EDGE_Q + drawn


@given(edge_instances())
@settings(max_examples=40, deadline=None)
def test_sweep_equals_bound_report_bitwise(instance):
    state, a, b, grid = instance
    for swept, q in zip(qc.sweep_q(state, a, b, grid), grid, strict=True):
        report = qc.bound_report(state, a, b, q)
        assert swept == report
        # repr also tells -0.0 from 0.0, as the emitted records do.
        assert repr(swept) == repr(report)


@given(edge_instances())
@settings(max_examples=40, deadline=None)
def test_bound_functions_equal_report_fields_bitwise(instance):
    state, a, b, grid = instance
    at_one = qc.bound_report(state, a, b, 1.0)
    assert qc.robertson_bound(state, a, b) == at_one.robertson
    for q in grid:
        report = qc.bound_report(state, a, b, q)
        assert qc.refined_q_bound(state, a, b, q) == report.refined
        assert qc.naive_q_bound(state, a, b, q) == report.naive_q
        assert qc.robertson_bound(state, a, b) == report.robertson


def test_report_at_q_one_on_maximally_mixed_qubit(pauli_x, pauli_y):
    # The coefficient is flagged infinite and the trace term vanishes.
    state = qc.maximally_mixed(2)
    assert qc.bound_report(state, pauli_x, pauli_y, 1.0).refined == 0.0
    assert qc.refined_q_bound(state, pauli_x, pauli_y, 1.0) == 0.0


def test_report_at_q_one_on_maximally_mixed_qutrit_matches_bound_functions():
    # Scaled observables leave a trace term above DEGENERATE_TERM on many
    # seeds (seed 0 among them); bound_report must then raise exactly what
    # refined_q_bound raises, and agree with it everywhere else.
    state = qc.maximally_mixed(3)
    outcomes = {}
    for seed in range(40):
        a = qc.make_hermitian(1e4 * qc.random_hermitian(3, qc.SeededRng(seed, 0)).mat)
        b = qc.make_hermitian(1e4 * qc.random_hermitian(3, qc.SeededRng(seed, 1)).mat)
        try:
            refined = qc.refined_q_bound(state, a, b, 1.0)
        except DegenerateCoefficient as exc:
            with pytest.raises(DegenerateCoefficient) as excinfo:
                qc.bound_report(state, a, b, 1.0)
            assert str(excinfo.value) == str(exc)
            outcomes[seed] = "raised"
        else:
            report = qc.bound_report(state, a, b, 1.0)
            assert report.refined == refined == 0.0
            assert report.naive_q == qc.naive_q_bound(state, a, b, 1.0)
            outcomes[seed] = "zero"
    assert outcomes[0] == "raised"
    assert "zero" in outcomes.values()
