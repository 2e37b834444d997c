import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcbounds as qc
from qcbounds import bounds
from qcbounds.errors import (
    DegenerateCoefficient,
    InvalidSpectrum,
    NonFinite,
)

from conftest import random_instance, witness_ratio
from test_acceptance import schwarz_sides, weight_ratio_excess, weight_ratio_sq


def test_robertson_pauli_value(mixed_qubit, pauli_x, pauli_y):
    assert qc.robertson_bound(mixed_qubit, pauli_x, pauli_y) == pytest.approx(0.25)


def test_robertson_commuting_observables(mixed_qubit, pauli_z):
    assert qc.robertson_bound(mixed_qubit, pauli_z, pauli_z) == pytest.approx(0.0)


def test_robertson_maximally_mixed(pauli_x, pauli_y):
    state = qc.maximally_mixed(2)
    assert qc.robertson_bound(state, pauli_x, pauli_y) == pytest.approx(0.0, abs=1e-15)


def test_naive_bound_pauli_value(mixed_qubit, pauli_x, pauli_y):
    assert qc.naive_q_bound(mixed_qubit, pauli_x, pauli_y, 0.5) == pytest.approx(0.25)


@given(st.integers(0, 2**32), st.integers(2, 5))
@settings(max_examples=20, deadline=None)
def test_naive_bound_at_one_is_robertson(seed, n):
    state, a, b = random_instance(seed, n)
    naive = qc.naive_q_bound(state, a, b, 1.0)
    robertson = qc.robertson_bound(state, a, b)
    assert naive == pytest.approx(robertson, abs=1e-12 * max(1.0, robertson))


def test_coefficient_branch_values():
    assert qc.refined_coefficient(1.0, 0.25, 0.75) == 1.0
    # Uniform spectrum below the boundary: 1 / (1 - |q|)^2.
    value = qc.refined_coefficient(0.5, 0.25, 0.25)
    assert value == pytest.approx(1.0 / (1.0 - 0.5) ** 2, rel=1e-12)
    beyond = qc.refined_coefficient(2.0, 0.2, 0.8)
    assert beyond == pytest.approx((2 * 0.8 + 0.2) ** 2 / (9 * (2 * 0.8 - 0.2) ** 2))


def test_coefficient_zero_lambda_min_exact():
    for q in (0.0, 0.1, 0.5, 1.0, 2.0, -0.7):
        aq = abs(q)
        assert qc.refined_coefficient(q, 0.0, 0.8) == 1.0 / (1.0 + aq) ** 2


def test_coefficient_infinite_flag():
    assert math.isinf(qc.refined_coefficient(1.0, 0.5, 0.5))


def test_coefficient_rejects_bad_spectrum():
    with pytest.raises(InvalidSpectrum):
        qc.refined_coefficient(0.5, 0.9, 0.1)
    with pytest.raises(InvalidSpectrum):
        qc.refined_coefficient(0.5, -0.1, 0.5)
    with pytest.raises(InvalidSpectrum):
        qc.refined_coefficient(0.5, 0.0, 0.0)
    # An infinite lambda_max is rejected like NaN, not turned into NaN.
    for q, lambda_min in ((0.5, 0.1), (0.5, math.inf), (2.0, 0.1)):
        with pytest.raises(InvalidSpectrum):
            qc.refined_coefficient(q, lambda_min, math.inf)


def test_refined_bound_pauli_values(mixed_qubit, pauli_x, pauli_y):
    assert qc.refined_q_bound(mixed_qubit, pauli_x, pauli_y, 0.5) == pytest.approx(
        0.49, abs=1e-12
    )
    assert qc.refined_q_bound(mixed_qubit, pauli_x, pauli_y, 1.0) == pytest.approx(
        1.0, abs=1e-12
    )
    assert qc.refined_q_bound(mixed_qubit, pauli_x, pauli_y, 0.0) == pytest.approx(
        0.25, abs=1e-12
    )


def test_refined_bound_maximally_mixed_traceless(pauli_x, pauli_y):
    state = qc.maximally_mixed(2)
    assert qc.refined_q_bound(state, pauli_x, pauli_y, 0.5) == pytest.approx(
        0.0, abs=1e-15
    )


def test_degenerate_coefficient_returns_zero_for_vanishing_term(pauli_x, pauli_y):
    # Uniform spectrum at q = 1: infinite coefficient, provably zero term.
    state = qc.maximally_mixed(3)
    a = qc.make_hermitian(np.diag([1.0, 2.0, 3.0]))
    b = qc.random_hermitian(3, qc.SeededRng(8))
    assert qc.refined_q_bound(state, a, b, 1.0) == 0.0


def test_degenerate_coefficient_raises_on_inconsistent_term():
    # Just above q = 1 with a nearly uniform spectrum the denominator
    # underflows the flag threshold while large observables keep the trace
    # term visible; that combination is refused.
    eps = 1e-9
    frame = np.linalg.qr(
        qc.SeededRng(3).generator().standard_normal((2, 2))
        + 1j * qc.SeededRng(4).generator().standard_normal((2, 2))
    )[0]
    state = qc.density_from_decomposition([0.5 - eps, 0.5 + eps], frame)
    big = 1e6
    a = qc.make_hermitian(big * np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = qc.make_hermitian(big * np.array([[0.0, -1.0j], [1.0j, 0.0]]))
    with pytest.raises(DegenerateCoefficient):
        qc.refined_q_bound(state, a, b, 1.0 + 1e-9)


@given(
    st.integers(0, 2**32),
    st.integers(2, 5),
    st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_dispatch_equals_weighted_bracket_form(seed, n, q):
    # The refined bound must agree with the two-branch |q| form applied to
    # the appropriately ordered operands, evaluated through q_trace_term.
    state, a, b = random_instance(seed, n)
    a0, b0 = qc.center(state, a), qc.center(state, b)
    aq = abs(q)
    if aq <= 1.0:
        term = qc.q_trace_term(state, a0, b0, aq)
    else:
        term = qc.q_trace_term(state, b0, a0, aq)
    coefficient = qc.refined_coefficient(aq, state.lambda_min, state.lambda_max)
    if math.isinf(coefficient):
        expected = 0.0
    else:
        expected = coefficient * abs(term) ** 2
    value = qc.refined_q_bound(state, a, b, q)
    assert value == pytest.approx(expected, abs=1e-12 * max(1.0, expected))


def test_weight_ratio_sq_values():
    assert weight_ratio_sq(1.0, 1.0) == 0.0
    assert weight_ratio_sq(7.3, 0.0) == 1.0
    assert weight_ratio_sq(3.0, 1.0) == pytest.approx(0.25)
    grid = weight_ratio_sq(np.array([1.0, 2.0, 3.0]), 1.0)
    assert grid.shape == (3,)


def test_weight_ratio_excess_zero_lines():
    ts = np.linspace(1.0, 50.0, 777)
    assert weight_ratio_excess(1.0, 0.37) == 0.0
    assert np.all(weight_ratio_excess(ts, 0.0) == 0.0)
    assert np.all(weight_ratio_excess(ts, 1.0) == 0.0)


def test_schwarz_split_pauli(mixed_qubit, pauli_x, pauli_y):
    a0 = qc.center(mixed_qubit, pauli_x)
    b0 = qc.center(mixed_qubit, pauli_y)
    lhs, rhs = schwarz_sides(mixed_qubit, a0, b0, 0.5)
    assert lhs == pytest.approx(0.5625)
    assert rhs == pytest.approx(0.5625)


def test_schwarz_split_zero_operand(mixed_qubit):
    zero = qc.make_hermitian(np.zeros((2, 2)))
    assert schwarz_sides(mixed_qubit, zero, zero, 0.3) == (0.0, 0.0)


def test_report_pauli_fields(mixed_qubit, pauli_x, pauli_y):
    report = qc.bound_report(mixed_qubit, pauli_x, pauli_y, 0.5)
    assert report.dim == 2
    assert report.regime is qc.QRegime.POSITIVE_LEQ_ONE
    assert report.product == pytest.approx(1.0)
    assert report.robertson == pytest.approx(0.25)
    assert report.naive_q == pytest.approx(0.25)
    assert report.refined == pytest.approx(0.49)
    assert report.slack == pytest.approx(0.51)
    assert report.ratio == pytest.approx(0.49)
    assert report.lambda_min == pytest.approx(0.25)
    assert report.lambda_max == pytest.approx(0.75)


WITNESS_REPORT_REPR = (
    "BoundReport(dim=2, q=0.5, regime=<QRegime.POSITIVE_LEQ_ONE: 'PositiveLeqOne'>, "
    "var_a=1.0, var_b=1.0, product=1.0, lambda_min=0.25, lambda_max=0.75, "
    "robertson=0.25, naive_q=0.25, refined=0.49, slack=0.51, ratio=0.49)"
)


def test_report_contract(mixed_qubit, pauli_x, pauli_y):
    # Field order, repr, immutability and value equality of a report.
    report = qc.bound_report(mixed_qubit, pauli_x, pauli_y, 0.5)
    assert qc.BoundReport.__match_args__ == (
        "dim", "q", "regime", "var_a", "var_b", "product", "lambda_min",
        "lambda_max", "robertson", "naive_q", "refined", "slack", "ratio",
    )
    assert repr(report) == WITNESS_REPORT_REPR
    with pytest.raises(AttributeError):
        report.refined = 0.0
    again = qc.bound_report(mixed_qubit, pauli_x, pauli_y, 0.5)
    assert again is not report
    assert again == report
    assert hash(again) == hash(report)


@pytest.mark.parametrize(
    "product, slack, violated",
    [
        # Exactly at the tolerance, -rtol * product: not violated.
        (4.0, -2.0, False),
        # Within the tolerance scaled by the product, past it divided by
        # the product.
        (4.0, -1.0, False),
        # Past the tolerance at a product of 1.5, within it at 2.
        (1.5, -0.8, True),
    ],
)
def test_violation_rule_scales_the_tolerance_by_the_product(
    mixed_qubit, pauli_x, pauli_y, product, slack, violated
):
    # _violated reads only the slack and the product of a report; the
    # values are exact in binary, so each case sits where it is meant to.
    report = qc.bound_report(mixed_qubit, pauli_x, pauli_y, 0.5)
    report = report._replace(product=product, slack=slack)
    assert bounds._violated(report, 0.5) is violated


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, -1.0, 3.0])
def test_overflowing_variances_raise_non_finite_product(mixed_qubit, q):
    a = qc.make_hermitian(1e200 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = qc.make_hermitian(1e200 * np.array([[0.0, -1.0j], [1.0j, 0.0]]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NonFinite, match=r"^product is inf, not a finite float$"
    ):
        qc.bound_report(mixed_qubit, a, b, q)


def test_report_equality_instance(mixed_qubit, pauli_x, pauli_y):
    report = qc.bound_report(mixed_qubit, pauli_x, pauli_y, 1.0)
    assert report.refined == pytest.approx(1.0)
    assert report.slack == pytest.approx(0.0, abs=1e-12)
    assert report.ratio == pytest.approx(1.0)


def test_report_zero_variance_has_no_ratio(pauli_z):
    pure = qc.make_density(np.diag([0.0, 1.0]))
    report = qc.bound_report(pure, pauli_z, pauli_z, 0.5)
    assert report.product == pytest.approx(0.0, abs=1e-15)
    assert report.ratio is None
    assert report.refined <= 1e-14


def test_report_same_observable(mixed_qubit, pauli_x):
    report = qc.bound_report(mixed_qubit, pauli_x, pauli_x, 0.7)
    assert report.var_a == report.var_b
    assert report.refined <= report.product + 1e-12


@pytest.mark.parametrize("eps", [1e-8, 0.01, 0.25, 0.4])
@pytest.mark.parametrize("q", [-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
def test_qubit_witness_ratio_closed_form(eps, q, pauli_x, pauli_y):
    # A refined bound that is too small by any factor still passes the
    # master inequality; the exact ratio of this family does not.
    state = qc.density_from_decomposition(
        np.array([eps, 1.0 - eps]), np.eye(2, dtype=complex)
    )
    report = qc.bound_report(state, pauli_x, pauli_y, q)
    assert report.product == pytest.approx(1.0, rel=1e-12)
    assert report.ratio == pytest.approx(witness_ratio(eps, q), rel=1e-12, abs=0.0)


def test_overflowing_trace_term_raises_non_finite(mixed_qubit):
    # Finite observables whose trace terms square past the float range, or
    # whose trace term has finite parts but a modulus past it: every bound
    # reports NonFinite, not Python's bare OverflowError.
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    root = math.sqrt(1.7e308)
    for a_mat, b_mat, q in ((1e78 * sx, 1e78 * sy, 0.5),
                            (root * sx, root * (sx + sy), 0.0)):
        a, b = qc.make_hermitian(a_mat), qc.make_hermitian(b_mat)
        for bound in (
            lambda: qc.bound_report(mixed_qubit, a, b, q),
            lambda: qc.refined_q_bound(mixed_qubit, a, b, q),
            lambda: qc.naive_q_bound(mixed_qubit, a, b, q),
            lambda: qc.robertson_bound(mixed_qubit, a, b),
        ):
            with pytest.raises(NonFinite, match="overflows"):
                bound()


@pytest.mark.parametrize("eps", [1e-8, 0.01, 0.25, 0.4])
@pytest.mark.parametrize(
    "q", [1e10, -1e10, 1e78, -1e78, 1e200, -1e200, 1e300, -1e300]
)
def test_qubit_witness_ratio_at_huge_q(eps, q, pauli_x, pauli_y):
    # Past |q| ~ 1e77 the direct |q| > 1 form overflows; the bounds must
    # still reach their finite limits, not 0.0 or an OverflowError.
    state = qc.density_from_decomposition(
        np.array([eps, 1.0 - eps]), np.eye(2, dtype=complex)
    )
    report = qc.bound_report(state, pauli_x, pauli_y, q)
    assert report.product == pytest.approx(1.0, rel=1e-12)
    assert report.ratio == pytest.approx(witness_ratio(eps, q), rel=1e-12, abs=0.0)
    # Tr[rho A0 B0] = -Tr[rho B0 A0] = i (2 eps - 1): the naive bound is
    # (1 - 2 eps)^2 at every q.
    assert report.naive_q == pytest.approx((1 - 2 * eps) ** 2, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lambda_min", [0.0, 0.1, 0.25])
@pytest.mark.parametrize("q", [2.0, 1e10, 1e77, 1e78, 1e100, 1e153, -1e153])
def test_coefficient_at_huge_q_matches_high_precision(q, lambda_min):
    mpmath = pytest.importorskip("mpmath")
    lambda_max = 0.75
    with mpmath.workdps(50):
        aq = mpmath.mpf(abs(q))
        exact = (aq * lambda_max + lambda_min) ** 2 / (
            (1 + aq) ** 2 * (aq * lambda_max - lambda_min) ** 2
        )
        expected = float(exact)
    value = qc.refined_coefficient(q, lambda_min, lambda_max)
    assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


@given(
    st.integers(0, 2**32),
    st.integers(2, 6),
    st.booleans(),
    st.floats(1.0, 50.0, exclude_min=True),
)
@settings(max_examples=60, deadline=None)
def test_mirrored_forms_equal_direct_forms(seed, n, deficient, aq):
    # The fallback rests on two identities, p = 1/|q|:
    # C(|q|) |B - |q| F|^2 = C(p) |F - p B|^2 and
    # |F - |q| B|^2 / (1 + |q|)^2 = |B - p F|^2 / (1 + p)^2.
    t = bounds._traces(*random_instance(seed, n, n - 1 if deficient else n))
    p = 1.0 / aq
    direct = bounds._weighted(t, aq, t.backward, t.forward, aq)[0]
    mirrored = bounds._weighted(t, p, t.forward, t.backward, aq)[0]
    assert mirrored == pytest.approx(direct, rel=1e-12, abs=0.0)
    direct = bounds._naive_form(aq, t.forward, t.backward)
    mirrored = bounds._naive_form(p, t.backward, t.forward)
    assert mirrored == pytest.approx(direct, rel=1e-12, abs=0.0)
