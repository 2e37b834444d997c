import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcbounds as qc
from qcbounds.errors import NonFinite

from conftest import eigenbasis_sum_term, random_instance


def test_regime_classification():
    cases = {
        0.5: qc.QRegime.POSITIVE_LEQ_ONE,
        1.0: qc.QRegime.POSITIVE_LEQ_ONE,
        1.0000001: qc.QRegime.POSITIVE_GT_ONE,
        7.0: qc.QRegime.POSITIVE_GT_ONE,
        0.0: qc.QRegime.ZERO,
        -0.3: qc.QRegime.NEGATIVE_GEQ_MINUS_ONE,
        -1.0: qc.QRegime.NEGATIVE_GEQ_MINUS_ONE,
        -1.5: qc.QRegime.LT_MINUS_ONE,
    }
    for q, regime in cases.items():
        assert qc.classify_q(q) is regime


def test_classify_q_rejects_non_finite():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(NonFinite):
            qc.classify_q(bad)


def q_bracket(a, b, q):
    """The deformed bracket [A,B]_q = AB - qBA as a matrix."""
    return a.mat @ b.mat - q * (b.mat @ a.mat)


def test_pauli_commutator(pauli_x, pauli_y, pauli_z):
    assert np.allclose(q_bracket(pauli_x, pauli_y, 1.0), 2j * pauli_z.mat)


def test_q_commutator_at_zero(pauli_x, pauli_y):
    assert np.array_equal(
        q_bracket(pauli_x, pauli_y, 0.0), pauli_x.mat @ pauli_y.mat
    )


def test_anticommuting_paulis(pauli_x, pauli_y):
    assert np.allclose(q_bracket(pauli_x, pauli_y, -1.0), np.zeros((2, 2)))


@given(st.integers(0, 2**32), st.sampled_from([0.25, 0.5, 1.5, 2.0, 3.0]))
@settings(max_examples=20, deadline=None)
def test_inverse_parameter_swaps_operands(seed, q):
    _, a, b = random_instance(seed, 3)
    lhs = q_bracket(a, b, 1.0 / q)
    rhs = -(1.0 / q) * q_bracket(b, a, q)
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * scale


def test_q_trace_term_pauli_value(mixed_qubit, pauli_x, pauli_y):
    a0 = qc.center(mixed_qubit, pauli_x)
    b0 = qc.center(mixed_qubit, pauli_y)
    # i(1+q) times the population imbalance -0.5 at q = 0.5.
    assert qc.q_trace_term(mixed_qubit, a0, b0, 0.5) == pytest.approx(-0.75j)


@given(
    st.integers(0, 2**32),
    st.integers(2, 6),
    st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_q_trace_term_matches_eigenbasis_sum(seed, n, q):
    state, a, b = random_instance(seed, n)
    a0, b0 = qc.center(state, a), qc.center(state, b)
    direct = qc.q_trace_term(state, a0, b0, q)
    oracle = eigenbasis_sum_term(state, a0, b0, q)
    assert abs(direct - oracle) < 1e-9


@given(st.integers(0, 2**32), st.floats(-2, 2, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_q_trace_term_diagonal_case(seed, q):
    # A0 = B0 diagonal in the state's eigenbasis gives (1-q) sum l_i a_ii^2.
    rng = qc.SeededRng(seed)
    state = qc.random_density(4, 4, rng.split(0))
    diag = rng.split(1).generator().standard_normal(4)
    obs_mat = (state.eigenvectors * diag) @ state.eigenvectors.conj().T
    obs = qc.make_hermitian(obs_mat)
    value = qc.q_trace_term(state, obs, obs, q)
    expected = (1.0 - q) * float(np.sum(state.eigenvalues * diag**2))
    assert value.real == pytest.approx(expected, abs=1e-10)
    assert abs(value.imag) < 1e-12


def test_zero_operand_gives_zero(mixed_qubit, pauli_y):
    zero = qc.make_hermitian(np.zeros((2, 2)))
    assert qc.q_trace_term(mixed_qubit, zero, pauli_y, 0.7) == 0.0


@given(st.integers(0, 2**32), st.integers(2, 5))
@settings(max_examples=20, deadline=None)
def test_commutator_trace_is_imaginary(seed, n):
    state, a, b = random_instance(seed, n)
    value = complex(np.einsum("ij,ji->", state.mat, q_bracket(a, b, 1.0)))
    assert abs(value.real) < 1e-12
