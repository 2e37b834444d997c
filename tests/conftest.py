import numpy as np
import pytest

import qcbounds as qc


@pytest.fixture
def pauli_x():
    return qc.make_hermitian([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def pauli_y():
    return qc.make_hermitian([[0.0, -1.0j], [1.0j, 0.0]])


@pytest.fixture
def pauli_z():
    return qc.make_hermitian([[1.0, 0.0], [0.0, -1.0]])


@pytest.fixture
def mixed_qubit():
    # Spectrum (0.25, 0.75): the instance with closed-form bound values.
    return qc.make_density(np.diag([0.25, 0.75]))


def eigenbasis_sum_term(state, a0, b0, q):
    """Independent route to Tr[rho (A0 B0 - q B0 A0)]: explicit double sum
    over the state's eigenbasis."""
    lam = state.eigenvalues
    am = qc.eigenbasis_elements(state, a0)
    bm = qc.eigenbasis_elements(state, b0)
    total = 0.0j
    for i in range(state.dim):
        for j in range(state.dim):
            total += (lam[i] - q * lam[j]) * am[i, j] * bm[j, i]
    return total


def random_instance(seed, n, rank=None):
    """One reproducible (state, A, B) triple."""
    rng = qc.SeededRng(seed)
    state = qc.random_density(n, n if rank is None else rank, rng.split(0))
    a = qc.random_hermitian(n, rng.split(1))
    b = qc.random_hermitian(n, rng.split(2))
    return state, a, b


def witness_ratio(eps, q):
    """Exact refined/product ratio of the qubit state diag(eps, 1 - eps)
    with the pair sigma_x, sigma_y, whose variances are both 1."""
    aq = abs(q)
    if aq <= 1.0:
        return ((1 - 2 * eps) * (1 - eps + aq * eps) / (1 - eps - aq * eps)) ** 2
    return ((1 - 2 * eps) * (aq * (1 - eps) + eps) / (aq * (1 - eps) - eps)) ** 2
