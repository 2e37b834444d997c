"""End-to-end acceptance checks for the whole toolkit.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output) so a log scrape shows the overall state at a glance.
"""

import contextlib
import itertools
import time

import numpy as np
import pytest

import qcbounds as qc
from qcbounds.cli import main

from conftest import eigenbasis_matrix


@contextlib.contextmanager
def reported(name):
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")


def _trial(seed, stream, n, rank_parity=True, q_span=(-3.0, 3.0)):
    """One deterministic (state, a, b, q) draw in the harness layout."""
    rng = qc.SeededRng(seed, stream)
    slot = stream % 16
    if slot < 3:
        q = (-1.0, 0.0, 1.0)[slot]
    else:
        q = float(rng.split(0).generator().uniform(*q_span))
    if rank_parity and stream % 2 == 1 and n >= 2:
        rank = int(rng.split(1).generator().integers(1, n))
    else:
        rank = n
    state = qc.random_density(n, rank, rng.split(2))
    a = qc.random_hermitian(n, rng.split(3))
    b = qc.random_hermitian(n, rng.split(4))
    return state, a, b, q


def test_master_inequality_bulk():
    # 10^4 instances per dimension, q uniform on [-3,3] plus exact
    # boundary values, half the states rank-deficient; zero violations at
    # relative tolerance 1e-9, in under a minute.
    with reported("master inequality, 10^4 instances x dims {2,3,4,8}"):
        start = time.perf_counter()
        per_dim = 10_000
        for pos, n in enumerate((2, 3, 4, 8)):
            for t in range(per_dim):
                state, a, b, q = _trial(20260819, per_dim * pos + t, n)
                report = qc.bound_report(state, a, b, q)
                assert report.slack >= -1e-9 * max(1.0, report.product), (
                    n,
                    t,
                    q,
                    report.slack,
                )
        assert time.perf_counter() - start < 60.0


def test_dominance_on_faithful_states():
    # For |q| <= 1 and lambda_min > 1e-6 the refined bound never drops
    # below the uniform-prefactor bound (up to 1e-12).
    with reported("dominance over the uniform prefactor, 10^4 faithful instances"):
        collected = 0
        for t in itertools.count():
            if collected == 10_000:
                break
            n = (2, 3, 4)[t % 3]
            rng = qc.SeededRng(7070, t)
            state = qc.random_density(n, n, rng.split(2))
            if state.lambda_min <= 1e-6:
                continue
            a = qc.random_hermitian(n, rng.split(3))
            b = qc.random_hermitian(n, rng.split(4))
            q = float(rng.split(0).generator().uniform(-1.0, 1.0))
            refined = qc.refined_q_bound(state, a, b, q)
            naive = qc.naive_q_bound(state, a, b, q)
            assert refined >= naive - 1e-12, (n, t, q)
            collected += 1


def test_qubit_closed_forms():
    # Spectrum (0.25, 0.75) with the two anticommuting flip observables:
    # equality at q = 1, strict refinement at q = 0.5.
    with reported("closed-form qubit instance: equality and strict refinement"):
        sx = qc.make_hermitian([[0.0, 1.0], [1.0, 0.0]])
        sy = qc.make_hermitian([[0.0, -1.0j], [1.0j, 0.0]])
        state = qc.make_density(np.diag([0.25, 0.75]))
        product = qc.variance(state, sx) * qc.variance(state, sy)
        refined_one = qc.refined_q_bound(state, sx, sy, 1.0)
        assert abs(refined_one - 1.0) < 1e-10
        assert abs(product - 1.0) < 1e-10
        assert abs(refined_one - product) < 1e-10
        assert abs(qc.refined_q_bound(state, sx, sy, 0.5) - 0.49) < 1e-10
        assert abs(qc.naive_q_bound(state, sx, sy, 0.5) - 0.25) < 1e-10


def test_uniform_spectrum_reduction():
    # On the maximally mixed state with |q| < 1 the refined bound
    # collapses to the squared centred-product trace.
    with reported("uniform-spectrum reduction to |Tr[rho A0 B0]|^2, 10^3 draws"):
        for t in range(1_000):
            n = 2 + t % 7
            state = qc.maximally_mixed(n)
            rng = qc.SeededRng(4242, t)
            a = qc.random_hermitian(n, rng.split(0))
            b = qc.random_hermitian(n, rng.split(1))
            q = float(rng.split(2).generator().uniform(-0.999, 0.999))
            a0, b0 = qc.center(state, a), qc.center(state, b)
            expected = abs(qc.q_trace_term(state, a0, b0, 0.0)) ** 2
            value = qc.refined_q_bound(state, a, b, q)
            assert abs(value - expected) < 1e-10, (n, t, q)


def test_rank_deficient_coefficient_is_exact():
    # lambda_min = 0 collapses the coefficient to 1/(1+|q|)^2 exactly,
    # with no rounding allowed.
    with reported("rank-deficient coefficient equals 1/(1+|q|)^2 exactly"):
        for t in range(200):
            n = 2 + t % 5
            rng = qc.SeededRng(515, t)
            rank = 1 + int(rng.split(0).generator().integers(0, n - 1))
            state = qc.random_density(n, rank, rng.split(1))
            assert state.lambda_min == 0.0
            qs = [-1.0, -0.5, 0.0, 0.25, 1.0,
                  float(rng.split(2).generator().uniform(-1.0, 1.0))]
            for q in qs:
                coefficient = qc.refined_coefficient(
                    q, state.lambda_min, state.lambda_max
                )
                assert coefficient == 1.0 / (1.0 + abs(q)) ** 2, (n, t, q)


def weight_ratio_sq(t, q):
    """((t - |q|) / (t + |q|))^2 elementwise, for t >= 1.

    Non-decreasing in t, which is what makes the extreme eigenvalue ratio
    the worst case in the refined coefficient.
    """
    aq = abs(q)
    return ((t - aq) / (t + aq)) ** 2


def weight_ratio_excess(t, q):
    """(1+|q|t)^2 (t-|q|)^2 - (1-|q|t)^2 (t+|q|)^2 elementwise, for t >= 1.

    Nonnegative when |q| <= 1, and exactly zero at t = 1, at q = 0 and at
    |q| = 1.
    """
    aq = abs(q)
    return (1.0 + aq * t) ** 2 * (t - aq) ** 2 - (1.0 - aq * t) ** 2 * (t + aq) ** 2


def schwarz_sides(state, a0, b0, q):
    """The two sides of the Cauchy-Schwarz step behind the bound, |q| <= 1.

    For centred observables,

        lhs = |Tr[rho [A0,B0]_|q|]|^2
        rhs = (sum_ij |l_i - |q| l_j| |a_ij|^2) (sum_ij |l_i - |q| l_j| |b_ji|^2)

    with the matrix elements taken in the state's eigenbasis; lhs <= rhs
    up to float noise.
    """
    aq = abs(q)
    lhs = abs(qc.q_trace_term(state, a0, b0, aq)) ** 2
    lam = state.eigenvalues
    weights = np.abs(lam[:, None] - aq * lam[None, :])
    sum_a = float(np.sum(weights * np.abs(eigenbasis_matrix(state, a0)) ** 2))
    sum_b = float(np.sum(weights * np.abs(eigenbasis_matrix(state, b0).T) ** 2))
    return lhs, sum_a * sum_b


def test_weight_function_grids():
    # The squared weight ratio is non-decreasing on t in [1, 100] and the
    # excess polynomial stays nonnegative, vanishing at t = 1.
    with reported("weight-function grids: monotonicity and nonnegativity"):
        ts = np.linspace(1.0, 100.0, 9_901)
        for tenth in range(11):
            q = tenth / 10.0
            ratio = weight_ratio_sq(ts, q)
            assert np.all(np.diff(ratio) >= -1e-12), q
            excess = weight_ratio_excess(ts, q)
            assert np.all(excess >= -1e-9), q
            assert abs(weight_ratio_excess(1.0, q)) < 1e-12, q


def test_reciprocal_parameter_swap():
    # |q| |Tr[rho [A0,B0]_{1/|q|}]| = |Tr[rho [B0,A0]_{|q|}]| within 1e-10
    # for |q| in (1, 3].
    with reported("reciprocal-parameter operand swap, 10^3 instances"):
        for t in range(1_000):
            n = 2 + t % 4
            rng = qc.SeededRng(31337, t)
            rank = n if t % 2 == 0 else max(1, n - 1)
            state = qc.random_density(n, rank, rng.split(0))
            a = qc.random_hermitian(n, rng.split(1))
            b = qc.random_hermitian(n, rng.split(2))
            aq = float(rng.split(3).generator().uniform(1.0, 3.0))
            if aq <= 1.0:
                continue
            a0, b0 = qc.center(state, a), qc.center(state, b)
            lhs = aq * abs(qc.q_trace_term(state, a0, b0, 1.0 / aq))
            rhs = abs(qc.q_trace_term(state, b0, a0, aq))
            assert abs(lhs - rhs) < 1e-10, (n, t, aq)


def test_schwarz_split_ordering():
    # lhs <= rhs on random instances with |q| <= 1.
    with reported("Cauchy-Schwarz split ordering, 10^3 instances"):
        for t in range(1_000):
            n = 2 + t % 4
            rng = qc.SeededRng(909, t)
            rank = n if t % 2 == 0 else 1 + int(
                rng.split(3).generator().integers(0, n - 1)
            )
            state = qc.random_density(n, rank, rng.split(0))
            a0 = qc.center(state, qc.random_hermitian(n, rng.split(1)))
            b0 = qc.center(state, qc.random_hermitian(n, rng.split(2)))
            q = float(rng.split(4).generator().uniform(-1.0, 1.0))
            lhs, rhs = schwarz_sides(state, a0, b0, q)
            assert lhs <= rhs + 1e-9 * max(1.0, rhs), (n, t, q)


def test_search_reaches_equality():
    # A 5000-evaluation search in dimension 2 at q = 1 must find a
    # near-equality instance.
    with reported("tightness search reaches ratio >= 0.999 at q = 1"):
        result = qc.maximize_tightness(2, 1.0, 5_000, qc.SeededRng(0))
        assert result.best_ratio >= 0.999
        assert result.best_ratio <= 1.0 + 1e-9
        assert result.evaluations <= 5_000


def test_cli_byte_determinism(tmp_path):
    # Identical flags and seed give byte-identical CSV, independent of the
    # worker count.
    with reported("CLI byte determinism across worker counts"):
        flags = ["verify", "--dims", "2,3,4", "--trials", "30",
                 "--seed", "424242"]
        paths = []
        for label, workers in (("a", 1), ("b", 4), ("c", 4)):
            out = tmp_path / f"run_{label}.csv"
            code = main(flags + ["--workers", str(workers), "--out", str(out)])
            assert code == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1] == paths[2]
