"""``sweep_q`` evaluates the q-free fields once, yet reports as ``bound_report``.

``bounds._reports`` evaluates and checks ``product`` and ``robertson``
once per instance and loops only over the fields that read q.  These
tests pin what that must not change: on every instance and grid, the
error ``sweep_q`` raises is the error of the first grid point in the
per-q order, built here from the one-bound functions (``refined``, then
``robertson``, then ``naive_q``, then the finiteness checks of
``product``, ``robertson``, ``naive_q`` and ``refined``); every float
field of a report is a Python float, which the record formatter writes
as its ``repr``; and every field of a trace pass is a Python float or
complex, so the scalar layer never meets a NumPy scalar.
"""

import json
import math

import numpy as np
import pytest

import qcbounds as qc
from qcbounds import cli, search
from qcbounds.bounds import (
    _modulus,
    _naive_form,
    _report,
    _trace_rows,
    _traces,
    _weighted,
)
from qcbounds.errors import DegenerateCoefficient, NonFinite, QcboundsError
from qcbounds.generators import _trial_batches

from conftest import random_instance

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
QUARTER = np.diag([0.25, 0.75])
ROOT_MAX = math.sqrt(1.7e308)

# Instances the bounds refuse at some q: (rho, A, B, grid, failing q, its
# error type, a pattern of its message).  Each grid holds the failing q.
FAILING = {
    # The variances overflow, so the product is infinite at every q.
    "product": (
        QUARTER, 1e200 * SX, 1e200 * SY, [-3.0, -1.0, 0.0, 0.5, 1.0, 2.0],
        0.5, NonFinite, "product is inf",
    ),
    # Finite trace terms whose modulus overflows: refined's bracket at
    # q = 0, robertson's square elsewhere.
    "modulus": (
        QUARTER, ROOT_MAX * SX, ROOT_MAX * (SX + SY), [0.0, -1.0, 0.5, 2.0],
        0.0, NonFinite, "modulus of trace term",
    ),
    # A near-uniform spectrum at |q| = 1: an infinite coefficient.
    "degenerate": (
        np.diag([0.5 - 1e-8, 0.5 + 1e-8]), SX, SY, [0.0, 0.5, 1.0, 2.0, -1.0],
        1.0, DegenerateCoefficient, "infinite coefficient",
    ),
    # The variances overflow at a huge |q| too, where the trace terms
    # are NaN: the mirrored form's bracket is NaN, not an overflow.
    "huge-q": (
        QUARTER, 1e200 * SX, 1e200 * SY, [1e200, -1e200, 2.0],
        1e200, NonFinite, "product is inf",
    ),
    # The mirrored form of a huge |q|, whose finite bracket's modulus
    # overflows.
    "mirrored": (
        QUARTER, ROOT_MAX * SX, ROOT_MAX * (SX + SY), [1e200, 0.5, -1e200],
        1e200, NonFinite, r"modulus of trace term \(1\.69+\d*e\+308",
    ),
}  # fmt: skip

# Instances at the edge of the float range that every q of their grid
# evaluates: (rho, A, B, grid).
FINITE = {
    # A huge multiple of the identity in A: the raw commutator trace is
    # NaN, so robertson reads the centred one, 1/4 |-1e10 i|^2 exactly.
    "robertson": (
        QUARTER, 1e300 * np.eye(2) + SX, 1e10 * (SY + np.diag([1.0, -1.0])),
        [0.5, 2.0, 1e200],
    ),
    # Trace terms of order 1e154: at a moderate |q| > 1 the direct form's
    # square overflows, so naive_q and refined take the mirrored forms.
    "moderate-q": (
        QUARTER, 1e77 * SX, 5e76 * SX + 1e77 * SY, [1.8, 2.0, -2.0],
    ),
}  # fmt: skip
SHIFTED_ROBERTSON = 2.5e19


def edge_instance(name):
    rho, a, b, grid = (FAILING[name] if name in FAILING else FINITE[name])[:4]
    return (qc.make_density(rho), qc.make_hermitian(a), qc.make_hermitian(b)), grid


def per_q_error(state, a, b, q):
    """The error the per-q order gives at ``q``, or None."""
    t = _traces(state, a, b)
    product = t.var_a * t.var_b
    try:
        qc.classify_q(q)
        refined = qc.refined_q_bound(state, a, b, q)
        robertson = qc.robertson_bound(state, a, b)
        naive_q = qc.naive_q_bound(state, a, b, q)
        for name, value in (
            ("product", product),
            ("robertson", robertson),
            ("naive_q", naive_q),
            ("refined", refined),
        ):
            if not math.isfinite(value):
                raise NonFinite(f"{name} is {value!r}, not a finite float")
    except QcboundsError as exc:
        return exc
    return None


@pytest.mark.parametrize("name", sorted(FAILING))
def test_family_fails_where_named(name):
    instance, _ = edge_instance(name)
    _, _, _, _, q, error, pattern = FAILING[name]
    with np.errstate(all="ignore"):
        expected = per_q_error(*instance, q)
        with pytest.raises(error, match=pattern) as raised:
            qc.bound_report(*instance, q)
    assert type(expected) is error
    assert str(raised.value) == str(expected)


def test_robertson_is_finite_on_a_large_identity_shift():
    instance, grid = edge_instance("robertson")
    with np.errstate(all="ignore"):
        assert qc.robertson_bound(*instance) == SHIFTED_ROBERTSON
        for q in grid:
            assert per_q_error(*instance, q) is None
            report = qc.bound_report(*instance, q)
            assert report.robertson == SHIFTED_ROBERTSON
            assert (report.var_a, report.var_b) == (1.0, 1.75e20)


def test_mirrored_forms_match_high_precision_at_a_moderate_q():
    # The direct |q| > 1 forms overflow on this instance, so the records
    # come from the mirrored forms (p = 1/|q|); they must give the direct
    # forms' values, computed here at 40 digits from the stored matrices.
    mpmath = pytest.importorskip("mpmath")
    (state, a, b), grid = edge_instance("moderate-q")
    t = _traces(state, a, b)

    def exact(m):
        return mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in m])

    def trace(m):
        return mpmath.fsum(m[i, i] for i in range(m.rows))

    with mpmath.workdps(40):
        rho, a0, b0 = exact(state.mat), exact(a.mat), exact(b.mat)
        a0, b0 = (x - trace(rho * x).real * mpmath.eye(2) for x in (a0, b0))
        forward, backward = trace(rho * a0 * b0), trace(rho * b0 * a0)
        low, high = (mpmath.mpf(x) for x in state.eigenvalues)
        for q in grid:
            with pytest.raises(NonFinite, match="overflows"):
                _naive_form(abs(q), t.forward, t.backward)
            with pytest.raises(NonFinite, match="overflows"):
                _weighted(t, abs(q), t.backward, t.forward, q)
            aq = mpmath.mpf(abs(q))
            naive_q = abs(forward - aq * backward) ** 2 / (1 + aq) ** 2
            refined = (aq * high + low) ** 2 * abs(backward - aq * forward) ** 2
            refined /= (1 + aq) ** 2 * (aq * high - low) ** 2
            report = qc.bound_report(state, a, b, q)
            assert report.naive_q == pytest.approx(float(naive_q), rel=1e-15, abs=0)
            assert report.refined == pytest.approx(float(refined), rel=1e-15, abs=0)


@pytest.mark.parametrize("name", sorted(FAILING) + sorted(FINITE))
def test_sweep_raises_what_its_first_failing_point_raises(name):
    # Every suffix of the grid, so each point is the first one once.
    instance, grid = edge_instance(name)
    with np.errstate(all="ignore"):
        for start in range(len(grid)):
            points = grid[start:]
            errors = [per_q_error(*instance, q) for q in points]
            expected = next((e for e in errors if e is not None), None)
            if expected is None:
                reports = qc.sweep_q(*instance, points)
                assert reports == [qc.bound_report(*instance, q) for q in points]
                continue
            with pytest.raises(QcboundsError) as raised:
                qc.sweep_q(*instance, points)
            assert type(raised.value) is type(expected)
            assert str(raised.value) == str(expected)


@pytest.mark.parametrize("name", sorted(FAILING))
def test_sweep_cli_writes_nothing_for_a_failing_instance(name, tmp_path, capsys):
    instance, grid = edge_instance(name)
    path = tmp_path / "instance.json"
    qc.save_instance(path, *instance)
    for output_format in ("csv", "json"):
        out = tmp_path / f"sweep.{output_format}"
        with np.errstate(all="ignore"):
            code = cli.main(
                ["sweep", str(path), "--q-lo", "0", "--q-hi", repr(max(grid)),
                 "--steps", "3", "--format", output_format, "--out", str(out)]
            )  # fmt: skip
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()


def test_sweep_cli_writes_robertson_on_a_large_identity_shift(tmp_path, capsys):
    instance, grid = edge_instance("robertson")
    path = tmp_path / "instance.json"
    qc.save_instance(path, *instance)
    out = tmp_path / "sweep.json"
    code = cli.main(
        ["sweep", str(path), "--q-lo", "0", "--q-hi", repr(max(grid)),
         "--steps", "3", "--format", "json", "--out", str(out)]
    )  # fmt: skip
    assert code == 0
    assert capsys.readouterr() == ("", "")
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["q"] for r in records] == [0.0, 5e199, 1e200]
    assert [r["robertson"] for r in records] == [SHIFTED_ROBERTSON] * 3


def stale_erange():
    # A float power that overflows leaves errno at ERANGE.
    try:
        1e200**2
    except OverflowError:
        pass


def test_modulus_of_a_nan_term_is_nan_after_a_stale_overflow():
    nan = math.nan
    for z in (complex(0.0, nan), complex(nan, nan), complex(nan, 1.0)):
        stale_erange()
        assert math.isnan(_modulus(z))
    stale_erange()
    with pytest.raises(NonFinite, match="overflows"):
        _modulus(complex(1.7e308, 1.7e308))


@pytest.mark.parametrize("name", ["huge-q", "product"])
def test_nan_trace_terms_raise_alike_after_a_stale_overflow(name):
    # abs of a NaN term used to raise OverflowError when an earlier
    # overflow left errno at ERANGE, so the error depended on what ran
    # before.
    instance, grid = edge_instance(name)
    messages = set()
    with np.errstate(all="ignore"):
        for q in grid:
            for prelude in (stale_erange, lambda: math.sqrt(4.0)):
                prelude()
                with pytest.raises(NonFinite) as raised:
                    qc.bound_report(*instance, q)
                messages.add(str(raised.value))
    assert messages == {"product is inf, not a finite float"}


def assert_python_floats(report):
    assert type(report.dim) is int
    assert type(report.regime) is qc.QRegime
    for name in qc.BoundReport._fields:
        if name in ("dim", "regime") or (name == "ratio" and report.ratio is None):
            continue
        assert type(getattr(report, name)) is float, name


# Past the trace kernel every field of a pass is a Python number, so the
# scalar layer does Python arithmetic only.
TRACE_TYPES = {
    "var_a": float,
    "var_b": float,
    "forward": complex,
    "backward": complex,
    "commutator": complex,
    "lambda_min": float,
    "lambda_max": float,
}


def assert_python_numbers(traces):
    assert type(traces.dim) is int
    for name, kind in TRACE_TYPES.items():
        assert type(getattr(traces, name)) is kind, name


QS = [-1e200, -3.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.5, 1e78, 1e200]


def test_bound_report_fields_are_python_floats(mixed_qubit, pauli_x):
    instances = [random_instance(seed, n, rank) for seed, n, rank in
                 [(1, 1, 1), (2, 2, 1), (3, 3, 3), (4, 5, 2), (5, 8, 8)]]  # fmt: skip
    instances.append((mixed_qubit, qc.make_hermitian(np.eye(2)), pauli_x))  # no ratio
    for instance in instances:
        assert_python_numbers(_traces(*instance))
        for q in QS:
            assert_python_floats(qc.bound_report(*instance, q))
    assert qc.bound_report(*instances[-1], 0.5).ratio is None


def test_sweep_fields_are_python_floats():
    for seed, n, rank in [(6, 2, 2), (7, 4, 3), (8, 8, 8)]:
        reports = qc.sweep_q(*random_instance(seed, n, rank), np.array(QS))
        assert len(reports) == len(QS)
        for report in reports:
            assert_python_floats(report)


def test_verify_batch_fields_are_python_floats():
    for dim in (1, 2, 3, 8):
        rows = [
            (q, traces)
            for _, qs, stack in _trial_batches(11, (dim,), 40, -3.0, 3.0, True)
            for q, traces in zip(qs, _trace_rows(stack))
        ]
        assert len(rows) == 40
        for q, traces in rows:
            assert_python_numbers(traces)
            assert_python_floats(_report(traces, q))


def test_search_stack_traces_are_python_numbers():
    n = 4
    thetas = np.random.default_rng(9).standard_normal((6, n + 3 * n * n))
    rows = list(_trace_rows(search._decode_batch(thetas, n)))
    assert len(rows) == 6
    for traces in rows:
        assert_python_numbers(traces)
