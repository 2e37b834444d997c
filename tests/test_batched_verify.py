"""``verify`` builds and evaluates trials in batches, bit for bit.

Each trial draws from its own streams; the draws of consecutive trials of
one dim are then stacked, and QR, the density build, the symmetrisation
and the trace pass run once per batch.  These tests pin every batched row
to the single-instance reference path (``random_density``,
``random_hermitian`` and ``_traces`` on streams built by
``SeededRng.generator``) by ``.tobytes()``.  Bitwise agreement of stacked
and one-at-a-time LAPACK, matmul and einsum calls was measured on NumPy
2.4.6 with its bundled OpenBLAS, as the golden digests in test_cli.py.
"""

import io

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcbounds as qc
from qcbounds import cli, generators
from qcbounds.bounds import (
    _BATCH_ENTRIES,
    _batch_rows,
    _report,
    _trace_rows,
    _traces,
)
from qcbounds.generators import _derived_streams

# Full batches at n = 16 and n = 64 (and n = 32 with four rows) are
# large enough for the trace kernel to run half its traces on a second
# thread; the single-instance reference at n = 16 runs them all on one.
DIMS = [1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64]


def reference_q_and_rank(plan, dim, index):
    # The q and rank draws of a trial, written out from the stream layout:
    # q from split 0 unless the slot pins a boundary value, rank from
    # split 1 on odd trials under the mixed policy.
    trial = qc.SeededRng(plan.seed, index)
    slot = index % generators.BOUNDARY_PERIOD
    if slot < len(generators.BOUNDARY_Q):
        q = generators.BOUNDARY_Q[slot]
    else:
        q = float(trial.split(0).generator().uniform(plan.q_lo, plan.q_hi))
    rank = dim
    if plan.rank_policy == "mixed" and index % 2 == 1 and dim >= 2:
        rank = int(trial.split(1).generator().integers(1, dim))
    return q, rank


def as_bytes(value):
    return type(value), np.asarray(value).tobytes()


def csv_line(report):
    out = io.StringIO()
    cli._emit_records(out, "csv", [report])
    return out.getvalue()


@st.composite
def batches(draw):
    dim = draw(st.sampled_from(DIMS))
    cap = min(_batch_rows(dim), generators._CHUNK_TRIALS)
    size = draw(st.one_of(st.integers(1, 12), st.just(cap)))
    first = draw(st.integers(0, 2**32 - 1 - size))
    plan = cli.TrialPlan(
        dims=(dim,),
        trials_per_dim=first + size,
        q_lo=draw(st.sampled_from([-3.0, -1.0, 0.0])),
        q_hi=3.0,
        rank_policy=draw(st.sampled_from(["mixed", "full"])),
        seed=draw(st.integers(0, 2**64 - 1)),
        tolerance_rel=1e-9,
        output_format="csv",
    )
    return plan, dim, first, size


def full_batch(dim, seed):
    # One full batch of dim ``dim`` from trial 0.  The examples below run
    # one at n = 16 and one at n = 64, so every run covers both shapes the
    # kernel splits between two threads.
    cap = min(_batch_rows(dim), generators._CHUNK_TRIALS)
    plan = cli.TrialPlan(
        dims=(dim,),
        trials_per_dim=cap,
        q_lo=-3.0,
        q_hi=3.0,
        rank_policy="mixed",
        seed=seed,
        tolerance_rel=1e-9,
        output_format="csv",
    )
    return plan, dim, 0, cap


@given(batches())
@example(full_batch(16, 5))
@example(full_batch(64, 6))
@settings(max_examples=40, deadline=None)
def test_batched_rows_equal_reference_path(case):
    plan, dim, first, size = case
    indices = np.arange(first, first + size, dtype=np.uint64)
    streams = _derived_streams(plan.seed, indices, generators._TRIAL_STREAMS)
    mixed = plan.rank_policy == "mixed"
    qs, stack = generators._draw_trials(
        streams, first, dim, plan.q_lo, plan.q_hi, mixed
    )
    rho, vals, frame, a, b = stack
    rows = list(_trace_rows(stack))
    reports = [_report(traces, q) for q, traces in zip(qs, rows)]
    assert len(rows) == len(reports) == size

    for offset in range(size):
        index = first + offset
        q, rank = reference_q_and_rank(plan, dim, index)
        assert qs[offset] == q
        trial = qc.SeededRng(plan.seed, index)
        state = qc.random_density(dim, rank, trial.split(2))
        ref_a = qc.random_hermitian(dim, trial.split(3))
        ref_b = qc.random_hermitian(dim, trial.split(4))
        assert rho[offset].tobytes() == state.mat.tobytes()
        assert vals[offset].tobytes() == state.eigenvalues.tobytes()
        assert frame[offset].tobytes() == state.eigenvectors.tobytes()
        assert a[offset].tobytes() == ref_a.mat.tobytes()
        assert b[offset].tobytes() == ref_b.mat.tobytes()

        expected = _traces(state, ref_a, ref_b)
        assert [as_bytes(v) for v in rows[offset]] == [as_bytes(v) for v in expected]
        reference = qc.bound_report(state, ref_a, ref_b, q)
        assert csv_line(reports[offset]) == csv_line(reference)


def test_batches_stay_in_one_dim_one_chunk_and_under_the_cap(monkeypatch):
    # 600 trials: an n = 1 group, an n = 5 group, and an n = 32 group
    # that the 512-trial chunk edge cuts at trial 512.  The draws are
    # stubbed out; each batch reports its dim and its rows of seed words.
    def cut(words, first, dim, q_lo, q_hi, mixed):
        return [dim] * len(words), words

    monkeypatch.setattr(generators, "_draw_trials", cut)
    chunk = generators._CHUNK_TRIALS
    cuts = []
    for first, dims, words in generators._trial_batches(
        3, (1, 5, 32), 200, -3.0, 3.0, True
    ):
        last = first + len(dims)
        cuts.append((dims[0], first, last))
        indices = np.arange(first, last, dtype=np.uint64)
        expected = _derived_streams(3, indices, generators._TRIAL_STREAMS)
        assert words.tobytes() == expected.tobytes()
    assert [first for _, first, _ in cuts] == [0] + [last for _, _, last in cuts[:-1]]
    assert cuts[-1][2] == 600
    for dim, first, last in cuts:
        assert (1, 5, 32)[first // 200] == (1, 5, 32)[(last - 1) // 200] == dim
        assert first // chunk == (last - 1) // chunk
        assert (last - first) * dim**2 <= max(dim**2, _BATCH_ENTRIES)
    sizes = [(dim, last - first) for dim, first, last in cuts]
    assert sizes[:2] == [(1, 200), (5, 163)]
    assert (5, 37) in sizes
    assert sizes.count((32, 4)) == 50  # 112 trials before the chunk edge, 88 after
