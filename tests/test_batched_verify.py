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
from hypothesis import given, settings
from hypothesis import strategies as st

import qcbounds as qc
from qcbounds import cli
from qcbounds.bounds import _traces
from qcbounds.generators import _derived_streams

DIMS = [1, 2, 3, 4, 5, 6, 7, 8, 32]


def reference_q_and_rank(plan, dim, index):
    # The q and rank draws of a trial, written out from the stream layout:
    # q from split 0 unless the slot pins a boundary value, rank from
    # split 1 on odd trials under the mixed policy.
    trial = qc.SeededRng(plan.seed, index)
    slot = index % cli.BOUNDARY_PERIOD
    if slot < len(cli.BOUNDARY_Q):
        q = cli.BOUNDARY_Q[slot]
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
    cap = min(max(1, cli._BATCH_ENTRIES // dim**2), cli._CHUNK_TRIALS)
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


@given(batches())
@settings(max_examples=40, deadline=None)
def test_batched_rows_equal_reference_path(case):
    plan, dim, first, size = case
    indices = np.arange(first, first + size, dtype=np.uint64)
    streams = _derived_streams(plan.seed, indices, cli._TRIAL_STREAMS)
    draws = cli._draw_batch(plan, dim, first, streams)
    stack = cli._build_batch(draws)
    rho, vals, frame, a, b = stack
    rows = list(cli._trace_rows(stack))
    outcomes = list(cli._run_batch(plan, dim, first, streams))
    assert len(rows) == len(outcomes) == size

    for offset in range(size):
        index = first + offset
        q, rank = reference_q_and_rank(plan, dim, index)
        assert draws.qs[offset] == q
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
        outcome = outcomes[offset]
        assert outcome.index == index
        reference = qc.bound_report(state, ref_a, ref_b, q)
        assert csv_line(outcome.report) == csv_line(reference)


def test_batches_stay_in_one_dim_one_chunk_and_under_the_cap():
    # 600 trials: an n = 1 group, an n = 5 group, and an n = 32 group
    # that the 512-trial chunk edge cuts at trial 512.
    plan = cli.TrialPlan((1, 5, 32), 200, -3.0, 3.0, "mixed", 3, 1e-9, "csv")
    cuts = []
    for start in range(0, 600, cli._CHUNK_TRIALS):
        cuts += list(cli._batches(plan, start, min(start + cli._CHUNK_TRIALS, 600)))
    assert [first for _, first, _ in cuts] == [0] + [last for _, _, last in cuts[:-1]]
    assert cuts[-1][2] == 600
    for dim, first, last in cuts:
        assert plan.dims[first // 200] == plan.dims[(last - 1) // 200] == dim
        assert first // cli._CHUNK_TRIALS == (last - 1) // cli._CHUNK_TRIALS
        assert (last - first) * dim**2 <= max(dim**2, cli._BATCH_ENTRIES)
    sizes = [(dim, last - first) for dim, first, last in cuts]
    assert sizes[:2] == [(1, 200), (5, 163)]
    assert (5, 37) in sizes
    assert sizes.count((32, 4)) == 50  # 112 trials before the chunk edge, 88 after
