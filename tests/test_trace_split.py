"""Large trace passes run three of their six traces on a second thread.

``bounds._trace_kernel`` hands three of its ``_trace3`` calls to a worker
thread once one trace covers ``_SPLIT_TRIPLES`` triple products and more
than one CPU is available.  These tests pin that the split keeps every
column bit for bit, that only the stacks above the threshold start a
thread, and that a failing worker raises on the calling thread and leaves
no thread behind.
"""

import threading

import numpy as np
import pytest

import qcbounds as qc
from qcbounds import bounds, cli

from conftest import random_instance

# (rows, n) of the stacks checked, each at and past the threshold.
SHAPES = [(64, 8), (16, 16), (4, 32), (1, 64)]


def instance_stack(rows, n, seed):
    # Trace-kernel arguments for ``rows`` instances of dim n; the even
    # rows have rank n / 2.
    states, obs_a, obs_b = [], [], []
    for row in range(rows):
        state, a, b = random_instance(seed + row, n, n if row % 2 else n // 2)
        states.append(state)
        obs_a.append(a.mat)
        obs_b.append(b.mat)
    rho = np.stack([s.mat for s in states])
    vals = np.stack([s.eigenvalues for s in states])
    return rho, vals, np.stack(obs_a), np.stack(obs_b)


def columns_bytes(columns):
    return [(type(c), np.asarray(c).tobytes()) for c in columns]


class CountingThread(threading.Thread):
    starts = 0

    def start(self):
        type(self).starts += 1
        super().start()


@pytest.fixture
def counted(monkeypatch):
    # Counts every thread started; two CPUs, so the split does not
    # depend on the machine the tests run on.
    monkeypatch.setattr(threading, "Thread", CountingThread)
    monkeypatch.setattr(bounds, "_CPUS", 2)
    CountingThread.starts = 0
    return CountingThread


@pytest.mark.parametrize("rows, n", SHAPES)
def test_split_keeps_every_column_bit_for_bit(rows, n, counted, monkeypatch):
    args = instance_stack(rows, n, seed=rows * 100 + n)
    monkeypatch.setattr(bounds, "_SPLIT_TRIPLES", 2**62)
    serial = bounds._trace_kernel(*args)
    assert counted.starts == 0
    monkeypatch.setattr(bounds, "_SPLIT_TRIPLES", 0)
    split = bounds._trace_kernel(*args)
    assert counted.starts == 1
    assert columns_bytes(split) == columns_bytes(serial)


def test_threshold_is_where_the_stacks_split(counted):
    # The default threshold splits (16, 16) and (1, 64) stacks, and no
    # stack of 64 rows at n = 8 or one row at n = 32.
    for (rows, n), starts in [((64, 8), 0), ((1, 32), 0), ((16, 16), 1), ((1, 64), 2)]:
        bounds._trace_kernel(*instance_stack(rows, n, seed=n))
        assert counted.starts == starts, (rows, n)


def verify_argv(path, dims, trials):
    return ["verify", "--dims", dims, "--trials", str(trials), "--rank-policy",
            "mixed", "--q-lo", "-3", "--q-hi", "3", "--seed", "11",
            "--out", str(path)]  # fmt: skip


def subcommand_argvs(tmp_path):
    # The benchmark's verify-mixed, search-n4 and sweep-n8 calls, with
    # sweep's grid cut short.
    instance = tmp_path / "instance.json"
    qc.save_instance(instance, *random_instance(5, 8))
    return {
        "verify-mixed": verify_argv(tmp_path / "mixed.csv", "2,3,4,8", 64),
        "search-n4": ["search", "--n", "4", "--q", "0.5", "--budget", "750",
                      "--seed", "11", "--out", str(tmp_path / "search.json")],
        "sweep-n8": ["sweep", str(instance), "--q-lo", "-3", "--q-hi", "3",
                     "--steps", "101", "--format", "json",
                     "--out", str(tmp_path / "sweep.jsonl")],
    }  # fmt: skip


def test_small_workloads_start_no_thread(tmp_path, counted, capsys):
    for name, argv in subcommand_argvs(tmp_path).items():
        before = threading.active_count()
        assert cli.main(argv) == 0, name
        assert counted.starts == 0, name
        assert threading.active_count() == before, name
    capsys.readouterr()


def test_n32_verify_starts_one_thread_per_batch(tmp_path, counted):
    # Four n = 32 trials per batch: two batches.
    before = threading.active_count()
    assert cli.main(verify_argv(tmp_path / "split.csv", "32", 8)) == 0
    assert counted.starts == 2
    assert threading.active_count() == before


def test_one_cpu_splits_nothing_and_keeps_the_bytes(tmp_path, counted, monkeypatch):
    # Four n = 32 batches of four trials, one n = 16 batch of sixteen.
    assert cli.main(verify_argv(tmp_path / "split.csv", "32,16", 16)) == 0
    assert counted.starts == 5
    monkeypatch.setattr(bounds, "_CPUS", 1)
    counted.starts = 0
    assert cli.main(verify_argv(tmp_path / "serial.csv", "32,16", 16)) == 0
    assert counted.starts == 0
    split = (tmp_path / "split.csv").read_bytes()
    assert split == (tmp_path / "serial.csv").read_bytes()


@pytest.fixture
def failing_worker(monkeypatch):
    # _trace3 runs out of memory whenever it runs off the main thread.
    trace3 = bounds._trace3

    def exhausted(*args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("Unable to allocate 1. GiB")
        return trace3(*args)

    monkeypatch.setattr(bounds, "_trace3", exhausted)
    monkeypatch.setattr(bounds, "_CPUS", 2)


def test_worker_error_is_raised_on_the_calling_thread(failing_worker):
    before = threading.active_count()
    with pytest.raises(MemoryError, match="Unable to allocate"):
        bounds._trace_kernel(*instance_stack(4, 32, seed=7))
    assert threading.active_count() == before


def test_worker_out_of_memory_exits_2(tmp_path, failing_worker, capsys):
    before = threading.active_count()
    assert cli.main(verify_argv(tmp_path / "out.csv", "32", 4)) == 2
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 1. GiB\n"
    assert threading.active_count() == before
