"""The inputs of each workload in BENCHMARK.json, derived from a seed.

Every workload is one fixed-size call of the real CLI, so the record
stream of a call depends only on the workload and its seed.  The program
sees only what is derived here: the CLI ``--seed`` value and, for
``sweep-n8``, the instance file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# Record streams of this seed must match ``digests.json`` byte for byte.
REFERENCE_SEED = 0
OUT_FILE = "records.out"
INSTANCE_FILE = "instance.json"

# Sizes give a quarter to half a second of main() per call at the seed
# commit on a 2-core x86 box (about 1.0 ms per verify-mixed trial, 3.5 ms
# per n=32 trial, 0.7 ms per n=4 search evaluation, 0.34 ms per n=8 sweep
# point).  Short calls give more samples per run, hence steadier medians.
# Verify trial counts are multiples of 16 so the boundary-q period of the
# CLI (every 16th, 17th and 18th trial) divides them exactly.
VERIFY_MIXED_TRIALS = 64
VERIFY_N32_TRIALS = 64
SEARCH_BUDGET = 750
# 6 * 250 + 1 points on [-3, 3]: q = -1, 0 and 1 are exact grid points.
SWEEP_STEPS = 1501
SWEEP_DIM = 8


@dataclass(frozen=True)
class Prepared:
    """Inputs of one workload: the CLI argv, run from the work directory."""

    argv: tuple[str, ...]
    items: int
    records: str  # "csv", "jsonl" or "search"


def cli_seed(workload: str, seed: int) -> int:
    """Derive the 64-bit CLI seed of a workload from the benchmark seed."""
    key = hashlib.sha256(f"perfbench/{workload}/{seed}".encode()).digest()
    return int.from_bytes(key[:8], "little")


def prepare(workload: str, seed: int, work: Path) -> Prepared:
    """Write any input files of ``workload`` into ``work``; return its call."""
    s = str(cli_seed(workload, seed))
    if workload.startswith("verify-"):
        dims, trials = (
            ("2,3,4,8", VERIFY_MIXED_TRIALS)
            if workload == "verify-mixed"
            else ("32", VERIFY_N32_TRIALS)
        )
        argv = (
            "verify", "--dims", dims, "--trials", str(trials),
            "--rank-policy", "mixed", "--q-lo", "-3", "--q-hi", "3",
            "--format", "csv", "--workers", "1", "--seed", s, "--out", OUT_FILE,
        )  # fmt: skip
        return Prepared(argv, trials * len(dims.split(",")), "csv")
    if workload == "search-n4":
        argv = (
            "search", "--n", "4", "--q", "0.5", "--budget", str(SEARCH_BUDGET),
            "--seed", s, "--out", OUT_FILE,
        )  # fmt: skip
        return Prepared(argv, SEARCH_BUDGET, "search")
    if workload == "sweep-n8":
        (work / INSTANCE_FILE).write_text(sweep_instance(int(s)), encoding="utf-8")
        argv = (
            "sweep", INSTANCE_FILE, "--q-lo", "-3", "--q-hi", "3",
            "--steps", str(SWEEP_STEPS), "--format", "json", "--out", OUT_FILE,
        )  # fmt: skip
        return Prepared(argv, SWEEP_STEPS, "jsonl")
    raise KeyError(workload)


def sweep_instance(seed: int, n: int = SWEEP_DIM) -> str:
    """Return an instance document with a full-rank n x n state.

    The spectrum is half uniform, half Dirichlet, so every eigenvalue is
    at least 1/(2n); the frame is Haar-random and A, B are Gaussian
    Hermitian matrices.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    spectrum = np.sort(0.5 * rng.dirichlet(np.ones(n)) + 0.5 / n)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    frame, r = np.linalg.qr(raw)
    frame = frame * (np.diagonal(r) / np.abs(np.diagonal(r)))
    rho = (frame * spectrum) @ frame.conj().T

    def hermitian(m):
        return (m + m.conj().T) / 2.0

    def grid(m):
        return [[{"re": float(c.real), "im": float(c.imag)} for c in row] for row in m]

    a, b = (
        hermitian(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for _ in range(2)
    )
    doc = {"dim": n, "rho": grid(hermitian(rho)), "a": grid(a), "b": grid(b)}
    return json.dumps(doc) + "\n"
