"""Benchmark of the qcbounds CLI: draw -> validate -> evaluate -> emit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and README.md) for about S
seconds, one fresh interpreter per CLI call, from the source tree under
``src/`` of this checkout.  Every record of every call goes through the
output gate of ``gate.py``.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
calls and reports the per-layer split.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK_PARENT = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
# At least this many calls of each kind per run, however short --seconds is.
MIN_CALLS = 3
# A call takes about half a second; the cap keeps a hung run under 180 s.
CHILD_TIMEOUT_S = 20
# Time of the child's calibration kernel on an unloaded 2-core x86 box.
# Reported times are scaled by REFERENCE_CALIBRATION_S / measured time of
# the kernel in the same child, which divides out machine-speed drift.
REFERENCE_CALIBRATION_S = 0.045
# Fixed for every call so both sides of a comparison run alike.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
THREAD_ENV_KEYS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "OMP_PROC_BIND",
    "GOTO_NUM_THREADS",
)
# Metric names and units are those BENCHMARK.json declares.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
REPORT_UNITS = {**END_TO_END_UNITS, "calibration_s": "s"}


@dataclass
class Call:
    """Outcome of one CLI call in a child interpreter."""

    traced: bool
    items: int
    failed: int
    problems: list[str]
    digest: str | None = None
    rate: float | None = None
    setup_s: float | None = None
    raw_rate: float | None = None
    raw_setup_s: float | None = None
    calibration_s: float | None = None
    rss_mb: float | None = None
    trace: dict | None = None
    out_bytes: int = 0
    absent_hooks: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.prepared = workloads.prepare(workload, seed, work)
        self.env = dict(os.environ, **CHILD_ENV)
        # Bytecode is cached, as for an installed package, so set-up time
        # does not include compiling qcbounds.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SOURCE), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        self.last_output: bytes | None = None

    def warm_up(self) -> None:
        # Compiles bytecode and fills the page cache before anything is timed.
        subprocess.run(
            [sys.executable, "-c", "import qcbounds.cli"],
            cwd=self.work, env=self.env, capture_output=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )  # fmt: skip

    def call(self, traced: bool) -> Call:
        prepared = self.prepared
        result_path, out_path = self.work / "child.json", self.work / workloads.OUT_FILE
        for path in (result_path, out_path):
            path.unlink(missing_ok=True)
        launch_ns = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(result_path), str(int(traced)),
                 str(launch_ns), *prepared.argv],
                cwd=self.work, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )  # fmt: skip
        except subprocess.TimeoutExpired:
            problem = f"child killed after {CHILD_TIMEOUT_S} s"
            return Call(traced, prepared.items, prepared.items, [problem])
        if proc.returncode != 0 or not result_path.exists():
            # No timing either: every item of the call fails.
            problem = f"child exited {proc.returncode}: {proc.stderr[-500:]}"
            return Call(traced, prepared.items, prepared.items, [problem])
        result = json.loads(result_path.read_text(encoding="utf-8"))
        output = out_path.read_bytes() if out_path.exists() else b""
        if result["rc"] != 0:
            failed, problems = prepared.items, [f"CLI exited {result['rc']}: {proc.stderr[-500:]}"]
        else:
            failed, problems = self._gate(output)
            self.last_output = output
        raw_rate = prepared.items / (result["main_ns"] / 1e9)
        raw_setup_s = result["setup_ns"] / 1e9
        calibration_s = result["calibration_ns"] / 1e9
        speed = calibration_s / REFERENCE_CALIBRATION_S
        return Call(
            traced=traced,
            items=prepared.items,
            failed=failed,
            problems=problems,
            digest=gate.digest(output),
            rate=raw_rate * speed,
            setup_s=raw_setup_s / speed,
            raw_rate=raw_rate,
            raw_setup_s=raw_setup_s,
            calibration_s=calibration_s,
            rss_mb=result["maxrss_kb"] / 1024.0,
            trace=result["trace"],
            out_bytes=len(output),
            absent_hooks=result["absent_hooks"],
        )

    def _gate(self, output: bytes) -> tuple[int, list[str]]:
        text = output.decode("utf-8", errors="replace")
        kind, items = self.prepared.records, self.prepared.items
        if kind == "search":
            problem = gate.search_problem(text, items)
            return (items, [problem]) if problem else (0, [])
        records = gate.parse_csv(text) if kind == "csv" else gate.parse_jsonl(text)
        return gate.failed_records(records, items)

    def witness_problem(self) -> str | None:
        """Re-evaluate the search witness with ``sweep`` at its own q and gate it."""
        witness = self.work / "witness.json"
        witness.write_bytes(self.last_output)
        q = repr(float(json.loads(self.last_output)["q"]))
        proc = subprocess.run(
            [sys.executable, "-m", "qcbounds", "sweep", witness.name, "--q-lo", q,
             "--q-hi", q, "--steps", "1", "--format", "json"],
            cwd=self.work, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )  # fmt: skip
        if proc.returncode != 0:
            return f"witness sweep exited {proc.returncode}: {proc.stderr[-500:]}"
        _, problems = gate.failed_records(gate.parse_jsonl(proc.stdout), 1)
        return f"witness: {problems[0]}" if problems else None


def median_and_quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return statistics.median(values), q1, q3


def manifest(bench: Bench) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )  # fmt: skip
        describe = describe.stdout.strip() if describe.returncode == 0 else None
    except OSError:
        describe = None
    sources = b"".join(p.read_bytes() for p in sorted((SOURCE / "qcbounds").glob("*.py")))
    return {
        "workload": bench.workload,
        "seed": bench.seed,
        "argv": ["qcbounds", *bench.prepared.argv],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: bench.env.get(k) for k in THREAD_ENV_KEYS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_describe": describe,
        "source_sha256": gate.digest(sources),
    }


def reference_digest(workload: str) -> str | None:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["sha256"].get(workload)


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> int:
    bench = Bench(workload, seed, work)
    bench.warm_up()
    calls: list[Call] = []
    deadline = time.monotonic() + seconds
    while (
        time.monotonic() < deadline
        or sum(not c.traced for c in calls) < MIN_CALLS
        or (trace and sum(c.traced for c in calls) < MIN_CALLS)
    ):
        calls.append(bench.call(traced=trace and len(calls) % 2 == 1))

    problems = [p for c in calls for p in c.problems]
    attempted = sum(c.items for c in calls)
    failed = sum(c.failed for c in calls)
    best_ratio = None
    if bench.prepared.records == "search" and failed == 0:
        best_ratio = json.loads(bench.last_output)["search"]["best_ratio"]
        problem = bench.witness_problem()
        if problem:
            problems.append(problem)
            failed = attempted
    digests = sorted({c.digest for c in calls if c.digest})
    correct = failed == 0 and len(digests) == 1
    if len(digests) > 1:
        problems.append(f"record streams differ between repeated calls: {digests}")
    if correct and seed == workloads.REFERENCE_SEED:
        expected = reference_digest(workload)
        if digests[0] != expected:
            correct = False
            problems.append(f"reference digest {digests[0]} != stored {expected}")

    plain = [c for c in calls if not c.traced and c.rate is not None]
    traced = [c for c in calls if c.traced and c.rate is not None]
    if not plain or (trace and not traced):
        for problem in problems[:5]:
            print(f"problem: {problem}", file=sys.stderr)
        print("error: no call completed", file=sys.stderr)
        return 1

    print(f"perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("manifest " + json.dumps(manifest(bench), sort_keys=True))
    print(f"record sha256 {digests[0] if digests else None}")
    for problem in problems[:20]:
        print(f"gate failure: {problem}")
    print(
        f"calls untraced={len(plain)} traced={len(traced)} items attempted={attempted} "
        f"failed={failed} failed_frac={failed / attempted:.6g}"
    )
    if best_ratio is not None:
        print(f"best_ratio {best_ratio!r} (deterministic for the seed)")

    metrics = {}
    if not trace:
        columns = {
            "items_per_s": [c.rate for c in plain],
            "setup_s": [c.setup_s for c in plain],
            "peak_rss_mb": [c.rss_mb for c in plain],
            "raw items_per_s": [c.raw_rate for c in plain],
            "raw setup_s": [c.raw_setup_s for c in plain],
            "calibration_s": [c.calibration_s for c in plain],
        }
        for name, values in columns.items():
            mid, q1, q3 = median_and_quartiles(values)
            unit = REPORT_UNITS[name.split()[-1]]
            print(f"{name:16s} {mid:12.6g} {unit:4s} median of {len(values)} (q1 {q1:.6g}, q3 {q3:.6g})")
            if name in END_TO_END_UNITS:
                metrics[name] = {"value": mid, "unit": unit}
    else:
        absent = traced[0].absent_hooks
        print(f"absent hooks {absent}")
        layers = spans.layer_metrics([(c.trace, c.items, c.out_bytes) for c in traced], absent)
        layers["trace.overhead_frac"] = (
            statistics.median(c.rate for c in plain) / statistics.median(c.rate for c in traced)
            - 1.0
        )
        for name, unit in LAYER_UNITS.items():
            value = layers[name]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{name:40s} {shown:>12s} {unit:10s} over {len(traced)} traced calls")
            metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "qcbounds" / "cli.py").is_file():
        print(f"error: no qcbounds source tree at {SOURCE}", file=sys.stderr)
        return 2
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT))
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
