"""Command line front end: verification runs, q sweeps, tightness search.

Three subcommands share one record schema:

* ``verify`` streams one record per random trial and exits 0 only when
  every trial satisfies the master inequality at the given tolerance;
* ``sweep`` evaluates one stored instance across a q grid;
* ``search`` hunts for near-equality instances and prints the best one
  in the instance-file format, so it can be fed straight back to sweep.

Exit codes: 0 success, 1 verified violations, 2 invalid input.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bounds import _BATCH_ENTRIES, BoundReport, _report, _trace_rows, _violated
from .errors import MasterInequalityViolation, QcboundsError
from .generators import (
    SeededRng,
    _complex_matrix,
    _derived_streams,
    _draw_gaussian,
    _draw_state,
    _spectrum,
    _unitary_frame,
)
from .hermitian import _density_arrays, _Instances, _symmetrised
from .instances import instance_payload, load_instance, render_document
from .search import maximize_tightness, sweep_q

# Nothing here calls these three: the names stay bound for the traced
# benchmark runs, which hook ``cli.bound_report``, ``cli.random_density``
# and ``cli.random_hermitian`` (perfbench/spans.py).
from .bounds import bound_report  # noqa: F401
from .generators import random_density, random_hermitian  # noqa: F401

CSV_COLUMNS = (
    "dim",
    "q",
    "regime",
    "lambda_min",
    "lambda_max",
    "var_a",
    "var_b",
    "product",
    "robertson",
    "naive_q",
    "refined",
    "slack",
    "ratio",
)
# Every 16th, 17th and 18th trial pins q to a boundary value so the exact
# regime edges are always exercised.
BOUNDARY_Q = (-1.0, 0.0, 1.0)
BOUNDARY_PERIOD = 16
_UINT64_BOUND = 2**64
# Trial ``index`` draws from ``SeededRng(seed, index).split(k)``: q for
# k = 0, the rank for k = 1, the state for k = 2, A and B for k = 3 and 4.
# The streams of this many consecutive trials are derived in one pass.
_TRIAL_STREAMS = 5
_CHUNK_TRIALS = 512


@dataclass(frozen=True)
class TrialPlan:
    """Everything a verification run depends on, in one validated value."""

    dims: tuple[int, ...]
    trials_per_dim: int
    q_lo: float
    q_hi: float
    rank_policy: str
    seed: int
    tolerance_rel: float
    output_format: str

    def problems(self) -> list[str]:
        """Return human-readable reasons the plan is invalid, if any."""
        out = []
        if not self.dims:
            out.append("dims must not be empty")
        elif any(d < 1 for d in self.dims):
            out.append("every dim must be >= 1")
        if self.trials_per_dim < 1:
            out.append("trials must be >= 1")
        if not (np.isfinite(self.q_lo) and np.isfinite(self.q_hi)):
            out.append("q bounds must be finite")
        elif self.q_lo > self.q_hi:
            out.append("q-lo must not exceed q-hi")
        elif not np.isfinite(self.q_hi - self.q_lo):
            out.append("q-hi - q-lo must be a finite float")
        if self.rank_policy not in ("full", "mixed"):
            out.append(f"unknown rank policy {self.rank_policy!r}")
        # Trial streams are derived from one 32-bit word of the trial
        # index (generators._spawn_words).
        if len(self.dims) * self.trials_per_dim > 2**32:
            out.append("dims times trials must not exceed 2**32")
        if not 0 <= self.seed < _UINT64_BOUND:
            out.append("seed must be an unsigned 64-bit integer")
        if not (np.isfinite(self.tolerance_rel) and self.tolerance_rel > 0):
            out.append("tolerance must be positive")
        if self.output_format not in ("csv", "json"):
            out.append(f"unknown output format {self.output_format!r}")
        return out


class _TrialOutcome(NamedTuple):
    index: int
    report: BoundReport
    replay: dict | None  # the violation document; None unless violated


class _Draws(NamedTuple):
    """The random draws of consecutive trials of one dim, stacked."""

    qs: list[float]
    spectra: np.ndarray  # (m, n), each sorted ascending
    raw_frames: np.ndarray  # (m, n, n) Gaussian matrices orthonormalised by QR
    raw_a: np.ndarray  # (m, n, n) Gaussian matrices, A before symmetrising
    raw_b: np.ndarray


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (QcboundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # search aborts on the first violation it finds; that is exit 1.
        return 1 if isinstance(exc, MasterInequalityViolation) else 2


def cmd_verify(plan: TrialPlan, out=None) -> int:
    """Run the Monte Carlo verification described by ``plan``.

    The trials run in index order, in chunks of ``_CHUNK_TRIALS`` whose
    streams are derived in one pass.  Each chunk is cut into batches of
    consecutive trials of one dim, of at most ``_BATCH_ENTRIES // dim**2``
    trials.  Every trial draws from its own streams through the helpers
    ``random_density`` and ``random_hermitian`` run, in the order they
    fix, into its row of preallocated float stacks.  The spectra (the
    exponentials normalised as NumPy's Dirichlet(1) normalises them), the
    complex matrices, the instances and the bounds are then computed once
    per batch, bit for bit as one trial at a time; so is the instance of
    a violated trial, which its ``violation_<index>.json`` document and
    its JSON record take from the batch.  Records are written in index
    order, so a trial that raises leaves those before it written.
    """
    problems = plan.problems()
    if problems:
        for problem in problems:
            print(f"invalid plan: {problem}", file=sys.stderr)
        return 2

    total = len(plan.dims) * plan.trials_per_dim
    violations: list[_TrialOutcome] = []
    with _out_stream(out) as stream:
        _emit_header(stream, plan.output_format)
        for start in range(0, total, _CHUNK_TRIALS):
            stop = min(start + _CHUNK_TRIALS, total)
            indices = np.arange(start, stop, dtype=np.uint64)
            streams = _derived_streams(plan.seed, indices, _TRIAL_STREAMS)
            for dim, first, last in _batches(plan, start, stop):
                batch = streams[first - start : last - start]
                for outcome in _run_batch(plan, dim, first, batch):
                    _emit_record(
                        stream, plan.output_format, outcome.report, outcome.replay
                    )
                    if outcome.replay is not None:
                        violations.append(outcome)

    for outcome in violations:
        path = Path(f"violation_{outcome.index}.json")
        path.write_text(render_document(outcome.replay) + "\n", encoding="utf-8")
    if violations:
        print(
            f"{len(violations)} violation(s) at tolerance {plan.tolerance_rel!r}; "
            f"instances written to violation_<index>.json",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_sweep(
    instance_file, q_lo: float, q_hi: float, steps: int, output_format: str, out=None
) -> int:
    """Evaluate a stored instance on a uniform q grid, endpoints included.

    Every report of the grid comes from one evaluation pass over the
    instance, so the six instance columns of the records are formatted
    once, from the first report, and each record formats only its q
    columns.  All reports are computed before the first byte is written,
    so an instance the bounds refuse leaves no partial output.
    """
    if steps < 1:
        print("invalid sweep: steps must be >= 1", file=sys.stderr)
        return 2
    if not (np.isfinite(q_lo) and np.isfinite(q_hi)) or q_lo > q_hi:
        print("invalid sweep: need finite q-lo <= q-hi", file=sys.stderr)
        return 2
    if not np.isfinite(q_hi - q_lo):
        print("invalid sweep: q-hi - q-lo must be a finite float", file=sys.stderr)
        return 2
    if output_format not in ("csv", "json"):
        print(f"invalid sweep: unknown format {output_format!r}", file=sys.stderr)
        return 2
    state, a, b = load_instance(instance_file)
    grid = np.linspace(q_lo, q_hi, steps)
    reports = sweep_q(state, a, b, grid)
    cells = _instance_cells(output_format, reports[0])
    with _out_stream(out) as stream:
        _emit_header(stream, output_format)
        for report in reports:
            _emit_record(stream, output_format, report, None, cells)
    return 0


def cmd_search(n: int, q: float, budget: int, seed: int, out=None) -> int:
    """Search for a near-equality instance and print it as an instance file."""
    result = maximize_tightness(n, q, budget, SeededRng(seed))
    state, a, b, q_used = result.best_instance
    document = instance_payload(state, a, b)
    document["q"] = q_used
    document["search"] = {
        "best_ratio": result.best_ratio,
        "evaluations": result.evaluations,
        "trajectory": [[index, ratio] for index, ratio in result.trajectory],
    }
    with _out_stream(out) as stream:
        stream.write(render_document(document) + "\n")
    print(
        f"search: best_ratio={result.best_ratio!r} "
        f"evaluations={result.evaluations} (n={n}, q={q!r}, seed={seed})",
        file=sys.stderr,
    )
    return 0


def _batches(plan: TrialPlan, start: int, stop: int):
    """Yield ``(dim, first, last)`` for batches covering trials [start, stop)."""
    first = start
    while first < stop:
        group = first // plan.trials_per_dim
        dim = plan.dims[group]
        cap = max(1, _BATCH_ENTRIES // dim**2)
        last = min(stop, (group + 1) * plan.trials_per_dim, first + cap)
        yield dim, first, last
        first = last


def _run_batch(plan: TrialPlan, dim: int, first: int, streams):
    """Yield the outcomes of trials ``first, first + 1, ...``, in order.

    A violated trial's document holds its instance, read from the batch,
    its q and its report's record fields.
    """
    draws = _draw_batch(plan, dim, first, streams)
    stack = _build_batch(draws)
    for offset, (q, traces) in enumerate(zip(draws.qs, _trace_rows(stack))):
        report = _report(traces, q)
        replay = None
        if _violated(report, plan.tolerance_rel):
            replay = instance_payload(*stack.row(offset))
            replay["q"] = q
            replay["report"] = _record_fields(report)
        yield _TrialOutcome(first + offset, report, replay)


def _draw_batch(plan: TrialPlan, dim: int, first: int, streams) -> _Draws:
    # Trial ``first + offset`` draws from ``streams[offset]``, each stream
    # exactly as the single-trial path draws from it, into row ``offset``
    # of the exponential stack and of the six float stacks: the real and
    # the imaginary parts of the frame, of A and of B.  The spectra and
    # the complex matrices are then formed once for the batch.
    m = len(streams)
    qs = []
    exps = np.zeros((m, dim))
    parts = np.empty((6, m, dim, dim))
    for offset, trial_streams in enumerate(streams):
        q_stream, rank_stream, state_stream, a_stream, b_stream = trial_streams
        index = first + offset
        slot = index % BOUNDARY_PERIOD
        if slot < len(BOUNDARY_Q):
            q = BOUNDARY_Q[slot]
        else:
            q = float(q_stream.generator().uniform(plan.q_lo, plan.q_hi))
        if plan.rank_policy == "mixed" and index % 2 == 1 and dim >= 2:
            rank = int(rank_stream.generator().integers(1, dim))
        else:
            rank = dim
        qs.append(q)
        row = parts[:, offset]
        _draw_state(state_stream.generator(), rank, exps[offset], row[0], row[1])
        _draw_gaussian(a_stream.generator(), row[2], row[3])
        _draw_gaussian(b_stream.generator(), row[4], row[5])
    raw_frames, raw_a, raw_b = _complex_matrix(parts[0::2], parts[1::2])
    return _Draws(qs, _spectrum(exps), raw_frames, raw_a, raw_b)


def _build_batch(draws: _Draws) -> _Instances:
    # The stacked counterpart of random_density and random_hermitian.
    frame = _unitary_frame(draws.raw_frames)
    rho, vals = _density_arrays(draws.spectra, frame)
    a, b = _symmetrised(draws.raw_a), _symmetrised(draws.raw_b)
    return _Instances(rho, vals, frame, a, b)


def _record_fields(report: BoundReport) -> dict:
    fields = {}
    for column in CSV_COLUMNS:
        value = getattr(report, column)
        fields[column] = value.value if column == "regime" else value
    return fields


def _emit_header(stream, output_format: str) -> None:
    if output_format == "csv":
        stream.write(",".join(CSV_COLUMNS) + "\n")


def _instance_cells(output_format: str, report: BoundReport) -> str:
    """Return the text of the six instance columns of ``report``'s record.

    These columns (``lambda_min`` through ``robertson``) read only the
    instance, so every record of one ``sweep`` shares them.  CSV gives the
    cells joined by ``,``; JSON gives the ``"name": value`` members joined
    by ``", "``.  Each float is written as ``repr(float(x))``.
    """
    var_a, var_b, product, lambda_min, lambda_max, robertson = report[3:9]
    if output_format == "csv":
        return (
            f"{float(lambda_min)!r},{float(lambda_max)!r},{float(var_a)!r},"
            f"{float(var_b)!r},{float(product)!r},{float(robertson)!r}"
        )
    return (
        f'"lambda_min": {float(lambda_min)!r}, '
        f'"lambda_max": {float(lambda_max)!r}, '
        f'"var_a": {float(var_a)!r}, "var_b": {float(var_b)!r}, '
        f'"product": {float(product)!r}, "robertson": {float(robertson)!r}'
    )


def _emit_record(
    stream, output_format: str, report: BoundReport, replay, cells=None
) -> None:
    """Write ``report`` as one record, formatted in one pass.

    ``cells`` is the ``_instance_cells`` text of the report's instance;
    ``sweep`` formats it once for all its records, and when it is None it
    is formatted from ``report``.  Floats are written as ``repr(float(x))``,
    ``dim`` as an int and the regime by its value, read as the member's
    ``_value_`` rather than through the slower ``value`` property.  CSV
    leaves the cell of a missing ratio empty.  JSON writes the layout of
    ``json.dumps`` with its default separators: keys in ``CSV_COLUMNS``
    order, ``null`` for a missing ratio, and for a violated trial
    (``replay`` not None) the members ``"violation": true`` and
    ``"instance"`` at the end.  Every float of a report is finite, since
    ``bound_report`` refuses others, so its repr is also its JSON text.
    """
    dim, q, regime, _, _, _, _, _, _, naive_q, refined, slack, ratio = report
    if cells is None:
        cells = _instance_cells(output_format, report)
    if output_format == "csv":
        ratio = "" if ratio is None else repr(float(ratio))
        stream.write(
            f"{dim},{float(q)!r},{regime._value_},{cells},"
            f"{float(naive_q)!r},{float(refined)!r},{float(slack)!r},{ratio}\n"
        )
        return
    ratio = "null" if ratio is None else repr(float(ratio))
    violation = ""
    if replay is not None:
        instance = {k: replay[k] for k in ("dim", "rho", "a", "b")}
        violation = f', "violation": true, "instance": {json.dumps(instance)}'
    stream.write(
        f'{{"dim": {dim}, "q": {float(q)!r}, "regime": "{regime._value_}", '
        f'{cells}, "naive_q": {float(naive_q)!r}, "refined": {float(refined)!r}, '
        f'"slack": {float(slack)!r}, "ratio": {ratio}{violation}}}\n'
    )


@contextlib.contextmanager
def _out_stream(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcbounds",
        description="Verify and explore spectrum-weighted uncertainty bounds "
        "for q-deformed commutators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="Monte Carlo verification of the master inequality"
    )
    verify.add_argument("--dims", type=_parse_dims, default=(2, 3, 4))
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--q-lo", type=float, default=-3.0)
    verify.add_argument("--q-hi", type=float, default=3.0)
    verify.add_argument("--rank-policy", choices=("full", "mixed"), default="mixed")
    verify.add_argument("--tolerance", type=float, default=1e-9)
    verify.add_argument("--format", choices=("csv", "json"), default="csv")
    verify.add_argument("--out", default=None)
    verify.add_argument(
        "--workers",
        type=int,
        default=1,
        help="must be >= 1; kept for old scripts, it no longer changes "
        "scheduling or output",
    )
    verify.set_defaults(handler=_handle_verify)

    sweep = sub.add_parser("sweep", help="evaluate one stored instance over a q grid")
    sweep.add_argument("instance")
    sweep.add_argument("--q-lo", type=float, default=-1.0)
    sweep.add_argument("--q-hi", type=float, default=1.0)
    sweep.add_argument("--steps", type=int, default=11)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(handler=_handle_sweep)

    search = sub.add_parser("search", help="search for near-equality instances")
    search.add_argument("--n", type=int, default=2)
    search.add_argument("--q", type=float, default=1.0)
    search.add_argument("--budget", type=int, default=5000)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--out", default=None)
    search.set_defaults(handler=_handle_search)

    return parser


def _handle_verify(args) -> int:
    if args.workers < 1:
        print("invalid plan: workers must be >= 1", file=sys.stderr)
        return 2
    plan = TrialPlan(
        dims=args.dims,
        trials_per_dim=args.trials,
        q_lo=args.q_lo,
        q_hi=args.q_hi,
        rank_policy=args.rank_policy,
        seed=args.seed,
        tolerance_rel=args.tolerance,
        output_format=args.format,
    )
    return cmd_verify(plan, out=args.out)


def _handle_sweep(args) -> int:
    return cmd_sweep(
        args.instance, args.q_lo, args.q_hi, args.steps, args.format, out=args.out
    )


def _handle_search(args) -> int:
    return cmd_search(args.n, args.q, args.budget, args.seed, out=args.out)
