"""Command line front end: verification runs, q sweeps, tightness search.

Three subcommands share one record schema:

* ``verify`` streams one record per random trial and exits 0 only when
  every trial satisfies the master inequality at the given tolerance;
* ``sweep`` evaluates one stored instance across a q grid;
* ``search`` hunts for near-equality instances and prints the best one
  in the instance-file format, so it can be fed straight back to sweep.

Exit codes: 0 success, 1 verified violations, 2 invalid input, including
an unreadable instance file and a run that does not fit in memory.
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

from .bounds import (
    _BATCH_ENTRIES,
    _MAX_ALLOC_BYTES,
    BoundReport,
    _report,
    _trace_rows,
    _violated,
    sweep_q,
)
from .errors import MasterInequalityViolation, QcboundsError
from .generators import (
    _UINT64_BOUND,
    SeededRng,
    _complex_matrix,
    _derived_streams,
    _DerivedStream,
    _draw_gaussian,
    _draw_state,
    _spectrum,
    _unitary_frame,
)
from .hermitian import _density_arrays, _Instances, _symmetrised
from .instances import instance_payload, load_instance, render_document
from .search import maximize_tightness

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
# Trial ``index`` draws from ``SeededRng(seed, index).split(k)``: q for
# k = 0, the rank for k = 1, the state for k = 2, A and B for k = 3 and 4.
# The seed words of all five splits of this many consecutive trials are
# derived in one pass; a trial builds a stream only if it draws from it,
# so a boundary slot skips q and only odd mixed-rank trials use the rank.
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
        if self.dims and min(self.dims) >= 1:
            # The draw stacks of the largest batch, at least one trial of
            # 6 * dim**2 + dim floats, must fit before anything is drawn.
            need, dim = max(
                (8 * max(1, _BATCH_ENTRIES // d**2) * (6 * d**2 + d), d)
                for d in self.dims
            )
            if need > _MAX_ALLOC_BYTES:
                out.append(
                    f"dim {dim} needs more than the {_MAX_ALLOC_BYTES / 2**30:g} "
                    f"GiB limit for one batch of draws"
                )
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
        # Explicit checks report every non-finite value as one error line;
        # NumPy's floating-point warnings would add lines to stderr.
        with np.errstate(all="ignore"):
            return args.handler(args)
    except (QcboundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # search aborts on the first violation it finds; that is exit 1.
        return 1 if isinstance(exc, MasterInequalityViolation) else 2
    except MemoryError as exc:
        # A dimension too large for memory is invalid input, not a
        # verified violation.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def cmd_verify(plan: TrialPlan, out=None) -> int:
    """Run the Monte Carlo verification described by ``plan``.

    The trials run in index order, in chunks of ``_CHUNK_TRIALS`` whose
    stream seed words are derived in one pass.  Each chunk is cut into
    batches of consecutive trials of one dim, of at most
    ``_BATCH_ENTRIES // dim**2`` trials.  Every trial draws from its own
    streams through the helpers ``random_density`` and
    ``random_hermitian`` run, in the order they fix, into its row of
    preallocated stacks: the exponentials, and one Gaussian pair (real
    and imaginary parts) each for the frame, A and B.  The spectra (the
    exponentials normalised as NumPy's Dirichlet(1) normalises them), the
    complex matrices, the instances and the bounds are then computed once
    per batch, bit for bit as one trial at a time; so is the instance of
    a violated trial, which its ``violation_<index>.json`` document and
    its JSON record take from the batch.  Records are written in index
    order, so a trial that raises leaves those before it written.  An
    invalid plan is refused with one ``invalid plan:`` line naming every
    problem, before anything is drawn or written.
    """
    problems = plan.problems()
    if problems:
        print(f"invalid plan: {'; '.join(problems)}", file=sys.stderr)
        return 2

    total = len(plan.dims) * plan.trials_per_dim
    violations: list[_TrialOutcome] = []
    with _out_stream(out) as stream:
        _emit_header(stream, plan.output_format)
        for start in range(0, total, _CHUNK_TRIALS):
            stop = min(start + _CHUNK_TRIALS, total)
            indices = np.arange(start, stop, dtype=np.uint64)
            words = _derived_streams(plan.seed, indices, _TRIAL_STREAMS)
            for dim, first, last in _batches(plan, start, stop):
                batch = words[first - start : last - start]
                for outcome in _run_batch(plan, dim, first, batch):
                    _emit_records(
                        stream,
                        plan.output_format,
                        (outcome.report,),
                        replay=outcome.replay,
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
    instance, whose q-free fields ``sweep_q`` evaluates and checks once.
    So the six instance columns of the records are formatted once, from
    the first report, and one loop of ``_emit_records`` writes every
    record, each formatting only its q columns.  All reports are computed
    before the first byte is written, so an instance the bounds refuse
    leaves no partial output.
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
        _emit_records(stream, output_format, reports, cells)
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


def _run_batch(plan: TrialPlan, dim: int, first: int, words: np.ndarray):
    """Yield the outcomes of trials ``first, first + 1, ...``, in order.

    A violated trial's document holds its instance, read from the batch,
    its q and its report's record fields.
    """
    draws = _draw_batch(plan, dim, first, words)
    stack = _build_batch(draws)
    for offset, (q, traces) in enumerate(zip(draws.qs, _trace_rows(stack))):
        report = _report(traces, q)
        replay = None
        if _violated(report, plan.tolerance_rel):
            replay = instance_payload(*stack.row(offset))
            replay["q"] = q
            replay["report"] = _record_fields(report)
        yield _TrialOutcome(first + offset, report, replay)


def _draw_batch(plan: TrialPlan, dim: int, first: int, words: np.ndarray) -> _Draws:
    # Trial ``first + offset`` draws from the streams whose seed words are
    # ``words[offset]`` (a ``_derived_streams`` block), each stream exactly
    # as the single-trial path draws from it.  A stream is built only when
    # the trial draws from it.  The draws go into row ``offset`` of the
    # exponential stack and of the (m, 3, 2, dim, dim) Gaussian stack,
    # whose pairs hold the real and the imaginary parts of the frame, of A
    # and of B.  The spectra and the complex matrices are then formed once
    # for the batch.
    m = len(words)
    qs = []
    exps = np.zeros((m, dim))
    pairs = np.empty((m, 3, 2, dim, dim))
    mixed = plan.rank_policy == "mixed" and dim >= 2
    for offset, trial in enumerate(words):
        index = first + offset
        slot = index % BOUNDARY_PERIOD
        if slot < len(BOUNDARY_Q):
            q = BOUNDARY_Q[slot]
        else:
            g = _DerivedStream(trial[0]).generator()
            q = float(g.uniform(plan.q_lo, plan.q_hi))
        if mixed and index % 2 == 1:
            rank = int(_DerivedStream(trial[1]).generator().integers(1, dim))
        else:
            rank = dim
        qs.append(q)
        state, a, b = pairs[offset]
        _draw_state(_DerivedStream(trial[2]).generator(), rank, exps[offset], state)
        _draw_gaussian(_DerivedStream(trial[3]).generator(), a)
        _draw_gaussian(_DerivedStream(trial[4]).generator(), b)
    raw = _complex_matrix(pairs[:, :, 0], pairs[:, :, 1])
    return _Draws(qs, _spectrum(exps), raw[:, 0], raw[:, 1], raw[:, 2])


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
    by ``", "``.  Each float is written as its ``repr``.
    """
    var_a, var_b, product, lambda_min, lambda_max, robertson = report[3:9]
    if output_format == "csv":
        return (
            f"{lambda_min!r},{lambda_max!r},{var_a!r},"
            f"{var_b!r},{product!r},{robertson!r}"
        )
    return (
        f'"lambda_min": {lambda_min!r}, "lambda_max": {lambda_max!r}, '
        f'"var_a": {var_a!r}, "var_b": {var_b!r}, '
        f'"product": {product!r}, "robertson": {robertson!r}'
    )


def _emit_records(
    stream, output_format: str, reports, cells=None, replay=None
) -> None:
    """Write each of ``reports`` as one record, in order.

    ``cells`` is the ``_instance_cells`` text shared by all of ``reports``;
    ``sweep`` formats it once for its whole grid, and when it is None each
    record formats its own.  Every float field of a report is a Python
    float, written as its ``repr``; ``dim`` is written as an int and the
    regime by its value, read as the member's ``_value_`` rather than
    through the slower ``value`` property.  CSV leaves the cell of a
    missing ratio empty.  JSON writes the layout of ``json.dumps`` with its
    default separators: keys in ``CSV_COLUMNS`` order, ``null`` for a
    missing ratio, and for a violated trial (``replay`` not None, passed
    with that trial's report alone) the members ``"violation": true`` and
    ``"instance"`` at the end.  Every float of a report is finite, since
    ``bound_report`` refuses others, so its repr is also its JSON text.
    """
    csv = output_format == "csv"
    violation = ""
    if replay is not None:
        instance = {k: replay[k] for k in ("dim", "rho", "a", "b")}
        violation = f', "violation": true, "instance": {json.dumps(instance)}'
    write = stream.write
    for report in reports:
        dim, q, regime, _, _, _, _, _, _, naive_q, refined, slack, ratio = report
        shared = cells if cells is not None else _instance_cells(output_format, report)
        if csv:
            ratio = "" if ratio is None else repr(ratio)
            write(
                f"{dim},{q!r},{regime._value_},{shared},"
                f"{naive_q!r},{refined!r},{slack!r},{ratio}\n"
            )
        else:
            ratio = "null" if ratio is None else repr(ratio)
            write(
                f'{{"dim": {dim}, "q": {q!r}, "regime": "{regime._value_}", '
                f'{shared}, "naive_q": {naive_q!r}, "refined": {refined!r}, '
                f'"slack": {slack!r}, "ratio": {ratio}{violation}}}\n'
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
