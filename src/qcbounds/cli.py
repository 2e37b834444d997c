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

import numpy as np

from .bounds import (
    _MAX_ALLOC_BYTES,
    BoundReport,
    _report,
    _trace_rows,
    _violated,
    sweep_q,
)
from .errors import MasterInequalityViolation, QcboundsError
from .generators import _UINT64_BOUND, SeededRng, _draw_bytes, _trial_batches
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
# Peak memory a sweep grid holds per q point before it writes a record,
# its reports and their floats: 347 B, measured as the peak RSS growth of
# a 400000-step JSON sweep of an n = 8 instance (NumPy 2.4.6, Python
# 3.11), rounded up.  A grid past bounds._MAX_ALLOC_BYTES is refused.
_SWEEP_POINT_BYTES = 350


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
            # The draw stacks of the largest batch must fit before anything
            # is drawn.
            need, dim = max((_draw_bytes(d), d) for d in self.dims)
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

    ``generators._trial_batches`` draws the trials in index order, in
    batches of consecutive trials of one dim, each one stack of instances
    built bit for bit as one trial at a time.  Each batch's bounds are
    evaluated in one trace pass, and each trial's record is written as
    soon as its report is, so a trial that raises leaves those before it
    written.  A violated trial's ``violation_<index>.json`` document and
    JSON record hold its instance, read from the batch, its q and its
    report's fields.  An invalid plan is refused with one ``invalid
    plan:`` line naming every problem, before anything is drawn or
    written.
    """
    problems = plan.problems()
    if problems:
        return _refuse_plan(problems)

    violations = []
    mixed = plan.rank_policy == "mixed"
    batches = _trial_batches(
        plan.seed, plan.dims, plan.trials_per_dim, plan.q_lo, plan.q_hi, mixed
    )
    with _out_stream(out) as stream:
        _emit_header(stream, plan.output_format)
        for first, qs, stack in batches:
            for offset, (q, traces) in enumerate(zip(qs, _trace_rows(stack))):
                report = _report(traces, q)
                replay = None
                if _violated(report, plan.tolerance_rel):
                    replay = instance_payload(*stack.row(offset))
                    replay["q"] = q
                    replay["report"] = _record_fields(report)
                    violations.append((first + offset, replay))
                _emit_records(stream, plan.output_format, (report,), replay=replay)

    for index, replay in violations:
        path = Path(f"violation_{index}.json")
        path.write_text(render_document(replay) + "\n", encoding="utf-8")
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
    leaves no partial output, and a grid whose reports would pass
    ``bounds._MAX_ALLOC_BYTES`` is refused before anything is allocated.
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
    if steps * _SWEEP_POINT_BYTES > _MAX_ALLOC_BYTES:
        print(
            f"invalid sweep: {steps} steps need more than the "
            f"{_MAX_ALLOC_BYTES / 2**30:g} GiB limit for the reports",
            file=sys.stderr,
        )
        return 2
    state, a, b = load_instance(instance_file)
    # Python floats, which sweep_q reads without a NumPy scalar per point.
    grid = np.linspace(q_lo, q_hi, steps).tolist()
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


def _record_fields(report: BoundReport) -> dict:
    fields = {}
    for column in CSV_COLUMNS:
        value = getattr(report, column)
        fields[column] = value.value if column == "regime" else value
    return fields


def _refuse_plan(problems: list[str]) -> int:
    print(f"invalid plan: {'; '.join(problems)}", file=sys.stderr)
    return 2


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
    if args.workers < 1:
        # --workers is not part of the plan, but is named with its problems.
        return _refuse_plan(["workers must be >= 1", *plan.problems()])
    return cmd_verify(plan, out=args.out)


def _handle_sweep(args) -> int:
    return cmd_sweep(
        args.instance, args.q_lo, args.q_hi, args.steps, args.format, out=args.out
    )


def _handle_search(args) -> int:
    return cmd_search(args.n, args.q, args.budget, args.seed, out=args.out)
