"""Single-token mutation check of one Python module against a test command.

Each mutant changes one token inside one function of the module: ``+``
and ``-`` swap, ``*`` and ``/`` swap, ``<`` and ``<=`` swap, ``>`` and
``>=`` swap, and a float constant is doubled (``0.0`` becomes ``1.0``).
Every mutant runs the test command once, in a copy of the repository, and
counts as killed when the command fails.  A survivor is a rule no test
pins, or an equivalent mutant: a change that cannot alter any result.

    python3 tools/mutants/mutants.py src/qcbounds/bounds.py
    python3 tools/mutants/mutants.py src/qcbounds/bounds.py --only _reports \\
        --jobs 2 -- python3 -m pytest -x -q tests/test_bounds.py tests

The default command is the Tier-1 suite with ``-x``, so a killed mutant
stops at its first failing test.  Results go to stdout, one line per
mutant, then the survivors.  This is a measurement, not a gate: the exit
status is 0 whatever survives.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

SWAPS = {
    ast.Add: ("+", "-"),
    ast.Sub: ("-", "+"),
    ast.Mult: ("*", "/"),
    ast.Div: ("/", "*"),
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
}
# A mutated comparison can make a loop run forever; such a run is killed
# after this many seconds and counts as killed.  The whole suite takes
# about 50 s on a 2-core x86 box.
TIMEOUT_S = 600.0
DEFAULT_COMMAND = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
# Copied into each work tree: everything but version control and caches.
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work"
)


class Mutant(NamedTuple):
    function: str
    line: int  # 1-based
    column: int  # 0-based, in characters
    old: str
    new: str
    source: str  # the whole mutated module


def mutants(source: str) -> list[Mutant]:
    """Return every mutant of the functions (and methods) of ``source``."""
    lines = source.splitlines(keepends=True)
    operators = {
        tok.start: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.OP
    }
    found = []
    for function in _functions(ast.parse(source)):
        for node in _nodes(function):
            for start, end, old, new in _sites(node, lines, operators):
                found.append(_mutant(function.name, lines, start, end, old, new))
    found.sort(key=lambda m: (m.line, m.column))
    return found


def _functions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (
                item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )


def _nodes(node):
    # ``node`` and every node under it, but none inside an f-string: those
    # only format messages, and on Python 3.11 tokenize returns a whole
    # f-string as one STRING token, so their operators have no token.
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.JoinedStr):
            yield from _nodes(child)


def _position(lines, line: int, byte_col: int) -> tuple[int, int]:
    # AST columns count UTF-8 bytes; tokenize and slicing count characters.
    text = lines[line - 1].encode()[:byte_col].decode()
    return line, len(text)


def _operator(operators, start, end, symbol):
    # The first operator token ``symbol`` between two positions.
    for position in sorted(p for p in operators if start <= p < end):
        if operators[position] == symbol:
            return position
    raise ValueError(f"no {symbol!r} between {start} and {end}")


def _sites(node, lines, operators):
    # (start, end, old text, new text) of each mutation of ``node`` alone.
    if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
        old, new = SWAPS[type(node.op)]
        after_left = _position(lines, node.left.end_lineno, node.left.end_col_offset)
        before_right = _position(lines, node.right.lineno, node.right.col_offset)
        at = _operator(operators, after_left, before_right, old)
        yield at, (at[0], at[1] + len(old)), old, new
    elif isinstance(node, ast.Compare):
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if type(op) in SWAPS:
                old, new = SWAPS[type(op)]
                after_left = _position(lines, left.end_lineno, left.end_col_offset)
                before_right = _position(lines, right.lineno, right.col_offset)
                at = _operator(operators, after_left, before_right, old)
                yield at, (at[0], at[1] + len(old)), old, new
            left = right
    elif isinstance(node, ast.Constant) and type(node.value) is float:
        start = _position(lines, node.lineno, node.col_offset)
        end = _position(lines, node.end_lineno, node.end_col_offset)
        old = lines[start[0] - 1][start[1] : end[1]]
        yield start, end, old, repr(2.0 * node.value if node.value else 1.0)


def _mutant(function, lines, start, end, old, new) -> Mutant:
    (line, column), (end_line, end_column) = start, end
    assert line == end_line, "a mutated token spans one line"
    text = lines[line - 1]
    assert text[column:end_column] == old
    mutated = lines[: line - 1] + [text[:column] + new + text[end_column:]] + lines[line:]
    return Mutant(function, line, column, old, new, "".join(mutated))


def run(repo: Path, module: Path, selected, command, jobs: int, timeout: float):
    """Run ``command`` in a copy of ``repo`` for each mutant; yield results.

    Each result is ``(mutant, outcome)`` with outcome ``"killed"``,
    ``"survived"`` or ``"timeout"`` (counted as killed), in mutant order.
    Each command runs in a session of its own; on a timeout the whole
    process group is killed, so nothing it started outlives it and keeps
    the mutated module loaded while the tree serves the next mutant.
    """
    relative = module.resolve().relative_to(repo.resolve())
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        # One work tree per job; a run takes a free one and returns it.
        free: queue.Queue[Path] = queue.Queue()
        for k in range(jobs):
            tree = Path(work) / f"tree{k}"
            shutil.copytree(repo, tree, ignore=IGNORED)
            free.put(tree)

        def one(mutant: Mutant) -> str:
            tree = free.get()
            target = tree / relative
            original = target.read_text()
            try:
                target.write_text(mutant.source)
                env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
                env["PYTHONPATH"] = os.pathsep.join(
                    p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p
                )
                proc = subprocess.Popen(
                    command, cwd=tree, env=env, start_new_session=True,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                )  # fmt: skip
                try:
                    returncode = proc.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    # The leader is not yet reaped, so its pid still names
                    # its process group.
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                    return "timeout"
                return "survived" if returncode == 0 else "killed"
            finally:
                target.write_text(original)
                free.put(tree)

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            yield from zip(selected, pool.map(one, selected))


def describe(mutant: Mutant) -> str:
    return f"{mutant.function}:{mutant.line}:{mutant.column} {mutant.old} -> {mutant.new}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Everything after "--" is the test command.
    command = DEFAULT_COMMAND
    if "--" in argv:
        cut = argv.index("--")
        argv, command = argv[:cut], argv[cut + 1 :]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s module [options] [-- test command ...]",
    )
    parser.add_argument("module", type=Path, help="the Python file to mutate")
    parser.add_argument("--repo", type=Path, default=Path.cwd(),
                        help="repository root copied for each run (default: .)")
    parser.add_argument("--only", default="",
                        help="comma-separated function names to mutate (default: all)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="mutants run at once, at most one per CPU")
    parser.add_argument("--list", action="store_true",
                        help="list the mutants without running them")
    args = parser.parse_args(argv)  # fmt: skip
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        parser.error(f"--jobs must be between 1 and the {cpus} CPUs")
    only = {name for name in args.only.split(",") if name}
    selected = [
        m for m in mutants(args.module.read_text()) if not only or m.function in only
    ]
    if args.list:
        for mutant in selected:
            print(describe(mutant))
        return 0
    if not command:
        parser.error("empty test command after --")
    survivors = []
    for mutant, outcome in run(
        args.repo, args.module, selected, command, args.jobs, TIMEOUT_S
    ):
        print(f"{outcome:8} {describe(mutant)}", flush=True)
        if outcome == "survived":
            survivors.append(mutant)
    print(f"{len(selected) - len(survivors)} of {len(selected)} killed; survivors:")
    for mutant in survivors:
        print(f"  {describe(mutant)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
