"""Self-tests of the mutation harness, well under a second.

    python3 -m pytest tools -q
"""

import ast
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import mutants  # noqa: E402

SOURCE = '''\
"""Module docstring ≤ 1.0 is not mutated."""
LIMIT = 0.5  # outside any function: not mutated


def f(x, y):
    # a comment: x + y
    if 0.0 <= x < y * 2:
        return (x) - -y
    return x / (y + 1.5) > "≥" and x >= y


class C:
    def g(self, x):
        return x * 3
'''


def test_each_mutant_changes_one_token_inside_a_function():
    found = mutants.mutants(SOURCE)
    got = [(m.function, m.line, m.old, m.new) for m in found]
    assert got == [
        ("f", 7, "0.0", "1.0"),
        ("f", 7, "<=", "<"),
        ("f", 7, "<", "<="),
        ("f", 7, "*", "/"),
        ("f", 8, "-", "+"),
        ("f", 9, "/", "*"),
        ("f", 9, "+", "-"),
        ("f", 9, "1.5", "3.0"),
        ("f", 9, ">", ">="),
        ("f", 9, ">=", ">"),
        ("g", 14, "*", "/"),
    ]
    original = SOURCE.splitlines()
    for m in found:
        ast.parse(m.source)  # every mutant is valid Python
        changed = [
            (a, b) for a, b in zip(original, m.source.splitlines()) if a != b
        ]
        assert len(changed) == 1
        before, after = changed[0]
        assert after == before[: m.column] + m.new + before[m.column + len(m.old) :]
    # The binary minus of "(x) - -y" is the one swapped, not the unary one.
    assert "return (x) + -y" in found[4].source


def test_run_counts_a_failing_command_as_killed(tmp_path):
    (tmp_path / "m.py").write_text("def inc(x):\n    return x + 1.0\n")
    check = "import m; assert m.inc(1.0) == 2.0"
    found = mutants.mutants((tmp_path / "m.py").read_text())
    command = [sys.executable, "-c", check]
    results = list(mutants.run(tmp_path, tmp_path / "m.py", found, command, 1, 60))
    assert [(m.new, outcome) for m, outcome in results] == [
        ("-", "killed"),
        ("2.0", "killed"),
    ]
    # A command that reads nothing lets every mutant survive.
    idle = [sys.executable, "-c", "pass"]
    results = list(mutants.run(tmp_path, tmp_path / "m.py", found, idle, 2, 60))
    assert [outcome for _, outcome in results] == ["survived", "survived"]
    assert (tmp_path / "m.py").read_text() == "def inc(x):\n    return x + 1.0\n"


def _running(pid: int) -> bool:
    # A killed process may stay a zombie until its new parent reaps it.
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_a_timeout_kills_what_the_command_started(tmp_path):
    if not Path("/proc/self/stat").exists():
        pytest.skip("reads process states from /proc")
    (tmp_path / "m.py").write_text("def inc(x):\n    return x + 1.0\n")
    found = mutants.mutants((tmp_path / "m.py").read_text())[:1]
    pid_file = tmp_path / "sleeper.pid"
    # The command starts a sleeper, records its pid, then outlasts the timeout.
    script = f"sleep 60 & echo $! > '{pid_file}'; sleep 60"
    command = ["sh", "-c", script]
    results = list(mutants.run(tmp_path, tmp_path / "m.py", found, command, 1, 0.2))
    assert [outcome for _, outcome in results] == ["timeout"]
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 5.0
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(pid)
