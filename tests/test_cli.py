import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcbounds as qc
from qcbounds import cli
from qcbounds.cli import CSV_COLUMNS, main
from qcbounds.errors import NonFinite
from qcbounds.generators import _unitary_frame

from conftest import random_instance, witness_ratio


# sha256 of seven output streams, pinned so that a refactor of stream
# derivation, instance construction, bound evaluation or record formatting
# cannot change an emitted byte unnoticed.  The two verify digests cover a
# one-word seed (7) and a two-word seed (2**64 - 1), whose streams verify
# derives in batches.  The third runs across the edges of verify's batches:
# an n = 1 group, the 512-trial chunk edge inside n = 32, and the four-trial
# n = 32 batches.  The fourth is a JSON verify run whose absurd tolerance
# flags one trial, so it pins a violation record with its embedded
# instance.  The sweep digests pin one instance in both formats.  All seven
# hold for the installed NumPy 2.4.6: random_density draws its frame
# through qr, make_density and the search decoder decompose through eigh,
# all LAPACK, whose rounding may differ under another NumPy or BLAS build.
VERIFY_CSV_SHA256 = "d4d42239af2f5bb0114aed028bd7c558141ce556bfd96a90a75c525a4b532926"
VERIFY_WIDE_SEED_CSV_SHA256 = (
    "53056b929e5cf3daeef605f48ddbb6daf45b32708ce6b8294e9f362c17b72f22"
)
VERIFY_BATCH_EDGES_CSV_SHA256 = (
    "e7ce93e3d96a40159e9db1af3bcfd408c0158848365d446a67104cd340919b41"
)
VERIFY_VIOLATION_JSON_SHA256 = (
    "e7d45bca885c79ee8b8327ab7da7a07461868047f05e5688b515c3665b8eb0ad"
)
# The violation_<index>.json document the same run writes for its one
# violated trial.
VERIFY_VIOLATION_DOCUMENT_SHA256 = (
    "718b8855413033d7f5351ed839c8a754195e26f7b03159cf5baa7d3397922e61"
)
SWEEP_JSON_SHA256 = "3424150cd3903dd83462ebf667205290ce72d49a98bcc845db72bca06a737f03"
SWEEP_CSV_SHA256 = "381ef41e7d4ecb289fe7dc83b7d222a22c0823a03c4fc40e91f65147266d7449"
SEARCH_JSON_SHA256 = "8e11d9cfb486cf0aa84765bc86a1afca78ae14d368dc2f61d2fad2a3d098813e"


def run_cli(*args):
    return main([str(a) for a in args])


def read_rows(path):
    header, *lines = path.read_text().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    return [line.split(",") for line in lines]


@pytest.fixture
def pauli_file(tmp_path, mixed_qubit, pauli_x, pauli_y):
    path = tmp_path / "pauli.json"
    qc.save_instance(path, mixed_qubit, pauli_x, pauli_y)
    return path


def test_verify_clean_run(tmp_path):
    out = tmp_path / "run.csv"
    code = run_cli("verify", "--dims", "2", "--trials", "100", "--seed", "7",
                   "--out", out)
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 100
    assert {row[0] for row in rows} == {"2"}


def test_verify_rejects_zero_trials(tmp_path, capsys):
    code = run_cli("verify", "--trials", "0", "--out", tmp_path / "x.csv")
    assert code == 2
    assert "trials" in capsys.readouterr().err


def test_verify_rejects_bad_dims():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("verify", "--dims", "2,zebra")
    assert excinfo.value.code == 2


def test_verify_flags_float_noise_at_absurd_tolerance(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run.csv"
    code = run_cli("verify", "--dims", "2", "--trials", "100", "--seed", "7",
                   "--tolerance", "1e-30", "--out", out)
    assert code == 1
    assert "violation" in capsys.readouterr().err
    dumps = sorted(tmp_path.glob("violation_*.json"))
    assert dumps
    # Each dump replays: the stored q and instance reproduce the reported
    # slack up to the noise of re-decomposing the serialized state.
    payload = json.loads(dumps[0].read_text())
    assert payload["report"]["slack"] < 0.0
    state, a, b = qc.load_instance(dumps[0])
    report = qc.bound_report(state, a, b, payload["q"])
    assert report.slack == pytest.approx(payload["report"]["slack"], abs=1e-12)


def test_verify_byte_determinism_across_workers(tmp_path):
    first = tmp_path / "w1.csv"
    second = tmp_path / "w4.csv"
    flags = ("--dims", "2,3", "--trials", "40", "--seed", "99")
    assert run_cli("verify", *flags, "--workers", "1", "--out", first) == 0
    assert run_cli("verify", *flags, "--workers", "4", "--out", second) == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_plan_holds_at_most_2_pow_32_trials():
    # Trial streams are derived from one 32-bit word of the trial index.
    def plan(dims, trials):
        return cli.TrialPlan(dims, trials, -3.0, 3.0, "mixed", 0, 1e-9, "csv")

    assert plan((2,), 2**32).problems() == []
    assert plan((2, 3), 2**31).problems() == []
    refusal = ["dims times trials must not exceed 2**32"]
    assert plan((2,), 2**32 + 1).problems() == refusal
    assert plan((2, 3), 2**31 + 1).problems() == refusal


def test_verify_refuses_a_plan_past_2_pow_32_trials(tmp_path, monkeypatch, capsys):
    # Refused before the output is opened, so nothing is written.  Should
    # the plan pass, the patched stream fails at once instead of running it.
    def refuse(path):
        raise AssertionError("opened the output of an over-long plan")

    monkeypatch.setattr(cli, "_out_stream", refuse)
    out = tmp_path / "run.csv"
    plan = cli.TrialPlan((1,), 2**32 + 1, -3.0, 3.0, "mixed", 0, 1e-9, "csv")
    assert cli.cmd_verify(plan, out=out) == 2
    assert "invalid plan: dims times trials" in capsys.readouterr().err
    assert not out.exists()


def test_verify_names_every_plan_problem_on_one_line(tmp_path, capsys):
    out = tmp_path / "run.csv"
    for flags, line in [
        (("--trials", "0", "--tolerance", "0"),
         "invalid plan: trials must be >= 1; tolerance must be positive"),
        (("--workers", "0", "--trials", "0"),
         "invalid plan: workers must be >= 1; trials must be >= 1"),
    ]:  # fmt: skip
        assert run_cli("verify", *flags, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()
    # argparse's choices stop these two before a plan is built.
    plan = cli.TrialPlan((2,), 1, -1.0, 1.0, "sometimes", 0, 1e-9, "xml")
    assert cli.cmd_verify(plan, out=out) == 2
    assert capsys.readouterr().err.splitlines() == [
        "invalid plan: unknown rank policy 'sometimes'; unknown output format 'xml'"
    ]
    assert not out.exists()


def test_verify_plan_refuses_draw_stacks_past_the_memory_ceiling():
    # One batch of the largest dim holds at least one trial of
    # 6 * dim**2 + dim floats.
    def plan(*dims):
        return cli.TrialPlan(dims, 1, -3.0, 3.0, "mixed", 0, 1e-9, "csv")

    limit = 4729  # the largest dim whose one-trial stacks fit in 1 GiB
    assert 8 * (6 * limit**2 + limit) <= cli._MAX_ALLOC_BYTES == 2**30
    assert plan(2, 32, limit).problems() == []
    (problem,) = plan(2, limit + 1, 3).problems()
    assert problem == "dim 4730 needs more than the 1 GiB limit for one batch of draws"
    # Past the float range too: the size is compared as an integer.
    (problem,) = plan(10**400).problems()
    assert problem.startswith("dim 1000") and problem.endswith("batch of draws")
    # A plan with a dim below 1 is refused for that alone.
    assert plan(20000, 0).problems() == ["every dim must be >= 1"]


@pytest.mark.parametrize(
    "command, module, target, start",
    [
        (("verify", "--dims", "2,20000", "--trials", "1"),
         qc.generators, "_draw_trials", "invalid plan: dim 20000 needs "),
        (("search", "--n", "64", "--budget", "10"),
         qc.search, "_nelder_mead_max", "error: n = 64 needs "),
        (("sweep", "{instance}", "--steps", str(10**8)),
         np, "linspace", "invalid sweep: 100000000 steps need "),
    ],
    ids=["verify", "search", "sweep"],
)  # fmt: skip
def test_a_run_past_the_memory_ceiling_exits_2_before_allocating(
    tmp_path, monkeypatch, capsys, pauli_file, command, module, target, start
):
    # verify --dims 20000 would ask for about 18 GiB of draws, search --n 64
    # for a 1.1 GiB simplex and as much again for its first round, and a
    # sweep of 10**8 steps for about 35 GB of reports.  The allocating call
    # is patched to fail, so nothing large is allocated should the run not
    # be refused.
    def refuse(*args, **kwargs):
        raise AssertionError("reached the allocation of an oversized run")

    monkeypatch.setattr(module, target, refuse)
    out = tmp_path / "out"
    argv = [str(pauli_file) if part == "{instance}" else part for part in command]
    assert run_cli(*argv, "--out", out) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(start)
    assert "more than the 1 GiB limit" in line
    assert not out.exists()


def test_verify_rejects_zero_workers(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert run_cli("verify", "--workers", "0", "--out", out) == 2
    assert "invalid plan: workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_json_records(tmp_path):
    out = tmp_path / "run.ndjson"
    code = run_cli("verify", "--dims", "3", "--trials", "5", "--seed", "1",
                   "--format", "json", "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    for line in lines:
        record = json.loads(line)
        assert list(record) == list(CSV_COLUMNS)
        assert record["dim"] == 3


def test_verify_json_violation_embeds_instance(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run.ndjson"
    code = run_cli("verify", "--dims", "2", "--trials", "100", "--seed", "7",
                   "--tolerance", "1e-30", "--format", "json", "--out", out)
    assert code == 1
    flagged = [
        json.loads(line)
        for line in out.read_text().splitlines()
        if "\"violation\"" in line
    ]
    assert flagged
    instance = flagged[0]["instance"]
    state, a, b = qc.payload_to_instance(instance)
    assert state.dim == 2 and a.dim == 2 and b.dim == 2


def test_sweep_pauli_closed_forms(pauli_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", pauli_file, "--q-lo", "0", "--q-hi", "1",
                   "--steps", "3", "--out", out)
    assert code == 0
    rows = read_rows(out)
    assert [float(row[1]) for row in rows] == [0.0, 0.5, 1.0]
    refined = [float(row[10]) for row in rows]
    assert refined == pytest.approx([0.25, 0.49, 1.0], abs=1e-10)


def test_sweep_single_step_lands_on_q_lo(pauli_file, tmp_path):
    out = tmp_path / "one.csv"
    assert run_cli("sweep", pauli_file, "--q-lo", "0.5", "--q-hi", "0.9",
                   "--steps", "1", "--out", out) == 0
    rows = read_rows(out)
    assert len(rows) == 1
    assert float(rows[0][1]) == 0.5


def test_sweep_emitted_values_revalidate(pauli_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", pauli_file, "--q-lo", "-2", "--q-hi", "2",
                   "--steps", "9", "--out", out) == 0
    state, a, b = qc.load_instance(pauli_file)
    for row in read_rows(out):
        q = float(row[1])
        expected = qc.refined_q_bound(state, a, b, q)
        assert float(row[10]) == pytest.approx(expected, abs=1e-12)


def test_sweep_through_q_one_with_uniform_spectrum_and_shifted_observables(tmp_path):
    # A uniform spectrum makes the q = 1 coefficient infinite, and the
    # centred bracket vanishes to rounding, so the bound there is 0.  The
    # observables are shifted by +-1000 I, which leaves the bound alone but
    # makes the uncentred commutator trace 2.3e-10 from rounding.  Values
    # pinned for the installed NumPy 2.4.6, as the golden digests below.
    g = np.random.default_rng(9)
    frame = _unitary_frame(g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3)))
    state = qc.density_from_decomposition(np.full(3, 1 / 3), frame)
    shift = 1000.0 * np.eye(3)
    a = qc.make_hermitian(10 * qc.random_hermitian(3, qc.SeededRng(9, 1)).mat + shift)
    b = qc.make_hermitian(10 * qc.random_hermitian(3, qc.SeededRng(9, 2)).mat - shift)
    report = qc.bound_report(state, a, b, 1.0)
    assert report.refined == qc.refined_q_bound(state, a, b, 1.0) == 0.0

    instance = tmp_path / "shifted.json"
    qc.save_instance(instance, state, a, b)
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", instance, "--out", out) == 0
    last = read_rows(out)[-1]
    assert (last[1], last[10]) == ("1.0", "0.0")  # q and refined


def test_sweep_exits_2_when_a_trace_term_overflows(tmp_path, capsys, mixed_qubit):
    a = qc.make_hermitian(1e78 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = qc.make_hermitian(1e78 * np.array([[0.0, -1.0j], [1.0j, 0.0]]))
    instance = tmp_path / "huge.json"
    qc.save_instance(instance, mixed_qubit, a, b)
    assert run_cli("sweep", instance, "--out", tmp_path / "sweep.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows" in err


def test_sweep_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert run_cli("sweep", bad) == 2
    assert "error" in capsys.readouterr().err


def test_sweep_exits_2_on_a_cell_past_the_float_range(tmp_path, capsys):
    doc = {"dim": 1, "rho": [[{"re": 1, "im": 0}]], "a": [[{"re": 10**400, "im": 0}]],
           "b": [[{"re": 0, "im": 0}]]}  # fmt: skip
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", bad, "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: a[0][0] is past the float range")
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{\x00}\x00", b"[" * 100000],
    ids=["utf16-bom", "nested-100000"],
)
def test_sweep_exits_2_on_an_unreadable_instance_file(tmp_path, capsys, content):
    # Bytes that are not UTF-8, and JSON nested past the decoder's
    # recursion limit, used to end in a traceback and exit 1.
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", bad, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# Instance-file fuzzing: one node of a valid document is replaced by raw
# JSON text.  The literals cover integers past the float range and past the
# interpreter's 4300-digit limit for int("..."), float extremes, NaN and the
# infinities, strings, nested lists, and the dim values 0, -1, bools and a
# 25-digit integer; a list node may also lose its last element or gain one.
FUZZ_DOCUMENT = qc.instance_payload(*random_instance(5, 2))
FUZZ_LITERALS = (
    "1" * 5001, "-" + "9" * 4301, "1" * 400, "1" * 25, "0", "-1", "true", "false",
    "1.7976931348623157e308", "-1.7976931348623157e308", "1e400", "5e-324",
    "NaN", "Infinity", "-Infinity", '"x"', "[[1]]", "[]", "{}", "null",
)  # fmt: skip
FUZZ_STEPS = 3
FUZZ_MARK = "@@mutated@@"


def fuzz_paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from fuzz_paths(child, (*path, key))


FUZZ_PATHS = list(fuzz_paths(FUZZ_DOCUMENT))


def fuzz_node(path):
    node = FUZZ_DOCUMENT
    for key in path:
        node = node[key]
    return node


@st.composite
def instance_mutations(draw):
    path = draw(st.sampled_from(FUZZ_PATHS))
    node = fuzz_node(path)
    raws = FUZZ_LITERALS
    if isinstance(node, list):
        raws += (json.dumps(node[:-1]), json.dumps(node + node[:1]))
    return path, draw(st.sampled_from(raws))


def mutated_document(path, raw):
    if not path:
        return raw
    document = json.loads(json.dumps(FUZZ_DOCUMENT))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = FUZZ_MARK
    return json.dumps(document).replace(json.dumps(FUZZ_MARK), raw)


@given(instance_mutations())
@example((("a", 0, 0, "re"), "1" * 5001))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_sweep_on_a_mutated_instance_file_exits_0_or_2(mutation):
    # A 5001-digit integer used to escape as a ValueError traceback, exit 1.
    # NumPy's floating-point warnings would reach stderr in a real run, so
    # each counts as a line of it here.
    with tempfile.TemporaryDirectory() as tmp:
        instance, out = Path(tmp) / "instance.json", Path(tmp) / "sweep.ndjson"
        instance.write_text(mutated_document(*mutation), encoding="utf-8")
        argv = ["sweep", str(instance), "--steps", str(FUZZ_STEPS), "--format", "json"]
        err = io.StringIO()
        with (
            contextlib.redirect_stderr(err),
            warnings.catch_warnings(record=True) as caught,
        ):
            warnings.simplefilter("always")
            code = main([*argv, "--out", str(out)])
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        assert code in (0, 2)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not out.exists()
        else:
            assert lines == []
            records = [json.loads(line) for line in out.read_text().splitlines()]
            assert [r["q"] for r in records] == list(np.linspace(-1, 1, FUZZ_STEPS))


# Argv fuzzing of verify.  Each option has ordinary values, then extreme
# or malformed text; up to two options take the latter, and every option
# but --trials may be left out, so runs, refusals and argparse errors all
# occur.  Valid plans hold at most three trials per dim; the only larger
# trial counts pass 2**32, which the plan refuses.  Large dims are left to
# the memory ceiling tests.
VERIFY_FUZZ_OPTIONS = {
    "--dims": (("1", "2", "3,1", "2,2,8", " 2 "),
               ("0", "-1", "2,0", "", ",", "x", "2,,3", "1.5")),
    "--trials": (("1", "3"),
                 ("0", "-1", str(2**32 + 1), str(10**30), "x", "1.5", "")),
    "--q-lo": (("-3", "-1", "0", "5e-324", "-1e300"),
               ("1", "-1e308", "1e308", "nan", "inf", "-inf", "x")),
    "--q-hi": (("3", "1", "1e-300", "1e300"),
               ("0", "-1", "1e308", "-1e308", "nan", "inf", "-inf", "x")),
    "--seed": (("0", "7", str(2**64 - 1)), (str(2**64), "-1", "x")),
    "--tolerance": (("1e-9", "1e-300", "5e-324", "1e308"),
                    ("0", "-1", "nan", "inf", "x")),
    "--workers": (("1", "4"), ("0", "-1", "x")),
}  # fmt: skip
# Accepted sweep and search runs stay small (steps <= 50, n <= 3, budget
# <= 20); a larger value is drawn only where it is refused.
SWEEP_FUZZ_OPTIONS = {
    "--steps": (("1", "2", "11", "50"),
                ("0", "-1", str(10**8), str(10**400), "x", "1.5", "")),
    "--q-lo": (("-3", "-1", "0", "5e-324", "-1e300"),
               ("1", "-1e308", "1e308", "nan", "inf", "-inf", "x")),
    "--q-hi": (("3", "1", "1e-300", "1e300"),
               ("-1", "1e308", "-1e308", "nan", "inf", "-inf", "x")),
    "--format": (("csv", "json"), ("xml", "")),
}  # fmt: skip
SEARCH_FUZZ_OPTIONS = {
    "--n": (("2", "3"), ("1", "0", "-2", "64", str(10**400), "x", "2.5")),
    "--q": (("-2", "0", "0.5", "1", "1e-300", "1e300"),
            ("1e308", "-1e308", "5e-324", "nan", "inf", "-inf", "x")),
    "--budget": (("1", "5", "20"), ("0", "-1", "x", "1e3", "")),
    "--seed": (("0", "7", str(2**64 - 1)), (str(2**64), "-1", "x")),
}  # fmt: skip


@contextlib.contextmanager
def working_directory(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


@st.composite
def fuzzed_options(draw, table, always=None):
    # Up to two options take an odd value; ``always`` is always given.
    odd = draw(st.sets(st.sampled_from(list(table)), max_size=2))
    options = {}
    for name, (ordinary, extreme) in table.items():
        if name == always or name in odd or draw(st.booleans()):
            options[name] = draw(st.sampled_from(extreme if name in odd else ordinary))
    return options


def run_fuzzed(argv, out):
    """Run ``main`` on ``argv`` and check the exit contract of any run.

    Returns the exit code and the stderr lines, NumPy warnings counted as
    lines, or None when argparse refused the text with its usage.
    """
    err = io.StringIO()
    with (
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse refuses text it cannot convert, with its usage.
            assert exc.code == 2
            assert "error: argument " in err.getvalue()
            assert not out.exists()
            return None
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    if code == 2:
        assert len(lines) == 1, lines
        assert lines[0].startswith(("error:", "invalid")), lines
        assert not out.exists()
    return code, lines


@given(fuzzed_options(VERIFY_FUZZ_OPTIONS, always="--trials"))
@example({"--trials": "0", "--tolerance": "0"})
@example({"--trials": str(2**32 + 1), "--dims": "2,0"})
@settings(max_examples=100, deadline=None, derandomize=True)
def test_verify_on_fuzzed_options_exits_0_1_or_2(options):
    # Violation documents are written to the working directory.
    with tempfile.TemporaryDirectory() as tmp, working_directory(tmp):
        out = Path(tmp) / "run.csv"
        argv = ["verify", *(f"{k}={v}" for k, v in options.items()), "--out", str(out)]
        result = run_fuzzed(argv, out)
        if result is None or result[0] == 2:
            return
        code, lines = result
        trials = int(options["--trials"])
        dims = cli._parse_dims(options.get("--dims", "2,3,4"))
        rows = read_rows(out)
        assert [int(row[0]) for row in rows] == [d for d in dims for _ in range(trials)]
        assert all(len(row) == len(CSV_COLUMNS) for row in rows)
        if code == 0:
            assert lines == []


FUZZED_COMMANDS = {
    "sweep": fuzzed_options(SWEEP_FUZZ_OPTIONS),
    "search": fuzzed_options(SEARCH_FUZZ_OPTIONS, always="--budget"),
}


@given(st.sampled_from(sorted(FUZZED_COMMANDS)).flatmap(
    lambda command: st.tuples(st.just(command), FUZZED_COMMANDS[command])
))
@example(("sweep", {"--steps": str(10**8)}))
@example(("search", {"--n": str(10**400), "--budget": "20"}))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_sweep_and_search_on_fuzzed_options_exit_0_1_or_2(case):
    command, options = case
    with tempfile.TemporaryDirectory() as tmp:
        instance, out = Path(tmp) / "instance.json", Path(tmp) / "out"
        qc.save_instance(
            instance,
            qc.make_density(np.diag([0.25, 0.75])),
            qc.make_hermitian([[0.0, 1.0], [1.0, 0.0]]),
            qc.make_hermitian([[0.0, -1.0j], [1.0j, 0.0]]),
        )
        given_options = [f"{k}={v}" for k, v in options.items()]
        if command == "sweep":
            given_options.insert(0, str(instance))
        result = run_fuzzed([command, *given_options, "--out", str(out)], out)
        if result is None or result[0] == 2:
            return
        code, lines = result
        if command == "search":
            # A violation aborts the search before anything is written.
            assert code == 0 or not out.exists()
            if code == 0:
                assert len(lines) == 1 and lines[0].startswith("search: "), lines
                document = json.loads(out.read_text())
                assert set(document["search"]) == {
                    "best_ratio", "evaluations", "trajectory"
                }
                qc.load_instance(out)
            return
        assert code == 0 and lines == []
        steps = int(options.get("--steps", "11"))
        grid = np.linspace(
            float(options.get("--q-lo", "-1")), float(options.get("--q-hi", "1")), steps
        )
        if options.get("--format") == "json":
            records = [json.loads(line) for line in out.read_text().splitlines()]
            assert all(list(record) == list(CSV_COLUMNS) for record in records)
            qs = [record["q"] for record in records]
        else:
            rows = read_rows(out)
            assert all(len(row) == len(CSV_COLUMNS) for row in rows)
            qs = [float(row[1]) for row in rows]
        assert qs == list(grid)


@pytest.mark.parametrize(
    "command, module, target",
    [
        (("verify", "--dims", "2", "--trials", "3"), qc.generators, "_draw_trials"),
        (("search", "--n", "2", "--budget", "10"), cli, "maximize_tightness"),
    ],
    ids=["verify", "search"],
)
def test_running_out_of_memory_exits_2(
    tmp_path, monkeypatch, capsys, command, module, target
):
    # A dimension too large for memory, e.g. verify --dims 100000, whose
    # first batch asks np.empty for 480 GB, raises MemoryError.  Patched
    # here, so nothing large is allocated.
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 480. GiB")

    monkeypatch.setattr(module, target, exhausted)
    assert run_cli(*command, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 480. GiB\n"


def test_sweep_rejects_bad_steps(pauli_file, capsys):
    assert run_cli("sweep", pauli_file, "--steps", "0") == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ("--n", "1"),
        ("--budget", "0"),
        ("--q", "inf"),
        ("--q", "nan"),
        ("--seed", "-1"),
        ("--seed", str(2**64)),
    ],
    ids=["n1", "budget0", "q-inf", "q-nan", "seed-neg", "seed-2pow64"],
)
def test_search_rejects_invalid_arguments(tmp_path, capsys, flags):
    # maximize_tightness and SeededRng refuse these before any output.
    out = tmp_path / "found.json"
    assert run_cli("search", "--budget", "10", *flags, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_search_exits_1_on_a_violation(tmp_path, monkeypatch, capsys):
    # A refined bound inflated past the product must read as a verified
    # violation (exit 1), not as invalid input (exit 2).  The search
    # evaluates each decoded row through _report.
    honest = qc.search._report

    def inflated(traces, q):
        report = honest(traces, q)
        refined = 2.0 * report.product + 1.0
        return report._replace(refined=refined, slack=report.product - refined)

    monkeypatch.setattr(qc.search, "_report", inflated)
    out = tmp_path / "found.json"
    code = run_cli("search", "--n", "2", "--budget", "10", "--out", out)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: master inequality violated")
    assert not out.exists()


def test_search_output_round_trips_into_sweep(tmp_path, capsys):
    found = tmp_path / "found.json"
    code = run_cli("search", "--n", "2", "--q", "0.5", "--budget", "600",
                   "--seed", "11", "--out", found)
    assert code == 0
    assert "best_ratio" in capsys.readouterr().err
    payload = json.loads(found.read_text())
    assert payload["q"] == 0.5
    assert payload["search"]["evaluations"] <= 600

    out = tmp_path / "replay.csv"
    assert run_cli("sweep", found, "--q-lo", "0.5", "--q-hi", "0.5",
                   "--steps", "1", "--out", out) == 0
    (row,) = read_rows(out)
    ratio = float(row[12])
    assert ratio == pytest.approx(payload["search"]["best_ratio"], abs=1e-12)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qcbounds", "verify", "--dims", "2",
         "--trials", "3", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(CSV_COLUMNS))
    assert len(proc.stdout.splitlines()) == 4


def old_csv_line(report):
    # The CSV record as written before the one-pass formatter: a
    # per-cell conversion of each field, joined in column order.
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        if isinstance(value, int):
            return str(value)
        return repr(float(value))

    fields = {c: getattr(report, c) for c in CSV_COLUMNS}
    fields["regime"] = fields["regime"].value
    return ",".join(cell(fields[c]) for c in CSV_COLUMNS) + "\n"


def old_json_line(report, replay=None):
    # The JSON record as written before the one-pass formatter:
    # json.dumps of the record's fields in column order, with the
    # violation members of a flagged trial appended.
    fields = {c: getattr(report, c) for c in CSV_COLUMNS}
    fields["regime"] = fields["regime"].value
    if replay is not None:
        fields["violation"] = True
        fields["instance"] = {k: replay[k] for k in ("dim", "rho", "a", "b")}
    return json.dumps(fields) + "\n"


def formatter_reports(mixed_qubit, pauli_x, pauli_y):
    identity = qc.make_hermitian(np.eye(2))
    reports = [
        qc.bound_report(mixed_qubit, identity, pauli_x, 0.5),  # ratio None
        qc.bound_report(*random_instance(5, 3), 0.7),
        qc.bound_report(*random_instance(6, 5, 2), -1.7),
    ]
    reports += [
        qc.bound_report(mixed_qubit, pauli_x, pauli_y, q)
        for q in (-0.0, -1.0, 1.0, -3.0, 0.1, 2.5)
    ]
    return reports


def emitted(output_format, report, replay=None):
    out = io.StringIO()
    cli._emit_records(out, output_format, [report], replay=replay)
    return out.getvalue()


def test_csv_record_equals_per_cell_join(mixed_qubit, pauli_x, pauli_y):
    lines = []
    for report in formatter_reports(mixed_qubit, pauli_x, pauli_y):
        lines.append(emitted("csv", report))
        assert lines[-1] == old_csv_line(report)
    assert lines[0].endswith(",\n")  # the empty ratio cell
    assert lines[3].startswith("2,-0.0,")
    # Observables whose variances overflow a float give no record; they
    # used to give one of inf and NaN cells.
    huge = qc.make_hermitian(1e200 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite, match="product"):
            qc.bound_report(mixed_qubit, huge, huge, 0.5)


def test_json_record_equals_json_dumps(mixed_qubit, pauli_x, pauli_y):
    lines = []
    for report in formatter_reports(mixed_qubit, pauli_x, pauli_y):
        lines.append(emitted("json", report))
        assert lines[-1] == old_json_line(report)
        assert list(json.loads(lines[-1])) == list(CSV_COLUMNS)
    assert lines[0].endswith(', "ratio": null}\n')
    assert lines[3].startswith('{"dim": 2, "q": -0.0, "regime": "Zero", ')


def test_json_violation_record_equals_nested_json_dumps(mixed_qubit, pauli_x, pauli_y):
    state, a, b = random_instance(8, 3, 2)
    replay = qc.instance_payload(state, a, b)
    replay["q"] = 0.3
    for report in (
        qc.bound_report(state, a, b, 0.3),
        qc.bound_report(mixed_qubit, qc.make_hermitian(np.eye(2)), pauli_x, 0.5),
    ):
        line = emitted("json", report, replay)
        assert line == old_json_line(report, replay)
        record = json.loads(line)
        assert list(record)[-2:] == ["violation", "instance"]
        assert record["instance"]["dim"] == 3


SWEEP_ENDS = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), st.floats(-5.0, 5.0))


@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 6),
    deficient=st.booleans(),
    ends=st.tuples(SWEEP_ENDS, SWEEP_ENDS).map(sorted),
    steps=st.integers(1, 40),
)
@example(seed=1, n=3, deficient=True, ends=[-1.0, -0.0], steps=5)
@example(seed=2, n=4, deficient=False, ends=[-1.0, 1.0], steps=9)
@settings(max_examples=40, deadline=None)
def test_sweep_lines_equal_per_report_lines(seed, n, deficient, ends, steps):
    # cmd_sweep formats the instance columns once; every line must still
    # be the line the old per-report formatters wrote.
    rank = max(1, n - 1) if deficient else n
    q_lo, q_hi = ends
    with tempfile.TemporaryDirectory() as tmp:
        instance = Path(tmp) / "instance.json"
        qc.save_instance(instance, *random_instance(seed, n, rank))
        reports = qc.sweep_q(
            *qc.load_instance(instance), np.linspace(q_lo, q_hi, steps)
        )
        for output_format, old_line in (("csv", old_csv_line), ("json", old_json_line)):
            out = Path(tmp) / f"sweep.{output_format}"
            assert cli.cmd_sweep(instance, q_lo, q_hi, steps, output_format, out) == 0
            lines = out.read_text().splitlines(keepends=True)
            if output_format == "csv":
                assert lines.pop(0) == ",".join(CSV_COLUMNS) + "\n"
            assert lines == [old_line(report) for report in reports]


def test_sweep_exits_2_when_the_variances_overflow(tmp_path, capsys, mixed_qubit):
    a = qc.make_hermitian(1e200 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = qc.make_hermitian(1e200 * np.array([[0.0, -1.0j], [1.0j, 0.0]]))
    instance = tmp_path / "huge.json"
    qc.save_instance(instance, mixed_qubit, a, b)
    out = tmp_path / "sweep.ndjson"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("sweep", instance, "--format", "json", "--out", out)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_sweep_exits_2_when_a_modulus_overflows_at_huge_q(
    tmp_path, capsys, mixed_qubit
):
    # At q = 1e200 the bracket's parts stay finite but its modulus does
    # not: an error line and exit 2, with no output written.
    a = qc.make_hermitian(1e200 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = qc.make_hermitian(1e200 * np.array([[0.0, -1.0j], [1.0j, 0.0]]))
    instance = tmp_path / "huge.json"
    qc.save_instance(instance, mixed_qubit, a, b)
    out = tmp_path / "sweep.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("sweep", instance, "--q-lo", "1e200", "--q-hi", "1e200",
                       "--steps", "1", "--out", out)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not out.exists()


def test_sweep_at_huge_q_gives_the_witness_bound(pauli_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", pauli_file, "--q-lo=-1e200", "--q-hi", "1e200",
                   "--out", out) == 0
    rows = read_rows(out)
    assert len(rows) == 11
    for row in rows:
        q, refined = float(row[1]), float(row[10])
        assert refined == pytest.approx(witness_ratio(0.25, q), rel=1e-12, abs=0.0)


def test_verify_at_huge_q_gives_nonzero_bounds(tmp_path):
    out = tmp_path / "run.csv"
    assert run_cli("verify", "--dims", "3", "--trials", "20", "--seed", "0",
                   "--q-lo", "1e100", "--q-hi", "1e101", "--out", out) == 0
    rows = read_rows(out)
    assert len(rows) == 20
    assert all(float(row[10]) > 0.0 for row in rows)


def test_verify_rejects_a_q_span_that_overflows(tmp_path, capsys):
    # Both ends are finite, but q-hi - q-lo is not.
    out = tmp_path / "run.csv"
    assert run_cli("verify", "--dims", "2", "--trials", "20",
                   "--q-lo=-1e308", "--q-hi", "1e308", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid plan: ") and "q-hi - q-lo" in err
    assert not out.exists()


def test_sweep_rejects_a_q_span_that_overflows(pauli_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("sweep", pauli_file, "--q-lo=-1e308", "--q-hi", "1e308",
                       "--steps", "3", "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid sweep: ") and "q-hi - q-lo" in err
    assert not out.exists()
    # argparse's choices stop an unknown format before cmd_sweep.
    assert cli.cmd_sweep(pauli_file, 0, 1, 3, "xml", out) == 2
    assert capsys.readouterr().err.splitlines() == [
        "invalid sweep: unknown format 'xml'"
    ]
    assert not out.exists()


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_verify_csv_golden_digest(tmp_path):
    out = tmp_path / "golden.csv"
    assert run_cli("verify", "--dims", "1,2,3,8", "--trials", "32",
                   "--rank-policy", "mixed", "--seed", "7", "--format", "csv",
                   "--out", out) == 0
    assert sha256_of(out) == VERIFY_CSV_SHA256


def test_verify_csv_golden_digest_two_word_seed(tmp_path):
    out = tmp_path / "golden.csv"
    assert run_cli("verify", "--dims", "2,3", "--trials", "40",
                   "--rank-policy", "mixed", "--seed", 2**64 - 1,
                   "--format", "csv", "--out", out) == 0
    assert sha256_of(out) == VERIFY_WIDE_SEED_CSV_SHA256


def test_verify_json_golden_digest_with_a_violation(tmp_path, monkeypatch, capsys):
    # The violated trial's record and document come from its batch row:
    # a second draw or evaluation through the reference path fails here.
    def refuse(*args, **kwargs):
        raise AssertionError("verify drew or evaluated a trial twice")

    for name in ("random_density", "random_hermitian", "bound_report"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "golden.ndjson"
    assert run_cli("verify", "--dims", "1,2,3,5", "--trials", "40", "--seed", "9",
                   "--tolerance", "1e-30", "--format", "json", "--out", out) == 1
    capsys.readouterr()
    assert '"violation": true' in out.read_text()
    assert sha256_of(out) == VERIFY_VIOLATION_JSON_SHA256
    (document,) = tmp_path.glob("violation_*.json")
    assert document.name == "violation_65.json"
    assert sha256_of(document) == VERIFY_VIOLATION_DOCUMENT_SHA256


def test_verify_csv_golden_digest_across_batch_edges(tmp_path):
    out = tmp_path / "golden.csv"
    assert run_cli("verify", "--dims", "1,5,32", "--trials", "200",
                   "--rank-policy", "mixed", "--seed", "3", "--format", "csv",
                   "--out", out) == 0
    assert sha256_of(out) == VERIFY_BATCH_EDGES_CSV_SHA256


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random is imported on the first draw, not at start-up.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qcbounds.cli; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def sweep_golden_instance(tmp_path):
    rng = qc.SeededRng(2024, 0)
    instance = tmp_path / "instance.json"
    qc.save_instance(
        instance,
        qc.random_density(3, 3, rng.split(0)),
        qc.random_hermitian(3, rng.split(1)),
        qc.random_hermitian(3, rng.split(2)),
    )
    return instance


def test_sweep_json_golden_digest(tmp_path):
    instance = sweep_golden_instance(tmp_path)
    out = tmp_path / "golden.ndjson"
    assert run_cli("sweep", instance, "--q-lo", "-3", "--q-hi", "3",
                   "--steps", "61", "--format", "json", "--out", out) == 0
    assert sha256_of(out) == SWEEP_JSON_SHA256


def test_sweep_csv_golden_digest(tmp_path):
    instance = sweep_golden_instance(tmp_path)
    out = tmp_path / "golden.csv"
    assert run_cli("sweep", instance, "--q-lo", "-3", "--q-hi", "3",
                   "--steps", "61", "--format", "csv", "--out", out) == 0
    assert sha256_of(out) == SWEEP_CSV_SHA256


# sha256 of sweep runs that reach the rare branches of the scalar layer,
# which the golden sweep above never meets: a rank-deficient state
# (lambda_min = 0, whose coefficient is exactly 1/(1+|q|)^2), the
# maximally mixed qutrit with diagonal A and B (an infinite coefficient
# with a zero trace term at q = -1 and q = 1), and a full-rank n = 4
# state.  Each runs over [-3, 3] in 61 steps and over [-1e200, 1e200] in
# 5 steps, where every |q| > 1 takes the mirrored form.  Recorded before
# bounds._reports evaluated each q in line.
RARE_SWEEP_SHA256 = {
    ("deficient", "unit", "json"):
        "4e1276bd30057b1d5e5c1895780d78331328f4e2876b00c47a642e6d79de61b6",
    ("deficient", "unit", "csv"):
        "29b0ddeeadf00e467b105484d53f4ea3f43e92ea9d9208280d899ee95130fa63",
    ("deficient", "huge", "json"):
        "26ede7df927066d20ed0895c3bec9eb7878bcd51ed4ffe7a1be92a114ef9a9b7",
    ("deficient", "huge", "csv"):
        "fdfcd3b2e9b39f90eec83bb21e5cabdd632765e135f29bd85401729da2c8bbd1",
    ("uniform", "unit", "json"):
        "1fd16ddec58f66b986a3292e4d5ee98579914c51de71ea2e2a896da02abb25e0",
    ("uniform", "unit", "csv"):
        "17be788f8c08ba5289815b7908c21b3dd29c90bc715c5a6c569bd8df6c003354",
    ("uniform", "huge", "json"):
        "1a6d9d82fde44dac3af305fbaa9e2d6bf9ac26af2d2f5cccfba8394c9a32fc78",
    ("uniform", "huge", "csv"):
        "62f3843022f0443be33b84a07fd11224867bdbc65e9d0fe92ed69654a2296848",
    ("faithful", "unit", "json"):
        "69c5a8f0c0b3a56555f950c43289347a90dcc0d295972434353b55fb3b00dd2e",
    ("faithful", "unit", "csv"):
        "7a1180ad53fadb809a90f5ce2dad0726b56c49e12618912fb940ec2fe176ec6f",
    ("faithful", "huge", "json"):
        "52cc754aa62c217c3f70e969fa431e0b888c41c9e06c97e8e969c71d0c0ea204",
    ("faithful", "huge", "csv"):
        "5843c9290a172ebbc3b65f9e9dac8eecd572a3fd12c6bbae658078b305f7293a",
}  # fmt: skip
# argparse reads a bare -1e200 as an option, hence the = form.
RARE_SWEEP_GRIDS = {
    "unit": ("--q-lo=-3", "--q-hi=3", "--steps=61"),
    "huge": ("--q-lo=-1e200", "--q-hi=1e200", "--steps=5"),
}


def rare_sweep_instance(tmp_path, name):
    if name == "uniform":
        state = qc.make_density(np.eye(3) / 3.0)
        a = qc.make_hermitian(np.diag([1.0, -2.0, 0.5]))
        b = qc.make_hermitian(np.diag([3.0, 0.25, -1.0]))
    elif name == "deficient":
        # eigh of a diagonal state keeps its exact zero eigenvalue.
        state = qc.make_density(np.diag([0.0, 0.25, 0.75]))
        rng = qc.SeededRng(2026, 0)
        a, b = qc.random_hermitian(3, rng.split(1)), qc.random_hermitian(3, rng.split(2))
    else:
        rng = qc.SeededRng(2026, 1)
        state = qc.random_density(4, 4, rng.split(0))
        a, b = qc.random_hermitian(4, rng.split(1)), qc.random_hermitian(4, rng.split(2))
    path = tmp_path / f"{name}.json"
    qc.save_instance(path, state, a, b)
    return path


@pytest.mark.parametrize("name, grid, output_format", sorted(RARE_SWEEP_SHA256))
def test_sweep_golden_digest_on_rare_branches(tmp_path, name, grid, output_format):
    instance = rare_sweep_instance(tmp_path, name)
    out = tmp_path / f"golden.{output_format}"
    assert run_cli("sweep", instance, *RARE_SWEEP_GRIDS[grid],
                   "--format", output_format, "--out", out) == 0
    assert sha256_of(out) == RARE_SWEEP_SHA256[name, grid, output_format]


def test_search_json_golden_digest(tmp_path, capsys):
    out = tmp_path / "golden.json"
    assert run_cli("search", "--n", "3", "--q", "0.5", "--budget", "400",
                   "--seed", "11", "--out", out) == 0
    capsys.readouterr()
    assert sha256_of(out) == SEARCH_JSON_SHA256
