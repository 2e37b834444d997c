"""Self-tests of the benchmark's gate and trace arithmetic.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import spans  # noqa: E402

GOOD_ROWS = [
    # dim, q, regime, l_min, l_max, var_a, var_b, product, robertson, naive_q, refined, slack, ratio
    ("2", "0.5", "PositiveLeqOne", "0.25", "0.75", "1.0", "1.0", "1.0", "1.0", "0.25", "0.49", "0.51", "0.49"),
    ("2", "1.0", "PositiveLeqOne", "0.0", "1.0", "1.0", "1.0", "1.0", "1.0", "0.25", "0.25", "0.75", "0.25"),
    ("3", "-2.0", "LtMinusOne", "0.1", "0.6", "2.0", "0.5", "1.0", "0.0", "0.1", "0.3", "0.7", "0.3"),
]


def _csv(rows):
    return "\n".join([",".join(gate.CSV_COLUMNS), *(",".join(r) for r in rows)]) + "\n"


def test_gate_accepts_valid_stream():
    records = gate.parse_csv(_csv(GOOD_ROWS))
    assert gate.failed_records(records, len(GOOD_ROWS)) == (0, [])


def test_gate_rejects_one_corrupted_record():
    for column, value in (("slack", "-0.5"), ("refined", "0.2"), ("naive_q", "0.3")):
        rows = [list(r) for r in GOOD_ROWS]
        rows[1 if column == "naive_q" else 0][gate.CSV_COLUMNS.index(column)] = value
        failed, problems = gate.failed_records(gate.parse_csv(_csv(rows)), len(rows))
        assert failed == 1, (column, problems)


def test_gate_counts_missing_and_malformed_records():
    text = _csv(GOOD_ROWS).replace("0.49,0.51", "0.49")
    assert gate.failed_records(gate.parse_csv(text), 4)[0] == 2
    jsonl = "\n".join(json.dumps(dict(zip(gate.CSV_COLUMNS, r))) for r in GOOD_ROWS)
    assert gate.failed_records(gate.parse_jsonl(jsonl + "\n{oops"), 4)[0] == 1


def test_search_document_gate():
    doc = {"q": 0.5, "search": {"best_ratio": 0.9, "evaluations": 10,
                                "trajectory": [[1, 0.5], [7, 0.9]]}}  # fmt: skip
    assert gate.search_problem(json.dumps(doc), 10) is None
    assert gate.search_problem(json.dumps(doc), 11) is not None
    doc["search"]["trajectory"] = [[1, 0.95], [7, 0.9]]
    assert gate.search_problem(json.dumps(doc), 10) is not None


def test_self_time_on_synthetic_span_tree():
    # root [0, 100] has children [10, 40] and [50, 90]; the first child has
    # a grandchild [20, 30]; an overlapping pair [60, 70] / [65, 80] under
    # the second child covers the union [60, 80] once.
    tree = [
        [0, 0, 100, -1, 0],
        [1, 10, 40, 0, 0],
        [2, 20, 30, 1, 0],
        [1, 50, 90, 0, 0],
        [2, 60, 70, 3, 0],
        [2, 65, 80, 3, 0],
    ]
    assert spans.self_times(tree) == [30, 20, 10, 20, 10, 15]


def test_recorder_nests_spans_and_flags_failures():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: next(ticks))

    def fail():
        raise ValueError

    inner = rec.wrap("inner", lambda: None)
    bad = rec.wrap("bad", fail)

    def body():
        inner()
        try:
            bad()
        except ValueError:
            pass

    rec.wrap("outer", body)()
    dump = rec.dump()
    assert dump["names"] == ["inner", "bad", "outer"]
    assert [s[3] for s in dump["spans"]] == [-1, 0, 0]
    assert [s[4] for s in dump["spans"]] == [0, 0, 1]


def test_missing_hook_yields_null(monkeypatch):
    class Owner:
        @staticmethod
        def present():
            return None

    fake = type(sys)("_perfbench_fake")
    fake.Owner = Owner
    monkeypatch.setitem(sys.modules, "_perfbench_fake", fake)
    hooks = (
        ("_perfbench_fake", "Owner", "present", "bounds.bound_report"),
        ("_perfbench_fake", "Owner", "gone", "generators.rng"),
        ("_perfbench_fake", "Missing", "x", "hermitian.validate"),
        ("_perfbench_no_such_module", None, "x", "algebra.q_trace_term"),
    )
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: next(ticks))
    absent = spans.install(rec, hooks)
    assert absent == ["Owner.gone", "Missing.x", "_perfbench_no_such_module.x"]
    assert spans.absent_spans(absent, hooks) == {
        "generators.rng",
        "hermitian.validate",
        "algebra.q_trace_term",
    }

    # Root span [0, 3] around the hooked call [1, 2].
    rec.wrap(spans.ROOT_SPAN, Owner.present)()
    absent_labels = [spans.hook_label(h) for h in spans.HOOKS if h[3] == "generators.rng"]
    metrics = spans.layer_metrics([(rec.dump(), 4, 40)], absent_labels)
    assert metrics["generators.rng.calls_per_item"] is None
    assert metrics["generators.rng.us_per_call"] is None
    assert metrics["hermitian.validations_per_item"] == 0.0
    assert metrics["bounds.bound_report.us_p50"] == 1e-3
    assert metrics["bounds.bound_report.self_share"] == 1 / 3
    assert metrics["cli.self_share"] == 2 / 3
    assert metrics["cli.emit.bytes_per_item"] == 10.0
