import json

import numpy as np
import pytest

import qcbounds as qc
from qcbounds.errors import InstanceFormatError, NotHermitian
from qcbounds.instances import render_document

from conftest import random_instance


def test_round_trip_is_bit_exact(tmp_path):
    state, a, b = random_instance(21, 3)
    path = tmp_path / "inst.json"
    qc.save_instance(path, state, a, b)
    state2, a2, b2 = qc.load_instance(path)
    assert np.array_equal(a.mat, a2.mat)
    assert np.array_equal(b.mat, b2.mat)
    # The state is re-decomposed on load; the matrix must survive exactly
    # up to the rebuild from its (clamped, renormalised) spectrum.
    assert np.max(np.abs(state.mat - state2.mat)) < 1e-13


def test_seventeen_digit_rendering():
    text = render_document({"x": 1.0 / 3.0, "y": 0.25, "z": 1.0})
    assert '"x": 0.33333333333333331' in text
    assert '"y": 0.25' in text
    assert '"z": 1' in text
    parsed = json.loads(text)
    assert parsed["x"] == 1.0 / 3.0
    assert render_document({"a": True, "b": None}) == '{"a": true, "b": null}'
    with pytest.raises(TypeError, match="cannot render object as JSON"):
        render_document({"x": object()})


def test_rendering_is_canonical(tmp_path):
    state, a, b = random_instance(5, 2)
    one, two = tmp_path / "a.json", tmp_path / "b.json"
    qc.save_instance(one, state, a, b)
    qc.save_instance(two, state, a, b)
    assert one.read_bytes() == two.read_bytes()


def test_extra_keys_are_preserved_and_ignored(tmp_path):
    state, a, b = random_instance(6, 2)
    path = tmp_path / "inst.json"
    qc.save_instance(path, state, a, b, extra={"q": 0.5, "note": "anything"})
    payload = json.loads(path.read_text())
    assert payload["q"] == 0.5
    qc.load_instance(path)


def test_malformed_documents_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    with pytest.raises(InstanceFormatError):
        qc.load_instance(bad)

    for payload in (
        [],
        {},
        {"dim": 2, "rho": [], "a": [], "b": []},
        {"dim": 0, "rho": [], "a": [], "b": []},
        {"dim": True, "rho": [], "a": [], "b": []},
        {
            "dim": 1,
            "rho": [[{"re": 1.0}]],
            "a": [[{"re": 0.0, "im": 0.0}]],
            "b": [[{"re": 0.0, "im": 0.0}]],
        },
        {
            "dim": 1,
            "rho": [[{"re": "x", "im": 0.0}]],
            "a": [[{"re": 0.0, "im": 0.0}]],
            "b": [[{"re": 0.0, "im": 0.0}]],
        },
    ):
        with pytest.raises(InstanceFormatError):
            qc.payload_to_instance(payload)


def test_integer_cell_past_the_float_range_rejected(tmp_path):
    # JSON integers are unbounded; 10**400 overflowed complex() with a
    # bare OverflowError.
    doc = {"dim": 1, "rho": [[{"re": 1, "im": 0}]], "a": [[{"re": 0, "im": 0}]],
           "b": [[{"re": 0, "im": -(10**400)}]]}  # fmt: skip
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceFormatError, match=r"b\[0\]\[0\]"):
        qc.load_instance(path)


def test_undecodable_files_rejected(tmp_path):
    # A UTF-16 byte order mark is not UTF-8 (UnicodeDecodeError), 100000
    # open brackets exceed the JSON decoder's recursion limit
    # (RecursionError), and a 5001-digit integer exceeds the interpreter's
    # limit for int("...") (ValueError); all three used to escape
    # load_instance.
    path = tmp_path / "bad.json"
    for content, message in (
        (b"\xff\xfe{\x00}\x00", "not UTF-8 text"),
        (b"[" * 100000, "nested too deeply"),
        (b'{"dim": ' + b"1" * 5001 + b"}", "number too long"),
    ):
        path.write_bytes(content)
        with pytest.raises(InstanceFormatError, match=message):
            qc.load_instance(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(InstanceFormatError):
        qc.load_instance(tmp_path / "nope.json")


def test_validation_errors_propagate():
    payload = {
        "dim": 2,
        "rho": [
            [{"re": 0.5, "im": 0.0}, {"re": 0.0, "im": 0.0}],
            [{"re": 0.0, "im": 0.0}, {"re": 0.5, "im": 0.0}],
        ],
        "a": [
            [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
            [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
        ],
        "b": [
            [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
            [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
        ],
    }
    with pytest.raises(NotHermitian):
        qc.payload_to_instance(payload)
