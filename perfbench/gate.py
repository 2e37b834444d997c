"""Output gate: every record of every run against the paper's own claims.

A bound record (a ``verify`` CSV row or a ``sweep`` JSON line) passes when

* master inequality: ``slack >= -1e-9 * max(1, product)``;
* dominance: ``refined >= naive_q * (1 - 1e-12)`` when ``|q| <= 1`` and
  ``lambda_min > 0``;
* collapse: ``refined`` equals ``naive_q`` within 1e-12 relative when
  ``lambda_min == 0``.

A ``search`` document passes when it spent exactly its budget, its
trajectory improves monotonically up to ``best_ratio``, and the witness
it prints passes the record checks above (re-evaluated by ``sweep``).
"""

from __future__ import annotations

import hashlib
import json
import math

MASTER_RTOL = 1e-9
DOMINANCE_RTOL = 1e-12
COLLAPSE_RTOL = 1e-12

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
_NUMERIC = ("q", "lambda_min", "product", "naive_q", "refined", "slack")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record_problem(record) -> str | None:
    """Return why a parsed bound record breaks a claim, or None if it holds."""
    if not isinstance(record, dict):
        return "record is not an object"
    try:
        values = [float(record[key]) for key in _NUMERIC]
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable record: {exc!r}"
    if not all(map(math.isfinite, values)):
        return "non-finite value"
    q, lam_min, product, naive, refined, slack = values
    if slack < -MASTER_RTOL * max(1.0, product):
        return f"master inequality: slack {slack!r} with product {product!r}"
    if abs(q) <= 1.0 and lam_min > 0.0 and refined < naive * (1.0 - DOMINANCE_RTOL):
        return f"dominance: refined {refined!r} < naive_q {naive!r} at q={q!r}"
    if lam_min == 0.0 and abs(refined - naive) > COLLAPSE_RTOL * abs(naive):
        return f"collapse: refined {refined!r} != naive_q {naive!r} at lambda_min=0"
    return None


def parse_csv(text: str) -> list:
    """Parse a ``verify``/``sweep`` CSV stream; malformed rows become None."""
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        return []
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(dict(zip(CSV_COLUMNS, cells)) if len(cells) == len(CSV_COLUMNS) else None)
    return rows


def parse_jsonl(text: str) -> list:
    """Parse a JSON-lines record stream; malformed lines become None."""
    rows = []
    for line in text.splitlines():
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            rows.append(None)
    return rows


def failed_records(records: list, expected: int) -> tuple[int, list[str]]:
    """Count failed items: missing records plus records that break a claim.

    A stream with more records than items fails as a whole.
    """
    problems = [p for p in map(record_problem, records[:expected]) if p]
    failed = expected - min(len(records), expected) + len(problems)
    if len(records) != expected:
        problems.append(f"{len(records)} records, expected {expected}")
        if len(records) > expected:
            failed = expected
    return failed, problems


def search_problem(text: str, budget: int) -> str | None:
    """Return why a ``search`` document is wrong, or None if it holds."""
    try:
        doc = json.loads(text)
        search = doc["search"]
        best, evaluations = float(search["best_ratio"]), search["evaluations"]
        ratios = [float(ratio) for _, ratio in search["trajectory"]]
        float(doc["q"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable search document: {exc!r}"
    if evaluations != budget:
        return f"{evaluations} evaluations, budget {budget}"
    if not (math.isfinite(best) and 0.0 < best <= 1.0 + MASTER_RTOL):
        return f"best_ratio {best!r} outside (0, 1]"
    if not ratios or ratios[-1] != best or ratios != sorted(ratios):
        return "trajectory is not monotone up to best_ratio"
    return None
