"""The flat pass of ``bounds._reports`` gives the bytes and errors of its reference.

``_reports`` evaluates each q in one straight line of float arithmetic
wherever the coefficient is finite, and falls back to ``_refined`` and
``_naive`` elsewhere.  ``reference_reports`` below is ``_reports`` as it
was before that pass, when every q went through ``classify_q``,
``_refined`` and ``_naive``.  The property drives both with trace passes
built directly, far outside what a valid instance gives, and asks for the
same records, compared bit for bit through ``float.hex``, or the same
error type and message.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcbounds.bounds import (
    RATIO_FLOOR,
    BoundReport,
    _naive,
    _refined,
    _reports,
    _robertson,
    _Traces,
    _unfinite,
    classify_q,
)
from qcbounds.errors import NonFinite


# Reference copy of ``bounds._reports`` before the flat pass.
def reference_reports(t: _Traces, qs) -> list[BoundReport]:
    product = t.var_a * t.var_b
    try:
        robertson = _robertson(t)
        fault = None
    except NonFinite as exc:
        robertson, fault = math.nan, exc
    unfinite = _unfinite("product", product) or _unfinite("robertson", robertson)
    dim, var_a, var_b = t.dim, t.var_a, t.var_b
    lambda_min, lambda_max = t.lambda_min, t.lambda_max
    isfinite = math.isfinite
    new = tuple.__new__
    reports = []
    for q in qs:
        q = float(q)
        regime = classify_q(q)
        aq = abs(q)
        refined = _refined(t, q, aq)
        if fault is not None:
            raise fault
        naive_q = _naive(t, aq)
        if unfinite is not None:
            raise unfinite
        if not isfinite(naive_q):
            raise _unfinite("naive_q", naive_q)
        if not isfinite(refined):
            raise _unfinite("refined", refined)
        reports.append(
            new(
                BoundReport,
                (
                    dim,
                    q,
                    regime,
                    var_a,
                    var_b,
                    product,
                    lambda_min,
                    lambda_max,
                    robertson,
                    naive_q,
                    refined,
                    product - refined,
                    None if product < RATIO_FLOOR else refined / product,
                ),
            )
        )
    return reports


def outcome(reports, t, qs):
    """Every record with its floats as ``float.hex``, or the error."""
    try:
        records = reports(t, qs)
    except Exception as exc:  # the error is what is compared
        return type(exc), str(exc)
    return [
        tuple(value.hex() if type(value) is float else value for value in record)
        for record in records
    ]


SIGNED = st.sampled_from([1.0, -1.0])
ORDINARY = st.floats(-10.0, 10.0)
# Trace parts at the edges of the float range, and ordinary ones.
PART = st.one_of(
    st.builds(
        lambda x, sign: sign * x,
        st.sampled_from(
            [0.0, 5e-324, 2.2e-308, 1e-300, 1e300, 1.7e308, math.inf, math.nan]
        ),
        SIGNED,
    ),
    ORDINARY,
)
# Half the terms have ordinary parts only, so that many passes give
# records.
TERM = st.one_of(st.builds(complex, ORDINARY, ORDINARY), st.builds(complex, PART, PART))
VARIANCE = st.one_of(
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0),
    st.sampled_from([0.0, 1e-300, 1e200, 1.7e308, math.inf, math.nan]),
)
LAMBDA_MAX = st.one_of(
    st.sampled_from([0.5 - 1e-8, 0.5, 0.5 + 1e-8, 1.0]), st.floats(1e-3, 1.0)
)
# q values at the regime edges, past where the |q| > 1 form overflows,
# and not finite.  1e100 leaves (1 + |q|)^2 finite but overflows the
# coefficient denominator.
Q = st.one_of(
    st.builds(
        lambda x, sign: sign * x,
        st.sampled_from(
            [0.0, 1.0, 1.0 - 2**-53, 1.0 + 2**-52, 3.0, 1e77, 1e100, 1e200,
             1.7e308, 5e-324, math.inf, math.nan]
        ),  # fmt: skip
        SIGNED,
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def traces(draw):
    lambda_max = draw(LAMBDA_MAX)
    lambda_min = draw(
        st.sampled_from(
            [0.0, 5e-324, lambda_max, 0.5 - 1e-8, lambda_max * draw(st.floats(0, 1))]
        )
    )
    lambda_min = min(lambda_min, lambda_max)
    return _Traces(
        dim=3,
        var_a=draw(VARIANCE),
        var_b=draw(VARIANCE),
        forward=draw(TERM),
        backward=draw(TERM),
        commutator=draw(TERM),
        lambda_min=lambda_min,
        lambda_max=lambda_max,
    )


@given(traces(), st.lists(Q, min_size=1, max_size=6))
# A finite coefficient (6.25) times a finite square (1e308) whose
# product overflows: only the finiteness check of refined refuses it.
@example(_Traces(3, 1.0, 1.0, 1e154 + 0j, 0j, 0j, 0.4, 0.6), [1.0])
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_flat_pass_equals_reference(t, qs):
    assert outcome(_reports, t, qs) == outcome(reference_reports, t, qs)

