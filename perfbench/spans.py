"""Span recording for traced benchmark runs, and the per-layer split.

A traced child rebinds the public names in ``HOOKS`` to wrappers that
record one span per call: name, start, end, parent span and whether the
call raised.  The package itself is not modified.  Spans stay in memory
and are written out once, when the child ends; ``layer_metrics`` turns
them into the per-layer figures the benchmark reports.

Self time is a span's duration minus the part of that interval covered
by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

ROOT_SPAN = "cli.main"
LOAD_SPAN = "instances.load_instance"

# Every name a traced run rebinds: (module, class or None, attribute, span).
# The CLI binds ``maximize_tightness``, ``sweep_q`` and ``load_instance``
# into its own namespace at import, so those are rebound on ``qcbounds.cli``
# (rebinding them on their home modules would never see a CLI call).
# A hook whose module, class or attribute no longer exists is reported as
# absent; a span fed only by absent hooks yields null metrics.
HOOKS = (
    ("qcbounds.cli", None, "random_density", "generators.random_density"),
    ("qcbounds.cli", None, "random_hermitian", "generators.random_hermitian"),
    ("qcbounds.cli", None, "bound_report", "bounds.bound_report"),
    ("qcbounds.search", None, "bound_report", "bounds.bound_report"),
    ("qcbounds.bounds", None, "q_trace_term", "algebra.q_trace_term"),
    ("qcbounds.generators", "SeededRng", "generator", "generators.rng"),
    ("qcbounds.hermitian", "HermitianMatrix", "__post_init__", "hermitian.validate"),
    ("qcbounds.hermitian", "DensityMatrix", "__post_init__", "hermitian.validate"),
    ("qcbounds.cli", None, "maximize_tightness", "search.maximize_tightness"),
    ("qcbounds.cli", None, "sweep_q", "search.sweep_q"),
    ("qcbounds.cli", None, "load_instance", LOAD_SPAN),
)


def hook_label(hook) -> str:
    module, cls, attr, _ = hook
    owner = cls if cls else module.rsplit(".", 1)[-1]
    return f"{owner}.{attr}"


class Recorder:
    """In-memory span list for one process.

    Each span is ``[name_id, start_ns, end_ns, parent_index, failed]``;
    ``parent_index`` is -1 for a span with no recorded caller.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self._ids: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span."""
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name_id, clock(), 0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[4] = 1
                raise
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def install(recorder: Recorder, hooks=HOOKS) -> list[str]:
    """Rebind every hook that exists; return the labels of absent ones."""
    absent = []
    for hook in hooks:
        module_name, cls, attr, span = hook
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            absent.append(hook_label(hook))
            continue
        if cls is not None:
            owner = getattr(owner, cls, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            absent.append(hook_label(hook))
            continue
        setattr(owner, attr, recorder.wrap(span, original))
    return absent


def absent_spans(absent_hooks, hooks=HOOKS) -> set[str]:
    """Return the span names every one of whose hooks is absent."""
    fed: dict[str, bool] = {}
    for hook in hooks:
        present = hook_label(hook) not in absent_hooks
        fed[hook[3]] = fed.get(hook[3], False) or present
    return {span for span, present in fed.items() if not present}


def self_times(spans) -> list[int]:
    """Return each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def _percentile(sorted_values, share: float) -> float:
    # Nearest-rank percentile of an ascending list.
    rank = max(1, math.ceil(share * len(sorted_values)))
    return float(sorted_values[rank - 1])


def layer_metrics(calls, absent_hooks) -> dict:
    """Per-layer figures pooled over the traced calls of one run.

    ``calls`` holds ``(trace, items, out_bytes)`` per call, where ``trace``
    is a ``Recorder.dump()`` whose spans include exactly one ``ROOT_SPAN``
    around the whole ``main()`` call.  Validations under a ``LOAD_SPAN``
    happen once at the trust boundary and are not counted per item.
    Metrics of a span whose hooks are all absent are None.
    """
    items = sum(n for _, n, _ in calls)
    out_bytes = sum(b for _, _, b in calls)
    count: dict[str, int] = {}
    own: dict[str, int] = {}
    failed: dict[str, int] = {}
    durations: dict[str, list[int]] = {}
    hot_validations = 0
    for trace, _, _ in calls:
        names, spans = trace["names"], trace["spans"]
        for span, self_ns in zip(spans, self_times(spans)):
            name = names[span[0]]
            count[name] = count.get(name, 0) + 1
            own[name] = own.get(name, 0) + self_ns
            failed[name] = failed.get(name, 0) + span[4]
            durations.setdefault(name, []).append(span[2] - span[1])
            if name == "hermitian.validate" and not _under(spans, names, span, LOAD_SPAN):
                hot_validations += 1
    main_ns = sum(durations[ROOT_SPAN])
    report_us = sorted(d / 1e3 for d in durations.get("bounds.bound_report", ()))

    def us_per_call(name):
        return sum(durations[name]) / count[name] / 1e3 if count.get(name) else 0.0

    def per_item(name):
        return count.get(name, 0) / items

    def self_share(name):
        return own.get(name, 0) / main_ns

    def percentile(share):
        return lambda _: _percentile(report_us, share) if report_us else 0.0

    metrics = {
        "generators.rng.calls_per_item": ("generators.rng", per_item),
        "generators.rng.us_per_call": ("generators.rng", us_per_call),
        "generators.random_density.us_per_call": (
            "generators.random_density",
            us_per_call,
        ),
        "generators.random_hermitian.us_per_call": (
            "generators.random_hermitian",
            us_per_call,
        ),
        "hermitian.validations_per_item": (
            "hermitian.validate",
            lambda _: hot_validations / items,
        ),
        "hermitian.validate.us_per_call": ("hermitian.validate", us_per_call),
        "hermitian.validate.self_share": ("hermitian.validate", self_share),
        "algebra.q_trace_term.calls_per_item": ("algebra.q_trace_term", per_item),
        "bounds.bound_report.us_p50": ("bounds.bound_report", percentile(0.50)),
        "bounds.bound_report.us_p99": ("bounds.bound_report", percentile(0.99)),
        "bounds.bound_report.self_share": ("bounds.bound_report", self_share),
        "bounds.bound_report.failed": (
            "bounds.bound_report",
            lambda name: float(failed.get(name, 0)),
        ),
        "search.maximize_tightness.self_share": (
            "search.maximize_tightness",
            self_share,
        ),
        "cli.self_share": (ROOT_SPAN, self_share),
        "cli.emit.bytes_per_item": (ROOT_SPAN, lambda _: out_bytes / items),
    }
    gone = absent_spans(absent_hooks)
    return {
        metric: None if span in gone else fn(span)
        for metric, (span, fn) in metrics.items()
    }


def _under(spans, names, span, ancestor: str) -> bool:
    parent = span[3]
    while parent >= 0:
        if names[spans[parent][0]] == ancestor:
            return True
        parent = spans[parent][3]
    return False
