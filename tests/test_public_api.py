import importlib
import importlib.util
from pathlib import Path

import qcbounds as qc

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# The package's public names.  Removing or adding one is an API change:
# edit this list with it, and log the change.
PUBLIC_NAMES = [
    "BoundReport",
    "DensityMatrix",
    "HermitianMatrix",
    "QRegime",
    "SearchResult",
    "SeededRng",
    "bound_report",
    "center",
    "classify_q",
    "density_from_decomposition",
    "errors",
    "instance_payload",
    "load_instance",
    "make_density",
    "make_hermitian",
    "maximally_mixed",
    "maximize_tightness",
    "naive_q_bound",
    "payload_to_instance",
    "q_trace_term",
    "random_density",
    "random_hermitian",
    "refined_coefficient",
    "refined_q_bound",
    "robertson_bound",
    "save_instance",
    "sweep_q",
    "variance",
]


def test_public_surface_is_pinned():
    assert sorted(qc.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(qc, name), name


def test_benchmark_hooks_exist():
    # The benchmark's traced runs rebind every name in perfbench/spans.py
    # HOOKS, and report one that is missing as an absent hook with null
    # metrics.  A public name the package itself no longer calls, such as
    # bounds.q_trace_term, must stay for as long as a hook names it.
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.HOOKS
    for module, cls, attr, _ in spans.HOOKS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), (module, cls, attr)
