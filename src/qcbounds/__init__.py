"""Eigenvalue-weighted uncertainty bounds for q-deformed commutators.

For a state rho and observables A, B, the variance product V(A) V(B) is
bounded below by spectrum-weighted multiples of squared q-commutator
traces.  This package evaluates the classical, deformed, and refined
forms of that bound across every regime of q, generates reproducible
random instances, verifies the inequalities in bulk, and searches for
instances where the refined bound becomes an equality.
"""

from . import errors
from .bounds import (
    BoundReport,
    QRegime,
    bound_report,
    classify_q,
    naive_q_bound,
    q_trace_term,
    refined_coefficient,
    refined_q_bound,
    robertson_bound,
    sweep_q,
)
from .generators import SeededRng, maximally_mixed, random_density, random_hermitian
from .hermitian import (
    DensityMatrix,
    HermitianMatrix,
    center,
    density_from_decomposition,
    make_density,
    make_hermitian,
    variance,
)
from .instances import (
    instance_payload,
    load_instance,
    payload_to_instance,
    save_instance,
)
from .search import SearchResult, maximize_tightness

__version__ = "0.1.0"

__all__ = [
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
