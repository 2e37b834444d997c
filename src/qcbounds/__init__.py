"""Eigenvalue-weighted uncertainty bounds for q-deformed commutators.

For a state rho and observables A, B, the variance product V(A) V(B) is
bounded below by spectrum-weighted multiples of squared q-commutator
traces.  This package evaluates the classical, deformed, and refined
forms of that bound across every regime of q, generates reproducible
random instances, verifies the inequalities in bulk, and searches for
instances where the refined bound becomes an equality.
"""

from . import errors
from .algebra import (
    QRegime,
    classify_q,
    q_commutator,
    q_trace_term,
)
from .bounds import (
    BoundReport,
    bound_report,
    naive_q_bound,
    refined_coefficient,
    refined_q_bound,
    robertson_bound,
    schwarz_split,
    weight_ratio_excess,
    weight_ratio_sq,
)
from .generators import SeededRng, maximally_mixed, random_density, random_hermitian
from .hermitian import (
    DensityMatrix,
    HermitianMatrix,
    center,
    density_from_decomposition,
    eigenbasis_elements,
    expectation,
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
from .search import SearchResult, maximize_tightness, sweep_q, tightness_ratio

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
    "eigenbasis_elements",
    "errors",
    "expectation",
    "instance_payload",
    "load_instance",
    "make_density",
    "make_hermitian",
    "maximally_mixed",
    "maximize_tightness",
    "naive_q_bound",
    "payload_to_instance",
    "q_commutator",
    "q_trace_term",
    "random_density",
    "random_hermitian",
    "refined_coefficient",
    "refined_q_bound",
    "robertson_bound",
    "save_instance",
    "schwarz_split",
    "sweep_q",
    "tightness_ratio",
    "variance",
    "weight_ratio_excess",
    "weight_ratio_sq",
]
