import qcbounds as qc

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


def test_public_surface_is_pinned():
    assert sorted(qc.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(qc, name), name
