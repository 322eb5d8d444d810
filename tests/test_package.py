"""The package's public surface, pinned so that adding or removing an export is
a reviewed change to this list."""
from __future__ import annotations

import types

import hcolor

PUBLIC_NAMES = [
    "ConsistencyRow", "ConstraintGraph", "ConstraintGraphError", "DegreeStats",
    "DisconnectedConstraintError", "EnumerationCapError", "EstimateReport", "ExactSummary",
    "FeasibilityUnknownError", "FullyLooseConstraintError", "Graph", "GraphFamily",
    "GraphFormatError", "HColorError", "InfeasibleModelError", "InvalidConfigurationError",
    "KLResult", "Model", "ModelFamily", "PLState", "ParameterError", "RainbowCheck",
    "allowed_matrix", "configuration_from_json", "configuration_to_json",
    "connected_components", "consistency_experiment", "constraint_from_json",
    "constraint_to_json", "default_burn_in", "degree_stats", "enumerate_exact",
    "find_valid_configuration", "generate", "gradient_concentration", "graph_from_json",
    "graph_to_json", "induced_subgraph", "is_glauber_irreducible", "is_hardcore", "is_valid",
    "kl_exact", "log_pl", "max_detailed_balance_violation", "min_eigenvalue_neg_hessian",
    "mpl_fit", "mpl_hardcore", "neighborhood_disjoint_size_bound",
    "neighborhood_disjoint_subset", "pl_gradient", "pl_hessian", "preset", "rainbow_check",
    "read_configuration", "read_constraint", "read_graph", "report_to_json", "rows_to_csv",
    "sample", "sample_many", "symmetric_eigenvalues", "tv_distance_empirical",
    "unconstrained_counts", "write_configuration", "write_constraint", "write_graph",
]


def test_public_names_are_pinned():
    # submodules are attributes too, and hcolor.cli only once something imports it
    names = sorted(
        n for n in dir(hcolor)
        if not n.startswith("_") and not isinstance(getattr(hcolor, n), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
