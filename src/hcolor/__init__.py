"""Hard-constraint Markov random fields on finite graphs.

The package covers the full loop for colorings constrained by a color-adjacency
relation (occupancy/exclusion models, multi-level exclusion, two-species
repulsion, proper colorings, and arbitrary constraint graphs):

- building interaction graphs and constraint graphs,
- sampling via heat-bath dynamics that resample whole color classes of the
  interaction graph at once, with exact enumeration, detailed-balance, and
  total-variation oracles at small scale,
- estimating the activity parameters from a single sample by maximum
  pseudo-likelihood (closed form for the two-color model, gradient ascent in
  general), with curvature and degeneracy diagnostics,
- replication experiments for error scaling, gradient concentration, exact
  KL divergences, and the constructions where consistent estimation fails.
"""

from .errors import (
    ConstraintGraphError,
    DisconnectedConstraintError,
    EnumerationCapError,
    FeasibilityUnknownError,
    FullyLooseConstraintError,
    GraphFormatError,
    HColorError,
    InfeasibleModelError,
    InvalidConfigurationError,
    ParameterError,
)
from .graphs import (
    DegreeStats,
    Graph,
    connected_components,
    degree_stats,
    generate,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    neighborhood_disjoint_size_bound,
    neighborhood_disjoint_subset,
    read_graph,
    two_neighborhood_sets,
    write_graph,
)
from .model import (
    ConstraintGraph,
    Model,
    allowed_colors,
    allowed_matrix,
    color_counts,
    configuration_from_json,
    configuration_to_json,
    constraint_from_json,
    constraint_to_json,
    is_hardcore,
    is_valid,
    preset,
    read_configuration,
    read_constraint,
    unconstrained_counts,
    write_configuration,
    write_constraint,
)
from .pseudolikelihood import (
    EstimateReport,
    PLState,
    log_pl,
    min_eigenvalue_neg_hessian,
    mpl_fit,
    mpl_hardcore,
    pl_gradient,
    pl_hessian,
    report_to_json,
    symmetric_eigenvalues,
)
from .sampler import (
    Chain,
    ExactSummary,
    conditional_distribution,
    default_burn_in,
    enumerate_exact,
    find_valid_configuration,
    glauber_sweep,
    is_glauber_irreducible,
    max_detailed_balance_violation,
    sample,
    sample_many,
    tv_distance_empirical,
)
from .experiments import (
    ConsistencyRow,
    GraphFamily,
    KLResult,
    ModelFamily,
    RainbowCheck,
    consistency_experiment,
    gradient_concentration,
    kl_exact,
    rainbow_check,
    rows_to_csv,
)

__version__ = "0.2.0"
