"""Exact-arithmetic toolkit for the quadratic shortest path problem (QSPP).

A QSPP instance asks for a source-target path in a digraph minimizing the
sum of per-arc linear costs plus pairwise interaction costs over the arcs of
the path.  The toolkit provides the instance model over exact rationals,
brute-force and shortest-path oracles, polynomial special-case solvers, the
classic hardness reductions as instance generators, and linearizability
machinery: the path-matrix feasibility oracle, closed-form diagnostics on
complete digraphs, and the polynomial decision procedure on directed grids.
"""
from .adjacent import (
    AuxiliaryGraph,
    build_auxiliary,
    is_adjacent_qspp,
    make_cyclic_counterexample,
    solve_aqspp,
)
from .complete import (
    NecessaryConditionsReport,
    PathClassSums,
    check_necessary_conditions,
    k4_linearize,
    normalize_knstar,
    path_class_costs,
    tournament4_linearize,
)
from .errors import (
    CyclicGraphError,
    FamilyError,
    FormatError,
    InternalError,
    InvalidPathError,
    NoPathError,
    PathLimitExceeded,
    QspathError,
    ScaleError,
)
from .fileio import emit_instance, parse_instance
from .graphs import (
    Arc,
    Digraph,
    Path,
    count_grid_paths,
    detect_grid,
    enumerate_st_paths,
    is_acyclic,
    iter_st_paths,
    make_complete_symmetric,
    make_directed_cycle,
    make_grid,
    make_hypercube,
    make_tournament,
    path_vertices,
    topological_order,
    validate_path,
)
from .grid import (
    critical_paths,
    linearize_g2q,
    linearize_grid,
    pseudo_linearize,
    reduce_cost_vector,
    shrink_target,
)
from .model import (
    InteractionMatrix,
    QsppInstance,
    Rational,
    SppInstance,
    ValidationReport,
    brute_force_solve,
    path_cost,
    spp_solve,
    validate_instance,
)
from .pathmatrix import (
    CostMismatch,
    InfeasibilityCertificate,
    LinearizationResult,
    PathMatrix,
    build_path_matrix,
    lp_oracle,
)
from .reductions import (
    DisjointPathsInstance,
    QapInstance,
    disjoint_to_aqspp,
    parse_qaplib,
    qap_brute_force,
    qap_to_qspp,
)
from .special import (
    all_paths_equal_length,
    detect_product,
    detect_weak_sum,
    linearize_directed_cycle,
    linearize_weak_sum,
    solve_product_case,
)

__version__ = "0.1.0"
