"""Exact-arithmetic toolkit for the quadratic shortest path problem (QSPP).

A QSPP instance asks for a source-target path in a digraph minimizing the
sum of per-arc linear costs plus pairwise interaction costs over the arcs of
the path.  The toolkit provides the instance model over exact rationals,
brute-force and shortest-path oracles, polynomial special-case solvers, the
classic hardness reductions as instance generators, and linearizability
machinery: the path-matrix feasibility oracle, closed-form diagnostics on
complete digraphs, and the polynomial decision procedure on directed grids.

The exported names resolve on first use (PEP 562): ``qspath.X`` imports
X's module then and binds X here, so importing the package, or one of its
modules, loads no module it does not need.  A module resolves the same way
(``qspath.grid``), as it did when the package imported them all.
"""
from importlib import import_module

__version__ = "0.1.0"

# each module and the names the package exports from it
_EXPORTS = {
    "adjacent": (
        "AuxiliaryGraph",
        "build_auxiliary",
        "is_adjacent_qspp",
        "make_cyclic_counterexample",
        "solve_aqspp",
    ),
    "complete": (
        "NecessaryConditionsReport",
        "PathClassSums",
        "check_necessary_conditions",
        "k4_linearize",
        "normalize_knstar",
        "path_class_costs",
        "tournament4_linearize",
    ),
    "errors": (
        "CyclicGraphError",
        "FamilyError",
        "FormatError",
        "InternalError",
        "InvalidPathError",
        "NoPathError",
        "PathLimitExceeded",
        "QspathError",
        "ScaleError",
    ),
    "fileio": ("emit_instance", "parse_instance"),
    "graphs": (
        "Arc",
        "Digraph",
        "Path",
        "count_grid_paths",
        "detect_grid",
        "enumerate_st_paths",
        "is_acyclic",
        "iter_st_paths",
        "make_complete_symmetric",
        "make_directed_cycle",
        "make_grid",
        "make_hypercube",
        "make_tournament",
        "path_vertices",
        "topological_order",
        "validate_path",
    ),
    "grid": (
        "critical_paths",
        "linearize_g2q",
        "linearize_grid",
        "pseudo_linearize",
        "reduce_cost_vector",
        "shrink_target",
    ),
    "model": (
        "InteractionMatrix",
        "QsppInstance",
        "Rational",
        "SppInstance",
        "ValidationReport",
        "brute_force_solve",
        "path_cost",
        "spp_solve",
        "validate_instance",
    ),
    "pathmatrix": (
        "CostMismatch",
        "InfeasibilityCertificate",
        "LinearizationResult",
        "PathMatrix",
        "build_path_matrix",
        "lp_oracle",
    ),
    "reductions": (
        "DisjointPathsInstance",
        "QapInstance",
        "disjoint_to_aqspp",
        "parse_qaplib",
        "qap_brute_force",
        "qap_to_qspp",
    ),
    "special": (
        "all_paths_equal_length",
        "detect_product",
        "detect_weak_sum",
        "linearize_directed_cycle",
        "linearize_weak_sum",
        "solve_product_case",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
