"""The package's public names, resolved on first use, and what a fresh
interpreter loads for the command line."""
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import qspath
from qspath.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# every name the package exports, by the module it comes from
EXPORTS = {
    "adjacent": {
        "AuxiliaryGraph", "build_auxiliary", "is_adjacent_qspp",
        "make_cyclic_counterexample", "solve_aqspp",
    },
    "complete": {
        "NecessaryConditionsReport", "PathClassSums", "check_necessary_conditions",
        "k4_linearize", "normalize_knstar", "path_class_costs", "tournament4_linearize",
    },
    "errors": {
        "CyclicGraphError", "FamilyError", "FormatError", "InternalError",
        "InvalidPathError", "NoPathError", "PathLimitExceeded", "QspathError",
        "ScaleError",
    },
    "fileio": {"emit_instance", "parse_instance"},
    "graphs": {
        "Arc", "Digraph", "Path", "count_grid_paths", "detect_grid",
        "enumerate_st_paths", "is_acyclic", "iter_st_paths",
        "make_complete_symmetric", "make_directed_cycle", "make_grid",
        "make_hypercube", "make_tournament", "path_vertices",
        "topological_order", "validate_path",
    },
    "grid": {
        "critical_paths", "linearize_g2q", "linearize_grid", "pseudo_linearize",
        "reduce_cost_vector", "shrink_target",
    },
    "model": {
        "InteractionMatrix", "QsppInstance", "Rational", "SppInstance",
        "ValidationReport", "brute_force_solve", "path_cost", "spp_solve",
        "validate_instance",
    },
    "pathmatrix": {
        "CostMismatch", "InfeasibilityCertificate", "LinearizationResult",
        "PathMatrix", "build_path_matrix", "lp_oracle",
    },
    "reductions": {
        "DisjointPathsInstance", "QapInstance", "disjoint_to_aqspp",
        "parse_qaplib", "qap_brute_force", "qap_to_qspp",
    },
    "special": {
        "all_paths_equal_length", "detect_product", "detect_weak_sum",
        "linearize_directed_cycle", "linearize_weak_sum", "solve_product_case",
    },
}


def test_all_lists_every_exported_name_once():
    names = set().union(*EXPORTS.values())
    assert len(names) == 72
    assert len(qspath.__all__) == 72
    assert set(qspath.__all__) == names
    assert qspath.__version__ == "0.1.0"


def test_each_name_is_the_object_of_its_module():
    for module, names in EXPORTS.items():
        home = import_module(f"qspath.{module}")
        for name in names:
            assert getattr(qspath, name) is getattr(home, name), name


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from qspath import *", namespace)
    assert set(qspath.__all__) <= namespace.keys()
    for name in qspath.__all__:
        assert namespace[name] is getattr(qspath, name)
    assert set(qspath.__all__) <= set(dir(qspath))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'nope'"):
        qspath.nope
    assert not hasattr(qspath, "nope")


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports qspath from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


def test_importing_the_package_loads_a_module_only_when_it_is_used():
    done = _fresh(
        "import sys, qspath\n"
        "loaded = lambda: ' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'qspath'))\n"
        "print(loaded())\n"
        "qspath.Digraph, qspath.grid.linearize_grid\n"
        "print(loaded())"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "qspath",
        "qspath qspath.errors qspath.graphs qspath.grid qspath.model qspath.pathmatrix",
    ]


def test_importing_the_cli_loads_only_the_common_commands_layers():
    done = _fresh(
        "import sys, qspath.cli\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'qspath')))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == sorted(
        ["qspath", "qspath.cli"]
        + [f"qspath.{m}" for m in ("errors", "fileio", "generate", "graphs", "grid", "model", "pathmatrix")]
    )


def test_a_handler_imports_its_layer_from_cold(tmp_path, capsys):
    path = tmp_path / "adjacent.qspp"
    argv = ["generate", "grid", "3", "4", "--fill", "adjacent", "--seed", "3", "--output", str(path)]
    assert main(argv) == 0
    assert main(["solve", str(path), "--method", "aqspp"]) == 0
    expected = capsys.readouterr().out
    done = _fresh(
        "import sys\n"
        "from qspath.cli import main\n"
        f"sys.exit(main(['solve', {str(path)!r}, '--method', 'aqspp']))"
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")
    assert expected.startswith("method aqspp\n")
