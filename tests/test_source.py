"""Guards on the library source itself."""
import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qspath"
TESTS = Path(__file__).resolve().parent
HELPERS = TESTS / "helpers.py"
ZOO = TESTS / "zoo.py"


def test_library_has_no_assert_statements():
    """python -O strips assert statements, so a check written as one would
    silently stop running; the library raises InternalError instead.  The
    test helpers and the instance zoo are held to the same rule: pytest
    rewrites asserts only in test modules, so a bare assert in helpers.py or
    zoo.py checks nothing under -O."""
    files = sorted(SOURCE.glob("*.py")) + [HELPERS, ZOO]
    assert len(files) > 2
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Where the unchecked InteractionMatrix._of_exact may be named: the builders
# that set every cell of Q themselves, symmetric with a zero diagonal.  Any
# other rows go through the coercing constructor, which checks them.
# InteractionMatrix.zero is not one: it keeps its zero vector through
# _of_outer.
# complete.normalize_knstar is not one: it hands Q's nonzero pairs, less
# those no path carries, to from_triples.  reductions.qap_to_qspp is one on
# integer a and b, whose products are whole and which QapInstance holds
# symmetric, so every row it sets mirrors its column with 0 on the diagonal.
OF_EXACT_BUILDERS = {
    ("model.py", "InteractionMatrix.scaled"),
    ("model.py", "_EntryRows.matrix"),
    ("reductions.py", "qap_to_qspp"),
}


def _scoped(tree: ast.AST, scope: str = ""):
    """(enclosing qualified name, node) of every node below tree but the
    class and function definitions themselves, such as ("A.f", node) for a
    node in method f of class A, and ("", node) at module level."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scoped(node, f"{scope}.{node.name}" if scope else node.name)
        else:
            yield scope, node
            yield from _scoped(node, scope)


def _parsed(name: str) -> ast.AST:
    return ast.parse((SOURCE / name).read_text(), name)


def _library_nodes(files=None):
    """(file name, scope, node) over the library, or over the files named."""
    for file in files or sorted(path.name for path in SOURCE.glob("*.py")):
        for scope, node in _scoped(_parsed(file)):
            yield file, scope, node


def _library_uses(names: set[str]) -> list[tuple[str, str, int]]:
    """(file, scope, line) of every reference to one of ``names``: a bare
    name, an attribute or an imported name, called or not, so an alias is
    caught too."""
    return [
        (file, scope, node.lineno)
        for file, scope, node in _library_nodes()
        if isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.alias) and node.name in names
    ]


def test_unchecked_matrix_wrapper_is_used_only_by_the_builders():
    """InteractionMatrix._of_exact skips the symmetry and diagonal check,
    so only the builders that guarantee both may call it."""
    uses = _library_uses({"_of_exact"})
    strays = [use for use in uses if use[:2] not in OF_EXACT_BUILDERS]
    assert strays == []
    # and the list names no builder that has stopped using it
    assert {use[:2] for use in uses} == OF_EXACT_BUILDERS


def test_only_the_model_reads_how_q_is_stored():
    """Outside model.py, code asks an InteractionMatrix for row, pairs or
    is_zero and reads neither its rows nor its kept form, so a change of
    Q's storage stays inside model.py.  The other reads of a .rows are a
    PathMatrix's, pm.rows in pathmatrix.py, and the emitter alone reads the
    kept form, once, and the rows right of the diagonal through _uppers."""
    reads = [
        (file, scope, ast.unparse(node.value), node.attr)
        for file, scope, node in _library_nodes()
        if file != "model.py"
        and isinstance(node, ast.Attribute)
        and node.attr in {"rows", "_kept", "_uppers"}
    ]
    assert sorted(set(reads)) == [
        ("fileio.py", "emit_instance", "inst.interaction", "_kept"),
        ("fileio.py", "emit_instance", "inst.interaction", "_uppers"),
        ("pathmatrix.py", "_verify_certificate", "pm", "rows"),
        ("pathmatrix.py", "_verify_solution", "pm", "rows"),
        ("pathmatrix.py", "lp_oracle", "pm", "rows"),
    ]
    assert [read[-1] for read in reads].count("_kept") == 1


def test_the_kept_form_is_stored_by_the_matrix_alone():
    """Only InteractionMatrix assigns its one kept form, _kept, and its
    __getattr__ serves only rows: it names no other attribute, and stores
    only the rows and the dropped form."""
    stores = {
        (file, scope)
        for file, scope, node in _library_nodes()
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr == "_kept"
    }
    assert {(file, scope.split(".")[0]) for file, scope in stores} == {
        ("model.py", "InteractionMatrix")
    }
    getattr_nodes = [
        node for _, scope, node in _library_nodes(("model.py",))
        if scope == "InteractionMatrix.__getattr__"
    ]
    names = {
        comparator.value
        for node in getattr_nodes
        if isinstance(node, ast.Compare) and ast.unparse(node.left) == "name"
        for comparator in node.comparators
    }
    assert names == {"rows"}
    assert {
        node.attr
        for node in getattr_nodes
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    } == {"rows", "_kept"}


def test_the_upper_triangle_is_mirrored_in_one_place():
    """The random fill hands the upper triangle of Q, and the weak-sum and
    product fills and the zero matrix their vector a, unchecked, to
    InteractionMatrix._of_upper and _of_outer; _mirrored alone lays out the
    rows, down each column in a strided slice, and no other code in
    generate.py or model.py writes a strided slice."""
    stores = {
        (file, scope)
        for file, scope, node in _library_nodes(("generate.py", "model.py"))
        if isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.slice, ast.Slice)
        and node.slice.step is not None
    }
    assert stores == {("model.py", "InteractionMatrix._mirrored")}
    uses = _library_uses({"_of_upper"})
    assert {use[:2] for use in uses} == {("generate.py", "fill_random")}
    uses = _library_uses({"_of_outer"})
    assert {use[:2] for use in uses} == {
        ("generate.py", "fill_weak_sum"),
        ("generate.py", "fill_product"),
        ("model.py", "InteractionMatrix.zero"),
    }


def test_oracle_kernels_are_called_only_by_the_oracle():
    """_gauss_solve and _phase1_simplex assume a nonempty matrix; lp_oracle
    answers the empty one before calling them, so no other caller may."""
    uses = _library_uses({"_gauss_solve", "_phase1_simplex"})
    assert {use[:2] for use in uses} == {("pathmatrix.py", "lp_oracle")}


def test_oracle_kernels_pivot_on_ints_only():
    """The kernels hold scaled integer rows and lp_oracle reads their results
    out, so no pivot may name Fraction, as_rational or the old _div."""
    kernels = {("pathmatrix.py", "_gauss_solve"), ("pathmatrix.py", "_phase1_simplex")}
    uses = _library_uses({"Fraction", "as_rational", "_div"})
    assert [use for use in uses if use[:2] in kernels] == []
    # the scopes are named as the check expects: both kernels take a gcd
    assert {use[:2] for use in _library_uses({"gcd"})} >= kernels


def test_the_path_search_is_called_only_by_its_three_callers():
    """_walk_st_paths indexes its endpoints unchecked; iter_st_paths checks
    them with check_endpoints and a QsppInstance checks its own, so only
    these callers may run the search."""
    uses = _library_uses({"_walk_st_paths"})
    assert {use[:2] for use in uses} == {
        ("graphs.py", "iter_st_paths"),
        ("model.py", ""),  # the import
        ("model.py", "brute_force_solve"),
        ("pathmatrix.py", ""),
        ("pathmatrix.py", "build_path_matrix"),
    }


def test_the_completion_bound_lives_in_the_search_alone():
    """The completion bound prunes on any sign of c and Q, so brute force
    no longer asks whether Q is nonnegative: validate_instance alone does.
    Only the one search builds the bound's tables."""
    assert {use[:2] for use in _library_uses({"is_nonnegative"})} == {
        ("model.py", "validate_instance"),
    }
    assert {use[:2] for use in _library_uses({"_completion_tables"})} == {
        ("graphs.py", "_walk_st_paths"),
    }


def test_square_pairs_are_summed_in_one_place():
    """_square_pair_rows is the one loop over square pairs: it alone forms
    the numbers delta_S Q delta_S', by itemgetter gathers over the squares
    above-left of each S, so any other reader of those numbers takes them
    from the generator rather than summing them again."""
    assert {use[:2] for use in _library_uses({"itemgetter"})} == {
        ("grid.py", ""),  # the import
        ("grid.py", "_square_pair_rows"),
    }


def test_the_unit_square_table_is_built_in_one_place():
    """grid_shape alone lists a unit square's four arcs, a tuple of down and
    right lookups, into GridShape.squares; the square-pair criterion reads
    neither lookup table, and _critical_costs' flips read no down arc, so
    both take each square's arcs from the table."""
    builds = {
        (file, scope)
        for file, scope, node in _library_nodes()
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 4
        and all(
            isinstance(elt, ast.Subscript)
            and ast.unparse(elt.value).rsplit(".", 1)[-1] in {"down", "right"}
            for elt in node.elts
        )
    }
    assert builds == {("grid.py", "grid_shape")}
    reads = {
        (scope, node.attr)
        for _, scope, node in _library_nodes(("grid.py",))
        if isinstance(node, ast.Attribute) and node.attr in {"down", "right"}
    }
    assert reads & {
        ("_square_pair_rows", "down"),
        ("_square_pair_rows", "right"),
        ("_critical_costs", "down"),
    } == set()


def _transposed(node: ast.AST) -> bool:
    """Whether node zips a matrix against its own transpose, zip(m, zip(*m)),
    or compares a cell with its mirror, m[i][j] against m[j][i]."""
    if isinstance(node, ast.Call) and ast.unparse(node.func) == "zip" and len(node.args) == 2:
        rows, columns = map(ast.unparse, node.args)
        return columns == f"zip(*{rows})"
    if isinstance(node, ast.Compare) and len(node.comparators) == 1:
        cells = [node.left, node.comparators[0]]
        if all(isinstance(c, ast.Subscript) and isinstance(c.value, ast.Subscript) for c in cells):
            (m, i, j), (mirror, j2, i2) = (
                map(ast.unparse, (c.value.value, c.value.slice, c.slice)) for c in cells
            )
            return m == mirror and i != j and (i, j) == (i2, j2)
    return False


def test_symmetry_is_checked_in_one_place():
    """model._symmetric, each row against its column, is the one symmetry
    test: no other code zips a matrix against its transpose or compares a
    cell with its mirror, and the matrix constructor, QapInstance and
    parse_qaplib's symmetrize call it."""
    checks = {(file, scope) for file, scope, node in _library_nodes() if _transposed(node)}
    assert checks == {("model.py", "_symmetric")}
    assert {use[:2] for use in _library_uses({"_symmetric"})} == {
        ("model.py", "InteractionMatrix.__init__"),
        ("reductions.py", ""),  # the import
        ("reductions.py", "QapInstance.__post_init__"),
        ("reductions.py", "parse_qaplib.symmetrize"),
    }


def test_labels_are_relaxed_in_one_place():
    """model._relax is the one shortest-path relaxation, in Dijkstra's
    settle order or a topological one: no other code pushes onto a heap but
    topological_order's queue of ready vertices, and only spp_solve and the
    equal-length check call it, the adjacent and product solvers through
    spp_solve."""
    assert {use[:2] for use in _library_uses({"heappush"})} == {
        ("graphs.py", "topological_order"),
        ("model.py", "_relax"),
    }
    assert {use[:2] for use in _library_uses({"_relax"})} == {
        ("model.py", "spp_solve"),
        ("special.py", ""),  # the import
        ("special.py", "all_paths_equal_length"),
    }


def test_command_output_is_written_in_one_place():
    """Each CLI handler returns its exit code and its whole text, and
    cli.main writes that text once through cli._write: the library's one
    print is main's error line to stderr, and no other function names
    stdout or writes to a stream."""
    assert [use[:2] for use in _library_uses({"print"})] == [("cli.py", "main")]
    (call,) = [
        node
        for _, scope, node in _library_nodes(("cli.py",))
        if scope == "main" and isinstance(node, ast.Call) and ast.unparse(node.func) == "print"
    ]
    assert [ast.unparse(keyword) for keyword in call.keywords] == ["file=sys.stderr"]
    assert {use[:2] for use in _library_uses({"stdout", "write", "writelines"})} == {
        ("cli.py", "_write")
    }


# the faults an entry of a sparse Q can have, by a fragment of each message
ENTRY_FAULTS = ("outside the arc range", "diagonal interaction entries", "listed twice")


def test_entry_faults_are_raised_only_by_the_entry_checker():
    """_EntryRows._add_row writes a row with no check per entry and hands
    any row that could fault to _EntryRows._add_each, so _add_each alone
    raises the faults of an entry, at the first one in file order, and
    _add_row raises nothing itself."""
    faults = {
        (file, scope)
        for file, scope, node in _library_nodes(("model.py", "fileio.py"))
        if isinstance(node, ast.Raise)
        and node.exc
        and any(fault in ast.unparse(node.exc) for fault in ENTRY_FAULTS)
    }
    assert faults == {("model.py", "_EntryRows._add_each")}
    model = _parsed("model.py")
    entry_rows = next(n for n in model.body if isinstance(n, ast.ClassDef) and n.name == "_EntryRows")
    add_row = next(n for n in entry_rows.body if isinstance(n, ast.FunctionDef) and n.name == "_add_row")
    assert [node.lineno for node in ast.walk(add_row) if isinstance(node, ast.Raise)] == []


def test_rows_are_walked_only_by_the_entry_checker():
    """_EntryRows.add alone decides which entries are written as whole rows,
    so no module but model.py names the row writer, its threshold or the
    walk's bisect_right."""
    uses = _library_uses({"_add_row", "_RUN_MIN", "bisect_right"})
    assert {use[0] for use in uses} == {"model.py"}


CLOCK_MODULES = {"time", "datetime"}


def _clock_imports(tree: ast.AST):
    """Line of every import of a clock module: import time, import
    datetime as dt, from time import perf_counter, and the like."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in CLOCK_MODULES for name in names):
            yield node.lineno


def test_the_library_reads_no_clock():
    """Every value the library returns and the CLI prints is exact, so no
    module imports a clock; timings are the benchmark's alone."""
    found = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        for line in _clock_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_zoo_builders_are_defined_only_in_the_zoo():
    """Every seeded instance builder the suite shares lives in zoo.py; a
    function of the same name defined in another module under tests/, at
    any depth, is a second copy."""
    zoo = {node.name for node in ast.parse(ZOO.read_text()).body if isinstance(node, ast.FunctionDef)}
    assert "late_no_grid" in zoo
    copies = [
        (path.name, node.name)
        for path in sorted(TESTS.glob("*.py"))
        if path != ZOO
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name in zoo
    ]
    assert copies == []


def test_the_random_graphs_draw_in_one_coin_loop():
    """random_dag and random_digraph hand their pairs to
    generate._coin_digraph, the one loop that draws a coin per pair and
    stops at the first arc past MAX_ARCS, so no other code calls
    rng.random(); and graphs._check_order is the one guard for n >= 2 of
    the generators on n vertices."""
    coins = {
        (file, scope)
        for file, scope, node in _library_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "random"
    }
    assert coins == {("generate.py", "_coin_digraph")}
    assert {use[:2] for use in _library_uses({"_coin_digraph"})} == {
        ("generate.py", "random_dag"),
        ("generate.py", "random_digraph"),
    }
    guards = {
        (file, scope)
        for file, scope, node in _library_nodes()
        if isinstance(node, ast.Raise) and node.exc and "need n >= 2" in ast.unparse(node.exc)
    }
    assert guards == {("graphs.py", "_check_order")}


def test_each_computation_has_one_definition():
    """The product recognizer, the pseudo-linearization and the emitter's
    value texts each have one definition: _product_factor, _pseudo_vector
    and _texts are gone, neither defined nor named.  fileio reads every
    table one way, so _through holds its one except KeyError; and the
    search walks the useful part of the graph forward once, in
    _count_st_paths, so _completion_tables reads no in-arcs."""
    gone = {"_product_factor", "_pseudo_vector", "_texts"}
    defined = {
        node.name
        for _, _, node in _library_nodes()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert defined & gone == set() and _library_uses(gone) == []
    key_errors = [
        scope
        for _, scope, node in _library_nodes(["fileio.py"])
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and "KeyError" in ast.unparse(node.type)
    ]
    assert key_errors == ["_through"]
    in_arcs = [
        node.lineno
        for _, scope, node in _library_nodes(["graphs.py"])
        if scope == "_completion_tables"
        and isinstance(node, ast.Attribute)
        and node.attr in {"_in", "in_arcs"}
    ]
    assert in_arcs == []


def test_values_are_read_token_by_token_only_in_a_rescan():
    """Every run of values the parser reads, the linear costs, each row of
    a dense Q and each slice of sparse entries, is converted as one block;
    next_rational, the per-token read, runs only inside the rescan of a
    block that did not convert: a _rescan_* function or the rescan argument
    of a _Tokens.block call."""
    nodes = list(_library_nodes(["fileio.py"]))
    in_rescans = {
        id(inner)
        for _, _, node in nodes
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "block"
        for inner in ast.walk(node.args[2])
    }
    calls = [
        (scope, id(node) in in_rescans)
        for _, scope, node in nodes
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "next_rational"
    ]
    assert sorted(calls) == [("_rescan_entries", False), ("_values", True)]
