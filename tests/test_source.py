"""Guards on the library source itself."""
import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qspath"
HELPERS = Path(__file__).resolve().parent / "helpers.py"


def test_library_has_no_assert_statements():
    """python -O strips assert statements, so a check written as one would
    silently stop running; the library raises InternalError instead.  The
    test helpers are held to the same rule: pytest rewrites asserts only in
    test modules, so a bare assert in helpers.py checks nothing under -O."""
    files = sorted(SOURCE.glob("*.py")) + [HELPERS]
    assert len(files) > 1
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
OF_EXACT_BUILDERS = {
    ("model.py", "InteractionMatrix.zero"),
    ("model.py", "InteractionMatrix.scaled"),
    ("model.py", "_EntryRows.matrix"),
    ("generate.py", "fill_random"),
    ("generate.py", "fill_weak_sum"),
    ("generate.py", "fill_product"),
    ("complete.py", "normalize_knstar"),
}


def _of_exact_uses(tree: ast.AST, scope: str = ""):
    """(enclosing qualified name, line) of every attribute ``_of_exact``,
    called or not, so an alias of the method is caught too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _of_exact_uses(node, f"{scope}.{node.name}" if scope else node.name)
        else:
            if isinstance(node, ast.Attribute) and node.attr == "_of_exact":
                yield scope, node.lineno
            yield from _of_exact_uses(node, scope)


def test_unchecked_matrix_wrapper_is_used_only_by_the_builders():
    """InteractionMatrix._of_exact skips the symmetry and diagonal check,
    so only the builders that guarantee both may call it."""
    uses = [
        (path.name, scope, line)
        for path in sorted(SOURCE.glob("*.py"))
        for scope, line in _of_exact_uses(ast.parse(path.read_text(), str(path)))
    ]
    strays = [use for use in uses if use[:2] not in OF_EXACT_BUILDERS]
    assert strays == []
    # and the list names no builder that has stopped using it
    assert {use[:2] for use in uses} == OF_EXACT_BUILDERS
