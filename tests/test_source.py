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
