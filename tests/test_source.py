"""Properties of the package source itself."""

import ast
import pathlib

import surfcount

PACKAGE = pathlib.Path(surfcount.__file__).parent


def test_no_assert_statements():
    """``python -O`` strips ``assert``: every check must raise explicitly."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []
