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


def _package_imports(name):
    """The package modules that ``name``.py imports, directly or through
    other package modules, by their last name."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    seen, todo = set(), [name]
    while todo:
        tree = ast.parse((PACKAGE / f"{todo.pop()}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = ".".join(filter(None, ("surfcount" if node.level else "", node.module)))
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            found = {m.split(".")[1] for m in names if m.startswith("surfcount.")} & modules
            todo += found - seen
            seen |= found
    return seen


def test_engine_free_routes_stay_engine_free():
    """The routes that check the engine from outside must not read it."""
    assert not _package_imports("moduli") & {"engine", "closed"}
    assert "engine" not in _package_imports("oracles")
    assert {"engine", "closed", "exact"} <= _package_imports("verify")  # the walk sees imports
