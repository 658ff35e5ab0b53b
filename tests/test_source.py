"""Checks on the library source itself."""

import ast
from pathlib import Path

import localring

SOURCE = Path(localring.__file__).parent


def test_no_assert_statements():
    # invariant checks must raise, so that they survive `python -O`
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def _unused_imports(path: Path) -> list:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line}:{name}" for name, line in imported.items()
            if name not in read]


def test_no_unused_imports():
    # the package re-exports its API from __init__, which reads no names
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name != "__init__.py":
            found += _unused_imports(path)
    assert not found, found
