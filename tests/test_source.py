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
