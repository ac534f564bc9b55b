"""Source-level rules for the package."""

import ast
from pathlib import Path

import so5cg

PACKAGE = Path(so5cg.__file__).parent


def test_no_assert_statements():
    # Runtime checks must survive `python -O`, which strips assert
    # statements; the package raises AssertionError explicitly instead.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
