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


PREDICATES = ("is_zero", "is_rational")


def test_predicate_methods_are_called():
    # SqrtSum.is_zero and is_rational are methods: an uncalled `v.is_zero`
    # is a bound method, always truthy, so a check written that way can
    # never fail.
    found = []
    tests = Path(__file__).parent
    for path in sorted(PACKAGE.rglob("*.py")) + sorted(tests.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        called = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in PREDICATES and id(node) not in called]
    assert found == []
