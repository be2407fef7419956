"""No invariant of the package relies on `assert`: `python -O` strips it."""

import ast
from pathlib import Path

import cmcurve

PACKAGE = Path(cmcurve.__file__).parent


def test_no_assert_statements():
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
