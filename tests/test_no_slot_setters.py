"""Values are built by their constructors or as whole tuples, never as a bare
`object.__new__` filled in through its slots' own `__set__`."""

import ast
from pathlib import Path

import cmcurve

PACKAGE = Path(cmcurve.__file__).parent


def is_setter_machinery(node) -> bool:
    if not isinstance(node, ast.Attribute):
        return False
    if node.attr == "__set__":
        return True
    return node.attr == "__new__" and isinstance(node.value, ast.Name) and node.value.id == "object"


def test_no_object_new_or_slot_setters():
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if is_setter_machinery(node)
    ]
    assert found == []
