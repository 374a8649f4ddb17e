"""The package's invariants raise ``InvariantError`` explicitly, so they also
run under ``python -O``: no ``assert`` statement may guard them."""

import ast
import pathlib

import mmcut


def test_package_has_no_assert_statements():
    sources = sorted(pathlib.Path(mmcut.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
