"""Internal checks must survive ``python -O``, which strips assert statements."""

import ast
from pathlib import Path

import cablecalc

PACKAGE = Path(cablecalc.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O; raise InternalCheckError instead: {found}"
