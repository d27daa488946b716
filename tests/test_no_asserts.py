"""The package carries no assert statements: python -O would drop them."""

from __future__ import annotations

import ast
from pathlib import Path

import tuatara


def test_package_has_no_asserts():
    found = []
    for path in sorted(Path(tuatara.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []
