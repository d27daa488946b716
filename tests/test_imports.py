"""Import hygiene of the package and of the test modules.

The package re-exports nothing, so importing one module loads only the
modules it imports itself. A test module guards its hypothesis tests with
try/except ImportError rather than skipping the whole module, so the plain
tests in it still run where hypothesis is missing.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tuatara


@pytest.mark.parametrize("module", ["binstr", "egyptian", "numerics"])
def test_a_leaf_module_loads_no_other_module(module):
    src = str(Path(tuatara.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        f"import sys, tuatara.{module}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('tuatara'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["tuatara", f"tuatara.{module}"]


def _skips_hypothesis(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "importorskip"
        and any(isinstance(a, ast.Constant) and a.value == "hypothesis" for a in node.args)
    )


def test_no_test_module_is_skipped_whole_without_hypothesis():
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _skips_hypothesis(node)
        ]
    assert found == []
