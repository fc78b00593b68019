"""Layering of the package: intra-package imports sit at module top level, so
the import graph is explicit and acyclic, and arithmetic.py (number theory)
depends on no other module of the package."""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "schottky_zeta"


def _is_package_import(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "schottky_zeta"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "schottky_zeta" for alias in node.names)
    return False


def test_no_function_local_package_imports():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [f"{path.name}:{node.lineno}"
                              for node in ast.walk(fn) if _is_package_import(node)]
    assert offenders == []


def test_arithmetic_imports_no_package_module():
    tree = ast.parse((PACKAGE_DIR / "arithmetic.py").read_text())
    assert [node.lineno for node in ast.walk(tree) if _is_package_import(node)] == []
