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


def test_transfer_imports_no_character_code():
    # tr lambda_p^0 is written once, in congruence.lambda_p0_traces, and the
    # primes of a prime sum are certified as one array, by surjective_primes;
    # the x -> -x parity of lambda_p and lambda_p^0 is computed in congruence
    # and reaches transfer only as the rep's intertwiner
    tree = ast.parse((PACKAGE_DIR / "transfer.py").read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert names.isdisjoint({"kronecker", "kronecker_over_primes", "divides",
                             "is_prime", "surjective_mod_p", "closure_size",
                             "coset_perm", "reduce_mod", "_helmert_basis",
                             "_negation", "_parity_basis"})


def test_zeta_reads_only_the_blocks_of_a_transfer_matrix():
    # the z -> -z block layout is decided in transfer: zeta takes determinants
    # and eigenvalues of TransferMatrix.blocks and never forms the blocks itself
    tree = ast.parse((PACKAGE_DIR / "zeta.py").read_text())
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert attributes.isdisjoint({"rows", "mirror", "letters"})
    functions = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_halves" not in functions


def test_arithmetic_imports_no_package_module():
    tree = ast.parse((PACKAGE_DIR / "arithmetic.py").read_text())
    assert [node.lineno for node in ast.walk(tree) if _is_package_import(node)] == []
