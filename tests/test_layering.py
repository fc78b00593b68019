"""Layering of the package: intra-package imports sit at module top level, so
the import graph is explicit and acyclic, and the analysis stack (schottky ->
reps -> transfer) and the arithmetic stack (arithmetic -> congruence) meet
only in zeta and cli."""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "schottky_zeta"

# every module's package imports; cli and __init__ may import any module
ALLOWED_IMPORTS = {
    "schottky": set(),
    "arithmetic": set(),
    "reps": {"schottky"},
    "transfer": {"schottky", "reps"},
    "congruence": {"arithmetic", "reps", "schottky"},
    "zeta": {"arithmetic", "congruence", "reps", "schottky", "transfer"},
}


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


def _package_imports(path: Path) -> set[str]:
    """The package modules a module imports, by name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not _is_package_import(node):
            continue
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[-1] for alias in node.names}
        elif node.module and node.module.split(".")[-1] != "schottky_zeta":
            out.add(node.module.split(".")[-1])
        else:  # from . import x
            out |= {alias.name for alias in node.names}
    return out


def test_every_module_imports_only_its_allowed_layers():
    modules = {path.stem for path in PACKAGE_DIR.glob("*.py")}
    assert modules == set(ALLOWED_IMPORTS) | {"cli", "__init__"}
    disallowed = {name: _package_imports(PACKAGE_DIR / f"{name}.py") - allowed
                  for name, allowed in ALLOWED_IMPORTS.items()}
    assert disallowed == {name: set() for name in ALLOWED_IMPORTS}


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


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_boundary_samples_are_taken_only_by_the_plan():
    # determinants, HS norms and pair integrals share one coefficient path:
    # g_w is sampled on the target circle once, when an _OperatorPlan is built
    sites = {path.name: len(_calls(ast.parse(path.read_text()), "_moebius_log"))
             for path in PACKAGE_DIR.glob("*.py")}
    assert sum(sites.values()) == 1
    tree = ast.parse((PACKAGE_DIR / "transfer.py").read_text())
    plan = next(node for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == "_OperatorPlan")
    assert len(_calls(plan, "_moebius_log")) == 1


def test_one_truncation_ladder_chooses_n():
    # the rungs 8, 12, ..., DEFAULT_N are written once, in zeta._choose_n, and
    # the consumers that choose N by N - 4 evidence pass n_basis through to it
    tree = ast.parse((PACKAGE_DIR / "zeta.py").read_text())
    rungs = [call for call in _calls(tree, "range")
             if [ast.unparse(arg) for arg in call.args[1:]] == ["DEFAULT_N + 1", "4"]]
    assert len(rungs) == 1
    consumers = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                 and node.name in ("real_zeros", "jensen_bound")]
    assert len(consumers) == 2
    none_tests = [f"{fn.name}:{node.lineno}" for fn in consumers for node in ast.walk(fn)
                  if isinstance(node, ast.Compare) and ast.unparse(node.left) == "n_basis"
                  and isinstance(node.ops[0], (ast.Is, ast.IsNot))]
    assert none_tests == []


def test_surjectivity_is_decided_in_congruence_alone():
    # zeta reads it from the SurjectivityError of rep_lambda_p0 (a prime sum
    # certifies its primes as one array), and trace-check from the closure size
    users = sorted(path.stem for path in PACKAGE_DIR.glob("*.py")
                   if "surjective_mod_p" in {getattr(node, "id", None) or getattr(node, "name", None)
                                             for node in ast.walk(ast.parse(path.read_text()))})
    assert users == ["__init__", "congruence"]
    tree = ast.parse((PACKAGE_DIR / "zeta.py").read_text())
    raisers = sorted(fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                     and any(isinstance(node, ast.Raise) and "SurjectivityError" in ast.unparse(node)
                             for node in ast.walk(fn)))
    assert raisers == ["hs_prime_sum"]


def _range_checks(node: ast.AST, function: str | None = None):
    """The innermost enclosing function of each `0 < x < math.inf` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _range_checks(child, child.name)
            continue
        if (isinstance(child, ast.Compare) and len(child.ops) == 2
                and all(isinstance(op, ast.Lt) for op in child.ops)
                and ast.unparse(child.left) == "0" and ast.unparse(child.comparators[1]) == "math.inf"):
            yield function
        yield from _range_checks(child, function)


def _classes_named(name: str) -> list[str]:
    return sorted(path.stem for path in PACKAGE_DIR.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.ClassDef) and node.name == name)


def test_each_refusal_and_the_convergence_error_are_written_once():
    # a tolerance, K or bound outside (0, inf) is refused by zeta._positive
    # alone, and one exception, defined in the lowest layer that raises it,
    # says that an answer did not settle
    checks = {path.stem: list(_range_checks(ast.parse(path.read_text())))
              for path in PACKAGE_DIR.glob("*.py")}
    assert {name: where for name, where in checks.items() if where} == {"zeta": ["_positive"]}
    assert _classes_named("QuadratureError") == []
    assert _classes_named("ConvergenceError") == ["transfer"]
