"""The package's import graph: module-level imports only, in one direction.

The brute-force oracle stays independent of the solver code: from `ginverse`
it takes only the kind enum, the negative result, the shared instance and the
public constructors it cross-checks, and it never reads characterize or cli.
"""

import ast
from pathlib import Path

import coreinv

SRC = Path(coreinv.__file__).parent

# Each module may import only the modules before it.
ORDER = ("scalar", "matrix", "ginverse", "oracle", "characterize", "cli", "__init__")

ORACLE_FROM_GINVERSE = {
    "GInverseKind",
    "NotInvertible",
    "_instance",
    "group_inverse",
    "inv_13e",
    "inv_14f",
    "weighted_mp",
    "e_core",
    "f_dual_core",
    "e_core_via_power",
    "f_dual_core_via_power",
}


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def _package_imports(tree):
    """(module, names) for each intra-package `from .module import names`."""
    return [
        (node.module, {alias.name for alias in node.names})
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]


def test_every_module_is_ordered():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(ORDER)


def test_no_function_local_import():
    for name in ORDER:
        local = [
            (name, func.name, inner.lineno)
            for func in ast.walk(_tree(name))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(func)
            if isinstance(inner, (ast.Import, ast.ImportFrom))
        ]
        assert local == []


def test_imports_follow_the_module_order():
    for rank, name in enumerate(ORDER):
        for module, _ in _package_imports(_tree(name)):
            assert module in ORDER[:rank], (name, module)
    for node in ast.walk(_tree("oracle")):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("coreinv") for alias in node.names)


def test_oracle_takes_only_constructors_from_ginverse():
    names = set().union(
        *(names for module, names in _package_imports(_tree("oracle")) if module == "ginverse")
    )
    assert names <= ORACLE_FROM_GINVERSE, names - ORACLE_FROM_GINVERSE
