"""The package's import graph: module-level imports only, in one direction.

The brute-force oracle stays independent of the solver code: from `ginverse`
it takes only the kind enum, the negative result, the exponent check, the
shared instance and its class (a sweep hands each matrix an instance of its
own), and the public constructors it cross-checks, and it never reads
characterize or cli.
The benchmark's tracer binds package names from outside; they must resolve.
"""

import ast
import importlib
from pathlib import Path

import coreinv
import coreinv.scalar

SRC = Path(coreinv.__file__).parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Each module may import only the modules before it.
ORDER = ("scalar", "matrix", "ginverse", "oracle", "characterize", "cli", "__init__")

ORACLE_FROM_GINVERSE = {
    "GInverseKind",
    "NotInvertible",
    "_check_n",
    "_instance",
    "_Instance",
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


def _defines(name, func):
    """Whether the module `name` defines a function `func` at any depth."""
    return any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == func
        for node in ast.walk(_tree(name))
    )


def test_only_ginverse_defines_the_exponent_check():
    assert [name for name in ORDER if _defines(name, "_check_n")] == ["ginverse"]


def test_only_the_element_check_tests_the_conditions_of_a_characterization():
    """In characterize, the Hermitian, annihilation and idempotence tests are made
    by `_validate_element` alone, so a built decomposition is checked by the one
    path that checks a replayed certificate."""
    callers = {
        (func.name, inner.func.attr)
        for func in ast.walk(_tree("characterize"))
        if isinstance(func, ast.FunctionDef)
        for inner in ast.walk(func)
        if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
        and inner.func.attr in ("is_hermitian", "is_zero", "is_idempotent")
    }
    assert {func for func, _ in callers} == {"_validate_element"}, callers


def test_only_the_held_core_reads_the_core_constructors():
    """In characterize, `_core` alone calls (or names) e_core and f_dual_core, so
    every characterization reads the certified core the instance holds."""
    readers = {
        func.name
        for func in ast.walk(_tree("characterize"))
        if isinstance(func, ast.FunctionDef)
        for inner in ast.walk(func)
        if isinstance(inner, ast.Name) and inner.id in ("e_core", "f_dual_core")
    }
    assert readers == {"_core"}, readers


def test_characterize_inverts_no_matrix():
    """characterize calls no `inverse` method: a unit or Gram matrix is tested by
    its rank, and a formula's value is checked against the held core."""
    calls = [
        node.lineno
        for node in ast.walk(_tree("characterize"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "inverse"
    ]
    assert calls == []


def test_held_instances_are_keyed_by_value():
    """ginverse calls no `id`, so the table of held instances, keyed by matrix
    value, cannot drift back to keys of object identity."""
    calls = [
        node.lineno
        for node in ast.walk(_tree("ginverse"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert calls == []


# The only readers of an instance's fact table: the accessor and the hand-out
# rule `_instance`, which reads only its size, for the fact bound. Every other
# route asks for a fact by name and so forms it one fixed way, never by what
# the table holds.
FACT_TABLE_READERS = {"_Instance.__init__", "_Instance.star", "_Instance._fact", "_instance"}


def test_only_the_fact_accessor_reads_the_fact_table():
    readers = set()
    for node in _tree("ginverse").body:
        is_class = isinstance(node, ast.ClassDef)
        for part in node.body if is_class else [node]:
            name = getattr(part, "name", f"line {part.lineno}")
            if any(isinstance(inner, ast.Attribute) and inner.attr == "_facts"
                   for inner in ast.walk(part)):
                readers.add(f"{node.name}.{name}" if is_class else name)
    assert readers == FACT_TABLE_READERS, readers ^ FACT_TABLE_READERS


def test_only_the_membership_fact_solves():
    """In ginverse, `_Instance.member` alone names solve_left or solve_right, so
    every solve of the instance is one membership a in R g or a in g R, held
    once per side, route of g and weight value."""
    solvers = set()
    for node in _tree("ginverse").body:
        is_class = isinstance(node, ast.ClassDef)
        for part in node.body if is_class else [node]:
            name = getattr(part, "name", f"line {part.lineno}")
            if any(isinstance(inner, ast.Name) and inner.id in ("solve_left", "solve_right")
                   for inner in ast.walk(part)):
                solvers.add(f"{node.name}.{name}" if is_class else name)
    assert solvers == {"_Instance.member"}, solvers


def test_verify_forms_products_by_their_routes_and_compares_forms():
    """Each product of a value is formed by its route in `_ROUTES`, never in a
    `_Products` method, so what is formed does not depend on which label read
    first; and no label's predicate compares with `is`, so (5) compares forms."""
    tree = _tree("ginverse")
    products = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Products"
    )
    formed = [
        (part.name, inner.lineno)
        for part in products.body
        for inner in ast.walk(part)
        if isinstance(inner, (ast.BinOp, ast.AugAssign)) and isinstance(inner.op, ast.Mult)
    ]
    assert formed == []
    predicates = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_PREDICATES"
    )
    identity = [
        inner.lineno
        for inner in ast.walk(predicates)
        if isinstance(inner, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in inner.ops)
    ]
    assert len(predicates.keys) == 9 and identity == []


# The field hooks matrix.py may call. Of them only augment, solve and rank
# eliminate, so an exact solve is replaced behind one hook, not in its callers.
MATRIX_FIELD_HOOKS = {
    "augment", "solve", "rank",
    "to_form", "to_rows", "coerce", "decode", "encode_form", "zero", "one", "random",
    "mul", "add", "neg", "transpose", "star", "is_zero", "tag", "p", "memo_dim",
}


def test_matrix_reaches_elimination_only_through_solve_and_rank():
    tree = _tree("matrix")
    private = {
        name for module, names in _package_imports(tree) if module == "scalar"
        for name in names if name.startswith("_")
    }
    assert private <= {"_is_int"}, private
    # every attribute read off a field: `field.x`, `self.field.x`, `m.field.x`, ...
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (
            isinstance(node.value, ast.Name) and node.value.id == "field"
            or isinstance(node.value, ast.Attribute) and node.value.attr == "field"
        )
    }
    assert read <= MATRIX_FIELD_HOOKS, read - MATRIX_FIELD_HOOKS
    assert {"augment", "solve", "rank"} <= read


def test_only_the_base_field_defines_solve_and_rank():
    """Each field supplies the two phases (`_forward`, `_back`); `ScalarField`
    alone composes them into `solve` and `rank`."""
    defines = {
        (node.name, part.name)
        for node in _tree("scalar").body if isinstance(node, ast.ClassDef)
        for part in node.body
        if isinstance(part, ast.FunctionDef) and part.name in ("solve", "rank")
    }
    assert defines == {("ScalarField", "solve"), ("ScalarField", "rank")}, defines


def test_each_scalar_field_rule_is_defined_once():
    """The field equality, zero and one are defined on `ScalarField` alone, and
    the identity involution there too, which Q(i) alone overrides; an element
    from an int is `coerce`."""
    defines = {}
    for node in _tree("scalar").body:
        if isinstance(node, ast.ClassDef):
            is_field = issubclass(getattr(coreinv.scalar, node.name), coreinv.scalar.ScalarField)
            for part in node.body:
                if isinstance(part, ast.FunctionDef):
                    defines.setdefault((part.name, is_field), set()).add(node.name)
    assert not any(name == "from_int" for name, _ in defines), defines
    for name in ("zero", "one", "__eq__", "__hash__"):
        assert defines[name, True] == {"ScalarField"}, name
    assert defines["conj", True] == {"ScalarField", "GaussianRationalField"}


def _dotted(node):
    """The names of an attribute chain such as ci.Mat.inverse, root first, or None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else None


def test_every_name_the_tracer_binds_resolves():
    """perfbench/tracing.py patches coreinv by name in Tracer.install, so a rename or
    deletion there breaks `perfbench/run.py --trace 1`; read it without running it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:  # its `import coreinv.cli` and the like
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("coreinv."):
                    importlib.import_module(alias.name)
    tables = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    for table in ("GINVERSE", "CHARACTERIZE"):
        keys = [key.value for key in tables[table].keys]
        assert keys and [k for k in keys if not hasattr(coreinv, k)] == [], table
    # every chain rooted at the package (`import coreinv as ci`, `import coreinv.cli`)
    bound = set()
    for node in ast.walk(tree):
        names = _dotted(node)
        if names and names[0] in ("ci", "coreinv"):
            obj = coreinv
            for name in names[1:]:
                assert hasattr(obj, name), ".".join(names)
                obj = getattr(obj, name)
            bound.add(".".join(names[1:]))
    assert {"matrix.solve_right", "matrix.solve_left", "cross_check", "brute_solutions"} <= bound
    assert {"cli.main", "Mat"} <= bound
    # the Mat methods patched on the class: `for attr, span, note in (("__mul__", ...), ...)`
    methods = [
        entry.elts[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)
        and isinstance(node.target, ast.Tuple) and _dotted(node.target.elts[0]) == ["attr"]
        for entry in node.iter.elts
    ]
    assert {"__mul__", "inverse"} <= set(methods)
    assert [m for m in methods if m not in vars(coreinv.Mat)] == []
