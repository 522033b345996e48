"""Layout guards of ``invlab``.

Every module-level function, class and constant has a reader in the
package: a name counts as used when some module of ``src/invlab`` refers to
it (as a bare name or an attribute) outside its own definition.  The
exceptions are the names ``perfbench/tracer.py`` wraps, which its
``CATEGORIES`` lists per module, and the console entry point ``cli.main``.
Code that only tests read belongs in ``tests/``.  Likewise every field a
dataclass of the package declares is read as an attribute somewhere in the
package.

Only ``rng`` calls into ``np.random``, so every generator comes from its
``spawn_generator`` or ``jumped`` and every stream is named by its caller.
Only ``rng.draw_passes`` calls ``map_blocks``, so every Monte Carlo draw is a
pass of one plan.  No module imports an underscore name from another, so
what one module keeps private no other builds on.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "invlab"
TRACER = ROOT / "perfbench" / "tracer.py"
ENTRY_POINTS = {("cli", "main")}


def _wrapped() -> set[tuple[str, str]]:
    """``(module, function)`` pairs of the tracer's ``CATEGORIES`` literal."""
    tree = ast.parse(TRACER.read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CATEGORIES" for t in node.targets)
    ]
    pairs = set()
    for module, funcs in zip(value.keys, value.values):
        if isinstance(funcs, ast.Dict):
            names = funcs.keys
        else:  # {name: category for name in (...)}
            (gen,) = funcs.generators
            names = gen.iter.elts
        pairs |= {(module.value, name.value) for name in names}
    return pairs


def _referenced(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attribute names read in ``tree``, outside the subtree ``skip``."""
    inside = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    found = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _unused() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    exempt = _wrapped() | ENTRY_POINTS
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            for defined in _defined(node):
                if (module, defined) in exempt:
                    continue
                used = any(
                    defined in _referenced(other, node if name == module else None)
                    for name, other in trees.items()
                )
                if not used:
                    unused.append(f"{module}.{defined}")
    return unused


def _defined(node: ast.stmt) -> list[str]:
    """Names a module-level statement defines: a function, a class or assigned constants."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]


def test_tracer_names_are_read():
    wrapped = _wrapped()
    assert ("models", "loglik_ratio") in wrapped
    assert ("stats", "two_spacings_statistic") in wrapped
    assert ("permclt", "theorem_convergence_sweep_matrix") in wrapped


def test_every_definition_has_a_caller_in_the_package():
    assert _unused() == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether ``node`` is decorated with ``dataclass``, called or not, bare or as an attribute."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _dataclass_fields(trees: list[ast.AST]) -> set[str]:
    """``Class.field`` for every field a dataclass in ``trees`` declares."""
    return {
        f"{cls.name}.{stmt.target.id}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def test_every_dataclass_field_is_read():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    declared = _dataclass_fields(trees)
    assert {"OrbitSpec.design", "Profile.sup", "Key.unset"} <= declared  # the scan sees them
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(f for f in declared if f.split(".")[1] not in read) == []


def _random_calls(tree: ast.AST) -> list[str]:
    """``np.random.<name>(...)`` or ``numpy.random.<name>(...)`` calls in ``tree``, as source text."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if (
                isinstance(owner, ast.Attribute)
                and owner.attr == "random"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in ("np", "numpy")
            ):
                calls.append(ast.unparse(node.func))
    return calls


def test_only_rng_calls_numpy_random():
    calls = {
        path.stem: _random_calls(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "rng"
    }
    assert {module: found for module, found in calls.items() if found} == {}
    assert _random_calls(ast.parse((PACKAGE / "rng.py").read_text()))  # the guard sees rng's own calls


def _callers(tree: ast.AST, name: str, scope: tuple[str, ...] = ()) -> list[str]:
    """The dotted enclosing definitions of each call of ``name`` (bare or as an attribute) in ``tree``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = (*scope, node.name) if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else scope
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                found.append(".".join(scope))
        found += _callers(node, name, inner)
    return found


def test_map_blocks_runs_only_under_draw_passes():
    callers = [
        f"{path.stem}.{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in _callers(ast.parse(path.read_text()), "map_blocks")
    ]
    assert callers == ["rng.draw_passes"]


def test_no_module_imports_another_modules_private_names():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    private = [
        f"{path.stem}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("invlab"))
        for alias in node.names
        # A module (``_num``) and a dunder (``__version__``) are not a module's private name.
        if alias.name.startswith("_") and not alias.name.startswith("__") and alias.name not in modules
    ]
    assert private == []
