"""The package's public names: every __all__ entry exists, and everything the
package root re-exports is public in the module it comes from."""
import ast
import importlib
import pathlib
import pkgutil

import pytest

import spherekuramoto

MODULES = sorted(info.name for info in pkgutil.iter_modules(spherekuramoto.__path__))
INIT = pathlib.Path(spherekuramoto.__file__)


def _root_imports():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(f"spherekuramoto.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"


def test_root_reexports_only_public_names():
    imports = _root_imports()
    assert imports
    private = [f"{module}.{name}" for module, name in imports
               if name not in importlib.import_module(f"spherekuramoto.{module}").__all__]
    assert not private, f"spherekuramoto/__init__ imports names outside __all__: {private}"
    for _, name in imports:
        assert hasattr(spherekuramoto, name)


def _callers(tree, name):
    """Enclosing function of every call to `name` in a module (None at top level)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    found.append(owner)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(tree, None)
    return found


def test_rotation_terms_are_checked_in_one_place():
    # a new entry point must take its rotation term through
    # dynamics.as_rotation_terms, not grow its own check
    owners = {(name, owner) for name in MODULES if name != "geometry"
              for owner in _callers(ast.parse((INIT.parent / f"{name}.py").read_text(encoding="utf-8")),
                                    "as_antisymmetric")}
    assert owners == {("dynamics", "as_rotation_terms")}
