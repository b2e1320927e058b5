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
