"""Every name a module exports exists: a name deleted from a module but left
in its __all__ would otherwise fail only a star import."""

import importlib
import pkgutil

import pytest

import fragcov

MODULES = ["fragcov"] + [f"fragcov.{m.name}" for m in pkgutil.iter_modules(fragcov.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


# the package's names are its modules' exports, the same objects
@pytest.mark.parametrize("name", MODULES[1:])
def test_module_exports_are_package_names(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if getattr(fragcov, n, None) is not getattr(module, n)] == []
