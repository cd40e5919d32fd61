import importlib
import pkgutil

import pytest

import refsde

MODULES = sorted(m.name for m in pkgutil.iter_modules(refsde.__path__))


def test_package_exports_resolve():
    missing = [name for name in refsde.__all__ if not hasattr(refsde, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"refsde.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


def test_package_exports_are_module_exports():
    # a public name dropped from its module's __all__ but not the package's
    # (or the other way round) fails here
    names = [n for n in refsde.__all__ if n != "__version__"]
    stray = [n for n in names
             if n not in getattr(importlib.import_module(getattr(refsde, n).__module__), "__all__", [])]
    assert not stray
