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
