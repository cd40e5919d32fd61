import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import refsde

MODULES = sorted(m.name for m in pkgutil.iter_modules(refsde.__path__))
CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def perfbench_hooks() -> dict:
    """The HOOKS of perfbench/child.py, read from its source without running it."""
    for node in ast.parse(CHILD.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "HOOKS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{CHILD} assigns no HOOKS")


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


@pytest.mark.parametrize("span,module,attr", [(span, module, attr) for span, sites in perfbench_hooks().items()
                                              for module, attr in sites])
def test_perfbench_hook_resolves(span, module, attr):
    # the benchmark's tracer wraps each site by name; a rename fails here, not
    # only in the traced benchmark call
    assert hasattr(importlib.import_module(module), attr), f"{module}.{attr} (span {span}) is gone"
