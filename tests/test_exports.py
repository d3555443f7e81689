"""Every public name a module lists in ``__all__`` exists, so ``import *``
works; a name deleted from a module but left in its list would break it."""

import importlib
import pkgutil

import pytest

import rtlab
from rtlab import localbounds
from rtlab.localbounds import catalogues, scenarios

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(rtlab.__path__, prefix="rtlab.")
)


def test_modules_are_found():
    assert {"rtlab.graphs", "rtlab.triangles", "rtlab.localbounds.scenarios"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_localbounds_exports_both_submodules():
    assert set(localbounds.__all__) == set(catalogues.__all__) | set(scenarios.__all__)


def test_package_exports_every_module_list():
    exported = set()
    for name in MODULES:
        exported.update(getattr(importlib.import_module(name), "__all__", []))
    assert "SearchObjective" in exported
    assert exported <= set(vars(rtlab))
    assert set(rtlab.__all__) == exported
