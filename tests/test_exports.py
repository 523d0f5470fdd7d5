"""Every name a library module exports must exist and reach the package."""

import importlib
import pkgutil

import pytest

import odefilter

# The CLI is an entry point, not part of the library surface.
MODULES = sorted(m.name for m in pkgutil.iter_modules(odefilter.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist_and_are_reexported(name):
    module = importlib.import_module(f"odefilter.{name}")
    for export in module.__all__:
        assert hasattr(module, export), f"odefilter.{name}.__all__ names missing {export!r}"
        assert getattr(odefilter, export, None) is getattr(module, export), (
            f"odefilter does not re-export {name}.{export}"
        )
