"""Every name a library module exports must exist and reach the package,
and every library attribute the benchmark's traced run wraps must exist."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _traced_targets():
    """``SOLVE_TARGETS`` and ``CHECK_TARGETS`` of ``perfbench/workloads.py``,
    read as literals so the benchmark is neither imported nor run."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    targets = {}
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SOLVE_TARGETS", "CHECK_TARGETS"):
                targets[name] = ast.literal_eval(node.value)
    assert sorted(targets) == ["CHECK_TARGETS", "SOLVE_TARGETS"]
    return [(module, attr) for table in targets.values() for module, attr, _ in table]


@pytest.mark.parametrize("module, attr", _traced_targets())
def test_traced_attribute_is_library_callable(module, attr):
    # A renamed layer would otherwise read as 0 calls in the traced run.
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
