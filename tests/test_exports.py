"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import bayeslora

_MODULES = ["bayeslora"] + sorted(
    f"bayeslora.{info.name}" for info in pkgutil.iter_modules(bayeslora.__path__)
)


@pytest.mark.parametrize("module_name", _MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = list(getattr(module, "__all__", []))
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined: {missing}"
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"
