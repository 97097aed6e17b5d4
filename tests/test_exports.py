"""Every exported name resolves, so a deletion cannot leave a stale export,
and the module lists in the docs name exactly the package's modules."""

import importlib
import pathlib
import pkgutil
import re

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


@pytest.mark.parametrize(
    "doc, pattern",
    [
        pytest.param(pathlib.Path(__file__).resolve().parents[1] / "README.md",
                     r"^\| `bayeslora\.(\w+)` \|", id="README-module-table"),
        pytest.param(None, r"^\* ``(\w+)``", id="package-docstring"),
    ],
)
def test_docs_list_exactly_the_modules(doc, pattern):
    text = doc.read_text() if doc else bayeslora.__doc__
    listed = re.findall(pattern, text, re.MULTILINE)
    modules = sorted(info.name for info in pkgutil.iter_modules(bayeslora.__path__))
    assert sorted(listed) == modules
