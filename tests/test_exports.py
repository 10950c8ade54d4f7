"""Each library module's ``__all__`` is the one declaration of its public
names, and the package re-exports those lists. A module that lists a name it
does not define fails at ``import nullshaper`` itself, in the package's star
imports; these tests check every module's list and that the package's
``__all__`` is exactly the modules' lists."""

import collections
import importlib
import pkgutil

import pytest

import nullshaper

PUBLIC = [info.name for info in pkgutil.iter_modules(nullshaper.__path__)
          if not info.name.startswith("_")]
# cli is the console entry point, not library API, so the package does not re-export it
LIBRARY = [importlib.import_module(f"nullshaper.{name}") for name in PUBLIC if name != "cli"]


@pytest.mark.parametrize("name", ["nullshaper"] + [f"nullshaper.{name}" for name in PUBLIC])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


def test_package_exports_exactly_the_library_lists():
    listed = [name for module in LIBRARY for name in module.__all__]
    assert sorted(nullshaper.__all__) == sorted(["__version__", *listed])


def test_no_name_is_listed_by_two_modules():
    # a star import would silently keep the later module's object
    counts = collections.Counter(name for module in LIBRARY for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


@pytest.mark.parametrize("module", LIBRARY, ids=lambda module: module.__name__)
def test_each_package_name_is_its_module_object(module):
    assert [name for name in module.__all__
            if getattr(nullshaper, name) is not getattr(module, name)] == []
