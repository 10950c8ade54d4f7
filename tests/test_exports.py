"""Every name a module exports must exist, so a deletion that leaves its
export behind fails here rather than at ``from nullshaper import *``."""

import importlib

import pytest

MODULES = ["nullshaper"] + [
    f"nullshaper.{name}"
    for name in ("array", "cli", "geodesy", "optimizer", "simulation", "uncertainty")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
