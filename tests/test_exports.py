"""Every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import blowup

MODULES = ["blowup"] + [
    f"blowup.{info.name}"
    for info in pkgutil.iter_modules(blowup.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert missing == []
