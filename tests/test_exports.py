"""Every name the package and its modules export resolves.

A deletion that leaves a stale entry in some ``__all__`` fails here,
not first in a user's ``from hearability import *``.
"""

import importlib
import pkgutil

import pytest

import hearability

MODULES = ["hearability"] + [
    f"hearability.{info.name}" for info in pkgutil.iter_modules(hearability.__path__)
]


def test_submodules_are_found():
    assert {"hearability.simulate", "hearability.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    assert len(set(module.__all__)) == len(module.__all__), f"{name} repeats a name"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
