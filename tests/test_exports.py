"""Every name the package and its modules export resolves.

A deletion that leaves a stale entry in some ``__all__`` fails here,
not first in a user's ``from hearability import *``.  The library's
configs take their levels on the linear scale.
"""

import dataclasses
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


def test_deployment_is_not_exported():
    # SimConfig.hex_isd=None is the Poisson deployment; no enum names it.
    assert "Deployment" not in hearability.__all__
    with pytest.raises(AttributeError):
        hearability.Deployment


@pytest.mark.parametrize("config", ["Scenario", "SimConfig", "E911Config", "QuadratureSpec"])
def test_every_db_field_is_a_shadowing_spread(config):
    # dB levels are converted at the CLI boundary; the one dB quantity
    # the library takes is the log-normal shadowing standard deviation.
    fields = {f.name for f in dataclasses.fields(getattr(hearability, config))}
    assert {name for name in fields if name.endswith("_db")} <= {"sigma_db", "shadow_sigma_db"}
