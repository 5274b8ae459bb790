"""Every name a ``shearwaves`` module exports through ``__all__`` exists."""
import importlib
import pkgutil

import pytest

import shearwaves

MODULES = sorted(info.name for info in pkgutil.iter_modules(shearwaves.__path__))


def test_modules_found():
    assert {"besov", "checks", "coeffs", "forms", "oracles", "solver", "spectral"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"shearwaves.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
