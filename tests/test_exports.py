"""Every liftlab module's public names resolve and star-import cleanly."""

import importlib
import pkgutil

import pytest

import liftlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(liftlab.__path__))


def test_modules_found():
    assert {"cli", "core", "errors", "generators", "spectral"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(f"liftlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"liftlab.{name}.__all__ names missing attributes {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from liftlab.{name} import *", namespace)
    for n in getattr(importlib.import_module(f"liftlab.{name}"), "__all__", ()):
        assert n in namespace
