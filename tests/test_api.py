"""The public API: what each module exports, and what the package re-exports."""

import importlib
import types

import pytest

import focksobolev as fs

MODULES = ["carleson", "cli", "compop", "funcspace", "geometry", "measures", "quadrature"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"focksobolev.{name}")
    missing = [key for key in module.__all__ if not hasattr(module, key)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_names_resolve_to_their_modules():
    """Each public name of the package is a submodule or the object its
    defining module holds under that name, and a module with ``__all__``
    exports every name the package takes from it."""
    for key in (k for k in dir(fs) if not k.startswith("_")):
        obj = getattr(fs, key)
        if isinstance(obj, types.ModuleType):
            continue
        home = getattr(obj, "__module__", None)
        if home is None or not home.startswith("focksobolev."):
            continue
        module = importlib.import_module(home)
        assert getattr(module, key) is obj, key
        if hasattr(module, "__all__"):
            assert key in module.__all__, key


@pytest.mark.parametrize("name", ["ball_mass", "berezin_value", "sequence_lp", "evaluate",
                                  "QuasiNormError"])
def test_retired_helpers_are_gone(name):
    assert not hasattr(fs, name)
