"""The public API: what each module exports, and what the package re-exports."""

import importlib
import os
import subprocess
import sys
import textwrap
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
                                  "QuasiNormError", "berezin_compop"])
def test_retired_helpers_are_gone(name):
    assert not hasattr(fs, name)


def test_verdicts_and_norms_load_no_scipy():
    """Importing the package, an atomic and a density Carleson verdict at
    n = 1 and n = 2, and a norm load no scipy module: scipy serves only the
    lattice report's kd-tree, imported on call."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import focksobolev as fs
        for n in (1, 2):
            P = fs.Params(n=n, alpha=1.0, m=0, p=2.0, q=2.0)
            fs.classify_carleson(fs.gaussian(1.0, n), P)
            atoms = fs.AtomicMeasure(np.array([[0.5 + 0.5j] * n, [1.0] * n]), np.ones(2), n)
            fs.classify_carleson(atoms, P)
        fs.fock_sobolev_norm(fs.kernel(np.array([0.5]), n=1), fs.Params(n=1, alpha=1.0, m=1, p=4.0, q=4.0))
        print(sorted(name for name in sys.modules if name.startswith("scipy")))
    """)
    src = os.path.dirname(os.path.dirname(fs.__file__))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.stdout.strip() == "[]"
