import subprocess
import sys

import pytest

import focksobolev as fs


@pytest.fixture(scope="session")
def params_m0():
    return fs.Params(n=1, alpha=1.0, m=0, p=2.0, q=2.0)


@pytest.fixture(scope="session")
def params_m1():
    return fs.Params(n=1, alpha=1.0, m=1, p=2.0, q=2.0)


@pytest.fixture(scope="session")
def unit_lattice():
    return fs.make_lattice(6.0, 1.0, n=1)


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "focksobolev.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="session")
def cli():
    return run_cli
