"""The exported surface: ``ncframe.__all__`` names only what the package has."""

from importlib import import_module

import pytest

import ncframe


def test_all_names_resolve():
    missing = [name for name in ncframe.__all__ if not hasattr(ncframe, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(set(ncframe.__all__)) == len(ncframe.__all__)


def test_star_import():
    namespace = {}
    exec("from ncframe import *", namespace)
    assert set(ncframe.__all__) <= namespace.keys()


# The public names defined in ncframe._kernels, by the module that exports them.
KERNEL_NAMES = {
    "stabilizer": ("EPS_ISO", "NCClass", "Subcase"),
    "factorization": ("FactorOrder",),
    "electrodynamics": ("QUARTER_TOL", "DUAL_TOL", "quarter_turn"),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in KERNEL_NAMES.items() for n in names])
def test_kernel_names_are_one_object(module, name):
    kernels = import_module("ncframe._kernels")
    assert getattr(import_module(f"ncframe.{module}"), name) is getattr(kernels, name)
    if name in ncframe.__all__:
        assert getattr(ncframe, name) is getattr(kernels, name)
