"""The exported surface: ``ncframe.__all__`` names only what the package has."""

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
