import time

import numpy as np
import pytest
from hypothesis import settings

# CI runs with --hypothesis-profile=ci: the same examples on every run, so the
# bit-identity sweeps cannot flake there.  Locally the default profile stays.
settings.register_profile("ci", derandomize=True)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session", autouse=True)
def _suite_time_budget():
    # Whole-suite wall clock must stay laptop-friendly.
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"test suite took {elapsed:.1f} s, budget is 60 s"
