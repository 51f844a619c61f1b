import time

import numpy as np
import pytest
from hypothesis import settings

# CI runs with --hypothesis-profile=ci: the same examples on every run, so the
# bit-identity sweeps cannot flake there.  Locally the default profile stays.
settings.register_profile("ci", derandomize=True)

# Whole-suite wall clock must stay laptop-friendly.
SUITE_BUDGET_S = 60.0
_START = pytest.StashKey[float]()
_OVER = pytest.StashKey[str]()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_sessionstart(session):
    session.stash[_START] = time.perf_counter()


def pytest_sessionfinish(session, exitstatus):
    # An over-budget run fails the session itself, not whichever test ran last.
    elapsed = time.perf_counter() - session.stash[_START]
    if elapsed >= SUITE_BUDGET_S:
        session.config.stash[_OVER] = f"test suite took {elapsed:.1f} s, budget is {SUITE_BUDGET_S:.0f} s"
        if session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _OVER in config.stash:
        terminalreporter.write_sep("=", f"FAILED suite time budget: {config.stash[_OVER]}", red=True, bold=True)
