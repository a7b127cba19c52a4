"""Tier-1 is a function of the tree: every hypothesis test runs the same
examples on every run (``derandomize``) and keeps no example database, so
two back-to-back ``pytest -x -q`` runs give the same verdict.  What a
fresh-seed run finds is filed as a *named* test (see
``test_differential.py::test_writebehind_kind_ambiguous_chmod``), never
left to a coin flip."""

import gc

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def quiet_gc():
    """No cyclic collection while an exact call count is profiled.

    A collection that lands inside the profiled window finalizes the
    suspended generators earlier tests left in reference cycles, and
    cProfile counts each as a call; whether one lands depends on the
    allocation history of the whole process, not on the code under test.
    Collect first, then keep the collector off until the test ends."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
