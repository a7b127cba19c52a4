"""Tier-1 is a function of the tree: every hypothesis test runs the same
examples on every run (``derandomize``) and keeps no example database, so
two back-to-back ``pytest -x -q`` runs give the same verdict.  What a
fresh-seed run finds is filed as a *named* test (see
``test_differential.py::test_writebehind_kind_ambiguous_chmod``), never
left to a coin flip."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
