"""Evaluate the claims table (``claims.py``): one test per row."""

import pytest

from claims import CLAIMS, measure, within


def test_row_ids_are_unique():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("claim", [
    pytest.param(c, id=c.id, marks=[pytest.mark.xfail(reason=c.diverges, strict=True)]
                 if c.diverges else [])
    for c in CLAIMS])
def test_claim(claim):
    value = measure(claim)
    assert within(value, claim.bound), (
        f"{claim.id}: measured {value:.6g}, bound {claim.bound}, paper: {claim.paper}")
