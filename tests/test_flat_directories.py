"""Flat directories: a dirent append costs the same whatever the list holds.

PAPER.md §1 (2) keeps a directory's dirents as one concatenated KV value
per server, grown by Kyoto Cabinet's append.  Priced that way, a create's
server demand and latency do not depend on how many files the directory
already has — the property the paper's 0.1 M-files-per-client mdtest runs
rely on.  (A read-modify-write append charges the whole list twice per
entry: 17.5 / 43.4 / 158.6 µs of FMS demand per create at 40 / 400 /
2 000 items per client.)
"""

import pytest

from repro.harness import run_latency, run_throughput


def _fms0_demand_per_create(items: int) -> float:
    """``locofs-c``, 1 FMS, 12 clients, each creating ``items`` files in
    its own directory: fms0's busy µs over the measured wave per create."""
    r = run_throughput("locofs-c", 1, op="touch", items_per_client=items,
                       num_clients=12)
    return r.server_utilization["fms0"] * r.elapsed_us / r.total_ops


def test_fms_demand_per_create_is_flat_in_the_directory_size():
    small = _fms0_demand_per_create(40)
    big = _fms0_demand_per_create(2_000)
    assert big == pytest.approx(small, rel=0.05)
    assert small == pytest.approx(14.685, abs=0.01)


def test_create_and_mkdir_latency_is_flat_in_the_directory_size():
    """One client, one server: the mean touch and mkdir latency over
    20 000 entries is the mean over 2 000 (names grow by a digit or two,
    which the per-byte cost sees)."""
    small = run_latency("locofs-c", 1, n_items=2_000, ops=("mkdir", "touch"))
    big = run_latency("locofs-c", 1, n_items=20_000, ops=("mkdir", "touch"))
    for op in ("touch", "mkdir"):
        assert big.summary(op).mean == pytest.approx(small.summary(op).mean,
                                                     rel=1e-3), op
    assert small.summary("touch").mean == pytest.approx(228.71, abs=0.01)
