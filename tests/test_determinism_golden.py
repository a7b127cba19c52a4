"""Golden regression test: virtual-time results are bit-identical.

The goldens in ``tests/goldens/determinism.json`` were captured from the
tree *before* the hot-path optimizations landed.  Every optimization since
is required to leave the simulated clock and per-op latency statistics
exactly unchanged — not approximately, bit-for-bit (JSON round-trips
doubles exactly, so ``==`` on the parsed documents is the right check).

If this test fails after an intentional model change (new cost model,
different op mix), recapture with::

    PYTHONPATH=src python scripts/capture_determinism_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.harness import goldens

GOLDEN_PATH = Path(__file__).parent / "goldens" / "determinism.json"
GOLDEN_R_PATH = Path(__file__).parent / "goldens" / "determinism_locofs_r.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    """A fresh capture, through the recapture script's own entry point."""
    path = tmp_path_factory.mktemp("golden") / "determinism.json"
    return goldens.capture(path), path


@pytest.fixture(scope="module")
def current(captured):
    return captured[0]


def test_capture_rewrites_the_committed_file_byte_for_byte(captured):
    _, path = captured
    assert path.read_text() == GOLDEN_PATH.read_text()


def test_golden_covers_all_seven_systems(golden):
    assert set(golden["systems"]) == set(goldens.GOLDEN_SYSTEMS)
    assert len(goldens.GOLDEN_SYSTEMS) == 7


def test_schema_and_workload_unchanged(golden, current):
    assert current["schema"] == golden["schema"]
    assert current["workload"] == golden["workload"]


@pytest.mark.parametrize("system", goldens.GOLDEN_SYSTEMS)
def test_virtual_time_bit_identical(system, golden, current):
    want = golden["systems"][system]
    got = current["systems"][system]
    # direct engine: final virtual clock after the scripted op sequence
    assert got["direct_now_us"] == want["direct_now_us"], (
        f"{system}: DirectEngine virtual clock drifted"
    )
    # per-op latency statistics (count/mean/percentiles/min/max)
    assert got["latency_stats"] == want["latency_stats"], (
        f"{system}: op latency statistics drifted"
    )
    # event engine: closed-loop elapsed time and completed-op totals
    assert got["event_elapsed_us"] == want["event_elapsed_us"], (
        f"{system}: EventEngine elapsed virtual time drifted"
    )
    assert got["event_total_ops"] == want["event_total_ops"]
    assert got["event_num_clients"] == want["event_num_clients"]


def test_full_document_equality(golden, current):
    # belt and braces: any field added/removed/changed anywhere shows up here
    assert current == golden


def test_empty_fault_schedule_is_bit_identical(golden, monkeypatch):
    """An attached-but-empty FaultSchedule must be a perfect no-op.

    The fault layer guards every check on "any faults configured?" and
    draws no randomness for an empty schedule, so the seven golden
    systems must fingerprint bit-identically with one attached.
    """
    from repro.harness import mdtest, registry, runner
    from repro.sim.faults import FaultSchedule

    real = registry.make_system

    def with_empty_faults(*args, **kwargs):
        system = real(*args, **kwargs)
        system.engine.attach_faults(FaultSchedule())
        return system

    monkeypatch.setattr(registry, "make_system", with_empty_faults)
    monkeypatch.setattr(runner, "make_system", with_empty_faults)
    monkeypatch.setattr(mdtest, "make_system", with_empty_faults)
    assert goldens.determinism_fingerprint() == golden


def test_attached_telemetry_is_clock_invisible(golden):
    """A streaming TelemetrySink must never perturb virtual time.

    The sink only *reads* the clock at span close; it performs no
    virtual-time arithmetic and draws no randomness, so fingerprinting
    the seven golden systems with the process-default sink installed
    (the same path ``repro ... --telemetry-out`` takes) must match the
    unattached goldens bit-for-bit — while the sink itself fills up.
    """
    from repro.obs import TelemetrySink, set_default_telemetry

    sink = TelemetrySink()
    previous = set_default_telemetry(sink)
    try:
        assert goldens.determinism_fingerprint() == golden
    finally:
        set_default_telemetry(previous)
    # the invariance is only meaningful if the sink really was attached
    assert sink.count_ops("client.create") > 0


class TestLocoFSRGolden:
    """LocoFS-R determinism golden (its own file: the seven-system golden
    asserts ``len == 7`` and predates the replicated DMS).

    The replicated directory tier adds Quorum fan-outs, client-relayed
    appends, and hashed election timeouts to the timing plane — all of
    which must be exactly deterministic for a fixed deployment."""

    @pytest.fixture(scope="class")
    def golden_r(self):
        return json.loads(GOLDEN_R_PATH.read_text())

    def test_fingerprint_bit_identical(self, golden_r):
        assert goldens.fingerprint_system("locofs-r") == golden_r

    def test_empty_fault_schedule_is_bit_identical(self, golden_r, monkeypatch):
        # replication consults no RNG (election jitter is a pure hash), so
        # an attached-but-empty schedule must be a perfect no-op here too
        from repro.harness import mdtest, registry, runner
        from repro.sim.faults import FaultSchedule

        real = registry.make_system

        def with_empty_faults(*args, **kwargs):
            system = real(*args, **kwargs)
            system.engine.attach_faults(FaultSchedule())
            return system

        monkeypatch.setattr(registry, "make_system", with_empty_faults)
        monkeypatch.setattr(runner, "make_system", with_empty_faults)
        monkeypatch.setattr(mdtest, "make_system", with_empty_faults)
        assert goldens.fingerprint_system("locofs-r") == golden_r

