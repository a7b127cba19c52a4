"""Open-loop source: arrival determinism, admission accounting, packs.

The load-bearing properties (ISSUE 9 satellites): arrival sequences are
a pure function of (spec, horizon, seed) — identical across runs; the
admission queue is bounded and shed arrivals are counted but excluded
from goodput; the conservation identity holds at drain; and the
telemetry marks mirror the driver counters exactly.
"""

import dataclasses
import json

import pytest

from repro.harness import run_openloop
from repro.harness.openloop import PACK_NAMES, get_pack
from repro.obs.telemetry import TelemetrySink
from repro.sim import OpenLoopSource, Simulator, TenantSpec, arrival_times


def _doc(res) -> str:
    """Canonical byte encoding of a run result (determinism pin)."""
    return json.dumps(dataclasses.asdict(res), sort_keys=True)


# ---------------------------------------------------------------------------
# spec validation and arrival processes
# ---------------------------------------------------------------------------

def test_tenant_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec("t", 1000.0, process="weibull")
    with pytest.raises(ValueError):
        TenantSpec("t", 0.0)
    with pytest.raises(ValueError):
        TenantSpec("t", 1000.0, sessions=0)
    with pytest.raises(ValueError):
        TenantSpec("t", 1000.0, queue_bound=-1)
    with pytest.raises(ValueError):
        TenantSpec("t", 1000.0, process="diurnal", diurnal_amplitude=1.0)
    spec = TenantSpec("t", 1000.0, sessions=4, queue_bound=7)
    doubled = spec.scaled(2.0)
    assert doubled.rate == 2000.0
    assert (doubled.name, doubled.sessions, doubled.queue_bound) == ("t", 4, 7)


def test_arrival_times_pure_and_calibrated():
    spec = TenantSpec("t", 50_000.0)
    a = arrival_times(spec, 200_000.0, seed=7)
    b = arrival_times(spec, 200_000.0, seed=7)
    assert a == b  # pure function of (spec, horizon, seed)
    assert a != arrival_times(spec, 200_000.0, seed=8)
    assert a == sorted(a)
    assert all(0.0 <= t < 200_000.0 for t in a)
    # 50k ops/s over 0.2s -> ~10k arrivals; Poisson sd ~100
    assert 9_500 < len(a) < 10_500
    assert arrival_times(spec, 0.0, seed=7) == []


def test_arrival_times_burst_and_diurnal_processes():
    burst = TenantSpec("b", 40_000.0, process="burst", burst_size=8,
                       burst_spacing_us=25.0)
    times = arrival_times(burst, 500_000.0, seed=3)
    assert times == sorted(times)
    # mean rate preserved: 40k ops/s over 0.5s -> ~20k arrivals
    assert 15_000 < len(times) < 25_000
    diurnal = TenantSpec("d", 40_000.0, process="diurnal",
                         diurnal_amplitude=0.8)
    dt = arrival_times(diurnal, 500_000.0, seed=3)
    assert dt == sorted(dt)
    assert 17_000 < len(dt) < 23_000


def test_per_tenant_streams_are_independent():
    a = arrival_times(TenantSpec("alpha", 20_000.0), 100_000.0, seed=0)
    b = arrival_times(TenantSpec("beta", 20_000.0), 100_000.0, seed=0)
    assert a != b  # name folded into the per-tenant stream


def test_source_rejects_bad_tenant_sets():
    with pytest.raises(ValueError):
        OpenLoopSource(None, [], None, None)
    dup = [TenantSpec("x", 1000.0), TenantSpec("x", 2000.0)]
    with pytest.raises(ValueError):
        OpenLoopSource(None, dup, None, None)


# ---------------------------------------------------------------------------
# simulator support: window-boundary alignment
# ---------------------------------------------------------------------------

def test_advance_to_moves_clock_with_empty_schedule():
    sim = Simulator()
    sim.advance_to(1024.0)
    assert sim.now == 1024.0
    with pytest.raises(ValueError):
        sim.advance_to(512.0)
    # scheduling exactly at the advanced-to instant is a ready entry
    fired = []
    sim.at(1024.0, fired.append, 1)
    sim.run()
    assert fired == [1] and sim.now == 1024.0


def test_advance_to_drains_intermediate_events():
    sim = Simulator()
    fired = []
    sim.at(100.0, fired.append, "a")
    sim.at(900.0, fired.append, "b")
    sim.advance_to(500.0)
    assert fired == ["a"] and sim.now == 500.0
    sim.run()
    assert fired == ["a", "b"]


# ---------------------------------------------------------------------------
# end-to-end determinism (the satellite-1 pin)
# ---------------------------------------------------------------------------

def test_run_openloop_bit_identical_across_runs():
    kw = dict(pack="dl-pipeline", rate=15_000.0, horizon_us=30_000.0, seed=5)
    a = run_openloop("locofs-c", 2, telemetry=TelemetrySink(), **kw)
    b = run_openloop("locofs-c", 2, telemetry=TelemetrySink(), **kw)
    assert _doc(a) == _doc(b)
    assert a.offered > 0 and a.conservation_ok


def test_run_openloop_seed_changes_the_arrivals():
    kw = dict(pack="dl-pipeline", rate=15_000.0, horizon_us=30_000.0)
    a = run_openloop("locofs-c", 2, telemetry=TelemetrySink(), seed=1, **kw)
    b = run_openloop("locofs-c", 2, telemetry=TelemetrySink(), seed=2, **kw)
    assert a.offered != b.offered or _doc(a) != _doc(b)


# ---------------------------------------------------------------------------
# overload accounting
# ---------------------------------------------------------------------------

def test_bounded_queue_sheds_and_conserves():
    res = run_openloop("locofs-c", 1, pack="container-churn", rate=150_000.0,
                       horizon_us=30_000.0, queue_bound=16,
                       telemetry=TelemetrySink())
    assert res.shed > 0
    assert res.queue_peak <= 16 * res.num_tenants
    assert res.conservation_ok
    # at drain: every offered arrival is accounted for exactly once
    assert res.offered == res.shed + res.abandoned + res.completed + res.errors
    for tenant in res.per_tenant.values():
        assert tenant["offered"] == (tenant["shed"] + tenant["abandoned"]
                                     + tenant["completed"] + tenant["errors"])
        assert tenant["in_flight"] == 0
        assert tenant["queue_peak"] <= 16


def test_shed_excluded_from_goodput_but_counted():
    res = run_openloop("locofs-c", 1, pack="container-churn", rate=150_000.0,
                       horizon_us=30_000.0, queue_bound=16,
                       telemetry=TelemetrySink())
    assert res.goodput_iops < res.offered_iops
    assert res.completed_in_horizon <= res.offered - res.shed
    # goodput derives from in-horizon completions only
    assert res.goodput_iops == pytest.approx(
        res.completed_in_horizon / (res.horizon_us / 1e6))


def test_abandonment_under_impatience():
    res = run_openloop("locofs-c", 1, pack="container-churn", rate=150_000.0,
                       horizon_us=30_000.0, queue_bound=64,
                       abandon_after_us=200.0, telemetry=TelemetrySink())
    assert res.abandoned > 0
    assert res.conservation_ok


def test_sojourn_latency_includes_queue_wait():
    quiet = run_openloop("locofs-c", 2, pack="dl-pipeline", rate=5_000.0,
                         horizon_us=30_000.0, telemetry=TelemetrySink())
    slammed = run_openloop("locofs-c", 2, pack="dl-pipeline", rate=200_000.0,
                           horizon_us=30_000.0, telemetry=TelemetrySink())
    assert slammed.wait_mean_us > quiet.wait_mean_us
    q = quiet.aggregate_quantiles()
    s = slammed.aggregate_quantiles()
    assert s["p99"] > 2.0 * q["p99"]  # queueing delay inside the sojourn


# ---------------------------------------------------------------------------
# telemetry marks mirror the driver counters (satellite 2)
# ---------------------------------------------------------------------------

def test_marks_match_counters_and_series():
    sink = TelemetrySink()
    res = run_openloop("locofs-c", 1, pack="container-churn", rate=150_000.0,
                       horizon_us=30_000.0, queue_bound=16, telemetry=sink)
    marks = sink.snapshot()["totals"]["marks"]
    assert marks["client.offered"] == res.offered
    assert marks["client.shed"] == res.shed
    series = sink.mark_series("offered.")
    assert set(series) == {f"offered.container-churn-{i}" for i in range(2)}
    assert sum(sum(s) for s in series.values()) == res.offered
    lengths = {len(s) for s in series.values()}
    assert len(lengths) == 1  # zero-filled to the common window count


def test_offered_rate_counter_track_in_perfetto_export():
    from repro.obs.export import chrome_trace_events
    from repro.obs.tracer import Tracer

    sink = TelemetrySink()
    run_openloop("locofs-c", 1, pack="checkpoint-stampede", rate=20_000.0,
                 horizon_us=20_000.0, telemetry=sink)
    offered = {"window_us": sink.window_us,
               "series": sink.mark_series("offered.")}
    events = chrome_trace_events(Tracer(), offered=offered)
    tracks = {e["name"] for e in events if e["ph"] == "C"}
    assert any(t.startswith("offered.checkpoint-stampede") for t in tracks)
    rates = [e["args"]["ops_per_s"] for e in events if e["ph"] == "C"]
    assert max(rates) > 0.0
    # counter tracks hang off the clients process group
    metas = [e["args"]["name"] for e in events if e["ph"] == "M"]
    assert "clients" in metas


# ---------------------------------------------------------------------------
# scenario packs
# ---------------------------------------------------------------------------

def test_get_pack_names_and_unknown():
    for name in PACK_NAMES:
        assert get_pack(name).name == name
    with pytest.raises(ValueError):
        get_pack("video-transcode")


def test_checkpoint_stampede_uses_burst_arrivals():
    pack = get_pack("checkpoint-stampede")
    [spec] = pack.tenants(10_000.0)[:1]
    assert spec.process == "burst"


def test_every_pack_runs_clean():
    for name in PACK_NAMES:
        res = run_openloop("locofs-b", 2, pack=name, rate=10_000.0,
                           horizon_us=20_000.0, telemetry=TelemetrySink())
        assert res.completed_in_horizon > 0, name
        assert res.errors == 0, name
        assert res.conservation_ok, name
        assert res.latency_us, name
