"""Fault injection & crash recovery (repro.sim.faults).

Covers: ServerDown timeouts against crashed servers, retry/backoff
determinism, WAL replay-before-serve on restart, torn-tail recovery,
exactly-once retried batch flushes, lease masking of a DMS outage, the
deferred-error aggregation fix, and the availability harness's
zero-lost-acked differential check.
"""

import pytest

from repro.common.config import BatchConfig, ClusterConfig
from repro.common.errors import Exists, ServerDown
from repro.common.types import ROOT_CRED
from repro.core.fms import FileMetadataServer
from repro.core.fs import LocoFS
from repro.harness import SYSTEM_NAMES, make_system
from repro.sim.costmodel import CostModel
from repro.sim.faults import F_DELAY, F_DROP, F_OK, FaultSchedule, FaultState, RetryPolicy

#: recovery short enough that the default retry budget outlasts it
FAST_RECOVERY = CostModel(restart_fixed_us=500.0, wal_replay_bpus=4000.0)


def _locofs(tmp_path, engine_kind="direct", cost=None, batch=False, cache=True,
            num_servers=1, subdir="fs"):
    from repro.common.config import CacheConfig

    cfg = ClusterConfig(
        num_metadata_servers=num_servers,
        batch=BatchConfig(enabled=batch),
        cache=CacheConfig(enabled=cache),
    )
    return LocoFS(cfg, cost=cost or FAST_RECOVERY, engine_kind=engine_kind,
                  data_dir=str(tmp_path / subdir))


# -- FaultSchedule / FaultState units ----------------------------------------------


class TestFaultSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultSchedule(drop_prob=0.6, delay_prob=0.6)

    def test_builders_and_shift(self):
        s = FaultSchedule(seed=3).crash_restart("fms0", 100.0, 50.0, torn_tail_bytes=8)
        assert s.events == [(100.0, 0, "fms0", 8), (150.0, 1, "fms0", 0)]
        assert s.servers() == {"fms0"}
        assert not s.empty
        shifted = s.shifted(1000.0)
        assert shifted.events[0][0] == 1100.0
        assert s.events[0][0] == 100.0  # original untouched
        assert FaultSchedule().empty

    def test_empty_schedule_draws_no_randomness(self):
        state = FaultState(FaultSchedule(seed=42), engine=None)
        before = state.rng.getstate()
        for _ in range(10):
            assert state.wire_fate() == (F_OK, 0.0)
        assert state.rng.getstate() == before

    def test_wire_fates_deterministic(self):
        a = FaultState(FaultSchedule(seed=7, drop_prob=0.3, delay_prob=0.3), None)
        b = FaultState(FaultSchedule(seed=7, drop_prob=0.3, delay_prob=0.3), None)
        fates = [a.wire_fate() for _ in range(200)]
        assert fates == [b.wire_fate() for _ in range(200)]
        kinds = {f for f, _ in fates}
        assert kinds == {F_OK, F_DROP, F_DELAY}

    def test_backoff_caps_and_grows(self):
        import random

        policy = RetryPolicy(base_us=100.0, cap_us=350.0, jitter=0.0)
        rng = random.Random(0)
        assert policy.backoff_us(0, rng) == 100.0
        assert policy.backoff_us(1, rng) == 200.0
        assert policy.backoff_us(2, rng) == 350.0  # capped
        assert policy.backoff_us(5, rng) == 350.0


class TestShiftedSemantics:
    """``FaultSchedule.shifted`` contract (pinned by its docstring):
    crash/restart event *times* shift, wire fates do *not* — fates are
    drawn from one seeded RNG stream in attempt order, so the k-th RPC
    attempt meets the same fate in the original and the shifted copy.
    The availability harness depends on this: it authors a schedule
    relative to the measured wave, shifts it to the wave's start, and
    compares against an unshifted baseline — time-keyed fates would make
    the comparison measure the shift, not the faults."""

    def test_event_times_shift_wire_fates_do_not(self):
        base = FaultSchedule(seed=11, drop_prob=0.25, delay_prob=0.25)
        base.crash_restart("fms0", 100.0, 50.0, torn_tail_bytes=16)
        shifted = base.shifted(250_000.0)
        assert shifted.events == [(250_100.0, 0, "fms0", 16),
                                  (250_150.0, 1, "fms0", 0)]
        a = FaultState(base, engine=None)
        b = FaultState(shifted, engine=None)
        fates = [a.wire_fate() for _ in range(300)]
        assert fates == [b.wire_fate() for _ in range(300)]
        # the stream really exercised every fate (not vacuously equal)
        assert {f for f, _ in fates} == {F_OK, F_DROP, F_DELAY}

    def test_shift_composes_and_preserves_knobs(self):
        base = FaultSchedule(seed=3, drop_prob=0.1, delay_prob=0.05,
                             delay_us=750.0)
        base.crash("dms", 10.0)
        twice = base.shifted(100.0).shifted(200.0)
        assert twice.events == [(310.0, 0, "dms", 0)]
        assert (twice.seed, twice.drop_prob, twice.delay_prob,
                twice.delay_us) == (3, 0.1, 0.05, 750.0)
        assert base.events == [(10.0, 0, "dms", 0)]  # original untouched

    def test_shifted_empty_schedule_stays_empty(self):
        assert FaultSchedule().shifted(5_000.0).empty


# -- engine integration: down servers, retries, determinism ------------------------


class TestServerDown:
    def test_rpc_to_down_server_times_out(self, tmp_path):
        fs = _locofs(tmp_path)
        client = fs.client()
        client.mkdir("/d")
        client.create("/d/a")
        t = fs.engine.now
        fs.engine.attach_faults(FaultSchedule().crash("fms0", t + 1.0))
        t0 = fs.engine.now
        with pytest.raises(ServerDown):
            client.create("/d/b")
        # the clock advanced by at least the per-attempt timeouts
        policy = fs.engine.retry
        assert fs.engine.now - t0 >= (policy.max_retries + 1) * FAST_RECOVERY.timeout_us
        fs.close()

    def test_unknown_server_rejected(self, tmp_path):
        fs = _locofs(tmp_path)
        with pytest.raises(ValueError):
            fs.engine.attach_faults(FaultSchedule().crash("nope", 1.0))
        fs.close()

    def test_retry_timing_deterministic(self, tmp_path):
        def run(subdir):
            fs = _locofs(tmp_path, subdir=subdir)
            client = fs.client()
            client.mkdir("/d")
            t = fs.engine.now
            fs.engine.attach_faults(
                FaultSchedule(seed=5).crash_restart("fms0", t + 1.0, 2_500.0))
            for n in range(4):
                client.create(f"/d/f{n}")
            now = fs.engine.now
            fs.close()
            return now

        assert run("a") == run("b")

    def test_crash_recover_resumes_service(self, tmp_path):
        fs = _locofs(tmp_path)
        client = fs.client()
        client.mkdir("/d")
        client.create("/d/a")
        t = fs.engine.now
        fs.engine.attach_faults(
            FaultSchedule().crash_restart("fms0", t + 1.0, 1_000.0))
        # retries outlast the outage + recovery: the op succeeds, late
        client.create("/d/b")
        assert client.stat_file("/d/b").st_mode
        node = fs.cluster["fms0"]
        assert node.crashes == 1
        assert node.recovered_us > 0.0
        fs.close()


class TestWalReplayOnRestart:
    def test_restart_replays_wal_before_serving(self, tmp_path):
        fs = _locofs(tmp_path)
        client = fs.client()
        client.mkdir("/d")
        for n in range(6):
            client.create(f"/d/f{n}")
        t = fs.engine.now
        fs.engine.attach_faults(
            FaultSchedule().crash_restart("fms0", t + 1.0, 1_000.0))
        # every pre-crash create survives the crash: WAL replay rebuilt them
        for n in range(6):
            assert client.stat_file(f"/d/f{n}").st_size == 0
        node = fs.cluster["fms0"]
        assert node.crashes == 1
        assert node.recovered_us > FAST_RECOVERY.restart_fixed_us  # replayed bytes
        fs.close()

    def test_recovery_latency_scales_with_replayed_bytes(self):
        cost = CostModel(restart_fixed_us=100.0, wal_replay_bpus=10.0)
        assert cost.recovery_us(0) == 100.0
        assert cost.recovery_us(500) == 150.0

    def test_dms_crash_restart_recovers_namespace(self, tmp_path):
        fs = _locofs(tmp_path)
        client = fs.client()
        client.mkdir("/d")
        client.mkdir("/d/sub")
        t = fs.engine.now
        fs.engine.attach_faults(
            FaultSchedule().crash_restart("dms", t + 1.0, 1_000.0))
        # force a DMS round trip (readdir is never lease-cached)
        names = {e.name for e in client.readdir("/d")}
        assert "sub" in names
        assert fs.cluster["dms"].recovered_us > 0.0
        fs.close()


class TestLeaseMasking:
    def test_cached_paths_mask_dms_outage(self, tmp_path):
        fs = _locofs(tmp_path, cache=True)
        client = fs.client()
        client.mkdir("/d")
        client.create("/d/a")  # caches /d under its lease
        t = fs.engine.now
        fs.engine.attach_faults(FaultSchedule().crash("dms", t + 1.0))
        # DMS is down and never restarts, but /d is leased: creates proceed
        client.create("/d/b")
        assert client.stat_file("/d/b")
        fs.close()

    def test_uncached_client_sees_dms_outage(self, tmp_path):
        fs = _locofs(tmp_path, cache=False)
        client = fs.client()
        client.mkdir("/d")
        client.create("/d/a")
        t = fs.engine.now
        fs.engine.attach_faults(FaultSchedule().crash("dms", t + 1.0))
        with pytest.raises(ServerDown):
            client.create("/d/b")
        fs.close()


# -- exactly-once batched creates ---------------------------------------------------


def _entries(names, now_s=1.0):
    return tuple((5, name, 0o644, ROOT_CRED, now_s, 4096) for name in names)


class TestIdempotentCreateBatch:
    def test_retried_batch_is_exactly_once(self, tmp_path):
        fms = FileMetadataServer(sid=1, wal_path=str(tmp_path / "f.wal"))
        entries = _entries(["a", "b", "c"])
        out1 = fms.op_create_batch(entries)
        out2 = fms.op_create_batch(entries)  # replayed flush (response lost)
        assert out2["exists"] == []
        assert out2["uuids"] == out1["uuids"]
        assert fms.counters.get("batch.deduped") == 3
        # no duplicate dirents
        buf = fms.store.get(b"E:" + (5).to_bytes(8, "big"))
        from repro.metadata import dirent

        assert sorted(e.name for e in dirent.iter_entries(buf)) == ["a", "b", "c"]

    def test_genuine_conflict_still_reported(self, tmp_path):
        fms = FileMetadataServer(sid=1, wal_path=str(tmp_path / "f.wal"))
        fms.op_create_batch(_entries(["a"], now_s=1.0))
        # a *different* create of the same name (later ctime): conflict
        out = fms.op_create_batch(_entries(["a"], now_s=2.0))
        assert out["exists"] == ["a"]
        assert out["uuids"] == [None]

    @pytest.mark.parametrize("decoupled", [True, False], ids=["decoupled", "coupled"])
    def test_rejected_duplicate_is_not_counted_created(self, decoupled):
        """``files.created`` counts creates on both paths: a duplicate the
        existence probe rejects is none (``op_create`` once counted it
        before probing, so a duplicate read 2 there and 1 batched)."""
        single = FileMetadataServer(sid=1, decoupled=decoupled)
        single.op_create(5, "a", 0o644, ROOT_CRED, 1.0)
        with pytest.raises(Exists):
            single.op_create(5, "a", 0o644, ROOT_CRED, 2.0)
        batched = FileMetadataServer(sid=1, decoupled=decoupled)
        batched.op_create_batch(_entries(["a"], now_s=1.0))
        assert batched.op_create_batch(_entries(["a"], now_s=2.0))["exists"] == ["a"]
        for fms in (single, batched):
            assert fms.counters.get("files.created") == 1
            assert fms.num_files_fast() == fms.num_files() == 1

    def test_coupled_mode_dedups_too(self, tmp_path):
        fms = FileMetadataServer(sid=1, decoupled=False,
                                 wal_path=str(tmp_path / "f.wal"))
        entries = _entries(["x", "y"])
        out1 = fms.op_create_batch(entries)
        out2 = fms.op_create_batch(entries)
        assert out2["exists"] == []
        assert out2["uuids"] == out1["uuids"]

    def test_torn_tail_repairs_partial_create(self, tmp_path):
        wal_path = str(tmp_path / "f.wal")
        fms = FileMetadataServer(sid=1, wal_path=wal_path)
        entries = _entries(["a", "b", "c", "d"])
        fms.op_create_batch(entries)
        # crash mid-group-commit: the WAL loses its tail (some of the
        # batch's records never hit the disk)
        fms.crash(torn_tail_bytes=40)
        replayed = fms.restart()
        assert replayed > 0
        # the retried flush must converge: every entry either deduped
        # (fully applied) or re-applied (torn remnant) — never "exists"
        out = fms.op_create_batch(entries)
        assert out["exists"] == []
        assert all(u is not None for u in out["uuids"])
        buf = fms.store.get(b"E:" + (5).to_bytes(8, "big"))
        from repro.metadata import dirent

        assert sorted(e.name for e in dirent.iter_entries(buf)) == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("decoupled", [True, False], ids=["decoupled", "coupled"])
    def test_apply_batch_create_run_is_op_create_batch(self, tmp_path, decoupled):
        """The one wire method a write-behind client sends: a run of
        tagged creates through ``op_apply_batch`` is ``op_create_batch``
        — same store bytes, same metered cost, same exactly-once replay."""
        entries = tuple((5 + n % 3, f"f{n:02d}", 0o640, ROOT_CRED, 1.0 + n, 4096)
                        for n in range(12))
        tagged = tuple(("create", *e) for e in entries)
        direct = FileMetadataServer(sid=1, decoupled=decoupled,
                                    wal_path=str(tmp_path / "d.wal"))
        batched = FileMetadataServer(sid=1, decoupled=decoupled,
                                     wal_path=str(tmp_path / "b.wal"))
        out = direct.op_create_batch(entries)
        res = batched.op_apply_batch(tagged)
        assert [r["uuid"] for r in res] == out["uuids"]

        def state(fms):
            return (sorted(fms.store.items()), fms.meter.total_us,
                    dict(fms.meter.op_counts),
                    {k: fms.counters.get(k)
                     for k in ("files.created", "batch.records", "batch.creates")})

        assert state(batched) == state(direct)
        assert batched.counters.get("batch.records") == 12
        # the replayed flush (response lost): the first call's uuids, no Exists
        again = direct.op_create_batch(entries)
        assert again == {"uuids": out["uuids"], "exists": []}
        assert batched.op_apply_batch(tagged) == res
        assert state(batched) == state(direct)
        assert batched.counters.get("batch.deduped") == 12
        assert direct.counters.get("batch.deduped") == 12


class TestBatchedClientRequeue:
    def test_flush_requeues_on_serverdown_and_drains_after_recovery(self, tmp_path):
        fs = _locofs(tmp_path, batch=True)
        client = fs.client()
        client.mkdir("/d")
        t = fs.engine.now
        # long outage: the first flush's retries are exhausted
        fs.engine.attach_faults(
            FaultSchedule().crash_restart("fms0", t + 1.0, 60_000.0))
        for n in range(3):
            client.create(f"/d/f{n}")  # acked into the write-behind queue
        with pytest.raises(ServerDown):
            client.flush()
        assert client.flush_requeues == 1
        assert client.pending_ops == 3  # nothing was dropped
        # after recovery the re-queued flush lands exactly once
        deadline = fs.engine.now + 120_000.0
        while client.pending_ops:
            try:
                client.flush()
            except ServerDown:
                assert fs.engine.now < deadline, "flush never recovered"
        for n in range(3):
            assert client.stat_file(f"/d/f{n}")
        assert fs.fms[0].counters.get("batch.deduped") == 0
        fs.close()

    def test_requeued_dms_flush_keeps_its_age_clock(self, tmp_path):
        """One requeue-age rule for every queue: a failed flush goes back
        with its oldest entry's enqueue instant, so ``max_age_us`` keeps
        bounding how long an acked mkdir stays volatile while the DMS is
        failing — the next op retries the overdue flush instead of
        deferring quietly behind it."""
        cfg = ClusterConfig(num_metadata_servers=1,
                            batch=BatchConfig(enabled=True, all_ops=True))
        fs = LocoFS(cfg, data_dir=str(tmp_path / "fs"))
        client = fs.client()
        client.mkdir("/d")
        client.flush()
        fs.engine.attach_faults(
            FaultSchedule().crash_restart("dms", fs.engine.now + 1.0, 60_000.0))
        for n in range(3):
            client.mkdir(f"/d/s{n}")  # acked into the DMS write-behind queue
        enqueued_at = fs.engine.now
        assert enqueued_at == 549.5277264957265
        with pytest.raises(ServerDown):
            client.flush()
        assert fs.engine.now == 17603.743337623513
        assert client.flush_requeues == 1
        assert client.pending_ops == 3  # nothing was dropped
        t = fs.engine.now
        with pytest.raises(ServerDown):
            client.create("/d/f")  # its staleness check retries the flush
        assert fs.engine.now > t
        assert client.flush_requeues == 2
        # still the first mkdir's enqueue instant, not a failure instant:
        # the queue is overdue, not 0 µs old
        assert client._pending["dms"].oldest_us == enqueued_at
        deadline = fs.engine.now + 120_000.0
        while client.pending_ops:
            try:
                client.flush()
            except ServerDown:
                assert fs.engine.now < deadline, "flush never recovered"
        assert [e.name for e in client.readdir("/d")] == ["s0", "s1", "s2"]
        fs.close()

    def test_deferred_errors_all_surface(self, tmp_path):
        fs = _locofs(tmp_path, batch=True)
        seeder = fs.client()
        seeder.mkdir("/d")
        seeder.create("/d/a")
        seeder.create("/d/b")
        seeder.flush()
        client = fs.client()
        client.create("/d/a")  # both will conflict at the flush boundary
        client.create("/d/b")
        with pytest.raises(Exists):
            client.flush()
        assert len(client.deferred_errors) == 1
        assert isinstance(client.deferred_errors[0], Exists)
        fs.close()

    def test_dms_flush_marks_its_deferred_errors_too(self, tmp_path):
        from repro.obs import MetricsRegistry

        cfg = ClusterConfig(num_metadata_servers=1,
                            batch=BatchConfig(enabled=True, all_ops=True))
        fs = LocoFS(cfg, data_dir=str(tmp_path / "fs"))
        metrics = MetricsRegistry()
        fs.attach_observability(metrics=metrics)
        seeder = fs.client()
        for path in ("/d", "/d/a", "/d/b"):
            seeder.mkdir(path)
        seeder.flush()
        client = fs.client()
        client.mkdir("/d/a")  # both will conflict at the flush boundary
        client.mkdir("/d/b")
        with pytest.raises(Exists):
            client.flush()
        assert len(client.deferred_errors) == 1
        counters = metrics.snapshot()["counters"]
        assert counters["client.deferred_errors"] == 1
        assert counters["client.flush.deferred_errors"] == 1  # the mark
        fs.close()


# -- availability harness ----------------------------------------------------------


class TestAvailabilityHarness:
    @pytest.mark.parametrize(
        "name", [n for n in SYSTEM_NAMES if n.startswith("locofs-")])
    def test_builds_the_system_the_registry_builds(self, name, tmp_path):
        """``repro availability <name>`` must measure ``<name>``: the
        harness once kept a private copy of the registry with no locofs-a
        arm and measured locofs-c under that label."""
        from repro.harness.availability import _make

        got = _make(name, 2, CostModel(), str(tmp_path / "wal"))
        want = make_system(name, 2, engine_kind="event")
        assert type(got) is type(want)
        assert type(got.client()) is type(want.client())
        for part in ("batch", "cache", "lookup_cache"):
            assert getattr(got.config, part) == getattr(want.config, part)
        assert got.data_dir == str(tmp_path / "wal")
        got.close()
        want.close()

    @pytest.mark.parametrize("system", ["locofs-c", "locofs-b", "locofs-a"])
    def test_zero_lost_acked_across_fms_crash(self, system, tmp_path):
        from repro.harness import run_availability

        r = run_availability(system, num_servers=2, crash_server="fms0",
                             num_clients=2, items_per_client=8,
                             data_dir=str(tmp_path / system))
        assert r.crashes == 1
        assert r.lost_acked == 0
        assert r.acked_ops + r.failed_ops == 16
        assert r.unavailability_us > 0.0
        assert len(r.timeline) == 40

    def test_lease_masking_is_visible_in_goodput(self, tmp_path):
        from repro.harness import run_availability

        cached = run_availability("locofs-c", num_servers=2, crash_server="dms",
                                  num_clients=2, items_per_client=8,
                                  data_dir=str(tmp_path / "c"))
        uncached = run_availability("locofs-nc", num_servers=2, crash_server="dms",
                                    num_clients=2, items_per_client=8,
                                    data_dir=str(tmp_path / "nc"))
        assert cached.lost_acked == 0 and uncached.lost_acked == 0
        # leases mask the outage: the cached variant keeps its baseline
        assert cached.goodput_iops == pytest.approx(cached.baseline_iops, rel=0.05)
        assert uncached.goodput_iops < 0.5 * uncached.baseline_iops


# -- observability ------------------------------------------------------------------


class TestFaultObservability:
    def test_instants_counters_and_analyze_summary(self, tmp_path):
        from repro.obs import MetricsRegistry, Tracer
        from repro.obs.analyze import attribution_report, fault_summary, format_attribution

        fs = _locofs(tmp_path)
        tracer, metrics = Tracer(), MetricsRegistry()
        fs.engine.attach_observability(tracer=tracer, metrics=metrics)
        client = fs.client()
        client.mkdir("/d")
        client.create("/d/a")
        t = fs.engine.now
        fs.engine.attach_faults(
            FaultSchedule().crash_restart("fms0", t + 1.0, 1_000.0))
        client.create("/d/b")
        names = {i.name for i in tracer.instants}
        assert {"server.crash", "server.recover", "client.retry"} <= names
        assert metrics.counter("client.retries").value >= 1
        assert metrics.counter("fms0.crashes").value == 1
        summary = fault_summary(tracer)
        assert summary["crashes"] == {"fms0": 1}
        assert summary["retries"] >= 1
        report = attribution_report(tracer)
        assert report["faults"] == summary
        assert "faults:" in format_attribution(report)
        fs.close()

    def test_unfaulted_report_has_no_fault_section(self, tmp_path):
        from repro.obs import Tracer
        from repro.obs.analyze import attribution_report

        fs = _locofs(tmp_path)
        tracer = Tracer()
        fs.engine.attach_observability(tracer=tracer)
        client = fs.client()
        client.mkdir("/d")
        client.create("/d/a")
        assert "faults" not in attribution_report(tracer)
        fs.close()
