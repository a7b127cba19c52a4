"""Fault injection & crash recovery (repro.sim.faults).

Covers: ServerDown timeouts against crashed servers, retry/backoff
determinism, WAL replay-before-serve on restart, torn-tail recovery,
exactly-once retried batch flushes, lease masking of a DMS outage, the
deferred-error aggregation fix, and the availability harness's
zero-lost-acked differential check.
"""

import os
from functools import partial
from pathlib import Path

import pytest

from repro.common import pathutil
from repro.common.config import BatchConfig, ClusterConfig, DirectoryConfig
from repro.common.errors import Exists, FSError, NoEntry, ServerDown
from repro.common.types import ROOT_CRED
from repro.core import fsck
from repro.core.dms import DirectoryMetadataServer
from repro.core.fms import FileMetadataServer
from repro.core.fs import LocoFS
from repro.core.lookupcache import LookupCacheServer
from repro.core.multidms import DirectoryShardServer
from repro.core.repldms import ReplicatedDirShard
from repro.harness import SYSTEM_NAMES, make_system
from repro.kv.api import GroupCommit
from repro.sim.costmodel import CostModel
from repro.sim.faults import F_DELAY, F_DROP, F_OK, FaultSchedule, FaultState, RetryPolicy
from repro.sim.rpc import Rpc, Sleep

from ring_names import dir_uuid, name_placed

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


#: handler attributes a restart need not rebuild as a fresh handler over the
#: same log has them: counters and meter, construction-time config, the store
#: and allocator objects (compared by their items and next id), and a
#: replica's role and leader hint, which a restart resets by design
_NOT_STATE = {"counters", "meter", "store", "alloc", "cost", "_wal_path",
              "role", "leader_hint"}


def _handler_state(h):
    alloc = getattr(h, "alloc", None)  # the lookup-cache node mints no ids
    return ({k: v for k, v in vars(h).items() if k not in _NOT_STATE},
            sorted(h.store.items()), alloc and alloc._next_fid)


def _fresh(h, wal_path: str):
    """A handler of ``h``'s kind and identity built over ``wal_path``."""
    if isinstance(h, ReplicatedDirShard):
        return ReplicatedDirShard(h.alloc.sid, h.my_name, h.replica_names,
                                  backend=h.backend, has_root=h.has_root,
                                  wal_path=wal_path)
    if isinstance(h, DirectoryShardServer):
        return DirectoryShardServer(h.alloc.sid, backend=h.backend, has_root=h.has_root,
                                    wal_path=wal_path)
    if isinstance(h, DirectoryMetadataServer):
        return DirectoryMetadataServer(backend=h.backend, sid=h.alloc.sid,
                                       wal_path=wal_path)
    return FileMetadataServer(sid=h.sid, decoupled=h.decoupled, wal_path=wal_path)


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
        shifted = s.shifted(1000.0)
        assert shifted.events[0][0] == 1100.0
        assert s.events[0][0] == 100.0  # original untouched

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
        empty = FaultSchedule().shifted(5_000.0)
        assert (empty.events, empty.drop_prob, empty.delay_prob) == ([], 0.0, 0.0)


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


def _sleep(us):
    yield Sleep(us)


class TestRenameUnderFaults:
    """A cross-FMS f-rename is two client-driven RPCs: ``export_remove``
    on the source FMS, then a replacing ``import`` on the destination.
    Between them the inode's only copy is in the client's memory, so a
    failed import puts it back on the source (ROADMAP item 13)."""

    @staticmethod
    def _renaming(fs):
        """A client with ``/d/a``, and a name ``/d/b<i>`` on another FMS:
        ``(client, destination path, destination FMS)``."""
        client = fs.client()
        client.mkdir("/d")
        client.create("/d/a")
        uuid = client.stat_dir("/d").st_uuid
        dst = name_placed(client.ring, uuid, "a", same_fms=False, prefix="b")
        dst_fms = client.ring.lookup_file(uuid, dst)
        assert dst_fms != client.ring.lookup_file(uuid, "a")
        return client, f"/d/{dst}", dst_fms

    @staticmethod
    def _names(client, dst):
        def exists(path):
            try:
                client.stat_file(path)
            except (NoEntry, ServerDown):  # a crashed, WAL-less FMS holds nothing
                return False
            return True

        return [p for p in ("/d/a", dst) if exists(p)]

    def test_cross_fms_rename_keeps_the_file_when_the_destination_crashes(self):
        fs = make_system("locofs-c", 4)  # no data_dir: no WAL
        client, dst, dst_fms = self._renaming(fs)
        # the destination dies before the import lands: a sweep in 5 us
        # steps finds the rename rolled back for every crash up to 335 us
        # after it is issued (385 to 870 us with the old four-RPC protocol)
        fs.engine.attach_faults(FaultSchedule().crash(dst_fms, fs.engine.now + 200.0))
        with pytest.raises(ServerDown):
            client.rename("/d/a", dst)
        # the import failed, so the rollback put the file back on the source
        assert self._names(client, dst) == ["/d/a"]

    @pytest.mark.parametrize("crash_at_us", [100.0, 200.0, 300.0, 400.0, 600.0, 800.0])
    def test_cross_fms_rename_survives_a_destination_restart(self, tmp_path, crash_at_us):
        """Crash-restart the destination FMS across the whole rename (the
        old protocol's loss window was 385 to 870 us): recovery outlasts
        the retry budget, so a rename that has not finished gives up and
        the source keeps the file; one that finished left it durable."""
        fs = LocoFS(ClusterConfig(num_metadata_servers=4), cost=FAST_RECOVERY,
                    data_dir=str(tmp_path / "fs"))
        client, dst, dst_fms = self._renaming(fs)
        fs.engine.attach_faults(FaultSchedule().crash_restart(
            dst_fms, fs.engine.now + crash_at_us, 50_000.0))
        try:
            client.rename("/d/a", dst)
            want = [dst]
        except ServerDown:
            want = ["/d/a"]
        fs.engine.run(_sleep(100_000.0))  # past the restart
        assert self._names(client, dst) == want
        assert fsck.check(fs).clean
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


# -- exactly-once batches ------------------------------------------------------------


def _entries(names, now_s=1.0):
    return tuple((5, name, 0o644, ROOT_CRED, now_s, 4096) for name in names)


def _creates(names, now_s=1.0):
    """The ``apply_batch`` form of :func:`_entries`."""
    return tuple(("create", *e) for e in _entries(names, now_s))


def _dirent_names(fms, dir_uuid=5):
    from repro.metadata import dirent

    buf = fms.store.get(b"E:" + dir_uuid.to_bytes(8, "big"))
    return sorted(e.name for e in dirent.iter_entries(buf))


class TestIdempotentCreateBatch:
    def test_retried_batch_is_exactly_once(self, tmp_path):
        fms = FileMetadataServer(sid=1, wal_path=str(tmp_path / "f.wal"))
        batch = _creates(["a", "b", "c"])
        out1 = fms.op_apply_batch(batch, 7, 1)
        out2 = fms.op_apply_batch(batch, 7, 1)  # replayed flush (reply lost)
        assert out2 == out1 and all("uuid" in r for r in out1)
        assert fms.counters.get("files.created") == 3
        assert _dirent_names(fms) == ["a", "b", "c"]  # no duplicate dirents

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
        batch = _creates(["x", "y"])
        out1 = fms.op_apply_batch(batch, 7, 1)
        assert fms.op_apply_batch(batch, 7, 1) == out1
        # the same entries under a new seq are new creates: both conflict
        assert [r.get("err") for r in fms.op_apply_batch(batch, 7, 2)] == ["Exists"] * 2

    def test_torn_tail_repairs_partial_create(self, tmp_path):
        """A crash that tears the batch's group commit, at any byte, leaves
        none of it: the group replays whole or not at all, so there is no
        partial create to repair, and the retry under the same seq applies
        every entry exactly once — what a recovered twin that never saw
        the batch leaves after applying it."""
        wal = tmp_path / "f.wal"
        fms = FileMetadataServer(sid=1, wal_path=str(wal))
        with GroupCommit(fms.store):
            fms.op_apply_batch(_creates(["a", "z"]), 7, 1)
        fms.store._wal.flush()
        durable = wal.stat().st_size
        batch = (*_creates(["b", "c", "d"], now_s=2.0),
                 ("setattr", 5, "a", ROOT_CRED, 2.0, 0o600, None, None),
                 ("unlink", 5, "z", ROOT_CRED),
                 ("rename_local", 5, "a", 5, "e", ROOT_CRED))
        with GroupCommit(fms.store):
            fms.op_apply_batch(batch, 7, 2)
        fms.store.close()
        data = wal.read_bytes()

        def recovered(n):
            path = tmp_path / f"cut{n}.wal"
            path.write_bytes(data[:n])
            return FileMetadataServer(sid=1, wal_path=str(path))

        def state(f):
            return sorted(f.store.items()), dict(f._replies), f.num_files_fast()

        twin = recovered(durable)
        before = state(twin)
        with GroupCommit(twin.store):
            want = twin.op_apply_batch(batch, 7, 2)
        after = state(twin)
        assert _dirent_names(twin) == ["b", "c", "d", "e"]
        for n in range(durable, len(data)):
            f = recovered(n)
            assert state(f) == before, n
            with GroupCommit(f.store):
                assert f.op_apply_batch(batch, 7, 2) == want, n
            assert state(f) == after, n

    @pytest.mark.parametrize("decoupled", [True, False], ids=["decoupled", "coupled"])
    def test_apply_batch_create_run_is_op_create_batch(self, tmp_path, decoupled):
        """The one wire method a write-behind client sends: a run of
        tagged creates through ``op_apply_batch`` is ``op_create_batch``
        — same store bytes, same metered cost — and the run again under
        its seq is answered from the reply cache, changing neither."""
        entries = tuple((5 + n % 3, f"f{n:02d}", 0o640, ROOT_CRED, 1.0 + n, 4096)
                        for n in range(12))
        tagged = tuple(("create", *e) for e in entries)
        direct = FileMetadataServer(sid=1, decoupled=decoupled,
                                    wal_path=str(tmp_path / "d.wal"))
        batched = FileMetadataServer(sid=1, decoupled=decoupled,
                                     wal_path=str(tmp_path / "b.wal"))
        out = direct.op_create_batch(entries)
        res = batched.op_apply_batch(tagged, 7, 1)
        assert [r["uuid"] for r in res] == out["uuids"]

        def state(fms):
            return (sorted(fms.store.items()), fms.meter.total_us,
                    dict(fms.meter.op_counts),
                    {k: fms.counters.get(k)
                     for k in ("files.created", "batch.records", "batch.creates")})

        assert state(batched) == state(direct)
        assert batched.counters.get("batch.records") == 12
        # the replayed flush (reply lost): the first call's results
        assert batched.op_apply_batch(tagged, 7, 1) == res
        assert state(batched) == state(direct)


#: one ``apply_batch`` entry of every FMS kind, over a durable ``/d/a``
#: (dir uuid 5)
_FMS_ENTRIES = {
    "create": ("create", 5, "n", 0o644, ROOT_CRED, 2.0, 4096),
    "setattr": ("setattr", 5, "a", ROOT_CRED, 2.0, 0o600, 7, None),
    "unlink": ("unlink", 5, "a", ROOT_CRED),
    "unlink_opt": ("unlink_opt", 5, "a", ROOT_CRED),
    "rename_local": ("rename_local", 5, "a", 5, "b", ROOT_CRED),
}


def _meter(server):
    return server.meter.total_us, dict(server.meter.op_counts)


class TestReplyCache:
    """A batch sent twice under one ``(client_id, seq)`` — a retry whose
    reply was lost — gets the first answer back, and the second send
    changes neither the store, the meter nor the log."""

    def _twice(self, server, wal, batch):
        first = server.op_apply_batch(batch, 3, 2)
        server.store._wal.flush()
        store, size = sorted(server.store.items()), os.path.getsize(wal)
        meter = _meter(server)
        assert server.op_apply_batch(batch, 3, 2) == first
        assert _meter(server) == meter
        server.store._wal.flush()
        assert (sorted(server.store.items()), os.path.getsize(wal)) == (store, size)
        return first

    @pytest.mark.parametrize("kind", list(_FMS_ENTRIES))
    def test_fms_entry_twice(self, tmp_path, kind):
        wal = str(tmp_path / "f.wal")
        fms = FileMetadataServer(sid=1, wal_path=wal)
        fms.op_apply_batch((("create", 5, "a", 0o644, ROOT_CRED, 1.0, 4096),), 3, 1)
        first = self._twice(fms, wal, (_FMS_ENTRIES[kind],))
        assert "err" not in first[0]

    @pytest.mark.parametrize("kind", ["mkdir", "dsetattr"])
    def test_dms_entry_twice(self, tmp_path, kind):
        from repro.core.dms import DirectoryMetadataServer

        wal = str(tmp_path / "d.wal")
        dms = DirectoryMetadataServer(wal_path=wal)
        first_uuid, _ = dms.op_reserve_uuids(2)
        dms.op_apply_batch((("mkdir", "/d", 0o755, ROOT_CRED, 1.0, first_uuid),), 3, 1)
        entry = (("mkdir", "/e", 0o755, ROOT_CRED, 2.0, first_uuid + 1)
                 if kind == "mkdir" else
                 ("dsetattr", "/d", ROOT_CRED, 2.0, 0o700, None, None))
        first = self._twice(dms, wal, (entry,))
        assert "err" not in first[0]

    def test_entries_behind_an_in_doubt_batch_apply_once(self):
        """A client re-ships an in-doubt batch with what it queued since
        behind it, under the old seq: the cached head is answered, only
        the tail applies."""
        fms = FileMetadataServer(sid=1)
        head = _creates(["a", "b"])
        first = fms.op_apply_batch(head, 3, 1)
        tail = (("unlink", 5, "a", ROOT_CRED), *_creates(["c"]))
        out = fms.op_apply_batch(head + tail, 3, 1)
        assert out[:2] == first and out[2]["removed"] is not None and "uuid" in out[3]
        assert fms.op_apply_batch(head + tail, 3, 1) == out
        assert _dirent_names(fms) == ["b", "c"]
        assert fms.counters.get("batch.records") == 4

    def test_sessions_are_per_client(self):
        """Another client's batch under the same seq is no retry."""
        fms = FileMetadataServer(sid=1)
        fms.op_apply_batch(_creates(["a"]), 3, 1)
        assert fms.op_apply_batch(_creates(["a"]), 4, 1) == [{"err": "Exists", "arg": "a"}]

    def test_a_reopened_deployment_never_reuses_a_session(self, tmp_path):
        """A deployment reopened over its logs hands out client ids past
        every session they hold: the new first client's first batch is no
        retry of the old first client's."""
        for round_, name in enumerate(("a", "b")):
            fs = make_system("locofs-b", 1, data_dir=str(tmp_path / "fs"))
            c = fs.client()
            assert c.client_id == round_
            if name == "a":
                c.mkdir("/d")
            c.create(f"/d/{name}")
            c.flush()
            names = sorted(e.name for e in c.readdir("/d"))
            fs.close()
        assert names == ["a", "b"]

    @pytest.mark.parametrize("system", ["locofs-c", "locofs-b", "locofs-a",
                                        "locofs-c/partitions=2", "locofs-r"])
    def test_restart_rebuilds_the_handler_a_fresh_one_would(self, tmp_path, system):
        """Crash + restart of every WAL-backed FMS, DMS, directory shard and
        replica leaves the state a fresh handler rebuilt from the same log
        has (counters and meter aside), the reply cache included: a batch
        retried after the restart is answered from it (shards take no
        batches)."""
        fs = _worked(tmp_path, system)
        for h in (*fs.dms_servers.values(), *fs.fms):
            batch = None
            if isinstance(h, FileMetadataServer):
                batch = _creates(["x"], now_s=9.0)
            elif not isinstance(h, DirectoryShardServer):
                uuid, _ = h.op_reserve_uuids(1)
                batch = (("mkdir", "/x", 0o755, ROOT_CRED, 9.0, uuid),)
            if batch is not None:
                with GroupCommit(h.store):
                    want = h.op_apply_batch(batch, 99, 1)
            path = h.store._wal.path
            h.crash()
            assert h.restart() > 0
            fresh = _fresh(h, path)
            assert _handler_state(h) == _handler_state(fresh)
            if batch is not None:
                assert 99 in h._replies
                before = sorted(h.store.items())
                assert h.op_apply_batch(batch, 99, 1) == want
                assert sorted(h.store.items()) == before
            fresh.store.close()
        fs.close()

    def test_restart_rebuilds_the_lookup_cache_a_fresh_one_would(self, tmp_path):
        """The volatile lookup-cache node, crashed, restarted and resumed at
        an instant, is a fresh node of its capacity resumed at that instant."""
        fs = _worked(tmp_path, "locofs-a")
        cache = fs.lookup_cache
        cache.crash()
        assert cache.restart() == 0
        cache.resume(fs.engine.now)
        fresh = LookupCacheServer(cache.capacity)
        fresh.resume(fs.engine.now)
        assert _handler_state(cache) == _handler_state(fresh)
        fs.close()


def _worked(tmp_path, system: str):
    """A WAL-backed two-FMS deployment of ``system`` after a few creates, a
    chmod and an unlink, with a directory on each directory shard."""
    data_dir = str(tmp_path / "fs")
    if system == "locofs-c/partitions=2":
        fs = LocoFS(ClusterConfig(num_metadata_servers=2,
                                  directory=DirectoryConfig(partitions=2)),
                    cost=FAST_RECOVERY, data_dir=data_dir)
    else:
        fs = make_system(system, 2, cost=FAST_RECOVERY, data_dir=data_dir)
    c = fs.client()
    for d in ("/d", "/e", "/g"):
        c.mkdir(d)
    for n in range(6):
        c.create(f"/d/f{n}")
    c.chmod("/d/f0", 0o600)
    c.unlink("/d/f1")
    if hasattr(c, "flush"):
        c.flush()
    return fs


def _request(fs, server: str, method: str, *args):
    """One plain request through the deployment's engine."""
    def gen():
        return (yield Rpc(server, method, args))
    return fs.engine.run(gen())


def _named(c, path: str) -> tuple[bool, bool]:
    """Whether ``stat`` finds ``path`` and whether ``readdir`` of its
    parent lists it."""
    parent, name = pathutil.split(path)
    try:
        listed = name in {e.name for e in c.readdir(parent)}
    except NoEntry:
        listed = False
    try:
        c.stat(path)
    except NoEntry:
        return False, listed
    return True, listed


class TestTornRequest:
    """A crash that tears any number of bytes off a server's log, up to
    the whole of its last request's records, restarts the server as that
    request found it: the engines serve each request of a WAL-backed
    server in one group commit, which replays whole or not at all.  For
    the last plain request of every mutating kind, crash + restart at each
    tear equals a fresh handler over the log before the request (and with
    no tear, one over the log after it), ``stat`` and ``readdir`` agree on
    the names the request touched, and ``fsck`` is clean.  One request
    logging each KV write as its own commit left a create's access part
    without its content part and a mkdir's inode missing from ``/``."""

    @staticmethod
    def _tear_every_byte(fs, h, request, paths):
        """Run ``request()``, which must end in one mutating request to
        ``h``; then tear 0..all of that request's bytes off ``h``'s log,
        and close the deployment."""
        wal = h.store._wal
        log = Path(wal.path)
        wal.flush()
        pre, commits = log.read_bytes(), wal.commits
        request()
        assert wal.commits == commits + 1  # one request, one commit
        wal.flush()
        post = log.read_bytes()
        assert post[:len(pre)] == pre and len(post) > len(pre)

        def fresh_state(data):
            copy = log.with_name("fresh.wal")
            copy.write_bytes(data)
            f = _fresh(h, str(copy))
            state = _handler_state(f)
            f.store.close()
            return state

        before, after = fresh_state(pre), fresh_state(post)
        assert before != after
        for tear in range(len(post) - len(pre) + 1):
            log.write_bytes(post)
            h.crash(torn_tail_bytes=tear)
            h.restart()
            assert _handler_state(h) == (before if tear else after), tear
            c = fs.client()
            for path in paths:
                found, listed = _named(c, path)
                assert found == listed, (tear, path)
            if fs.dms is not None:
                assert fsck.check(fs).clean, tear
        fs.close()

    @staticmethod
    def _locofs_c(tmp_path):
        fs = make_system("locofs-c", 2, data_dir=str(tmp_path / "fs"))
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        c.mkdir("/b")
        return fs, c

    @pytest.mark.parametrize("kind", ["create", "setattr", "truncate", "remove"])
    def test_fms_request(self, tmp_path, kind):
        fs, c = self._locofs_c(tmp_path)
        request = {"create": partial(c.create, "/d/g"),
                   "setattr": partial(c.chmod, "/d/f", 0o600),
                   "truncate": partial(c.truncate, "/d/f", 4096),
                   "remove": partial(c.unlink, "/d/f")}[kind]
        name = "g" if kind == "create" else "f"
        fms = c.ring.lookup_file(dir_uuid(fs, c, "/d"), name)
        self._tear_every_byte(fs, fs.fms[fs.fms_names.index(fms)], request,
                              [f"/d/{name}"])

    @pytest.mark.parametrize("half", ["export_remove", "import"])
    def test_cross_fms_rename(self, tmp_path, half):
        """Each half of an f-rename across two FMSes, torn on its own
        server: the export as a rename's last request, the import as the
        request that completes it."""
        fs, c = self._locofs_c(tmp_path)
        uuid = dir_uuid(fs, c, "/d")
        dst = name_placed(c.ring, uuid, "f", same_fms=False, prefix="g")
        src_fms, dst_fms = (c.ring.lookup_file(uuid, n) for n in ("f", dst))
        if half == "export_remove":
            fms, request = src_fms, partial(_request, fs, src_fms, "export_remove",
                                            uuid, "f", ROOT_CRED)
        else:
            fms, request = dst_fms, partial(c.rename, "/d/f", f"/d/{dst}")
        self._tear_every_byte(fs, fs.fms[fs.fms_names.index(fms)], request,
                              ["/d/f", f"/d/{dst}"])

    @pytest.mark.parametrize("kind", ["mkdir", "rmdir", "setattr", "rename"])
    def test_dms_request(self, tmp_path, kind):
        fs, c = self._locofs_c(tmp_path)
        request = {"mkdir": partial(c.mkdir, "/b/x"),
                   "rmdir": partial(c.rmdir, "/b"),
                   "setattr": partial(c.chmod, "/b", 0o700),
                   "rename": partial(c.rename, "/b", "/e")}[kind]
        self._tear_every_byte(fs, fs.dms, request, ["/b", "/b/x", "/e"])

    def test_replica_vote(self, tmp_path):
        """A LocoFS-R replica's ``rlog_vote`` logs ``R:vote`` then
        ``R:term``: a torn vote loses both, never the vote alone."""
        fs = make_system("locofs-r", 2, data_dir=str(tmp_path / "fs"))
        c = fs.client()
        c.mkdir("/b")
        h = fs.dms_servers["rdms0.1"]
        request = partial(_request, fs, "rdms0.1", "rlog_vote", h.term + 1,
                          "rdms0.2", h.last_term, h.last_index)
        self._tear_every_byte(fs, h, request, ["/b"])


def test_dropped_replies_leave_no_error_for_applied_unlinks():
    """``locofs-a``, 2 FMS: four files flushed, then every reply dropped
    with probability 0.5 while four deferred unlinks flush.  A retried
    batch is answered from the reply cache, so for every seed the unlinks
    report nothing: the flush raised ``NoEntry`` on 22 of these 40 seeds
    when a retry re-ran the unlinks."""
    for seed in range(40):
        fs = make_system("locofs-a", 2)
        c = fs.client()
        c.mkdir("/d")
        for n in range(4):
            c.create(f"/d/f{n}")
        c.flush()
        fs.engine.attach_faults(FaultSchedule(seed=seed, drop_prob=0.5))
        for n in range(4):
            c.unlink(f"/d/f{n}")
        errs = list(c.deferred_errors)
        try:
            c.flush()
        except FSError as e:
            errs.append(e)
        assert not [e for e in errs if isinstance(e, (NoEntry, Exists))], (seed, errs)
        if not errs:
            assert fs.total_files() == 0 and c.pending_ops == 0


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
        assert fs.fms[0].counters.get("files.created") == 3
        fs.close()

    @pytest.mark.parametrize("engine_kind", ["direct", "event"])
    @pytest.mark.parametrize("op", ["chmod", "rename", "unlink"])
    def test_ops_after_an_in_doubt_flush_queue_behind_it(self, engine_kind, op):
        """Every reply of a flush lost: the batch applied, the client saw
        ``ServerDown``, so its queue is in doubt.  A later op on the
        queued create appends an entry behind it instead of rewriting or
        cancelling it, and the re-ship under the old seq is answered
        from the reply cache.  Folding the chmod into the create made
        the re-ship a conflicting create (``Exists``, mode lost); moving
        the create to the rename's destination left both names."""
        # an age bound the retries do not outlast: the op finds the queue
        fs = LocoFS(ClusterConfig(num_metadata_servers=2,
                                  batch=BatchConfig(enabled=True, all_ops=True,
                                                    max_age_us=1e7)),
                    cost=FAST_RECOVERY, engine_kind=engine_kind)
        c = fs.client()
        c.mkdir("/d")
        c.flush()
        c.create("/d/x")
        fs.engine.attach_faults(FaultSchedule(drop_prob=1.0))
        with pytest.raises(ServerDown):
            c.flush()
        assert c.flush_requeues == 1 and fs.total_files() == 1  # it applied
        fs.engine.attach_faults(FaultSchedule())
        assert c.pending_ops == 1
        if op == "chmod":
            c.chmod("/d/x", 0o600)
        elif op == "rename":
            c.rename("/d/x", "/d/y")
        else:
            c.unlink("/d/x")
        c.flush()
        assert c.deferred_errors == [] and c.pending_ops == 0
        names = sorted(e.name for e in c.readdir("/d"))
        assert names == {"chmod": ["x"], "rename": ["y"], "unlink": []}[op]
        if op == "chmod":
            assert c.stat("/d/x").st_mode & 0o7777 == 0o600
        assert fsck.check(fs).clean

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
        from repro.harness import availability
        from repro.harness.runner import NO_SINKS, build

        # the shared build step, through the name run_availability uses
        got = build(NO_SINKS, availability.make_system, name, 2,
                    cost=CostModel(), engine_kind="event",
                    data_dir=str(tmp_path / "wal"))
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


# -- one deployment, two drivers ----------------------------------------------------


#: the four fault axes of the two-driver test, as factories of the crashed
#: server's name (a schedule is consumed by its run); the crash lands
#: mid-mix and the restart inside ``RetryPolicy(max_retries=3)``'s budget
_DRIVER_SCHEDULES = {
    "no-faults": None,
    "empty-schedule": lambda server: FaultSchedule(),
    "drop+delay": lambda server: FaultSchedule(seed=3, drop_prob=0.3,
                                               delay_prob=0.3),
    "delay+crash-restart": lambda server: FaultSchedule(
        seed=3, delay_prob=0.3).crash_restart(server, 2000.0, 4000.0),
}

#: what one set of fault rules does not make identical, with the measured
#: final (direct, event) clocks in us.  A Quorum resumes at its k-th vote;
#: Direct drains the late votes before its next command, Event lets them
#: interleave with it, so they reserve the client downlink, draw the RNG
#: and find a restarted server at other instants
_LATE_VOTES = "Direct drains a Quorum's late votes before its next command"
_LATE_VOTES_DIVERGE = {
    "locofs-r-drop+delay":
        f"{_LATE_VOTES}: the second mkdir resumes 17492.21 vs 17081.81 us "
        "(final 188195.14 vs 187651.82 us, 269 rpcs each)",
}


def _fan_out_mix():
    """Ops that reach every fan-out: quorum'd mkdirs (LocoFS-R), a
    striped 20 KB write, a cross-FMS rename (``f4`` and ``g4`` hash to
    different FMS on every LocoFS row), readdir / rmdir over every FMS."""
    ops = [("mkdir", "/d"), ("mkdir", "/d/e"), ("mkdir", "/d/e/f")]
    ops += [("create", f"/d/f{i}") for i in range(12)]
    ops += [("write", "/d/f0", 0, b"x" * 20480)]
    ops += [("unlink", f"/d/f{i}") for i in (1, 2, 3)]
    ops += [("rename", "/d/f4", "/d/g4")]
    ops += [("rmdir", "/d/e/f"), ("rmdir", "/d/e")]
    ops += [("readdir", "/d"), ("stat", "/d/f5"), ("stat", "/d/g4")]
    return ops


def _two_driver_matrix():
    for name in ("locofs-c", "locofs-nc", "locofs-b", "locofs-a", "locofs-r",
                 "indexfs"):
        for faults in _DRIVER_SCHEDULES:
            why = _LATE_VOTES_DIVERGE.get(f"{name}-{faults}")
            yield pytest.param(
                name, faults, id=f"{name}-{faults}",
                marks=[pytest.mark.xfail(strict=True, reason=why)] if why else [])


class TestOneDeploymentTwoDrivers:
    """The DirectEngine hands every faulted command to the event driver,
    so one generator over one deployment must see the same clock doubles,
    error classes, results and ``rpcs_issued`` on both engines, under any
    schedule.  A cell that cannot hold ``==`` is a strict xfail carrying
    the measured pair, never a tolerance."""

    @staticmethod
    def _run(name, kind, faults, tmp_path):
        fs = make_system(name, 4, cost=FAST_RECOVERY, engine_kind=kind,
                         data_dir=str(tmp_path / kind))
        engine = fs.engine
        schedule = _DRIVER_SCHEDULES[faults]
        if schedule is not None:
            engine.attach_faults(schedule("mds1" if name == "indexfs" else "fms1"),
                                 RetryPolicy(max_retries=3))
        client = fs.client()

        def ops():
            probes = []
            for op, *args in _fan_out_mix():
                result = error = None
                try:
                    result = yield from client.op_raw(op, *args)
                except FSError as e:
                    error = type(e).__name__
                probes.append((op, engine.now, error, repr(result)))
            if hasattr(client, "_g_flush"):  # write-behind: drain the queues
                error = None
                try:
                    yield from client._g_flush()
                except FSError as e:
                    error = type(e).__name__
                probes.append(("flush", engine.now, error))
            return probes

        probes = engine.run(ops())
        state = engine._client if kind == "direct" else engine._default_client
        # fsck walks a single DMS: every row but LocoFS-R and IndexFS
        if getattr(fs, "dms", None) is not None:
            report = fsck.check(fs)
            assert report.clean, report.errors
        fs.close()
        return probes, state.rpcs_issued

    @pytest.mark.parametrize("name,faults", _two_driver_matrix())
    def test_same_clock_errors_and_rpcs(self, name, faults, tmp_path):
        direct = self._run(name, "direct", faults, tmp_path)
        event = self._run(name, "event", faults, tmp_path)
        assert direct == event
