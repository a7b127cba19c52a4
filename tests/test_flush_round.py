"""The write-behind flush round: every due queue ships in one fan-out.

A stale sweep, a drain or a directory barrier that finds k queues due
pays one round trip, not k; the DMS queue rides the same round unless an
FMS queue in it depends on a pending mkdir; a failed branch re-queues its
own queue only; and the round's errors surface once every queue settled.
The fan-out is ``Parallel(..., settle=True)``, whose contract is pinned on
both drivers here too.
"""

import pytest

from repro.common.config import BatchConfig, ClusterConfig
from repro.common.errors import Exists, NoEntry, ServerDown
from repro.core import fsck
from repro.core.fs import LocoFS
from repro.sim.costmodel import CostModel
from repro.sim.faults import FaultSchedule
from repro.sim.rpc import Batch, LocalCharge, Parallel, Rpc

from ring_names import dir_uuid, names_by_fms

FAST_RECOVERY = CostModel(restart_fixed_us=500.0, wal_replay_bpus=4000.0)


def _fs(all_ops=False, num_servers=4, **kw):
    return LocoFS(ClusterConfig(num_metadata_servers=num_servers,
                                batch=BatchConfig(enabled=True, all_ops=all_ops)),
                  **kw)


def _charge(us):
    yield LocalCharge(us)


def _names_by_server(fs, client, parent):
    """One file name per FMS under ``parent``: ``{server: name}``."""
    by_fms = names_by_fms(client.ring, dir_uuid(fs, client, parent))
    return {server: names[0] for server, names in by_fms.items()}


def _spy_rounds(client):
    """Record every flush round as ``(servers, reason)``, nested ones too."""
    rounds = []
    inner = client._g_flush_server

    def spy(servers, reason):
        rounds.append((tuple(servers), reason))
        return inner(servers, reason)

    client._g_flush_server = spy
    return rounds


def _sweep(fs, client):
    """Age every queue past the bound, then run one stale sweep: returns
    the sweep's virtual time."""
    fs.engine.run(_charge(client.batch_max_age_us))
    t0 = fs.engine.now
    fs.engine.run(client._g_flush_stale())
    return fs.engine.now - t0


class TestOneRoundTrip:
    def _due(self, nq):
        fs = _fs()
        c = fs.client()
        c.mkdir("/d")
        names = _names_by_server(fs, c, "/d")
        for server in sorted(names)[:nq]:
            c.create(f"/d/{names[server]}")
        rounds = _spy_rounds(c)
        return fs, c, _sweep(fs, c), rounds

    def test_three_due_queues_cost_one_round_trip(self):
        """Shipped one batch after another the sweep took 748.4380512820521
        µs, three times the lone queue's 249.4793504273507.  In one round
        it takes one RTT plus the slowest branch — less than the lone
        queue, whose batch also pays a connection switch that fan-out
        branches do not."""
        fs, c, three, rounds = self._due(3)
        assert rounds == [(("fms0", "fms1", "fms2"), "age")]
        assert three == 190.3340512820514
        assert c.pending_ops == 0 and c.flush_causes["age"] == 3
        assert fs.total_files() == 3
        _, _, one, _ = self._due(1)
        assert one == 249.4793504273507


class TestOrderingRule:
    def _sweep_after_mkdir(self, dependent):
        fs = _fs(all_ops=True)
        c = fs.client()
        c.mkdir("/d")
        c.flush()
        rounds = _spy_rounds(c)
        c.mkdir("/d/sub")  # deferred: the DMS queue
        parent = "/d/sub" if dependent else "/d"
        # two creates on each of three FMSes: three FMS queues beside the
        # DMS queue, filled in FMS order
        by_fms = names_by_fms(c.ring, dir_uuid(fs, c, parent), per_fms=2)
        paths = [f"{parent}/{name}" for server in ("fms0", "fms1", "fms2")
                 for name in by_fms[server]]
        for path in paths:
            c.create(path)
        assert list(c._pending) == ["dms", "fms0", "fms1", "fms2"]
        took = _sweep(fs, c)
        assert c.pending_ops == 0
        other = fs.client()
        assert all(other.stat_file(path) is not None for path in paths)
        assert fsck.check(fs).clean
        return rounds, took

    def test_creates_under_a_pending_mkdir_ship_after_it(self):
        """The FMS queues depend on the DMS queue's mkdir: the DMS queue
        ships first, alone, then the FMS queues in one round — two round
        trips.  With f0..f5, wherever the ring put them, this took
        389.1393162393165 µs, and one batch per queue 948.0980170940179."""
        rounds, took = self._sweep_after_mkdir(dependent=True)
        assert rounds == [(("dms", "fms0", "fms1", "fms2"), "age"), (("dms",), "age")]
        assert took == 386.77111111111117

    def test_an_independent_dms_queue_rides_the_round(self):
        rounds, took = self._sweep_after_mkdir(dependent=False)
        assert rounds == [(("dms", "fms0", "fms1", "fms2"), "age")]
        assert took == 193.8151111111115  # 194.99066666666658 with f0..f5


def _fan_out(kind, settle):
    """One fan-out over a lookup hit, a lookup miss and a batch on a fresh
    deployment: ``(what it resumed with, its virtual time)``."""
    fs = LocoFS(ClusterConfig(num_metadata_servers=2), engine_kind=kind)
    c = fs.client()
    c.mkdir("/d")
    c.create("/d/f")
    uuid = fs.engine.run(c._g_dir("/d"))["uuid"]
    fms = c._fms_for(uuid, "f")
    cmd = Parallel([Rpc("dms", "lookup", ("/d", c.cred)),
                    Rpc("dms", "lookup", ("/missing", c.cred)),
                    Batch(fms, [Rpc(fms, "getattr", (uuid, "f"))])], settle=settle)

    def gen():
        try:
            got = yield cmd
        except NoEntry as err:
            got = type(err).__name__
        return got

    t0 = fs.engine.now
    got = fs.engine.run(gen())
    took = fs.engine.now - t0
    fs.close()
    if settle:
        got = [(value, type(err).__name__ if err is not None else None)
               for value, err in got]
    return got, took


class TestSettle:
    def test_same_pairs_and_clock_on_both_drivers(self):
        direct = _fan_out("direct", settle=True)
        assert direct == _fan_out("event", settle=True)
        pairs, _ = direct
        assert [err for _, err in pairs] == [None, "NoEntry", None]
        assert pairs[0][0]["path"] == "/d" and pairs[1][0] is None
        assert len(pairs[2][0]) == 1  # the batch's result list: one getattr

    @pytest.mark.parametrize("kind", ["direct", "event"])
    def test_timing_is_a_plain_parallels(self, kind):
        """Settling changes what the client resumes with, never when: the
        plain fan-out raises the miss after the same virtual time."""
        _, settled = _fan_out(kind, settle=True)
        raised, plain = _fan_out(kind, settle=False)
        assert raised == "NoEntry"
        assert settled == plain


class TestRoundUnderFaults:
    def test_a_crashed_branch_requeues_only_its_queue(self, tmp_path):
        fs = _fs(num_servers=2, cost=FAST_RECOVERY, data_dir=str(tmp_path / "fs"))
        c = fs.client()
        c.mkdir("/d")
        by_server = {server: [f"/d/{name}" for name in names] for server, names
                     in names_by_fms(c.ring, dir_uuid(fs, c, "/d"), per_fms=3).items()}
        acked = by_server["fms0"] + by_server["fms1"]
        fs.engine.attach_faults(
            FaultSchedule().crash_restart("fms0", fs.engine.now + 1.0, 60_000.0))
        for path in acked:
            c.create(path)  # acked into the two write-behind queues
        with pytest.raises(ServerDown):
            c.flush()
        assert c.flush_requeues == 1
        assert set(c._pending) == {"fms0"} and c.pending_ops == 3
        # fms1's branch of the round landed: durable while fms0 is down
        other = fs.client()
        assert all(other.stat_file(p) is not None for p in by_server["fms1"])
        deadline = fs.engine.now + 120_000.0
        while c.pending_ops:
            try:
                c.flush()
            except ServerDown:
                assert fs.engine.now < deadline, "flush never recovered"
        assert all(other.stat_file(p) is not None for p in acked)
        # fms1's acknowledged batch was not replayed
        assert fs.fms[1].counters.get("batch.records") == 3
        assert fsck.check(fs).clean
        fs.close()


class TestRoundErrors:
    def test_first_error_raised_the_rest_kept(self):
        """Two queues' deferred duplicates in one stale sweep: both queues
        settle, the first queue's error is raised and the second's kept."""
        fs = _fs()
        seeder = fs.client()
        seeder.mkdir("/d")
        names = _names_by_server(fs, seeder, "/d")
        first, second = (f"/d/{names[s]}" for s in ("fms0", "fms1"))
        seeder.create(first)
        seeder.create(second)
        seeder.flush()
        c = fs.client()
        c.create(first)  # both will conflict at the round's end
        c.create(second)
        with pytest.raises(Exists) as raised:
            _sweep(fs, c)
        assert raised.value.path == first
        assert c.pending_ops == 0 and c.flush_causes["age"] == 2
        assert [(type(e), e.path) for e in c.deferred_errors] == [(Exists, second)]
