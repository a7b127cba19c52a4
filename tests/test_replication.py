"""Replication: data blocks (object tier) and the replicated DMS.

The data-block half is an extension (the paper evaluates without
replicas); the directory-metadata half covers the LocoFS-R quorum-
replicated log of :mod:`repro.core.repldms` — the ``Quorum`` engine
command, replica convergence, session dedup, leader failover under
crashes (torn WAL tails included), and the drained-namespace
differential against a fault-free run.
"""

import pytest

from repro.common.config import CacheConfig, ClusterConfig, DirectoryConfig
from repro.common.errors import Exists, NoEntry, NotLeader, QuorumFailed
from repro.common.types import ROOT_CRED
from repro.core.fs import LocoFS
from repro.core.fsck import check
from repro.core.objectstore import BlockPlacement
from repro.metadata.chash import ConsistentHashRing
from repro.sim import Cluster, CostModel, DirectEngine, EventEngine
from repro.sim.faults import FaultSchedule
from repro.sim.replication import ReplicaSet, choose_candidate, election_timeout_us
from repro.sim.rpc import Quorum, Rpc, Sleep


class TestRingLookupN:
    def test_returns_distinct_nodes(self):
        ring = ConsistentHashRing()
        for n in ["a", "b", "c", "d"]:
            ring.add_node(n)
        got = ring.lookup_n(b"key", 3)
        assert len(got) == 3
        assert len(set(got)) == 3

    def test_primary_is_lookup(self):
        ring = ConsistentHashRing()
        for n in ["a", "b", "c"]:
            ring.add_node(n)
        for i in range(50):
            key = f"k{i}".encode()
            assert ring.lookup_n(key, 2)[0] == ring.lookup(key)

    def test_n_clamped_to_node_count(self):
        ring = ConsistentHashRing()
        ring.add_node("only")
        assert ring.lookup_n(b"k", 5) == ["only"]

    def test_deterministic(self):
        r1, r2 = ConsistentHashRing(), ConsistentHashRing()
        for n in ["x", "y", "z"]:
            r1.add_node(n)
            r2.add_node(n)
        assert r1.lookup_n(b"q", 2) == r2.lookup_n(b"q", 2)


class TestBlockPlacement:
    def test_replica_count_clamped(self):
        p = BlockPlacement(["o0", "o1"], replicas=5)
        assert p.replicas == 2

    def test_invalid_replicas_rejected(self):
        with pytest.raises(ValueError):
            BlockPlacement(["o0"], replicas=0)

    def test_replica_sets_distinct(self):
        p = BlockPlacement([f"o{i}" for i in range(5)], replicas=3)
        reps = p.replicas_for(42, 0)
        assert len(set(reps)) == 3
        assert reps[0] == p.locate(42, 0)


class TestReplicatedFS:
    def make(self, replicas):
        return LocoFS(ClusterConfig(num_metadata_servers=2, num_object_servers=4,
                                    data_replicas=replicas))

    def test_writes_create_r_copies(self):
        fs = self.make(3)
        c = fs.client()
        c.create("/f")
        c.write("/f", 0, b"x" * 10000)  # 3 blocks
        total_blocks = sum(s.num_blocks() for s in fs.object_servers)
        assert total_blocks == 3 * 3

    def test_single_replica_unchanged(self):
        fs = self.make(1)
        c = fs.client()
        c.create("/f")
        c.write("/f", 0, b"x" * 10000)
        assert sum(s.num_blocks() for s in fs.object_servers) == 3

    def test_read_roundtrip_with_replication(self):
        fs = self.make(2)
        c = fs.client()
        c.create("/f")
        data = bytes(range(256)) * 40
        c.write("/f", 0, data)
        assert c.read("/f", 0, len(data)) == data

    def test_degraded_read_survives_primary_loss(self):
        fs = self.make(2)
        c = fs.client()
        c.create("/f")
        c.write("/f", 0, b"important" * 500)
        uuid = c.stat_file("/f").st_uuid
        # destroy the primary copy of every block
        for blk in range(2):
            primary = fs.placement.locate(uuid, blk)
            server = fs.object_servers[fs.placement.names.index(primary)]
            from repro.core.objectstore import block_key

            server.store.delete(block_key(uuid, blk))
        assert c.read("/f", 0, 9 * 500) == b"important" * 500

    def test_unreplicated_loss_really_loses_data(self):
        fs = self.make(1)
        c = fs.client()
        c.create("/f")
        c.write("/f", 0, b"gone" * 100)
        uuid = c.stat_file("/f").st_uuid
        from repro.core.objectstore import block_key

        primary = fs.placement.locate(uuid, 0)
        server = fs.object_servers[fs.placement.names.index(primary)]
        server.store.delete(block_key(uuid, 0))
        assert c.read("/f", 0, 400) != b"gone" * 100

    def test_unlink_removes_all_replicas(self):
        fs = self.make(3)
        c = fs.client()
        c.create("/f")
        c.write("/f", 0, b"z" * 8000)
        c.unlink("/f")
        assert sum(s.num_blocks() for s in fs.object_servers) == 0

    def test_fsck_clean_with_replicas(self):
        fs = self.make(2)
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        c.write("/d/f", 0, b"q" * 5000)
        report = check(fs)
        assert report.clean, report.errors

    def test_replicated_write_latency_overhead(self):
        # replicas fan out in parallel but share the client uplink, so the
        # cost at small sizes is modest and grows with payload
        def write_latency(replicas, size):
            fs = self.make(replicas)
            c = fs.client()
            c.create("/f")
            t0 = fs.engine.now
            c.write("/f", 0, b"x" * size)
            return fs.engine.now - t0

        small_1, small_3 = write_latency(1, 512), write_latency(3, 512)
        big_1, big_3 = write_latency(1, 1 << 20), write_latency(3, 1 << 20)
        assert small_3 < 1.6 * small_1  # latency-bound: cheap
        assert big_3 > 2.0 * big_1  # bandwidth-bound: ~3x the bytes on the wire


# -- the Quorum engine command ------------------------------------------------------


class _VoteHandler:
    """Toy quorum participant: op_charge succeeds after a metered delay,
    op_deny fails fast (an application-level 'no' vote)."""

    def __init__(self):
        self.meter = None
        self.calls = 0

    def attach_meter(self, meter):
        self.meter = meter

    def op_charge(self, us):
        self.meter.charge_us(us)
        self.calls += 1
        return us

    def op_deny(self, us):
        self.meter.charge_us(us)
        raise NoEntry("deny")


def _quorum_cluster(n=3):
    cost = CostModel(rtt_us=100.0, server_overhead_us=0.0)
    cluster = Cluster(cost)
    handlers = [_VoteHandler() for _ in range(n)]
    for i, h in enumerate(handlers):
        cluster.add(f"s{i}", h)
    return cluster, cost, handlers


@pytest.fixture(params=["direct", "event"])
def quorum_engine(request):
    def make(n=3):
        cluster, cost, handlers = _quorum_cluster(n)
        eng = (DirectEngine(cluster, cost) if request.param == "direct"
               else EventEngine(cluster, cost))
        return eng, cost, handlers

    return make


class TestQuorumCommand:
    """Engine semantics of ``yield Quorum(...)`` — both engines."""

    def test_resumes_at_kth_success(self, quorum_engine):
        eng, _, handlers = quorum_engine()

        def g():
            results = yield Quorum(
                [Rpc(f"s{i}", "charge", (us,))
                 for i, us in enumerate((100.0, 300.0, 500.0))], 2)
            # the clock *at resume* is the 2nd success (rtt + 300us
            # service), not the slowest branch — sample it inside the
            # generator; the event engine still drains late branches
            # afterwards, so the post-run clock is not the right probe
            return eng.now, results

        resume_t, results = eng.run(g())
        assert resume_t == pytest.approx(400.0)
        # the slower branch is still in flight at resume: reported None
        assert results == [100.0, 300.0, None]
        # ... but it did execute on its server
        assert handlers[2].calls == 1

    def test_down_server_does_not_stall_quorum(self, quorum_engine):
        eng, cost, _ = quorum_engine()
        eng.attach_faults(FaultSchedule().crash("s2", 0.5))

        def g():
            results = yield Quorum(
                [Rpc(f"s{i}", "charge", (100.0,)) for i in range(3)], 2)
            return eng.now, results

        resume_t, results = eng.run(g())
        # two live votes suffice; the client does NOT wait out the dead
        # branch's timeout before resuming
        assert resume_t == pytest.approx(200.0)
        assert resume_t < cost.timeout_us
        assert results[0] == 100.0 and results[1] == 100.0
        assert results[2] is None

    def test_unreachable_quorum_raises_at_deciding_failure(self, quorum_engine):
        eng, _, _ = quorum_engine()

        def g():
            try:
                yield Quorum([Rpc(f"s{i}", "deny", (50.0,)) for i in range(3)],
                             2)
            except QuorumFailed:
                return eng.now
            return None

        decided_at = eng.run(g())
        # with k=2 of n=3, the (n-k+1) = 2nd failure decides; a fast
        # application-level 'no' (rtt + 50us service) is not a timeout
        assert decided_at == pytest.approx(150.0)

    def test_single_branch_reraises_own_error(self, quorum_engine):
        # n == 1: the branch's own error is more useful than QuorumFailed
        # (the replicated client steers on NotLeader's hint)
        eng, _, _ = quorum_engine()

        def g():
            yield Quorum([Rpc("s0", "deny", (50.0,))], 1)

        with pytest.raises(NoEntry):
            eng.run(g())

    def test_engine_timing_identical_across_engines(self):
        def run(kind):
            cluster, cost, _ = _quorum_cluster()
            eng = (DirectEngine(cluster, cost) if kind == "direct"
                   else EventEngine(cluster, cost))

            def g():
                yield Quorum([Rpc(f"s{i}", "charge", (us,))
                              for i, us in enumerate((150.0, 250.0, 900.0))], 2)
                return eng.now

            return eng.run(g())

        assert run("direct") == run("event")


# -- replication-plane policy helpers -----------------------------------------------


class TestReplicationPolicy:
    def test_majority_arithmetic(self):
        assert ReplicaSet("p", ["a"]).majority == 1
        assert ReplicaSet("p", ["a", "b", "c"]).majority == 2
        assert ReplicaSet("p", ["a", "b", "c", "d", "e"]).majority == 3
        assert ReplicaSet("p", ["a", "b", "c"]).followers("b") == ["a", "c"]
        with pytest.raises(ValueError):
            ReplicaSet("p", [])

    def test_election_timeout_deterministic_and_decorrelated(self):
        a = election_timeout_us(0, actor=1, attempt=0)
        assert a == election_timeout_us(0, actor=1, attempt=0)
        assert a != election_timeout_us(0, actor=2, attempt=0)
        assert a != election_timeout_us(1, actor=1, attempt=0)
        # repeated attempts widen the window (linearly growing spread)
        from repro.sim.replication import ELECTION_BASE_US, ELECTION_SPREAD_US

        for attempt in range(5):
            t = election_timeout_us(0, actor=1, attempt=attempt)
            assert ELECTION_BASE_US <= t <= (
                ELECTION_BASE_US + ELECTION_SPREAD_US * (attempt + 1))

    def test_choose_candidate_freshest_log_wins(self):
        names = ["r0", "r1", "r2"]
        s = [{"last_term": 2, "last_index": 5},
             {"last_term": 3, "last_index": 1},
             {"last_term": 2, "last_index": 9}]
        assert choose_candidate(s, names) == "r1"  # term beats index
        s[1] = None  # unreachable: skipped
        assert choose_candidate(s, names) == "r2"
        assert choose_candidate([None, None, None], names) is None

    def test_choose_candidate_ties_break_on_order(self):
        names = ["r0", "r1"]
        s = [{"last_term": 1, "last_index": 4},
             {"last_term": 1, "last_index": 4}]
        assert choose_candidate(s, names) == "r0"


# -- the replicated, partitioned DMS (LocoFS-R) -------------------------------------


def _rfs(tmp_path=None, subdir="rfs", partitions=2, replication=3):
    """The ``locofs-r`` shape (cache off) over 2 FMS + 2 object servers."""
    return LocoFS(
        ClusterConfig(num_metadata_servers=2, num_object_servers=2,
                      cache=CacheConfig(enabled=False),
                      directory=DirectoryConfig(partitions=partitions,
                                                replication=replication)),
        data_dir=None if tmp_path is None else str(tmp_path / subdir))


class TestReplicatedDMS:
    def test_mutations_converge_on_every_replica(self):
        fs = _rfs()
        c = fs.client()
        c.mkdir("/a")
        c.mkdir("/a/b")
        c.create("/a/f")
        c.chmod("/a", 0o700)
        c.mkdir("/a/b/c")
        c.rmdir("/a/b/c")
        for part, names in fs.partitions.items():
            reps = [fs.dms_servers[n] for n in names]
            assert len({r.last_index for r in reps}) == 1, part
            assert len({r.last_term for r in reps}) == 1, part
            assert len({r.num_directories() for r in reps}) == 1, part
        assert c.stat_dir("/a").st_mode & 0o7777 == 0o700
        fs.close()

    def test_follower_refuses_proposals_and_reads(self):
        fs = _rfs()
        follower = fs.partitions["rdms0"][1]

        def propose():
            yield Rpc(follower, "rlog_propose",
                      ("shard_setattr", ("/", ROOT_CRED, 0.0, 0o700, None, None),
                       99, 1))

        def read():
            yield Rpc(follower, "rread", ("shard_lookup", ("/",)))

        with pytest.raises(NotLeader):
            fs.engine.run(propose())
        with pytest.raises(NotLeader):
            fs.engine.run(read())
        fs.close()

    def test_session_dedup_replays_cached_answer(self):
        # a retried propose (same client, same seq) must not append a
        # second log entry — it re-hands the client the sealed bytes
        fs = _rfs()
        leader = fs.partitions["rdms0"][0]

        def propose():
            return (yield Rpc(leader, "rlog_propose",
                              ("shard_setattr",
                               ("/", ROOT_CRED, 0.0, 0o750, None, None), 7, 1)))

        r1 = fs.engine.run(propose())
        idx = fs.dms_servers[leader].last_index
        r2 = fs.engine.run(propose())
        assert r2["index"] == r1["index"]
        assert r2["entry"] == r1["entry"]
        assert fs.dms_servers[leader].last_index == idx
        fs.close()

    def test_deterministic_failures_are_not_logged(self):
        fs = _rfs()
        c = fs.client()
        c.mkdir("/dup")
        before = sum(r.last_index for r in fs.dms_servers.values())
        with pytest.raises(Exists):
            c.mkdir("/dup")
        assert sum(r.last_index for r in fs.dms_servers.values()) == before
        fs.close()


class TestRootlessShardRestart:
    """A shard that does not own ``/`` must come back from its WAL like
    one that does: mirror rebuilt, uuid allocator past its durable ceiling."""

    @pytest.mark.parametrize("shape", [
        pytest.param({"partitions": 2, "replication": 3}, id="replicated-2x3"),
        pytest.param({"partitions": 3, "replication": 1}, id="partitioned-3"),
    ])
    def test_reopen_from_data_dir_keeps_every_partition(self, tmp_path, shape):
        fs = _rfs(tmp_path, **shape)
        c = fs.client()
        for i in range(8):
            c.mkdir(f"/d{i}")
        assert len({s.num_directories() > 0
                    for s in fs.dms_servers.values()}) == 1, "every shard is used"
        uuids = {c.stat_dir(f"/d{i}").st_uuid for i in range(8)}
        total = fs.total_directories()
        assert total == 9  # root + 8
        fs.close()

        fs = _rfs(tmp_path, **shape)
        c = fs.client()
        assert sorted(e.name for e in c.readdir("/")) == [f"d{i}" for i in range(8)]
        assert fs.total_directories() == total
        for i in range(8, 12):
            c.mkdir(f"/d{i}")
            uuids.add(c.stat_dir(f"/d{i}").st_uuid)
        assert len(uuids) == 12  # no recovered uuid is handed out again
        fs.close()

    def test_restarted_replica_of_partition_1_rebuilds_its_mirror(self, tmp_path):
        fs = _rfs(tmp_path)
        c = fs.client()
        for i in range(8):
            c.mkdir(f"/d{i}")
        leader = fs.partition_leader("rdms1")
        assert leader.num_directories() > 0
        follower = fs.dms_servers["rdms1.1"]
        follower.crash()
        follower.restart()
        assert follower.num_directories() == leader.num_directories()
        fs.close()


    @pytest.mark.parametrize("partition", ["rdms0", "rdms1"])
    def test_divergent_log_is_wiped_and_reinstalled(self, tmp_path, partition):
        # the failover repair's last resort: a replica whose log is not a
        # prefix of the leader's drops everything — root included, on the
        # partition that owns it — and re-executes the leader's log
        import pickle

        fs = _rfs(tmp_path)
        c = fs.client()
        for i in range(8):
            c.mkdir(f"/d{i}")
        leader = fs.partition_leader(partition)
        follower = fs.dms_servers[fs.partitions[partition][2]]
        # an entry the leader never sealed (a deposed leader's unacked tail)
        follower._apply_entry(follower.last_index + 1, pickle.dumps(
            (leader.term, "shard_mkdir_at",
             ("/ghost", 0o755, ROOT_CRED, 0.0, 1, 12345), 99, 1), 4))
        assert follower.num_directories() == leader.num_directories() + 1
        follower.op_rlog_install(leader.term, leader.my_name, leader.op_rlog_read(1))

        def namespace(server):
            return sorted(k for k, _ in server.store.items() if k[:2] in (b"I:", b"E:"))

        assert namespace(follower) == namespace(leader)
        assert follower.num_directories() == leader.num_directories()
        assert (follower.last_index, follower.last_term) == (
            leader.last_index, leader.last_term)
        # the truncated WAL holds exactly the reinstalled state
        follower.crash()
        follower.restart()
        assert namespace(follower) == namespace(leader)
        assert follower.num_directories() == leader.num_directories()
        fs.close()


class TestLeaderFailover:
    """Crash partition 0's initial leader mid-run: a quorum survives,
    a deterministic election installs a replacement, no acked op is lost."""

    def _crash_leader(self, fs, torn_tail_bytes=0):
        t = fs.engine.now
        fs.engine.attach_faults(
            FaultSchedule().crash("rdms0.0", t + 1.0,
                                  torn_tail_bytes=torn_tail_bytes))

    def test_election_installs_new_leader_and_work_continues(self, tmp_path):
        fs = _rfs(tmp_path)
        c = fs.client()
        for i in range(6):
            c.mkdir(f"/d{i}")
        self._crash_leader(fs)
        for i in range(6, 12):
            c.mkdir(f"/d{i}")
        assert {f"d{i}" for i in range(12)} <= {e.name for e in c.readdir("/")}
        leader = fs.partition_leader("rdms0")
        assert leader.role == "leader"
        assert leader.my_name != "rdms0.0"
        assert leader.term > 1  # the election bumped the term
        fs.close()

    def test_leader_kill_mid_commit_torn_tail(self, tmp_path):
        # tear bytes off the victim's WAL (crash mid-group-commit): the
        # torn tail only loses *local* state — every acked op already
        # lives on a quorum, so the survivors' namespace is intact
        fs = _rfs(tmp_path)
        c = fs.client()
        for i in range(8):
            c.mkdir(f"/t{i}")
        self._crash_leader(fs, torn_tail_bytes=64)
        for i in range(8, 12):
            c.mkdir(f"/t{i}")
        assert {f"t{i}" for i in range(12)} <= {e.name for e in c.readdir("/")}
        fs.close()

    def test_crashed_leader_replays_and_rejoins_as_follower(self, tmp_path):
        fs = _rfs(tmp_path)
        c = fs.client()
        for i in range(6):
            c.mkdir(f"/r{i}")
        t = fs.engine.now
        fs.engine.attach_faults(
            FaultSchedule().crash_restart("rdms0.0", t + 1.0, 2_000.0,
                                          torn_tail_bytes=32))
        for i in range(6, 12):
            c.mkdir(f"/r{i}")

        def advance():
            yield Sleep(50_000.0)

        fs.engine.run(advance())
        c.stat_dir("/r0")  # any RPC processes the due restart event
        victim = fs.dms_servers["rdms0.0"]
        assert victim.role == "follower"  # never a leader after restart
        leader = fs.partition_leader("rdms0")
        assert leader.my_name != "rdms0.0"
        # WAL replay recovered a prefix; the torn tail can only trail
        assert victim.last_index <= leader.last_index
        fs.close()

    def test_drained_namespace_matches_no_fault_run(self, tmp_path):
        # differential: the surviving namespace after a leader crash +
        # failover is exactly the namespace a fault-free run builds
        def build(subdir, fault):
            fs = _rfs(tmp_path, subdir=subdir)
            c = fs.client()
            c.mkdir("/base")
            if fault:
                self._crash_leader(fs, torn_tail_bytes=16)
            for i in range(10):
                c.mkdir(f"/base/d{i}")
                c.create(f"/base/f{i}")
            listing = sorted(e.name for e in c.readdir("/base"))
            stats = [c.stat_dir(f"/base/d{i}").st_uuid is not None
                     for i in range(10)]
            totals = (fs.total_directories(), fs.total_files())
            fs.close()
            return listing, stats, totals

        assert build("faulted", True) == build("clean", False)

    def test_availability_harness_zero_lost_acked(self, tmp_path):
        # the fig19 acceptance property at smoke scale: a leader crash
        # mid-wave loses nothing that was acknowledged
        from repro.harness import run_availability

        r = run_availability(
            "locofs-r", num_servers=2, crash_server="rdms0.0",
            num_clients=4, items_per_client=10, seed=0,
            data_dir=str(tmp_path / "avail"))
        assert r.crashes == 1
        assert r.lost_acked == 0
        assert r.failed_ops == 0
        assert r.goodput_iops > 0.0
        assert r.goodput_iops > 0.5 * r.baseline_iops
