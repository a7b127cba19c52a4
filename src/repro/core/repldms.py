"""Replicated, partitioned directory metadata service (LocoFS-R).

The paper's single DMS is a single point of failure: Fig. 16 shows the
whole namespace stalling for the full crash-restart-replay window when
the DMS dies.  This module closes that gap with a *quorum-replicated
directory log* layered on the partitioned DMS of :mod:`.multidms` —
CouchFS/CFS-style "multi-raft": every hash partition of the directory
namespace is an independent replication group of ``R`` replicas, each a
full :class:`~repro.core.multidms.DirectoryShardServer` with its own
WAL-backed store.

Design (DESIGN.md §13):

* **Per-partition replicated log.**  The leader applies each directory
  mutation locally (apply-at-append), seals it as a log entry
  ``(term, method, args, client, seq)`` and hands the bytes back to the
  client, which relays them to the followers with a
  :class:`~repro.sim.rpc.Quorum` append — the op is acknowledged once
  ``majority - 1`` followers accept (the leader's local append is the
  remaining vote).  Deterministic failures (EEXIST, ENOENT, ...) are
  *not* logged: they change no state, so the error answer needs no
  replication.
* **Client-relayed transport.**  The simulation engines have no
  server-initiated RPCs, so the client carries the entry bytes from
  leader to followers.  This keeps both engines' timing planes intact
  and makes replication cost visible on the issuing op — exactly where
  a synchronous-replication deployment pays it.
* **Deterministic re-execution.**  Followers re-execute entries, so
  every value a replica derives must be in the entry: the leader
  pre-allocates mkdir uuids (``shard_mkdir`` is rewritten to
  ``shard_mkdir_at`` with an explicit uuid) and timestamps ride in the
  args the client already sends.
* **Elections without an RNG stream.**  Failover is client-driven: the
  client that notices the dead leader sleeps a *hashed* election
  timeout (:func:`~repro.sim.replication.election_timeout_us` — no RNG
  draw, so the fault layer's seeded wire-fate stream is unperturbed),
  probes the group with a quorum status round, adopts any live leader
  at the highest term, else votes in the replica with the freshest log
  (Raft §5.4.1 up-to-date rule + one durable vote per term).
* **Exactly-once.**  A per-client session record ``(seq, index,
  result)`` is replicated *inside* entry application; a retried propose
  after a lost ack replays the cached answer and re-hands the client
  the same entry bytes to finish the relay.

Semantics under faults: an op is *acknowledged* only after the quorum
round completes, so a leader crash can lose at most unacknowledged
work — the fig19 experiment checks "zero lost acked ops" while the
unreplicated ``locofs-nc`` loses its whole in-flight window.

This module holds the replica server and the routing client only; a
deployment is built by :class:`~repro.core.fs.LocoFS` from
``DirectoryConfig(partitions=P, replication=R)`` (``locofs-r`` is 2 x 3
with the client cache off, so availability runs measure what
replication provides, not what leases mask).
"""

from __future__ import annotations

import pickle
from collections.abc import Generator

from repro.common import pathutil
from repro.common.errors import (
    Exists,
    FSError,
    InvalidArgument,
    NotLeader,
    QuorumFailed,
    ServerDown,
    StaleHandle,
)
from repro.common.types import Credentials, FileType, S_IFDIR
from repro.metadata import dirent as de
from repro.metadata.layout import DIR_INODE
from repro.sim.replication import ReplicaSet, choose_candidate, election_timeout_us
from repro.sim.rpc import Mark, Parallel, Quorum, Rpc, Sleep

from .dms import _ekey, _ikey
from .multidms import DirectoryShardServer, MultiDMSClient

# replication-plane keys live beside the namespace in the same store so
# one WAL fsync covers op + log record + session (single-store atomicity)
_R_TERM = b"R:term"
_R_VOTE = b"R:vote"
_R_LOG = b"R:log:"
_R_SESS = b"R:sess:"

#: entry serialization (Credentials is a frozen dataclass — picklable)
_PICKLE_PROTO = 4

#: shard mutations that may appear in the replicated log
_REPL_METHODS = frozenset({
    "shard_mkdir_at", "shard_rmdir", "shard_setattr", "shard_import",
    "shard_export", "shard_unlink_dirent", "shard_link",
})

#: read-only shard ops servable through the leader-checked read path
_READ_METHODS = frozenset({"shard_lookup", "shard_subdirs"})


def _logkey(index: int) -> bytes:
    return _R_LOG + index.to_bytes(8, "big")


def _sesskey(client_id: int) -> bytes:
    return _R_SESS + int(client_id).to_bytes(8, "big")


# ---------------------------------------------------------------------------
# server side
# ---------------------------------------------------------------------------


class ReplicatedDirShard(DirectoryShardServer):
    """One replica of one directory partition's replication group."""

    def __init__(self, shard_id: int, my_name: str, replica_names: list[str],
                 backend: str = "btree", has_root: bool = False,
                 wal_path: str | None = None, start_leader: bool = False):
        super().__init__(shard_id, backend=backend, has_root=has_root,
                         wal_path=wal_path)
        self.my_name = my_name
        self.replica_names = list(replica_names)
        self.role = "follower"
        self.leader_hint = replica_names[0] if replica_names else ""
        self.term = 1
        self.voted_term = 0
        self.last_index = 0
        self.last_term = 0
        if self.store.get(_R_TERM) is not None:
            # WAL-recovered store: replication state comes back with it
            self._load_repl_state()
        else:
            self.store.put(_R_TERM, self.term.to_bytes(8, "big"))
            if start_leader:
                self.role = "leader"
                self.leader_hint = my_name

    # -- replication state ---------------------------------------------------------
    def _load_repl_state(self) -> None:
        buf = self.store.get(_R_TERM)
        self.term = int.from_bytes(buf, "big") if buf else 1
        buf = self.store.get(_R_VOTE)
        self.voted_term = int.from_bytes(buf, "big") if buf else 0
        self.last_index = 0
        self.last_term = 0
        last_entry = None
        for key, entry in self.store.prefix_scan(_R_LOG):
            idx = int.from_bytes(key[len(_R_LOG):], "big")
            if idx > self.last_index:
                self.last_index = idx
                last_entry = entry
        if last_entry is not None:
            self.last_term = pickle.loads(last_entry)[0]

    def _set_term(self, term: int) -> None:
        if term != self.term:
            self.term = term
            self.store.put(_R_TERM, term.to_bytes(8, "big"))

    def _apply(self, method: str, args: tuple):
        if method not in _REPL_METHODS:
            raise InvalidArgument(method, f"not a replicable shard op: {method}")
        return getattr(self, "op_" + method)(*args)

    def _apply_entry(self, index: int, entry: bytes):
        """Apply one sealed entry: namespace mutation + log record +
        session record, updating the in-memory log cursor."""
        eterm, method, args, client_id, seq = pickle.loads(entry)
        result = self._apply(method, args)
        self.store.put(_logkey(index), entry)
        self.store.put(_sesskey(client_id),
                       pickle.dumps((seq, index, result), _PICKLE_PROTO))
        self.last_index = index
        self.last_term = eterm
        return result

    # -- deterministic mkdir: the uuid rides in the entry --------------------------
    def op_shard_mkdir_at(self, path: str, mode: int, cred: Credentials,
                          now_s: float, parent_uuid: int, uuid: int) -> int:
        """``shard_mkdir`` with a leader-chosen uuid, so follower replay
        creates the identical inode.  Replaying the same uuid over an
        existing record reports success (idempotent re-apply)."""
        path = pathutil.normalize(path)
        existing = self.store.get(_ikey(path))
        if existing is not None:
            if DIR_INODE.read(existing, "uuid") == uuid:
                return uuid
            raise Exists(path)
        dmode = S_IFDIR | (mode & 0o7777)
        self.store.put(_ikey(path), DIR_INODE.pack(
            ctime=now_s, mode=dmode, uid=cred.uid, gid=cred.gid, uuid=uuid))
        self.store.put(_ekey(uuid), b"")
        _, name = pathutil.split(path)
        self.store.append(_ekey(parent_uuid), de.pack_entry(name, uuid, FileType.DIRECTORY))
        self._meta[path] = (dmode, cred.uid, cred.gid, uuid)
        return uuid

    # -- replicated-log RPC surface ------------------------------------------------
    def op_rlog_propose(self, method: str, args: tuple, client_id: int,
                        seq: int) -> dict:
        """Leader: apply the mutation, seal it, return the entry for relay.

        Raises :class:`NotLeader` (with the current leader hint) on a
        follower.  Deterministic op failures propagate *without* logging:
        nothing changed, so nothing needs replication.  A retried seq
        replays the session's cached answer and entry bytes.
        """
        if self.role != "leader":
            raise NotLeader(self.leader_hint)
        sess = self.store.get(_sesskey(client_id))
        if sess is not None:
            sseq, sindex, sresult = pickle.loads(sess)
            if sseq == seq:
                entry = self.store.get(_logkey(sindex))
                prev = self.store.get(_logkey(sindex - 1))
                return {
                    "index": sindex,
                    "term": pickle.loads(entry)[0],
                    "prev_term": pickle.loads(prev)[0] if prev is not None else 0,
                    "entry": entry,
                    "result": sresult,
                    "leader": self.my_name,
                }
        if method == "shard_mkdir":
            # rewrite with a pre-allocated uuid so follower replay is
            # deterministic (each replica's allocator has a distinct sid)
            method = "shard_mkdir_at"
            args = args + (self._allocate_uuid(),)
        index = self.last_index + 1
        prev_term = self.last_term
        entry = pickle.dumps((self.term, method, args, client_id, seq),
                             _PICKLE_PROTO)
        with self.group_commit():
            result = self._apply_entry(index, entry)
        self.counters.inc("repl.proposed")
        return {"index": index, "term": self.term, "prev_term": prev_term,
                "entry": entry, "result": result, "leader": self.my_name}

    def op_rlog_append(self, index: int, term: int, prev_term: int,
                       entry: bytes, leader: str) -> dict:
        """Follower: accept one relayed entry (Raft AppendEntries, n=1).

        Consistency checks mirror Raft's: stale-term appends are refused
        with :class:`NotLeader`; a gap or a prev-term mismatch is refused
        with :class:`StaleHandle` — the replica stays out of the quorum
        until a failover repair pass reinstalls the log (DESIGN §13).
        An entry already present byte-identically is acked idempotently
        without re-applying.
        """
        if term < self.term:
            raise NotLeader(self.leader_hint)
        if term > self.term:
            self._set_term(term)
            self.role = "follower"
        elif self.role == "leader":
            # same term, two leaders: impossible by vote safety; refuse
            raise NotLeader(self.my_name)
        self.leader_hint = leader
        if index <= self.last_index:
            if self.store.get(_logkey(index)) == entry:
                return {"ok": True, "last_index": self.last_index}
            raise StaleHandle(self.my_name, "divergent log suffix")
        if index != self.last_index + 1:
            raise StaleHandle(self.my_name, "log gap")
        if prev_term != self.last_term:
            raise StaleHandle(self.my_name, "prev-term mismatch")
        with self.group_commit():
            self._apply_entry(index, entry)
        self.counters.inc("repl.appended")
        return {"ok": True, "last_index": self.last_index}

    def op_rlog_status(self) -> dict:
        return {
            "name": self.my_name,
            "role": self.role,
            "term": self.term,
            "last_term": self.last_term,
            "last_index": self.last_index,
            "leader": self.leader_hint,
        }

    def op_rlog_vote(self, term: int, candidate: str, last_term: int,
                     last_index: int) -> bool:
        """Grant at most one vote per term, only to a log at least as
        fresh as ours (Raft §5.4.1); denial raises :class:`NotLeader` so
        a quorum vote round counts only grants as successes."""
        if term <= self.voted_term or term < self.term:
            raise NotLeader(self.leader_hint)
        if (last_term, last_index) < (self.last_term, self.last_index):
            raise NotLeader(self.leader_hint)
        self.voted_term = term
        self.store.put(_R_VOTE, term.to_bytes(8, "big"))
        self._set_term(term)
        self.role = "follower"
        self.leader_hint = candidate
        self.counters.inc("repl.votes_granted")
        return True

    def op_rlog_assume(self, term: int) -> dict:
        """The vote winner assumes leadership for ``term``."""
        if term < self.term:
            raise NotLeader(self.leader_hint)
        self._set_term(term)
        self.role = "leader"
        self.leader_hint = self.my_name
        self.counters.inc("repl.assumed")
        return {"last_index": self.last_index, "last_term": self.last_term}

    def op_rlog_read(self, from_index: int) -> list:
        """Log suffix ``[from_index, last_index]`` as (index, bytes) pairs."""
        out = []
        for key, entry in self.store.prefix_scan(_R_LOG):
            idx = int.from_bytes(key[len(_R_LOG):], "big")
            if idx >= from_index:
                out.append((idx, entry))
        out.sort()
        return out

    def op_rlog_install(self, term: int, leader: str, entries: list) -> dict:
        """Install the leader's full log: fast-forward when ours is a
        prefix, otherwise wipe and re-execute from scratch (the divergent
        -tail repair run by the failover pass).  Either way the work is
        metered KV traffic, so rebuilds cost virtual time."""
        if term < self.term:
            raise NotLeader(self.leader_hint)
        prefix_ok = self.last_index <= len(entries)
        if prefix_ok and self.last_index > 0:
            idx, entry = entries[self.last_index - 1]
            if idx != self.last_index or self.store.get(_logkey(idx)) != entry:
                prefix_ok = False
        if not prefix_ok:
            self._wipe_store()
        with self.group_commit():
            for idx, entry in entries[self.last_index:]:
                self._apply_entry(idx, entry)
        self._set_term(term)
        self.role = "follower"
        self.leader_hint = leader
        self.counters.inc("repl.installed")
        return {"ok": True, "last_index": self.last_index}

    def _wipe_store(self) -> None:
        """Discard all replica state (divergent log): fresh store on a
        truncated WAL, root reseeded, term/vote re-persisted."""
        wal = getattr(self.store, "_wal", None)
        wal_path = wal.path if wal is not None else None
        self.store.close()
        if wal_path is not None:
            open(wal_path, "wb").close()
        self._open(wal_path)
        self._load()
        self.last_index = 0
        self.last_term = 0
        self.store.put(_R_TERM, self.term.to_bytes(8, "big"))
        if self.voted_term:
            self.store.put(_R_VOTE, self.voted_term.to_bytes(8, "big"))

    # -- leader-checked reads ------------------------------------------------------
    def op_rread(self, method: str, args: tuple):
        """Serve a read iff this replica is the leader — a deposed replica
        answering directly could serve a stale namespace."""
        if self.role != "leader":
            raise NotLeader(self.leader_hint)
        if method not in _READ_METHODS:
            raise InvalidArgument(method, f"not a replicated read: {method}")
        return getattr(self, "op_" + method)(*args)

    # -- crash/recovery ------------------------------------------------------------
    def crash(self, torn_tail_bytes: int = 0) -> None:
        """Volatile replication state dies with the process: a crashed
        replica holds no role, so introspection (``partition_leader``)
        never reports a dead leader.  Durable term/vote/log come back
        from the WAL at :meth:`restart`."""
        super().crash(torn_tail_bytes=torn_tail_bytes)
        self.role = "follower"
        self.leader_hint = ""

    def restart(self) -> int:
        """WAL replay, then replication state from the recovered store.
        A restarted replica always comes back as a *follower* with no
        leader hint — it rejoins via client appends or a repair pass."""
        nbytes = super().restart()
        self._load_repl_state()
        self.role = "follower"
        self.leader_hint = ""
        return nbytes


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------


class ReplDirClient(MultiDMSClient):
    """MultiDMS client whose directory tier is quorum-replicated.

    ``dms_names`` holds *partition* names; every partition maps to a
    :class:`~repro.sim.replication.ReplicaSet` and a tracked leader.  The
    four DMS transport hooks of :class:`MultiDMSClient` are rerouted:
    mutations through the propose/relay quorum protocol, reads through
    the leader-checked ``rread`` path, with client-driven failover when
    the leader stops answering.
    """

    #: whole-round retries (propose → relay) before surfacing the error;
    #: each failed round runs one failover pass with a growing timeout
    MAX_ROUNDS = 12
    #: seed of the hashed election timeouts (no deployment varies it)
    ELECTION_SEED = 0

    def __init__(self, engine, dms_names, partitions: dict, fms_names,
                 placement, client_id: int = 0, **kw):
        super().__init__(engine, dms_names=dms_names, fms_names=fms_names,
                         placement=placement, **kw)
        self.partitions = {p: ReplicaSet(p, names)
                           for p, names in partitions.items()}
        self.leaders = {p: names[0] for p, names in partitions.items()}
        self.client_id = int(client_id)
        self._rseq = 0
        self._fo_attempts = {p: 0 for p in partitions}

    # -- replicated mutation: propose to leader, relay to followers ------------------
    def _g_rmut(self, partition: str, method: str, args: tuple) -> Generator:
        rs = self.partitions[partition]
        self._rseq += 1
        seq = self._rseq
        last_err: FSError | None = None
        for _ in range(self.MAX_ROUNDS):
            leader = self.leaders[partition]
            try:
                resp = yield Quorum([Rpc(leader, "rlog_propose",
                                         (method, args, self.client_id, seq))], 1)
            except NotLeader as e:
                last_err = e
                if e.path and e.path != leader:
                    self.leaders[partition] = e.path
                    continue
                yield from self._g_failover(partition)
                continue
            except (ServerDown, QuorumFailed, StaleHandle) as e:
                last_err = e
                yield from self._g_failover(partition)
                continue
            resp = resp[0]
            need = rs.majority - 1  # the leader's local append is one vote
            if need > 0:
                entry = resp["entry"]
                rpcs = [Rpc(f, "rlog_append",
                            (resp["index"], resp["term"], resp["prev_term"],
                             entry, leader), send_bytes=len(entry))
                        for f in rs.followers(leader)]
                try:
                    yield Quorum(rpcs, need)
                except (QuorumFailed, FSError) as e:
                    # not enough followers took the entry: the op is NOT
                    # acknowledged; re-propose (session dedup makes the
                    # retry exactly-once) after a failover pass
                    last_err = e
                    yield from self._g_failover(partition)
                    continue
            self._fo_attempts[partition] = 0
            return resp["result"]
        raise last_err if last_err is not None else ServerDown(partition)

    # -- leader-checked read ----------------------------------------------------------
    def _g_rread(self, partition: str, method: str, args: tuple) -> Generator:
        last_err: FSError | None = None
        for _ in range(self.MAX_ROUNDS):
            leader = self.leaders[partition]
            try:
                res = yield Quorum([Rpc(leader, "rread", (method, args))], 1)
                self._fo_attempts[partition] = 0
                return res[0]
            except NotLeader as e:
                last_err = e
                if e.path and e.path != leader:
                    self.leaders[partition] = e.path
                    continue
                yield from self._g_failover(partition)
                continue
            except (ServerDown, QuorumFailed) as e:
                last_err = e
                yield from self._g_failover(partition)
                continue
        raise last_err if last_err is not None else ServerDown(partition)

    # -- failover: probe → adopt, else back off → elect → repair ----------------------
    def _g_probe(self, rs: ReplicaSet) -> Generator:
        """Quorum status snapshot of the group, or ``None`` if unreachable."""
        try:
            statuses = yield Quorum([Rpc(n, "rlog_status", ())
                                     for n in rs.names], rs.majority)
        except (QuorumFailed, FSError):
            return None
        return statuses

    def _g_adopt(self, partition: str, statuses: list) -> Generator:
        """Adopt a replica already claiming leadership at the highest
        term (elected by another client, or a transiently-unreachable
        incumbent).  Returns True when a live leader was found."""
        rs = self.partitions[partition]
        live = [(s, n) for s, n in zip(statuses, rs.names) if s is not None]
        if not live:
            return False
        max_term = max(s["term"] for s, _ in live)
        claimed = [n for s, n in live
                   if s["role"] == "leader" and s["term"] == max_term]
        if not claimed:
            return False
        name = claimed[0]
        if name != self.leaders[partition]:
            self.leaders[partition] = name
            if self._obs_active:
                yield Mark("client.failover",
                           {"partition": partition, "leader": name,
                            "term": max_term, "elected": False})
        return True

    def _g_failover(self, partition: str) -> Generator:
        rs = self.partitions[partition]
        attempt = self._fo_attempts[partition]
        self._fo_attempts[partition] = attempt + 1
        # probe first: if another client already elected a leader, adopt
        # it without burning an election timeout
        statuses = yield from self._g_probe(rs)
        if statuses is None:
            # no quorum reachable; back off before the caller retries
            yield Sleep(election_timeout_us(self.ELECTION_SEED,
                                            self.client_id, attempt))
            return
        if (yield from self._g_adopt(partition, statuses)):
            return
        # no live leader: back off a hashed election timeout so dueling
        # clients desynchronize, then re-probe — the first to wake wins
        # the election and everyone later adopts
        yield Sleep(election_timeout_us(self.ELECTION_SEED, self.client_id,
                                        attempt))
        statuses = yield from self._g_probe(rs)
        if statuses is None:
            return
        if (yield from self._g_adopt(partition, statuses)):
            return
        live = [s for s in statuses if s is not None]
        max_term = max(s["term"] for s in live)
        candidate = choose_candidate(statuses, rs.names)
        if candidate is None:
            return
        cst = statuses[rs.names.index(candidate)]
        term = max_term + 1
        try:
            yield Quorum([Rpc(n, "rlog_vote",
                              (term, candidate, cst["last_term"],
                               cst["last_index"]))
                          for n in rs.names], rs.majority)
        except (QuorumFailed, FSError):
            return  # vote split or quorum lost; back off and retry
        try:
            ares = yield Quorum([Rpc(candidate, "rlog_assume", (term,))], 1)
        except FSError:
            return
        ares = ares[0]
        self.leaders[partition] = candidate
        if self._obs_active:
            yield Mark("client.failover",
                       {"partition": partition, "leader": candidate,
                        "term": term, "elected": True})
        yield from self._g_repair(partition, candidate, term,
                                  ares["last_index"], ares["last_term"],
                                  statuses)

    def _g_repair(self, partition: str, leader: str, term: int,
                  llast_index: int, llast_term: int,
                  statuses: list) -> Generator:
        """Reinstall the new leader's log on reachable divergent replicas.

        Full-log install, charged as wire + KV time — the simulated cost
        of a state-transfer catch-up.  Unreachable replicas are repaired
        by a later failover pass (or reject appends until then; the
        healthy quorum carries the group meanwhile)."""
        rs = self.partitions[partition]
        entries = None
        for st, name in zip(statuses, rs.names):
            if st is None or name == leader:
                continue
            if (st["last_index"], st["last_term"]) == (llast_index, llast_term):
                continue
            if entries is None:
                try:
                    r = yield Quorum([Rpc(leader, "rlog_read", (1,))], 1)
                except FSError:
                    return
                entries = r[0]
            nbytes = sum(len(e) for _, e in entries)
            try:
                yield Quorum([Rpc(name, "rlog_install", (term, leader, entries),
                                  send_bytes=nbytes)], 1)
            except FSError:
                continue

    # -- DMS transport hooks rerouted over the replication plane ----------------------
    def _g_dms_read(self, target: str, method: str, args: tuple) -> Generator:
        result = yield from self._g_rread(target, method, args)
        return result

    def _g_dms_mutate(self, target: str, method: str, args: tuple) -> Generator:
        result = yield from self._g_rmut(target, method, args)
        return result

    def _g_dms_scatter(self, method: str, args: tuple,
                       extra_rpcs: list) -> Generator:
        # happy path: one fan-out over every partition leader + extras,
        # all-or-nothing (k = n) so a dead leader surfaces at its first
        # failure instead of after the retry policy's backoff ladder
        rpcs = ([Rpc(self.leaders[p], "rread", (method, args))
                 for p in self.dms_names] + list(extra_rpcs))
        try:
            results = yield Quorum(rpcs, len(rpcs))
            return results
        except (NotLeader, ServerDown, QuorumFailed, StaleHandle):
            pass
        # failover path: per-partition leader-checked reads (each runs
        # discovery/election as needed), then the extras again — FMS
        # reads, idempotent by construction
        out = []
        for p in self.dms_names:
            out.append((yield from self._g_rread(p, method, args)))
        if extra_rpcs:
            extras = yield Parallel(list(extra_rpcs))
            out.extend(extras)
        return out

    def _g_dms_mutate_scatter(self, method: str, args: tuple) -> Generator:
        out = []
        for p in self.dms_names:
            out.append((yield from self._g_rmut(p, method, args)))
        return out

    def _g_dms_import(self, regroup: dict) -> Generator:
        for p, recs in regroup.items():
            yield from self._g_rmut(p, "shard_import", (recs,))
