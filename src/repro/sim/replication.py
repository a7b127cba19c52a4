"""Replication-plane helpers for the quorum-replicated directory tier.

This module is pure policy — no engine or server dependencies — shared by
the replicated DMS (:mod:`repro.core.repldms`) and its tests:

``ReplicaSet``
    Names one partition's replication group and its quorum arithmetic.

Election determinism
    Failover is *client-driven*: the engine has no server-initiated RPCs,
    so the first client whose propose fails runs the election protocol
    (probe → vote → assume → repair).  Two clients noticing the crash at
    the same virtual instant must not run the protocol in lockstep — the
    classic Raft fix is a randomized election timeout.  Here the timeout
    is a *seeded hash* of (election seed, actor, attempt): deterministic
    for a given run (bit-identical goldens), decorrelated between actors
    (they hash differently), and growing with the attempt count so
    repeated collisions back off.

``choose_candidate``
    The up-to-date-ness rule of Raft §5.4.1 applied to a status snapshot:
    the candidate is the reachable replica with the maximal
    ``(last_term, last_index)``; ties break on replica order so every
    observer picks the same candidate from the same snapshot.
"""

from __future__ import annotations

import hashlib

__all__ = ["ReplicaSet", "election_timeout_us", "choose_candidate"]

#: election timeout window (virtual µs): base + jittered spread.  The
#: base clears one RPC timeout so a just-crashed leader's in-flight
#: timeouts resolve before the probe; the spread decorrelates actors.
ELECTION_BASE_US = 800.0
ELECTION_SPREAD_US = 2_400.0


class ReplicaSet:
    """One partition's replication group: ordered replica names.

    The order is authoritative for tie-breaking (``choose_candidate``)
    and for initial leadership (replica 0 starts as the term-1 leader).
    """

    __slots__ = ("partition", "names")

    def __init__(self, partition: str, names: list[str]):
        if not names:
            raise ValueError("a replica set needs at least one replica")
        self.partition = partition
        self.names = list(names)

    @property
    def majority(self) -> int:
        """Votes needed for a quorum: floor(n/2) + 1."""
        return len(self.names) // 2 + 1

    def followers(self, leader: str) -> list[str]:
        return [n for n in self.names if n != leader]


def _hash_fraction(data: bytes) -> float:
    """Deterministic uniform-ish fraction in [0, 1) from a blake2b hash."""
    h = int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")
    return (h % (1 << 53)) / float(1 << 53)


def election_timeout_us(seed: int, actor: int, attempt: int,
                        base_us: float = ELECTION_BASE_US,
                        spread_us: float = ELECTION_SPREAD_US) -> float:
    """Deterministic randomized election timeout for one failover attempt.

    ``seed`` is the deployment's election seed, ``actor`` identifies the
    client running the failover, ``attempt`` its retry count.  The jitter
    is a pure hash — no RNG stream is consumed, so attaching replication
    to a run perturbs no other seeded draws (the fault layer's wire-fate
    stream stays exactly as documented in ``FaultSchedule.shifted``).
    Repeated attempts widen the window linearly, the cheap decongestion
    that makes dueling elections converge.
    """
    frac = _hash_fraction(f"election:{seed}:{actor}:{attempt}".encode())
    return base_us + frac * spread_us * float(attempt + 1)


def choose_candidate(statuses: list, names: list[str]) -> str | None:
    """Pick the election candidate from a quorum-probe snapshot.

    ``statuses`` aligns with ``names``; unreachable replicas hold ``None``
    (the shape a :class:`~repro.sim.rpc.Quorum` resume produces).  The
    winner is the reachable replica with the maximal
    ``(last_term, last_index)`` — the Raft log-freshness rule that keeps
    every quorum-acked entry on the new leader — with ties broken by
    replica-set order so any two observers of the same snapshot agree.
    Returns ``None`` when nothing responded.
    """
    best: str | None = None
    best_key: tuple[int, int] | None = None
    for status, name in zip(statuses, names):
        if status is None:
            continue
        key = (status["last_term"], status["last_index"])
        if best_key is None or key > best_key:
            best, best_key = name, key
    return best
