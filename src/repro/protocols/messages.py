"""Protocol messages with byte-size accounting.

Field names follow the paper's pseudo-code: ``rdv`` is the client's read
dependency vector, ``dv`` a dependency vector, ``ut`` an update timestamp,
``sr`` a source replica, ``tv`` a transaction snapshot vector.

Sizes approximate a compact binary encoding of the paper's setup (8-byte
keys and values, 8-byte timestamps, M-entry vectors); they feed the
communication-overhead comparison, not any protocol decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.common.types import Address, Micros, ReplicaId
from repro.storage.version import Version

HEADER_BYTES = 20
KEY_BYTES = 8
VALUE_BYTES = 8
TS_BYTES = 8
ID_BYTES = 4


def vector_bytes(vec: Sequence[Micros]) -> int:
    return TS_BYTES * len(vec)


def version_bytes(version: Version) -> int:
    """Wire size of one replicated/returned version ⟨k,v,sr,ut,dv⟩.

    Versions created by the explicit-dependency protocol (COPS*) carry a
    dependency *list* instead of a vector; the accounting follows suit.
    """
    deps = getattr(version, "deps", None)
    if deps is not None:
        metadata = Dependency.SIZE_BYTES * len(deps)
    else:
        metadata = vector_bytes(version.dv)
    return KEY_BYTES + VALUE_BYTES + ID_BYTES + TS_BYTES + metadata


# ----------------------------------------------------------------------
# Client <-> server
# ----------------------------------------------------------------------


@dataclass(slots=True)
class GetReq:
    """⟨GETReq k, RDV_c⟩ (Algorithm 1 line 2)."""

    key: str
    rdv: list[Micros]
    client: Address
    op_id: int
    #: True when the issuing session runs the pessimistic (HA) protocol.
    pessimistic: bool = False

    def size_bytes(self) -> int:
        return HEADER_BYTES + KEY_BYTES + vector_bytes(self.rdv) + ID_BYTES


@dataclass(slots=True)
class GetReply:
    """⟨GETReply v, ut, DV, sr⟩ (Algorithm 2 line 4)."""

    key: str
    value: Any
    ut: Micros
    dv: tuple[Micros, ...]
    sr: ReplicaId
    op_id: int

    def size_bytes(self) -> int:
        return (
            HEADER_BYTES + KEY_BYTES + VALUE_BYTES + TS_BYTES
            + vector_bytes(self.dv) + ID_BYTES
        )


@dataclass(slots=True)
class PutReq:
    """⟨PUTReq k, v, DV_c⟩ (Algorithm 1 line 10)."""

    key: str
    value: Any
    dv: list[Micros]
    client: Address
    op_id: int
    #: True when the issuing session runs the pessimistic (HA) protocol.
    pessimistic: bool = False

    def size_bytes(self) -> int:
        return (
            HEADER_BYTES + KEY_BYTES + VALUE_BYTES
            + vector_bytes(self.dv) + ID_BYTES
        )


@dataclass(slots=True)
class PutReply:
    """⟨PUTReply ut⟩ (Algorithm 2 line 15)."""

    ut: Micros
    op_id: int

    def size_bytes(self) -> int:
        return HEADER_BYTES + TS_BYTES + ID_BYTES


@dataclass(slots=True)
class RoTxReq:
    """⟨RO-TX-Req χ, RDV_c⟩ (Algorithm 1 line 15)."""

    keys: tuple[str, ...]
    rdv: list[Micros]
    client: Address
    op_id: int
    #: True when the issuing session runs the pessimistic (HA) protocol.
    pessimistic: bool = False

    def size_bytes(self) -> int:
        return (
            HEADER_BYTES + KEY_BYTES * len(self.keys)
            + vector_bytes(self.rdv) + ID_BYTES
        )


@dataclass(slots=True)
class RoTxReply:
    """⟨RO-TX-Resp D⟩: the returned causal snapshot."""

    versions: list[GetReply]
    op_id: int

    def size_bytes(self) -> int:
        return HEADER_BYTES + ID_BYTES + sum(
            v.size_bytes() - HEADER_BYTES for v in self.versions
        )


@dataclass(slots=True)
class SessionClosed:
    """HA-POCC: the server aborted a blocked optimistic session
    (Section III-B's partition-detection recovery)."""

    op_id: int
    reason: str = "network partition suspected"

    def size_bytes(self) -> int:
        return HEADER_BYTES + ID_BYTES


# ----------------------------------------------------------------------
# Server <-> server
# ----------------------------------------------------------------------


@dataclass(slots=True)
class Replicate:
    """⟨REPLICATE d⟩ (Algorithm 2 line 13)."""

    version: Version

    def size_bytes(self) -> int:
        return HEADER_BYTES + version_bytes(self.version)


@dataclass(slots=True)
class ReplicateBatch:
    """One flush of the protocol-level replication batcher.

    Carries every version the source partition created since its last
    flush, in creation (timestamp) order.  ``clock_ts`` is the source's
    clock read at flush time, stamped strictly after the newest buffered
    version: because channels are FIFO, once the batch is applied the
    receiver may advance ``VV[src_dc]`` to it — the batch doubles as a
    heartbeat, which is what lets the sender suppress the explicit one
    while writes flow.  ``dst`` (sent by Okapi* DC aggregators, 0 =
    absent) piggybacks the sender DC's data-center stable time on
    replication traffic, amortizing the UST gossip the same way.
    """

    versions: list[Version]
    src_dc: ReplicaId
    clock_ts: Micros
    dst: Micros = 0

    def size_bytes(self) -> int:
        return HEADER_BYTES + TS_BYTES + TS_BYTES + ID_BYTES + sum(
            version_bytes(v) for v in self.versions
        )


@dataclass(slots=True)
class Heartbeat:
    """⟨HEARTBEAT ct⟩ (Algorithm 2 line 24)."""

    ts: Micros
    src_dc: ReplicaId

    def size_bytes(self) -> int:
        return HEADER_BYTES + TS_BYTES + ID_BYTES


@dataclass(slots=True)
class SliceReq:
    """⟨SliceREQ χ_i, TV⟩ (Algorithm 2 line 34)."""

    keys: tuple[str, ...]
    tv: list[Micros]
    coordinator: Address
    tx_id: int
    #: True when the requesting client runs in pessimistic (HA) mode.
    pessimistic: bool = False

    def size_bytes(self) -> int:
        return (
            HEADER_BYTES + KEY_BYTES * len(self.keys)
            + vector_bytes(self.tv) + ID_BYTES
        )


@dataclass(slots=True)
class SliceResp:
    """⟨SliceRESP D⟩ (Algorithm 2 line 47)."""

    versions: list[GetReply]
    tx_id: int
    #: HA-POCC: the slice server aborted the blocked read after suspecting
    #: a network partition; the coordinator must abort the transaction.
    aborted: bool = False

    def size_bytes(self) -> int:
        return HEADER_BYTES + ID_BYTES + sum(
            v.size_bytes() - HEADER_BYTES for v in self.versions
        )


@dataclass(slots=True)
class ReplSyncReq:
    """Replication catch-up request (crash recovery, live backend).

    A partition server restarting from its write-ahead log asks every
    peer replica to re-send the updates it may have missed while down:
    ``vv`` is the requester's recovered version vector, and the peer
    answers with its own locally created versions newer than
    ``vv[peer.dc]`` (:class:`ReplCatchup` chunks).  Never sent by the
    simulation backend — crashes there are modeled at the DC level
    (:mod:`repro.protocols.recovery`), not at the process level.
    """

    vv: list[Micros]
    requester: Address

    def size_bytes(self) -> int:
        return HEADER_BYTES + vector_bytes(self.vv) + ID_BYTES


@dataclass(slots=True)
class ReplCatchup:
    """One chunk of a peer's answer to :class:`ReplSyncReq`.

    ``last`` marks the final chunk from this peer; the recovering server
    holds client-facing operations until every peer's final chunk (or a
    timeout) so a read cannot observe the pre-crash past as fresh state.
    Versions already present (delivered by the reconnected replication
    channel) are skipped by identity on receipt.
    """

    versions: list[Version]
    src_dc: ReplicaId
    last: bool

    def size_bytes(self) -> int:
        return HEADER_BYTES + ID_BYTES + sum(
            version_bytes(v) for v in self.versions
        )


@dataclass(slots=True)
class AeDigest:
    """Anti-entropy digest: what the sender holds from the receiver.

    ``vv`` is the sender's version vector (its per-source watermarks);
    ``uts`` are the update times of versions it actually received from
    the *receiver's* DC inside the configured window below
    ``vv[receiver.dc]``.  The receiver diffs ``uts`` against its own
    creations in that window and re-ships the gap (:class:`AeRepair`) —
    the set is what makes holes below a heartbeat-advanced watermark
    detectable at all.
    """

    vv: list[Micros]
    uts: tuple[Micros, ...]
    requester: Address

    def size_bytes(self) -> int:
        return (HEADER_BYTES + vector_bytes(self.vv)
                + TS_BYTES * len(self.uts) + ID_BYTES)


@dataclass(slots=True)
class AeRepair:
    """Anti-entropy repair: versions the digest proved missing."""

    versions: list[Version]
    src_dc: ReplicaId

    def size_bytes(self) -> int:
        return HEADER_BYTES + ID_BYTES + sum(
            version_bytes(v) for v in self.versions
        )


# ----------------------------------------------------------------------
# Stabilization (Cure* / HA-POCC) and garbage collection
# ----------------------------------------------------------------------


@dataclass(slots=True)
class StabPush:
    """A node reports its version vector to the DC aggregator."""

    vv: list[Micros]
    partition: int

    def size_bytes(self) -> int:
        return HEADER_BYTES + vector_bytes(self.vv) + ID_BYTES


@dataclass(slots=True)
class StabBroadcast:
    """The aggregator broadcasts the new Global Stable Snapshot."""

    gss: list[Micros]

    def size_bytes(self) -> int:
        return HEADER_BYTES + vector_bytes(self.gss)


@dataclass(slots=True)
class UstGossip:
    """Okapi*'s inter-DC stabilization hop: one DC aggregator tells its
    peers the data-center stable time DST^m (the minimum local stable time
    across the DC's partitions).  The universal stable time is the minimum
    DST over all DCs — a timestamp every DC has fully received.  O(1)
    metadata: one hybrid-clock timestamp per message."""

    dst: Micros
    src_dc: ReplicaId

    def size_bytes(self) -> int:
        return HEADER_BYTES + TS_BYTES + ID_BYTES


# ----------------------------------------------------------------------
# Explicit dependency tracking (COPS* baseline)
# ----------------------------------------------------------------------


@dataclass(slots=True, frozen=True)
class Dependency:
    """One explicit dependency: a globally unique version id (key, ut, sr).

    The metadata element of the dependency-list family (COPS [8]): where
    the vector protocols ship M timestamps, COPS* ships one of these per
    *nearest* dependency.
    """

    key: str
    ut: Micros
    sr: ReplicaId

    #: Wire size of one dependency entry.
    SIZE_BYTES = KEY_BYTES + TS_BYTES + ID_BYTES

    def order_key(self) -> tuple[int, int]:
        from repro.common.types import version_order_key
        return version_order_key(self.ut, self.sr)


@dataclass(slots=True)
class CopsPutReq:
    """PUT carrying the client's nearest-dependency list (COPS put_after)."""

    key: str
    value: Any
    deps: tuple[Dependency, ...]
    client: Address
    op_id: int

    def size_bytes(self) -> int:
        return (
            HEADER_BYTES + KEY_BYTES + VALUE_BYTES + ID_BYTES
            + Dependency.SIZE_BYTES * len(self.deps)
        )


@dataclass(slots=True)
class DepCheck:
    """Intra-DC query: "has version >= (key, ut, sr) been applied here?"

    Sent by a server that received a replicated update to the local
    partition responsible for each of the update's nearest dependencies —
    the communication overhead Section I attributes to dependency-check
    protocols and that OCC eliminates.
    """

    key: str
    ut: Micros
    sr: ReplicaId
    requester: Address
    check_id: int

    def size_bytes(self) -> int:
        return HEADER_BYTES + Dependency.SIZE_BYTES + ID_BYTES

    def dependency(self) -> Dependency:
        return Dependency(key=self.key, ut=self.ut, sr=self.sr)


@dataclass(slots=True)
class DepCheckResp:
    """Acknowledgement that a dependency is satisfied locally."""

    check_id: int

    def size_bytes(self) -> int:
        return HEADER_BYTES + ID_BYTES


# ----------------------------------------------------------------------
# Elastic membership (epoch-versioned views + causal-safe resharding)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class ViewPropose:
    """Reshard driver -> every server: prepare for the next view.

    Carries the full proposed view ``(epoch, members, vnodes)`` so a
    server that missed earlier epochs (restarted mid-reshard) can still
    participate.  Answered with ``ViewAck(phase="prepare")``.
    """

    epoch: int
    members: tuple[int, ...]
    vnodes: int
    reply_to: Address

    def size_bytes(self) -> int:
        return (HEADER_BYTES + TS_BYTES + ID_BYTES * len(self.members)
                + ID_BYTES * 2)


@dataclass(slots=True)
class ViewAck:
    """A server acknowledges a reshard phase (``prepare``/``commit``)."""

    epoch: int
    phase: str
    dc: ReplicaId
    partition: int

    def size_bytes(self) -> int:
        return HEADER_BYTES + TS_BYTES + ID_BYTES * 3


@dataclass(slots=True)
class MigrateStart:
    """Reshard driver -> every server: seal moving keys and stream them.

    On receipt every server seals (parks client ops for) the keys whose
    owner changes between its active view and the proposed epoch; donors
    then stream those chains to the new owner in their own DC
    (:class:`MigrateChunk`) and report :class:`MigrateDone`.  Servers
    with nothing to donate report ``MigrateDone(keys_moved=0)``
    immediately — the driver needs an answer from everyone.
    """

    epoch: int
    reply_to: Address

    def size_bytes(self) -> int:
        return HEADER_BYTES + TS_BYTES + ID_BYTES


@dataclass(slots=True)
class MigrateChunk:
    """One WAL-logged chunk of a migrating key range.

    Carries full version chains (values, update times, dependency
    vectors/lists — the causal metadata) plus, on the final chunk, the
    donor's version vector: the new owner merges it only once it holds
    every streamed version, so it never claims coverage it lacks.
    The receiver persists the chunk before acking (group commit holds
    the ack exactly as it holds client acks), which is what makes a
    joiner SIGKILL recoverable with zero acknowledged-write loss.
    """

    epoch: int
    src_dc: ReplicaId
    src_partition: int
    seq: int
    versions: list[Version]
    vv: list[Micros]
    last: bool = False

    def size_bytes(self) -> int:
        return (HEADER_BYTES + TS_BYTES + ID_BYTES * 3
                + vector_bytes(self.vv)
                + sum(version_bytes(v) for v in self.versions))


@dataclass(slots=True)
class MigrateAck:
    """New owner -> donor: chunk ``seq`` is applied *and* durable."""

    epoch: int
    partition: int
    seq: int

    def size_bytes(self) -> int:
        return HEADER_BYTES + TS_BYTES + ID_BYTES * 2


@dataclass(slots=True)
class MigrateDone:
    """Donor -> reshard driver: every chunk acked; totals for the gate."""

    epoch: int
    dc: ReplicaId
    partition: int
    keys_moved: int
    bytes_moved: int

    def size_bytes(self) -> int:
        return HEADER_BYTES + TS_BYTES + ID_BYTES * 4


@dataclass(slots=True)
class ViewCommit:
    """Reshard driver -> every server: the ownership flip.

    Sent only after every donor's chunks are acked-durable and the
    drain window passed; servers WAL-log the view, adopt it, drop the
    chains they no longer own and answer parked ops with
    :class:`NotOwner`.  Answered with ``ViewAck(phase="commit")``.
    """

    epoch: int
    members: tuple[int, ...]
    vnodes: int

    def size_bytes(self) -> int:
        return (HEADER_BYTES + TS_BYTES + ID_BYTES * len(self.members)
                + ID_BYTES)


@dataclass(slots=True)
class ViewGossip:
    """Periodic view exchange between servers (anti-entropy for views).

    A server that missed a commit (crashed bystander) adopts any higher
    committed epoch it hears about; lower-epoch gossip is answered with
    the sender's own newer view.
    """

    epoch: int
    members: tuple[int, ...]
    vnodes: int

    def size_bytes(self) -> int:
        return (HEADER_BYTES + TS_BYTES + ID_BYTES * len(self.members)
                + ID_BYTES)


@dataclass(slots=True)
class NotOwner:
    """Server -> client: this key moved; retry against the new view.

    Carries the committed view so the client can re-place *all* keys at
    once instead of learning one redirect per key.  The client retries
    the same op (same ``op_id``) after a jittered backoff.
    """

    op_id: int
    key: str
    epoch: int
    members: tuple[int, ...]
    vnodes: int

    def size_bytes(self) -> int:
        return (HEADER_BYTES + KEY_BYTES + TS_BYTES
                + ID_BYTES * len(self.members) + ID_BYTES * 2)


# ----------------------------------------------------------------------
# Garbage collection
# ----------------------------------------------------------------------


@dataclass(slots=True)
class GcPush:
    """A node reports min(active transaction snapshots, else VV)."""

    vec: list[Micros]
    partition: int

    def size_bytes(self) -> int:
        return HEADER_BYTES + vector_bytes(self.vec) + ID_BYTES


@dataclass(slots=True)
class GcBroadcast:
    """The aggregator broadcasts the garbage-collection vector GV."""

    gv: list[Micros]

    def size_bytes(self) -> int:
        return HEADER_BYTES + vector_bytes(self.gv)
