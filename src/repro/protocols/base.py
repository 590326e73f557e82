"""Shared machinery for causal servers and clients.

:class:`CausalServer` implements everything POCC and Cure* have in common —
update replication in timestamp order, heartbeats (Algorithm 2 lines 19-28),
version-vector bookkeeping, predicate wait-queues for blocked operations
(with per-cause metrics), and the intra-DC garbage-collection rounds of
Section IV-B.  Protocol subclasses add their read/write visibility rules.

:class:`CausalClient` implements the session metadata of Algorithm 1, which
is *identical* for POCC and Cure* (the paper's fairness argument: both
exchange the same metadata).

Both classes are I/O-free :class:`~repro.protocols.core.ProtocolCore`
subclasses: every send, timer and CPU charge goes through the runtime
adapter in ``self.rt``, so the same protocol logic runs on the
deterministic simulation backend and on the live asyncio TCP backend
(:mod:`repro.runtime`).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.clocks.physical import PhysicalClock
from repro.clocks.vector import (
    vec_aggregate_min,
    vec_covers,
    vec_max,
    vec_max_inplace,
    vec_min,
    vec_zero,
)
from repro.common.config import ClusterConfig
from repro.common.errors import ProtocolError
from repro.common.types import Address, Micros, OpType
from repro.cluster.ring import ClusterView, initial_view
from repro.cluster.topology import Topology
from repro.metrics.collectors import MetricsRegistry
from repro.protocols import messages as m
from repro.protocols.batching import ReplicationBatcher
from repro.protocols.core import (
    BACKGROUND,
    FOREGROUND,
    ProtocolCore,
    ProtocolRuntime,
)
from repro.storage.store import PartitionStore
from repro.storage.version import Version

#: Replication catch-up (crash recovery, live backend): versions per
#: :class:`~repro.protocols.messages.ReplCatchup` chunk, and how long a
#: recovering server holds client traffic waiting for peers that may
#: themselves be down.
CATCHUP_CHUNK = 256
CATCHUP_TIMEOUT_S = 10.0

#: Requests a recovering server parks until replication catch-up ends —
#: everything a client (or a coordinator acting for one) can observe
#: state through.  Server-to-server machinery keeps flowing.
_CLIENT_FACING = (m.GetReq, m.PutReq, m.RoTxReq, m.SliceReq, m.CopsPutReq)

#: Message classes handled at BACKGROUND priority (exact types: message
#: dataclasses are never subclassed).  Handoff streams and view gossip
#: are bulk/background work; the reshard *control* messages (propose,
#: start, commit, acks) stay foreground so a saturated node cannot stall
#: a view change indefinitely.
_BACKGROUND_TYPES = frozenset((
    m.Replicate, m.ReplicateBatch, m.Heartbeat,
    m.StabPush, m.StabBroadcast, m.UstGossip,
    m.GcPush, m.GcBroadcast,
    m.AeDigest, m.AeRepair,
    m.MigrateChunk, m.ViewGossip,
))


class _Waiter:
    """One blocked operation: a predicate over server state + continuation.

    ``payload`` carries the original request message so the HA protocol can
    identify (and abort) the session behind an over-age waiter.
    """

    __slots__ = ("predicate", "resume", "cause", "blocked_at", "cancelled",
                 "payload")

    def __init__(
        self,
        predicate: Callable[[], bool],
        resume: Callable[[], None],
        cause: str,
        blocked_at: float,
        payload: Any = None,
    ):
        self.predicate = predicate
        self.resume = resume
        self.cause = cause
        self.blocked_at = blocked_at
        self.cancelled = False
        self.payload = payload


class WaitQueue:
    """Predicate-indexed queue of blocked operations.

    Blocked operations hold no CPU (the paper's key efficiency argument for
    POCC under load); they re-run only when :meth:`notify` finds their
    predicate satisfied, paying a small resumption cost.
    """

    __slots__ = ("_server", "_waiters")

    def __init__(self, server: "CausalServer"):
        self._server = server
        self._waiters: list[_Waiter] = []

    def wait(
        self,
        predicate: Callable[[], bool],
        resume: Callable[[], None],
        cause: str,
        payload: Any = None,
    ) -> _Waiter:
        """Park ``resume`` until ``predicate()`` holds (checked on notify)."""
        waiter = _Waiter(predicate, resume, cause, self._server.rt.now,
                         payload)
        self._waiters.append(waiter)
        return waiter

    def notify(self) -> None:
        """Re-check all waiters; wake (and charge resume CPU for) the
        satisfied ones."""
        if not self._waiters:
            return
        still_blocked: list[_Waiter] = []
        for waiter in self._waiters:
            if waiter.cancelled:
                continue
            if waiter.predicate():
                self._server.wake(waiter)
            else:
                still_blocked.append(waiter)
        self._waiters = still_blocked

    def drop(self, waiter: _Waiter) -> None:
        waiter.cancelled = True

    def expired(self, older_than_s: float) -> list[_Waiter]:
        """Waiters blocked longer than ``older_than_s`` (HA detection)."""
        now = self._server.rt.now
        return [
            w for w in self._waiters
            if not w.cancelled and now - w.blocked_at >= older_than_s
        ]

    def __len__(self) -> int:
        return sum(1 for w in self._waiters if not w.cancelled)


class CausalServer(ProtocolCore):
    """Base server ``p^m_n``: replication, heartbeats, waiting, GC."""

    def __init__(
        self,
        runtime: ProtocolRuntime,
        clock: PhysicalClock,
        topology: Topology,
        config: ClusterConfig,
        metrics: MetricsRegistry,
    ):
        super().__init__(runtime, clock)
        address = self.address
        self.topology = topology
        self.config = config
        self.metrics = metrics
        self.store = PartitionStore()
        self.m = address.dc  # local replica id (paper superscript)
        self.n = address.partition  # partition id (paper subscript)
        #: Version vector VV^m_n: one physical timestamp per DC.
        self.vv: list[Micros] = vec_zero(topology.num_dcs)
        self.waiters = WaitQueue(self)
        self._peer_replicas = tuple(
            topology.replicas_of(self.n, except_dc=self.m)
        )
        self._service = config.service
        self._protocol = config.protocol_config
        # Replication batching (off by default): one ReplicateBatch per
        # flush instead of one Replicate per write.  When disabled the
        # batcher does not exist and replicate() takes the per-write
        # fan-out path bit-for-bit, keeping per-seed reports identical.
        batch_config = config.repl_batch
        self._batcher = (
            ReplicationBatcher(self.rt, batch_config, self._ship_batch)
            if batch_config.enabled and self._peer_replicas else None
        )
        # Transactions this node currently coordinates: tx_id -> state.
        self._active_tx: dict[int, dict] = {}
        self._next_tx_id = (self.m << 20) | (self.n << 12)
        # GC aggregation state (partition 0 of each DC aggregates).
        self._gc_reports: dict[int, list[Micros]] = {}
        # Replication catch-up state (crash recovery, live backend):
        # None = normal operation; a set = DCs whose final ReplCatchup
        # chunk is still outstanding, client traffic parked meanwhile.
        self._catching_up: set[int] | None = None
        self._parked_during_catchup: list[Any] = []
        # Anti-entropy accounting (chaos runs assert repair happened).
        self.ae_digests_sent = 0
        self.ae_repairs_applied = 0
        # Elastic membership (off by default): the manager owns the
        # epoch-versioned view and the reshard handoff state machine;
        # disabled, it does not exist and placement stays the boot-frozen
        # hash.  The counters always exist (telemetry reads them).
        self.keys_migrated = 0
        self.migration_bytes = 0
        self.not_owner_redirects = 0
        if config.membership.enabled:
            from repro.protocols.membership import MembershipManager
            self._membership = MembershipManager(self, topology.view)
        else:
            self._membership = None
        self._start_timers()

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _start_timers(self) -> None:
        heartbeat = self._protocol.heartbeat_interval_s
        self.rt.schedule(heartbeat, self._heartbeat_tick)
        gc = self._protocol.gc_interval_s
        # Stagger GC rounds so all nodes do not report at the same instant.
        self.rt.schedule(gc * (1.0 + 0.01 * self.n), self._gc_tick)
        ae = self.config.anti_entropy
        if ae.enabled and self._peer_replicas:
            # Anti-entropy digests (off by default — when disabled this
            # timer never exists and per-seed reports stay byte-identical).
            # Staggered like GC so sibling digests do not collide.
            self.rt.schedule(ae.interval_s * (1.0 + 0.01 * self.m),
                             self._ae_tick)

    def _heartbeat_tick(self) -> None:
        """Algorithm 2 lines 19-26: broadcast the clock if write-idle."""
        delta_us = int(self._protocol.heartbeat_interval_s * 1_000_000)
        ct = self.clock.peek_micros()
        if ct >= self.vv[self.m] + delta_us:
            if self._batcher is not None and self._batcher.pending:
                # A fresher clock must never overtake buffered versions
                # on the FIFO channel (the remote VV entry would advance
                # past undelivered updates), so no heartbeat goes out.
                # Nothing needs to: the armed flush deadline ships the
                # buffer — clock stamp included — within flush_ms.  The
                # batch *is* the heartbeat, at the batching granularity.
                pass
            else:
                ct = self.clock.micros()
                self.vv[self.m] = ct
                self.send_fanout(self._peer_replicas,
                                 m.Heartbeat(ts=ct, src_dc=self.m))
                self.waiters.notify()
        self.rt.schedule(self._protocol.heartbeat_interval_s,
                         self._heartbeat_tick)

    # ------------------------------------------------------------------
    # Waiting / waking
    # ------------------------------------------------------------------
    def wait_for_clock(
        self, target_us: Micros, resume: Callable[[], None]
    ) -> None:
        """Run ``resume`` once the local clock strictly exceeds
        ``target_us`` (the Algorithm 2 line 7 clock wait).

        The wake-up instant is computed from the clock's *current*
        offset.  An injected skew step between scheduling and firing can
        invalidate it: after a negative step the clock may still be at or
        below ``target_us`` when the wake-up fires, and stamping then
        would put an update below its own dependency cut.  The epoch
        check catches exactly that case and re-arms; without steps it
        never triggers, so event counts — and per-seed reports — are
        unchanged.
        """
        clock = self.clock
        epoch = clock.step_epoch

        def fire() -> None:
            if (clock.step_epoch != epoch
                    and clock.peek_micros() <= target_us):
                self.wait_for_clock(target_us, resume)
                return
            resume()

        self.rt.schedule_at(clock.sim_time_when(target_us), fire)

    def wake(self, waiter: _Waiter) -> None:
        """Charge resumption CPU and record the blocking duration."""
        duration = self.rt.now - waiter.blocked_at
        self.metrics.record_block_started(waiter.cause, waiter.blocked_at,
                                          duration)
        self.submit_local(self._service.resume_s, waiter.resume)

    def block_or_run(
        self,
        cause: str,
        predicate: Callable[[], bool],
        action: Callable[[], None],
        payload: Any = None,
    ) -> None:
        """Run ``action`` now if ``predicate`` holds, else park it.

        Records one blocking *attempt* either way, so
        ``blocked / attempts`` is the paper's blocking probability.
        """
        self.metrics.record_block_attempt(cause)
        if predicate():
            action()
        else:
            self.waiters.wait(predicate, action, cause, payload)

    # ------------------------------------------------------------------
    # Update creation & replication
    # ------------------------------------------------------------------
    def create_version(self, key: str, value: Any, dv: Sequence[Micros],
                       optimistic: bool = True) -> Version:
        """Algorithm 2 lines 8-14: stamp, store and replicate an update."""
        ts = self.clock.micros()
        if ts <= self.vv[self.m]:
            # Clock reads are strictly monotonic, so this means a protocol
            # bug (e.g. VV advanced past the local clock).
            raise ProtocolError(
                f"{self.address}: update timestamp {ts} not beyond "
                f"VV[m]={self.vv[self.m]}"
            )
        self.vv[self.m] = ts
        version = Version(key=key, value=value, sr=self.m, ut=ts, dv=dv,
                          optimistic=optimistic)
        self.store.insert(version)
        if self._trace is not None:
            self._span("put", version, key=key)
        # Durability before acknowledgement: the caller replies to the
        # client only after this returns, and the fan-out below is what
        # makes the version observable remotely — both must trail the
        # log.  Under the live backend's group commit the log *sync* is
        # deferred to the end of the tick, and the runtime holds this
        # fan-out (and the caller's reply) until the batched fsync
        # completes, so the ordering holds on the wire, not just here.
        self.rt.persist(version)
        self.replicate(version)
        return version

    def replicate(self, version: Version) -> None:
        """Ship one locally created version to the peer replicas.

        The single choke point of outbound replication: per-write
        fan-out when batching is off (the default, byte-identical to the
        pre-batching engine), or a buffered add that the batcher flushes
        as one :class:`~repro.protocols.messages.ReplicateBatch`.
        """
        if self._trace is not None:
            self._span("replicate_sent", version)
        if self._batcher is not None:
            self._batcher.add(version)
        else:
            self.send_fanout(self._peer_replicas,
                             m.Replicate(version=version))

    def _ship_batch(self, versions: list[Version]) -> None:
        """Stamp and fan out one batch (the batcher's ship effect).

        The flush-time clock read doubles as a heartbeat: it advances
        the local VV entry exactly like Algorithm 2 line 22, and —
        because it is stamped strictly after the newest buffered version
        and channels are FIFO — the receiver may advance its VV entry to
        it once the batch is applied.  The existing write-idle check in
        :meth:`_heartbeat_tick` then suppresses the explicit heartbeat
        while batches keep the clock fresh.

        A flush carrying exactly one version degenerates to the plain
        per-write ``Replicate`` — no envelope, no clock stamp — so
        ``max_versions=1`` reproduces the batching-off engine
        bit-for-bit (the equivalence anchor the regression tests pin).
        """
        if len(versions) == 1:
            self.send_fanout(self._peer_replicas,
                             m.Replicate(version=versions[0]))
            return
        ts = self._stamp_flush_clock()
        self.send_fanout(self._peer_replicas, m.ReplicateBatch(
            versions=versions, src_dc=self.m, clock_ts=ts,
            dst=self._batch_dst(),
        ))

    def _stamp_flush_clock(self) -> Micros:
        """Read the clock for a batch's heartbeat piggyback."""
        ts = self.clock.micros()
        if ts > self.vv[self.m]:
            self.vv[self.m] = ts
            self.waiters.notify()
        return ts

    def _batch_dst(self) -> Micros:
        """Okapi* hook: DC stable time piggybacked on outgoing batches
        (0 = nothing to piggyback; only its aggregators override this)."""
        return 0

    def apply_replicate(self, msg: m.Replicate) -> None:
        """Algorithm 2 lines 16-18 + notify blocked operations."""
        self._install_replicated(msg.version)
        self.waiters.notify()

    def _install_replicated(self, version: Version) -> None:
        """Install one replicated version — without waking waiters, so a
        batch runs one notify pass however many versions it carried."""
        if (self._membership is not None
                and not self._membership.route_replicated(version)):
            # A straggler for a key this partition handed off: forwarded
            # to the local new owner instead of resurrecting the chain.
            return
        self.store.insert(version)
        if version.ut > self.vv[version.sr]:
            self.vv[version.sr] = version.ut
        self.rt.persist(version)
        if self._trace is not None:
            self._span("installed", version)
        self.version_received(version)

    def apply_replicate_batch(self, msg: m.ReplicateBatch) -> None:
        """Apply one flush of a peer's replication batcher.

        Versions install in their creation (timestamp) order; the
        piggybacked flush clock then advances ``VV[src_dc]`` like a
        heartbeat (safe: FIFO channels mean nothing older from that
        source is still in flight); blocked operations get exactly one
        re-check pass for the whole batch.
        """
        for version in msg.versions:
            self._install_replicated(version)
        if msg.clock_ts > self.vv[msg.src_dc]:
            self.vv[msg.src_dc] = msg.clock_ts
        self.waiters.notify()

    def version_received(self, version: Version) -> None:
        """Hook: a remote version was installed locally.

        Optimistic protocols make remote updates readable the instant they
        arrive, so the base implementation records the visibility latency
        (creation at the source to readability here) right away.
        Pessimistic subclasses override this to defer the sample until
        their stability horizon (GSS / GST) covers the version.

        ``version.ut`` is micros on the *source* clock; the bounded clock
        skew makes the conversion to simulated seconds accurate to within
        the configured offset (clamped at zero in the recorder).
        """
        self.metrics.record_visibility_lag(self.rt.now - version.ut / 1e6)
        self._trace_visible(version)

    # ------------------------------------------------------------------
    # Observability (live backend only; no-ops when hooks are absent)
    # ------------------------------------------------------------------
    def _span(self, event: str, version: Version, **fields: Any) -> None:
        """Emit one causal-lifecycle span for ``version`` if it is
        sampled.  Hot call sites pre-check ``self._trace is not None``
        so the tracing-off path pays nothing."""
        trace = self._trace
        if trace is not None and trace.sampled(version.ut):
            trace.span(event, version.sr, version.ut,
                       node=f"dc{self.m}-p{self.n}", **fields)

    def _trace_visible(self, version: Version) -> None:
        """The ``visible`` span: called at the exact point a protocol
        lets reads observe a remote version — immediately here (the
        optimistic base), at the stability horizon in Cure*/GentleRain*/
        Okapi*, after dependency checks in COPS*."""
        trace = self._trace
        if trace is not None and trace.sampled(version.ut):
            trace.span("visible", version.sr, version.ut,
                       node=f"dc{self.m}-p{self.n}")

    def stable_lag_seconds(self) -> float:
        """How far the replication horizon trails the local clock (the
        ``repro_stable_lag_seconds`` gauge, read at scrape time).

        The base reading is the oldest *remote* version-vector entry
        versus the local physical clock — how stale the least-recently
        heard-from replica is.  Protocols with an explicit stability
        cursor override this with their own horizon: Cure*'s GSS,
        GentleRain*'s GST, Okapi*'s UST (a packed hybrid timestamp that
        needs unpacking before it can meet a microsecond clock).
        """
        vv = self.vv
        if len(vv) <= 1:
            return 0.0
        oldest = min(ts for i, ts in enumerate(vv) if i != self.m)
        return max(self.clock.peek_micros() - oldest, 0) / 1e6

    def apply_heartbeat(self, msg: m.Heartbeat) -> None:
        """Algorithm 2 lines 27-28 + notify blocked operations."""
        if msg.ts > self.vv[msg.src_dc]:
            self.vv[msg.src_dc] = msg.ts
        self.waiters.notify()

    # ------------------------------------------------------------------
    # Anti-entropy backfill (repair path for lossy channels)
    # ------------------------------------------------------------------
    # Replication is fire-and-forget over channels the paper assumes
    # lossless; under injected loss a dropped Replicate leaves a
    # permanent hole — and a later heartbeat advances the receiver's VV
    # entry *past* it, so the hole is invisible to the VV watermark
    # alone.  The digest therefore carries, per source, the update times
    # of the versions actually received inside a trailing window below
    # the watermark; the origin diffs that set against what it created
    # in the same window and re-ships exactly the gap.  Anything newer
    # than the watermark is left alone (it may still be in flight; the
    # advancing watermark pulls it into the window next round).

    def _ae_window_ticks(self, window_s: float) -> int:
        """The digest window in *timestamp units*.  Protocols whose
        timestamps are not plain microseconds (Okapi*'s packed hybrid
        values) override this — a window measured in the wrong unit
        silently degenerates to empty and anti-entropy repairs nothing.
        """
        return int(window_s * 1_000_000)

    def _ae_tick(self) -> None:
        ae = self.config.anti_entropy
        window_us = self._ae_window_ticks(ae.window_s)
        vv = self.vv
        by_source: dict[int, list[Micros]] = {}
        for v in self.store.all_versions():
            if v.sr == self.m:
                continue
            floor = vv[v.sr]
            if floor - window_us < v.ut <= floor:
                by_source.setdefault(v.sr, []).append(v.ut)
        for peer in self._peer_replicas:
            self.ae_digests_sent += 1
            self.send(peer, m.AeDigest(
                vv=list(vv),
                uts=tuple(sorted(by_source.get(peer.dc, ()))),
                requester=self.address,
            ))
        self.rt.schedule(ae.interval_s, self._ae_tick)

    def handle_ae_digest(self, msg: m.AeDigest) -> None:
        """Re-ship our own versions the requester provably missed."""
        ae = self.config.anti_entropy
        window_us = self._ae_window_ticks(ae.window_s)
        floor = msg.vv[self.m] if self.m < len(msg.vv) else 0
        if floor <= 0:
            return
        have = set(msg.uts)
        missing = [v for v in self.store.all_versions()
                   if v.sr == self.m and v.ut not in have
                   and floor - window_us < v.ut <= floor]
        if not missing:
            return
        missing.sort(key=lambda v: v.ut)
        for start in range(0, len(missing), ae.chunk):
            self.send(msg.requester, m.AeRepair(
                versions=missing[start:start + ae.chunk], src_dc=self.m))

    def apply_ae_repair(self, msg: m.AeRepair) -> None:
        """Install repaired versions through the protocol's own
        replication path, skipping what arrived by other means since the
        digest went out (a reconnected channel, a catch-up chunk)."""
        for version in msg.versions:
            if not self.store.has_version(version.key, version.sr,
                                          version.ut):
                self.ae_repairs_applied += 1
                self.apply_replicate(m.Replicate(version=version))

    # ------------------------------------------------------------------
    # Garbage collection (Section IV-B)
    # ------------------------------------------------------------------
    def _gc_tick(self) -> None:
        report = self._gc_report_vector()
        aggregator = self.topology.server(self.m, 0)
        if aggregator == self.address:
            self._gc_receive_report(report, self.n)
        else:
            self.send(aggregator, m.GcPush(vec=report, partition=self.n))
        self.rt.schedule(self._protocol.gc_interval_s, self._gc_tick)

    def _gc_report_vector(self) -> list[Micros]:
        """min over active transaction snapshots, else the node's VV.

        The paper's text says "aggregate maximum" of the active TVs, but
        retaining versions needed by the *oldest* active snapshot requires
        the minimum; we implement the minimum (see DESIGN.md).
        """
        vec = list(self.vv)
        for state in self._active_tx.values():
            tv = state.get("tv")
            if tv is not None:
                vec = vec_min(vec, tv)
        return vec

    def _gc_receive_report(self, vec: list[Micros], partition: int) -> None:
        self._gc_reports[partition] = vec
        if not self._aggregation_complete(self._gc_reports):
            return
        gv = vec_aggregate_min(self._gc_reports.values())
        self._gc_reports.clear()
        self.broadcast_dc(m.GcBroadcast(gv=gv),
                          lambda msg: self._apply_gc(msg.gv))

    def _apply_gc(self, gv: list[Micros]) -> None:
        self.store.collect(gv)

    def _aggregation_complete(self, reports: dict[int, Any]) -> bool:
        """Whether a GC/stabilization aggregation round has heard from
        every partition it can still expect to hear from: all of them
        when membership is off (the seed's length check, byte-identical),
        the view members plus the aggregator itself when it is on — a
        partition resharded out of the view may be dead, and waiting on
        its report would stall every round forever.
        """
        mem = self._membership
        if mem is None:
            return len(reports) >= self.topology.num_partitions
        return mem.quorum_partitions().issubset(reports.keys())

    # ------------------------------------------------------------------
    # Intra-DC broadcast (stabilization / GC rounds)
    # ------------------------------------------------------------------
    def broadcast_dc(
        self, msg: Any, receive_local: Callable[[Any], None]
    ) -> None:
        """Fan ``msg`` to every server of this DC, sizing it only once.

        The broadcaster applies the message to itself via
        ``receive_local`` at its own slot in DC iteration order, which
        preserves the exact event-scheduling order of the per-server loop
        this replaces (the local apply may wake waiters and schedule
        events *before* the remote sends draw latency samples).
        """
        size = self.rt.message_size(msg)
        send = self.rt.send
        src = self.address
        for server in self.topology.dc_servers(self.m):
            if server == src:
                receive_local(msg)
            else:
                send(server, msg, size)

    # ------------------------------------------------------------------
    # Crash recovery: durable-state restore + replication catch-up
    # ------------------------------------------------------------------
    def restore_durable_state(self, recovered) -> int:
        """Rebuild chains, version vector and clock floor from disk.

        ``recovered`` is a :class:`repro.persistence.manager.
        RecoveredState`.  Replaying is insert-by-identity: versions the
        (deterministic) preload already installed, or that both the
        snapshot and the log tail carry, merge instead of duplicating —
        which is what makes "snapshot, then replay the tail" idempotent
        regardless of where the crash fell between the two.  Returns the
        number of versions actually added.
        """
        applied = 0
        store = self.store
        for version in recovered.versions:
            existing = store.find_version(version.key, version.sr,
                                          version.ut)
            if existing is not None:
                self._merge_recovered(existing, version)
                continue
            store.insert(version)
            applied += 1
            if version.ut > self.vv[version.sr]:
                self.vv[version.sr] = version.ut
        for dc, ts in enumerate(recovered.vv):
            if dc < len(self.vv) and ts > self.vv[dc]:
                self.vv[dc] = ts
        # New updates must stamp strictly beyond everything already
        # durable, whatever the OS clock did across the restart.
        self._advance_clock_past(self.vv[self.m])
        return applied

    def _merge_recovered(self, existing: Version, recovered: Version) -> None:
        """Fold a replayed duplicate into the already-present version.

        Nothing to do for immutable vector-clock versions; COPS*
        overrides this to merge the mutable ``visible`` flag (the log
        records a version once hidden and again once its checks passed).
        """

    def _advance_clock_past(self, floor_us: Micros) -> None:
        """Clock-discipline hook: hybrid-clock protocols override."""
        self.clock.advance_past(floor_us)

    def begin_catchup(self, timeout_s: float = CATCHUP_TIMEOUT_S) -> None:
        """Ask every peer replica to re-send what the crash window lost.

        Replication has no retransmit (channels are fire-and-forget
        FIFO), so updates sent while this server was down are gone from
        the wire.  Worse, the first heartbeat from a peer would advance
        ``VV`` *past* those lost updates and a GET could then serve the
        pre-crash past as if it were fresh — so until every peer's final
        catch-up chunk (or ``timeout_s``, for peers that are themselves
        down), client-facing requests are parked.
        """
        peer_dcs = {addr.dc for addr in self._peer_replicas}
        if not peer_dcs:
            return
        self._catching_up = peer_dcs
        self._parked_during_catchup = []
        self.send_fanout(
            self._peer_replicas,
            m.ReplSyncReq(vv=list(self.vv), requester=self.address),
        )
        self.rt.schedule(timeout_s, self._catchup_timeout)

    def handle_repl_sync(self, msg: m.ReplSyncReq) -> None:
        """Re-send our locally created versions newer than the
        requester's recovered vector, in update-time order, chunked."""
        floor = msg.vv[self.m] if self.m < len(msg.vv) else 0
        missed = [v for v in self.store.all_versions()
                  if v.sr == self.m and v.ut > floor]
        missed.sort(key=lambda v: v.ut)
        if not missed:
            self.send(msg.requester,
                      m.ReplCatchup(versions=[], src_dc=self.m, last=True))
            return
        for start in range(0, len(missed), CATCHUP_CHUNK):
            chunk = missed[start:start + CATCHUP_CHUNK]
            self.send(msg.requester, m.ReplCatchup(
                versions=chunk, src_dc=self.m,
                last=start + CATCHUP_CHUNK >= len(missed),
            ))

    def apply_catchup(self, msg: m.ReplCatchup) -> None:
        """Install missed versions through the protocol's own
        replication path (skipping what a reconnected channel already
        delivered), and unpark clients once every peer has answered."""
        for version in msg.versions:
            if not self.store.has_version(version.key, version.sr,
                                          version.ut):
                self.apply_replicate(m.Replicate(version=version))
        if msg.last and self._catching_up is not None:
            self._catching_up.discard(msg.src_dc)
            if not self._catching_up:
                self._finish_catchup()

    def _catchup_timeout(self) -> None:
        if self._catching_up is not None:
            # A peer DC is unreachable (possibly down itself): serve
            # what we have rather than block forever — availability over
            # freshness, exactly the optimistic protocol's stance.
            self._finish_catchup()

    def _finish_catchup(self) -> None:
        self._catching_up = None
        parked = self._parked_during_catchup
        self._parked_during_catchup = []
        for parked_msg in parked:
            self.on_message(parked_msg)
        self.waiters.notify()

    def on_message(self, msg: Any) -> None:
        if self._catching_up is not None and isinstance(msg, _CLIENT_FACING):
            self._parked_during_catchup.append(msg)
            return
        super().on_message(msg)

    # ------------------------------------------------------------------
    # Dispatch plumbing shared by subclasses
    # ------------------------------------------------------------------
    def service_time(self, msg: Any) -> float:
        service = self._service
        if isinstance(msg, m.GetReq):
            return service.get_s
        if isinstance(msg, m.PutReq):
            return service.put_s
        if isinstance(msg, m.Replicate):
            return service.replicate_s
        if isinstance(msg, m.ReplicateBatch):
            # Applying n versions costs n applies; the batch saves
            # messages and bytes, not modeled CPU.
            return service.replicate_s * len(msg.versions)
        if isinstance(msg, m.Heartbeat):
            return service.heartbeat_s
        if isinstance(msg, m.RoTxReq):
            partitions = {self.owner_partition(k) for k in msg.keys}
            return (service.tx_coordinator_s
                    + service.tx_coordinator_per_slice_s * len(partitions))
        if isinstance(msg, m.SliceReq):
            return service.slice_base_s + service.slice_per_key_s * len(msg.keys)
        if isinstance(msg, m.SliceResp):
            return service.tx_coordinator_per_slice_s
        if isinstance(msg, (m.StabPush, m.StabBroadcast, m.UstGossip)):
            return service.stabilization_msg_s
        if isinstance(msg, (m.GcPush, m.GcBroadcast)):
            return service.gc_msg_s
        if isinstance(msg, m.AeDigest):
            return service.stabilization_msg_s
        if isinstance(msg, m.AeRepair):
            # Installing n repaired versions costs n replication applies.
            return service.replicate_s * len(msg.versions)
        if isinstance(msg, m.MigrateChunk):
            # Installing n migrated versions costs n replication applies.
            return service.replicate_s * len(msg.versions)
        if isinstance(msg, (m.ViewPropose, m.ViewCommit, m.ViewGossip,
                            m.MigrateStart, m.MigrateAck)):
            return service.stabilization_msg_s
        return 0.0

    def message_priority(self, msg: Any) -> int:
        """Background machinery (replication apply, heartbeats,
        stabilization, GC) runs behind client-facing work, mirroring the
        request-threads-vs-apply-threads structure of real stores.  Under
        saturation the background class starves — the paper's stated cause
        of load-dependent blocking (POCC) and staleness (Cure*)."""
        return BACKGROUND if type(msg) in _BACKGROUND_TYPES else FOREGROUND

    def dispatch(self, msg: Any) -> None:
        mem = self._membership
        if mem is not None and mem.intercept(msg):
            return
        if isinstance(msg, m.GetReq):
            self.handle_get(msg)
        elif isinstance(msg, m.PutReq):
            self.handle_put(msg)
        elif isinstance(msg, m.Replicate):
            self.apply_replicate(msg)
        elif isinstance(msg, m.ReplicateBatch):
            self.apply_replicate_batch(msg)
        elif isinstance(msg, m.Heartbeat):
            self.apply_heartbeat(msg)
        elif isinstance(msg, m.RoTxReq):
            self.handle_ro_tx(msg)
        elif isinstance(msg, m.SliceReq):
            self.handle_slice(msg)
        elif isinstance(msg, m.SliceResp):
            self.handle_slice_resp(msg)
        elif isinstance(msg, m.GcPush):
            self._gc_receive_report(msg.vec, msg.partition)
        elif isinstance(msg, m.GcBroadcast):
            self._apply_gc(msg.gv)
        elif isinstance(msg, m.ReplSyncReq):
            self.handle_repl_sync(msg)
        elif isinstance(msg, m.ReplCatchup):
            self.apply_catchup(msg)
        elif isinstance(msg, m.AeDigest):
            self.handle_ae_digest(msg)
        elif isinstance(msg, m.AeRepair):
            self.apply_ae_repair(msg)
        else:
            self.handle_other(msg)

    # -- protocol-specific hooks ----------------------------------------
    def handle_get(self, msg: m.GetReq) -> None:
        raise NotImplementedError

    def handle_put(self, msg: m.PutReq) -> None:
        raise NotImplementedError

    def handle_ro_tx(self, msg: m.RoTxReq) -> None:
        raise NotImplementedError

    def handle_slice(self, msg: m.SliceReq) -> None:
        raise NotImplementedError

    def handle_other(self, msg: Any) -> None:
        raise ProtocolError(f"{self.address}: unhandled message {msg!r}")

    # ------------------------------------------------------------------
    # Read-only transaction fan-out / fan-in (Algorithm 2 lines 29-38)
    # ------------------------------------------------------------------
    def coordinate_tx(
        self,
        msg: m.RoTxReq,
        tv: list[Micros],
        pessimistic: bool = False,
    ) -> None:
        """Fan a RO-TX out to one slice request per involved partition.

        The protocols differ only in how the snapshot vector ``tv`` is
        computed (received-items boundary for POCC, stable-items boundary
        for Cure*); the coordination is identical.
        """
        groups: dict[int, list[str]] = {}
        for key in msg.keys:
            groups.setdefault(self.owner_partition(key), []).append(key)
        tx_id = self.new_tx_id()
        self._active_tx[tx_id] = {
            "tv": tv,
            "client": msg.client,
            "op_id": msg.op_id,
            "awaiting": len(groups),
            "versions": [],
            # The original request, kept so a view change under the
            # transaction (aborted slice) can regroup and retry it.
            "origin": msg,
        }
        for partition, keys in groups.items():
            slice_req = m.SliceReq(keys=tuple(keys), tv=list(tv),
                                   coordinator=self.address, tx_id=tx_id,
                                   pessimistic=pessimistic)
            target = self.topology.server(self.m, partition)
            if target == self.address:
                # Local slice: skip the network, still pay the CPU.
                self.on_message(slice_req)
            else:
                self.send(target, slice_req)

    def handle_slice_resp(self, msg: m.SliceResp) -> None:
        state = self._active_tx.get(msg.tx_id)
        if state is None:
            return  # transaction aborted (possible under HA recovery)
        if msg.aborted and self._membership is not None:
            # A slice server no longer owns part of the snapshot (the
            # view changed under the transaction): drop this attempt and
            # regroup the whole transaction against the current view.
            # The HA protocol overrides this method and handles its own
            # aborts before reaching here.
            del self._active_tx[msg.tx_id]
            self.handle_ro_tx(state["origin"])
            return
        state["versions"].extend(msg.versions)
        state["awaiting"] -= 1
        if state["awaiting"] == 0:
            del self._active_tx[msg.tx_id]
            self.send(state["client"],
                      m.RoTxReply(versions=state["versions"],
                                  op_id=state["op_id"]))

    def send_slice_resp(self, msg: m.SliceReq, response: m.SliceResp) -> None:
        if msg.coordinator == self.address:
            self.on_message(response)
        else:
            self.send(msg.coordinator, response)

    # ------------------------------------------------------------------
    # Helpers shared by subclasses
    # ------------------------------------------------------------------
    def reply_for(self, version: Version, op_id: int) -> m.GetReply:
        return m.GetReply(
            key=version.key,
            value=version.value,
            ut=version.ut,
            dv=version.dv,
            sr=version.sr,
            op_id=op_id,
        )

    def nil_reply(self, key: str, op_id: int) -> m.GetReply:
        """Reply for a key with no version anywhere (possible only when the
        workload bypasses preloading)."""
        return m.GetReply(
            key=key, value=None, ut=0,
            dv=(0,) * self.topology.num_dcs, sr=self.m, op_id=op_id,
        )

    def owner_partition(self, key: str) -> int:
        """Key placement under the server's *current* view (falls back
        to the topology's boot-frozen placement when membership is off)."""
        mem = self._membership
        if mem is not None:
            return mem.view.owner_of(key)
        return self.topology.partition_of(key)

    @property
    def view_epoch(self) -> int:
        """The committed view epoch (0 when membership is off)."""
        mem = self._membership
        return mem.view.epoch if mem is not None else 0

    def new_tx_id(self) -> int:
        self._next_tx_id += 1
        return self._next_tx_id

    def vv_covers(self, deps: Sequence[Micros], skip_local: bool = True) -> bool:
        """The Algorithm 2 waiting condition: VV >= deps (entry-wise),
        optionally skipping the local entry."""
        return vec_covers(self.vv, deps, skip=self.m if skip_local else None)


class CausalClient(ProtocolCore):
    """Client-side session state and operations (Algorithm 1).

    The driver calls :meth:`get` / :meth:`put` / :meth:`ro_tx` with a
    completion callback; the client maintains ``DV_c`` and ``RDV_c`` exactly
    as the pseudo-code prescribes.  POCC and Cure* clients are identical —
    the paper keeps client metadata the same for fairness — so protocol
    subclasses rarely override anything here.
    """

    def __init__(
        self,
        runtime: ProtocolRuntime,
        clock: PhysicalClock,
        topology: Topology,
        config: ClusterConfig,
        metrics: MetricsRegistry,
    ):
        super().__init__(runtime, clock)
        self.topology = topology
        self.config = config
        self.metrics = metrics
        self.m = self.address.dc
        num_dcs = topology.num_dcs
        #: DV_c: newest potential dependency per DC (reads and writes).
        self.dv: list[Micros] = vec_zero(num_dcs)
        #: RDV_c: dependency cut induced by reads only.
        self.rdv: list[Micros] = vec_zero(num_dcs)
        self._next_op_id = 0
        self._pending: dict[int, tuple[OpType, float, Callable]] = {}
        #: Operations completed since construction (includes warmup).
        self.ops_completed = 0
        self.session_resets = 0
        # Elastic membership: the client tracks its own copy of the view
        # (updated from NotOwner redirects) and stashes each in-flight
        # single-key request so a redirect can re-send the *original*
        # message — its vectors were snapshotted at issue time and stay a
        # correct causal past wherever the key now lives.  Both are None
        # when membership is off.
        membership = config.membership
        if membership.enabled:
            self._view: ClusterView | None = initial_view(
                topology.num_partitions, membership.initial_members,
                membership.vnodes)
            self._inflight: dict[int, Any] | None = {}
        else:
            self._view = None
            self._inflight = None

    # ------------------------------------------------------------------
    # Operations (Algorithm 1)
    # ------------------------------------------------------------------
    def read_dependency_vector(self) -> list[Micros]:
        """The vector attached to read requests.

        POCC sends RDV_c exactly as in Algorithm 1.  The Cure* client
        overrides this to ``max(RDV_c, DV_c)``: Cure's snapshots cover the
        client's whole causal past (including its own writes and the update
        times of items it read), which keeps read-your-writes robust under
        clock skew.  Metadata cost is identical — one M-entry vector.
        """
        return list(self.rdv)

    def get(self, key: str, callback: Callable[[m.GetReply], None]) -> None:
        """GET(k): send ⟨GETReq k, RDV_c⟩ to the responsible local server."""
        op_id = self._register(OpType.GET, callback)
        target = self._server_for(key)
        req = m.GetReq(key=key, rdv=self.read_dependency_vector(),
                       client=self.address, op_id=op_id)
        if self._inflight is not None:
            self._inflight[op_id] = req
        self.send(target, req)

    def put(self, key: str, value: Any,
            callback: Callable[[m.PutReply], None]) -> None:
        """PUT(k, v): send ⟨PUTReq k, v, DV_c⟩."""
        op_id = self._register(OpType.PUT, callback)
        target = self._server_for(key)
        req = m.PutReq(key=key, value=value, dv=list(self.dv),
                       client=self.address, op_id=op_id)
        if self._inflight is not None:
            self._inflight[op_id] = req
        self.send(target, req)

    def ro_tx(self, keys: Sequence[str],
              callback: Callable[[m.RoTxReply], None]) -> None:
        """RO-TX(χ): send ⟨RO-TX-Req χ, RDV_c⟩ to the session's server."""
        op_id = self._register(OpType.RO_TX, callback)
        coordinator = self.topology.server(self.m, self.address.partition)
        self.send(coordinator,
                  m.RoTxReq(keys=tuple(keys),
                            rdv=self.read_dependency_vector(),
                            client=self.address, op_id=op_id))

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    def service_time(self, msg: Any) -> float:
        return 0.0  # clients are load generators, not modeled CPUs

    def dispatch(self, msg: Any) -> None:
        if isinstance(msg, m.GetReply):
            self._complete_get(msg)
        elif isinstance(msg, m.PutReply):
            self._complete_put(msg)
        elif isinstance(msg, m.RoTxReply):
            self._complete_ro_tx(msg)
        elif isinstance(msg, m.SessionClosed):
            self._session_closed(msg)
        elif isinstance(msg, m.NotOwner):
            self._handle_not_owner(msg)
        else:
            raise ProtocolError(f"{self.address}: unexpected {msg!r}")

    def absorb_read(self, reply: m.GetReply) -> None:
        """Algorithm 1 lines 4-6: fold a read result into DV_c / RDV_c."""
        vec_max_inplace(self.rdv, reply.dv)
        vec_max_inplace(self.dv, self.rdv)
        if reply.ut > self.dv[reply.sr]:
            self.dv[reply.sr] = reply.ut

    def _complete_get(self, reply: m.GetReply) -> None:
        op_type, started, callback = self._pending.pop(reply.op_id)
        if self._inflight is not None:
            self._inflight.pop(reply.op_id, None)
        self.absorb_read(reply)
        self._finish(op_type, started)
        callback(reply)

    def _complete_put(self, reply: m.PutReply) -> None:
        op_type, started, callback = self._pending.pop(reply.op_id)
        if self._inflight is not None:
            self._inflight.pop(reply.op_id, None)
        # Algorithm 1 line 12: DV_c[m] <- ut.
        self.dv[self.m] = reply.ut
        self._finish(op_type, started)
        callback(reply)

    def _complete_ro_tx(self, reply: m.RoTxReply) -> None:
        op_type, started, callback = self._pending.pop(reply.op_id)
        # Algorithm 1 lines 17-19: read each returned item as a GET result.
        for item in reply.versions:
            self.absorb_read(item)
        self._finish(op_type, started)
        callback(reply)

    def _session_closed(self, msg: m.SessionClosed) -> None:
        """Base clients treat a closed session as fatal; the HA client
        overrides this with the re-initialization protocol."""
        raise ProtocolError(
            f"{self.address}: session closed by server ({msg.reason}); "
            "plain POCC/Cure clients cannot recover"
        )

    # ------------------------------------------------------------------
    # Elastic membership: NotOwner redirects
    # ------------------------------------------------------------------
    def _handle_not_owner(self, msg: m.NotOwner) -> None:
        """Adopt the server's view and re-place the original request.

        The deterministic per-op jitter decorrelates the retry storm a
        view commit releases (every parked op answers NotOwner at once).
        """
        if self._inflight is None:
            raise ProtocolError(
                f"{self.address}: NotOwner redirect with membership off"
            )
        if self._view is None or msg.epoch > self._view.epoch:
            self._view = ClusterView.from_wire(msg.epoch, msg.members,
                                               msg.vnodes)
        if msg.op_id not in self._inflight:
            return  # the operation completed while the redirect flew
        backoff = self.config.membership.redirect_backoff_s
        jitter = 0.5 + ((msg.op_id * 2654435761) & 0xFFFF) / 0xFFFF
        self.rt.schedule(backoff * jitter,
                         lambda: self._resend(msg.op_id))

    def _resend(self, op_id: int) -> None:
        req = self._inflight.get(op_id) if self._inflight else None
        if req is None or op_id not in self._pending:
            return  # completed meanwhile
        self.send(self._server_for(req.key), req)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _register(self, op_type: OpType, callback: Callable) -> int:
        self._next_op_id += 1
        self._pending[self._next_op_id] = (op_type, self.rt.now, callback)
        return self._next_op_id

    def _finish(self, op_type: OpType, started: float) -> None:
        self.ops_completed += 1
        self.metrics.record_op(op_type, self.rt.now - started)

    def _server_for(self, key: str) -> Address:
        if self._view is not None:
            return self.topology.server(self.m, self._view.owner_of(key))
        return self.topology.server(self.m, self.topology.partition_of(key))

    def reset_session(self) -> None:
        """Drop all session metadata (client fail-over / HA demotion).

        Per Section III-B the client "might not be able to see the same
        version of some data items read or written in the optimistic
        session" — causal stickiness restarts from scratch.
        """
        self.dv = vec_zero(len(self.dv))
        self.rdv = vec_zero(len(self.rdv))
        self.session_resets += 1

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)
