"""Boot and drive a live (asyncio TCP) cluster.

:class:`LiveCluster` instantiates the same protocol cores, workload
generators, metrics registry and causal checker as the simulated harness
(:mod:`repro.harness.builders`), but wires them to
:class:`repro.runtime.transport.LiveRuntime` adapters: every server is a
TCP listener on localhost (or the configured host), every client an
actual closed-loop TCP driver, and the checker verifies the cluster's
*recorded* operation history exactly as it does a simulated one.

:func:`run_live_experiment` is the live-mode smoke experiment: boot,
warm up, measure for ``config.duration_s`` of wall-clock time, quiesce,
then report throughput/latency plus the checker verdict.  It backs both
``repro-bench-live`` and the CI ``live-smoke`` job.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.common.config import ExperimentConfig
from repro.common.errors import ReproError
from repro.common.types import Address
from repro.clocks.physical import PhysicalClock
from repro.cluster.ring import initial_view
from repro.cluster.topology import KeyPools, Topology
from repro.harness import seeds
from repro.metrics.collectors import MetricsRegistry
from repro.protocols.registry import client_class, server_class
from repro.runtime.transport import (
    AddressBook,
    LiveHub,
    LiveRuntime,
    metrics_port_map,
)
from repro.metrics.histogram import LogHistogram
from repro.sim.rng import RngRegistry
from repro.verification.checker import CausalChecker
from repro.workload.driver import DriverBase, make_driver
from repro.workload.generators import make_workload

#: How long quiescing waits for in-flight operations after drivers stop.
SETTLE_TIMEOUT_S = 10.0

#: Period of the event-loop lag probe (armed only while telemetry is on).
LOOP_PROBE_INTERVAL_S = 0.25


@dataclass(slots=True)
class LiveReport:
    """Everything measured in one live run, in plain-data form."""

    protocol: str
    num_dcs: int
    num_partitions: int
    duration_s: float
    total_ops: int
    throughput_ops_s: float
    op_stats: dict[str, dict[str, float]]
    verification: dict[str, int]
    violations: list[str]
    history_events: int
    messages_sent: int
    messages_delivered: int
    bytes_sent: int
    clean_shutdown: bool
    #: Driver model the run used ("closed" or "open").
    arrival: str = "closed"
    #: Driver-side latency percentiles per op kind (plus "all"), measured
    #: from the *intended* arrival (open loop: queueing delay included):
    #: ``{"get": {"count", "mean", "p50", "p90", "p99", "max"}, …}``.
    latency: dict = field(default_factory=dict)
    #: Open loop only: arrivals discarded at the drivers' backlog cap
    #: (nonzero means the offered rate was far beyond capacity).
    dropped_arrivals: int = 0
    #: Update-visibility latency (remote-update creation to readability
    #: here), ``LogHistogram.summary()`` shape — what replication
    #: batching trades against inter-DC message count.
    visibility: dict = field(default_factory=dict)
    #: Socket writes the transport issued (>= 1 frame each) and how many
    #: frames shared a write with others — the coalescing factor.
    batches_sent: int = 0
    batched_frames: int = 0
    errors: list[str] = field(default_factory=list)
    #: Per-partition durability counters (empty when persistence is off):
    #: ``"dcD-pP" -> {recovered_versions, wal_records_appended, …}``.
    persistence: dict = field(default_factory=dict)
    #: Fault-injection accounting from the transport (empty when no chaos
    #: ran): ``chaos_dropped``/``chaos_delayed`` totals, per-message-kind
    #: drops (``dropped_by_type``) and frames that died with a crashed
    #: sender (``messages_expired``, the live analogue of the simulator's
    #: counter of the same name) — chaos-matrix cells assert on these
    #: directly instead of parsing logs.
    faults: dict = field(default_factory=dict)
    #: Bound port of this process's ``/metrics`` endpoint (None when
    #: telemetry is off).
    metrics_port: int | None = None

    @property
    def passed(self) -> bool:
        """The CI gate: work happened, causally, and shutdown was clean."""
        return (self.total_ops > 0 and not self.violations
                and self.clean_shutdown)

    def summary_text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"live cluster [{self.protocol}] "
            f"{self.num_dcs} DCs x {self.num_partitions} partitions "
            f"({self.arrival} loop): {verdict}",
            f"  throughput      : {self.throughput_ops_s:,.0f} ops/s "
            f"({self.total_ops} ops in {self.duration_s:.2f}s)",
            f"  verification    : {self.verification['violations']} "
            f"violations over {self.verification['reads_checked']} reads "
            f"/ {self.verification['tx_reads_checked']} tx-reads "
            f"({self.history_events} history events)",
            f"  transport       : {self.messages_sent:,} frames sent, "
            f"{self.messages_delivered:,} delivered, "
            f"{self.bytes_sent:,} bytes, "
            f"{self.batches_sent:,} writes "
            f"({self.batched_frames:,} frames coalesced)",
            f"  shutdown        : "
            f"{'clean' if self.clean_shutdown else 'NOT clean'}",
        ]
        for kind in sorted(self.latency):
            stats = self.latency[kind]
            lines.append(
                f"  latency [{kind:>5}] : "
                f"p50 {stats['p50'] * 1000:.2f}ms  "
                f"p90 {stats['p90'] * 1000:.2f}ms  "
                f"p99 {stats['p99'] * 1000:.2f}ms  "
                f"({stats['count']} ops)"
            )
        if self.dropped_arrivals:
            lines.append(f"  dropped arrivals: {self.dropped_arrivals} "
                         f"(offered rate beyond backlog cap)")
        if self.visibility.get("count"):
            vis = self.visibility
            lines.append(
                f"  visibility      : p50 {vis['p50'] * 1000:.2f}ms  "
                f"p99 {vis['p99'] * 1000:.2f}ms  "
                f"({vis['count']} remote updates)"
            )
        if self.faults:
            lines.append(
                f"  faults          : "
                f"{self.faults.get('chaos_dropped', 0)} dropped, "
                f"{self.faults.get('chaos_delayed', 0)} delayed, "
                f"{self.faults.get('messages_expired', 0)} expired"
            )
        for violation in self.violations[:5]:
            lines.append(f"    violation: {violation}")
        for error in self.errors[:5]:
            lines.append(f"    error: {error}")
        return "\n".join(lines)


class LiveCluster:
    """One live deployment: servers, clients and drivers on real sockets.

    ``serve_addresses`` restricts which *server* endpoints this process
    hosts (multi-process deployments boot one ``LiveCluster`` per process
    with disjoint address sets); ``with_clients=False`` hosts servers
    only, for a pure ``repro-serve`` process driven from elsewhere.

    ``client_shard=(index, total)`` hosts only every ``total``-th client
    session (those whose deterministic position ``% total == index``):
    the multi-process load generator boots one client-only shard per
    worker process against external servers, and the shards partition
    the exact client set a single process would host — same addresses,
    same per-address seeds, so the sharded workload is the unsharded
    workload, split.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        host: str = "127.0.0.1",
        base_port: int = 0,
        serve_addresses: Sequence[Address] | None = None,
        with_clients: bool = True,
        client_shard: tuple[int, int] | None = None,
    ):
        config.validate()
        self.config = config
        cluster = config.cluster
        view = (initial_view(cluster.num_partitions,
                             cluster.membership.initial_members,
                             cluster.membership.vnodes)
                if cluster.membership.enabled else None)
        self.topology = Topology(cluster.num_dcs, cluster.num_partitions,
                                 view)
        self.pools = KeyPools(self.topology, cluster.keys_per_partition)
        self.metrics = MetricsRegistry()
        self.rng = RngRegistry(config.seed)
        self.checker = CausalChecker(record_history=True) \
            if config.verify else None
        # The book always covers the clients: a server-only process still
        # needs their (deterministic) ports to dial replies at.
        self.book = AddressBook.for_topology(
            self.topology,
            clients_per_partition=config.workload.clients_per_partition,
            host=host,
            base_port=base_port,
        )
        self.hub = LiveHub(self.book)
        self.servers: dict[Address, Any] = {}
        self.clients: list[Any] = []
        self.drivers: list[DriverBase] = []
        #: Durability managers of the hosted servers (persistence on);
        #: values are :class:`repro.persistence.manager.
        #: PartitionDurability` (imported lazily: persistence depends on
        #: the codec, so a module-level import here would be circular).
        self.durability: dict[Address, Any] = {}
        #: What each hosted server recovered from disk at boot.
        self.recovered: dict[Address, Any] = {}
        self._needs_catchup: list[Any] = []
        self._with_clients = with_clients
        self._serve_addresses = (
            set(serve_addresses) if serve_addresses is not None else None
        )
        if client_shard is not None:
            index, total = client_shard
            if total < 1 or not 0 <= index < total:
                raise ReproError(
                    f"client_shard must be (index, total) with "
                    f"0 <= index < total, not {client_shard!r}"
                )
        self._client_shard = client_shard
        self._built = False
        self._host = host
        # Live telemetry (off by default; see TelemetryConfig and
        # docs/observability.md).  Created in _build() *before* the cores:
        # every ProtocolCore caches the hooks at construction.
        self.telemetry = None
        self.trace = None
        self.metrics_server = None
        self.metrics_port: int | None = None
        self._loop_probe = None

    # ------------------------------------------------------------------
    # Construction (mirrors harness.builders.build_cluster)
    # ------------------------------------------------------------------
    def _hosted(self, address: Address) -> bool:
        if self._serve_addresses is None:
            return True
        return address in self._serve_addresses

    def _build(self) -> None:
        # Deferred into start(): protocol cores arm their periodic timers
        # during construction, which needs the running event loop.
        cluster = self.config.cluster
        persistence = self.config.persistence
        if cluster.telemetry.enabled:
            self._init_telemetry()
        server_cls = server_class(cluster.protocol)
        for address in self.topology.all_servers():
            if not self._hosted(address):
                continue
            durability = recovered = None
            if persistence.enabled:
                from repro.persistence.manager import PartitionDurability
                durability = PartitionDurability(
                    persistence.data_dir, address, persistence
                )
                # Read the disk *before* the server exists: recovery
                # must see the clean-boundary state, not a live WAL.
                recovered = durability.recover()
                self.durability[address] = durability
                self.recovered[address] = recovered
            clock = PhysicalClock.sample(
                self.hub, cluster.clocks,
                self.rng.stream(seeds.clock_stream(address)),
            )
            runtime = self.hub.runtime(address)
            runtime.durability = durability
            if self.telemetry is not None:
                runtime.telemetry = self.telemetry
                runtime.trace = self.trace
            server = server_cls(runtime, clock, self.topology, cluster,
                                self.metrics)
            server.store.preload(self.pools.pool(address.partition),
                                 num_dcs=cluster.num_dcs)
            if recovered is not None and recovered.prior_boot:
                server.restore_durable_state(recovered)
                # This is a *re*start: whatever replication the crash
                # window dropped must be pulled back from the peers
                # before clients may read here.  Gated on prior_boot,
                # not had_state: a server killed before its first record
                # became durable still served pre-crash reads.
                self._needs_catchup.append(server)
            if (recovered is not None and recovered.view_epoch >= 0
                    and server._membership is not None):
                # The WAL's newest committed view outranks the config's
                # initial one: a server restarted after a reshard must
                # not boot believing the pre-reshard placement.
                server._membership.adopt_recovered(
                    recovered.view_epoch, recovered.view_members,
                    recovered.view_vnodes)
            self.servers[address] = server
            if self.telemetry is not None:
                self._register_server_telemetry(address, server, durability)

        if not self._with_clients:
            return
        client_cls = client_class(cluster.protocol)
        workload_cfg = self.config.workload
        position = -1
        for dc in range(self.topology.num_dcs):
            for partition in range(self.topology.num_partitions):
                for index in range(workload_cfg.clients_per_partition):
                    position += 1
                    if self._client_shard is not None:
                        shard_index, shard_total = self._client_shard
                        if position % shard_total != shard_index:
                            continue
                    address = self.topology.client(dc, partition, index)
                    clock = PhysicalClock.sample(
                        self.hub, cluster.clocks,
                        self.rng.stream(seeds.clock_stream(address)),
                    )
                    runtime = self.hub.runtime(address)
                    if self.telemetry is not None:
                        runtime.telemetry = self.telemetry
                        runtime.trace = self.trace
                    client = client_cls(runtime, clock, self.topology,
                                        cluster, self.metrics)
                    workload = make_workload(
                        workload_cfg, self.pools,
                        self.rng.stream(seeds.workload_stream(address)),
                    )
                    driver = make_driver(
                        sim=runtime,
                        client=client,
                        workload=workload,
                        workload_config=workload_cfg,
                        rng=self.rng.stream(seeds.driver_stream(address)),
                        checker=self.checker,
                    )
                    self.clients.append(client)
                    self.drivers.append(driver)

    # ------------------------------------------------------------------
    # Telemetry (live observability; see docs/observability.md)
    # ------------------------------------------------------------------
    def _process_label(self) -> str:
        """This process's identity in trace filenames and ``/vars.json``:
        the first hosted server slot, the load-generator shard index, or
        the pid as a last resort."""
        for address in self.topology.all_servers():
            if self._hosted(address):
                return f"dc{address.dc}-p{address.partition}"
        if self._client_shard is not None:
            return f"loadgen-{self._client_shard[0]}"
        return f"pid{os.getpid()}"

    def _init_telemetry(self) -> None:
        from repro.obs.telemetry import Telemetry
        telemetry = Telemetry()
        # Declare every family up front so each endpoint exposes the full
        # set from the first scrape (the CI gate checks presence before
        # traffic necessarily produced samples).
        telemetry.family(
            "repro_visibility_lag_seconds", "summary",
            "Remote-update creation to local readability, seconds.")
        telemetry.family(
            "repro_wal_fsync_seconds", "summary",
            "Wall-clock duration of WAL fsyncs, seconds.")
        telemetry.family(
            "repro_stable_lag_seconds", "gauge",
            "Stability horizon (VV / GSS / GST / UST) behind the local "
            "clock, seconds.")
        telemetry.family(
            "repro_wait_queue_depth", "gauge",
            "Operations parked on predicate wait-queues.")
        telemetry.family(
            "repro_repl_batch_occupancy", "gauge",
            "Versions buffered in the replication batcher.")
        telemetry.family(
            "repro_event_loop_lag_seconds", "gauge",
            "How late the telemetry probe's event-loop timer fired, "
            "seconds.")
        telemetry.family(
            "repro_link_fault_drops_total", "counter",
            "Frames dropped by injected link faults, by channel and "
            "message kind.")
        telemetry.family(
            "repro_view_epoch", "gauge",
            "Committed cluster-view epoch (0 = boot view / membership "
            "off).")
        telemetry.family(
            "repro_keys_migrated_total", "counter",
            "Keys this server donated during reshard handoffs.")
        telemetry.family(
            "repro_migration_bytes_total", "counter",
            "MigrateChunk bytes this server streamed as a donor.")
        telemetry.family(
            "repro_not_owner_redirects_total", "counter",
            "Client operations answered with NotOwner redirects.")
        stats = self.hub.stats
        telemetry.gauge("repro_transport_frames_sent_total",
                        lambda: stats.messages_sent, kind="counter",
                        help_text="Frames handed to the socket layer.")
        telemetry.gauge("repro_transport_frames_delivered_total",
                        lambda: stats.messages_delivered, kind="counter",
                        help_text="Frames decoded and dispatched inbound.")
        telemetry.gauge("repro_transport_bytes_sent_total",
                        lambda: stats.bytes_sent, kind="counter",
                        help_text="Frame bytes handed to the socket "
                                  "layer.")
        telemetry.gauge("repro_transport_frames_expired_total",
                        lambda: stats.messages_dropped, kind="counter",
                        help_text="Frames that died with their (crashed) "
                                  "sender.")
        link_faults = self.hub._link_faults

        def _fault_samples():
            for (src, dst), fault in link_faults.items():
                channel = (("src_dc", str(src)), ("dst_dc", str(dst)))
                if fault.dropped_by_type:
                    for kind, count in sorted(fault.dropped_by_type.items()):
                        yield ("repro_link_fault_drops_total",
                               channel + (("kind", kind),), count)
                elif fault.dropped:
                    yield ("repro_link_fault_drops_total",
                           channel + (("kind", "unknown"),), fault.dropped)

        telemetry.collector(_fault_samples)
        # Visibility lag flows continuously into the endpoint, independent
        # of the report's measurement window (see MetricsRegistry).
        self.metrics.visibility_sink = telemetry.summary(
            "repro_visibility_lag_seconds")
        cfg = self.config.cluster.telemetry
        if cfg.trace:
            from repro.obs.tracing import TraceLog
            path = os.path.join(cfg.trace_dir,
                                f"trace-{self._process_label()}.jsonl")
            hub = self.hub
            self.trace = TraceLog(path, cfg.trace_sample_every,
                                  now_fn=lambda: hub.now)
        self.telemetry = telemetry

    def _register_server_telemetry(self, address: Address, server: Any,
                                   durability: Any) -> None:
        telemetry = self.telemetry
        labels = (("dc", str(address.dc)),
                  ("partition", str(address.partition)))
        telemetry.gauge("repro_stable_lag_seconds",
                        server.stable_lag_seconds, labels=labels)
        waiters = server.waiters
        telemetry.gauge("repro_wait_queue_depth",
                        lambda: len(waiters), labels=labels)
        batcher = server._batcher
        if batcher is not None:
            telemetry.gauge("repro_repl_batch_occupancy",
                            lambda: batcher.pending, labels=labels)
        telemetry.gauge("repro_view_epoch",
                        lambda: server.view_epoch, labels=labels)
        telemetry.gauge("repro_keys_migrated_total",
                        lambda: server.keys_migrated, labels=labels,
                        kind="counter")
        telemetry.gauge("repro_migration_bytes_total",
                        lambda: server.migration_bytes, labels=labels,
                        kind="counter")
        telemetry.gauge("repro_not_owner_redirects_total",
                        lambda: server.not_owner_redirects, labels=labels,
                        kind="counter")
        wal = durability.wal if durability is not None else None
        if wal is not None:
            hist = telemetry.summary("repro_wal_fsync_seconds",
                                     labels=labels)
            wal.sync_timing = hist.record

    async def _start_telemetry(self) -> None:
        """Bind the scrape endpoint and arm the loop-lag probe (after
        ``hub.start()``: both need the running loop)."""
        if self.telemetry is None:
            return
        from repro.obs.httpd import MetricsServer
        from repro.obs.telemetry import LoopLagProbe
        cfg = self.config.cluster.telemetry
        probe = LoopLagProbe(self.hub.loop, LOOP_PROBE_INTERVAL_S)
        probe.start()
        self._loop_probe = probe
        self.telemetry.gauge("repro_event_loop_lag_seconds",
                             lambda: probe.last_lag_s)
        # Deterministic slot: this process binds at its *first hosted
        # server's* position of the cluster-wide port map (the same map
        # repro-top derives from the config).  Processes hosting no
        # servers (load-generator shards) take an ephemeral port.
        host, port = self._host, 0
        if cfg.metrics_base_port and self.servers:
            ports = metrics_port_map(self.topology, cfg.metrics_base_port,
                                     host=self._host)
            host, port = ports[next(iter(self.servers))]
        meta = {
            "protocol": self.config.cluster.protocol,
            "process_label": self._process_label(),
            "servers": [f"dc{a.dc}-p{a.partition}" for a in self.servers],
        }
        server = MetricsServer(self.telemetry, host=host, port=port,
                               meta=meta)
        self.metrics_port = await server.start()
        self.metrics_server = server

    async def stop_telemetry(self) -> None:
        """Tear the observability side down (idempotent); called before
        the hub closes so a scrape never races a dying loop."""
        if self._loop_probe is not None:
            self._loop_probe.stop()
            self._loop_probe = None
        if self.metrics_server is not None:
            await self.metrics_server.close()
            self.metrics_server = None
        if self.trace is not None:
            self.trace.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Instantiate the cores and bind every hosted listener."""
        if not self._built:
            self._build()
            self._built = True
        # Group commit needs the running loop; arm it before any traffic
        # (catch-up replication below already appends through it).
        for durability in self.durability.values():
            durability.enable_group_commit(self.hub.loop.call_soon)
        await self.hub.start()
        await self._start_telemetry()
        # Catch-up only once the listeners are bound: the peers' replies
        # (and their reconnecting replication channels) need somewhere
        # to land.
        for server in self._needs_catchup:
            server.begin_catchup()
        self._needs_catchup = []
        self._arm_snapshot_timers()

    def _arm_snapshot_timers(self) -> None:
        interval = self.config.persistence.snapshot_interval_s
        if not interval:
            return
        for address, durability in self.durability.items():
            # Stagger like GC so co-hosted partitions do not all fsync
            # a snapshot at the same instant.
            server = self.servers[address]
            server.rt.schedule(interval * (1.0 + 0.01 * address.partition),
                               self._snapshot_tick, server, durability)

    def _snapshot_tick(self, server, durability) -> None:
        # Re-arm first: a transient snapshot failure (ENOSPC, EIO) must
        # not silently end snapshotting — and WAL truncation — forever.
        # The raised error still lands in hub.errors via the timer.
        server.rt.schedule(self.config.persistence.snapshot_interval_s,
                           self._snapshot_tick, server, durability)
        durability.snapshot(server.store, server.vv,
                            self.config.cluster.num_dcs)

    def flush_persistence(self) -> bool:
        """Force every WAL onto stable storage; False (and an error
        recorded) if any flush fails.  Called before the transport goes
        down so an acknowledged write can never outlive its log."""
        ok = True
        for address, durability in self.durability.items():
            try:
                durability.flush()
            except Exception as exc:
                self.hub.errors.append(
                    f"WAL flush failed for {address}: {exc!r}"
                )
                ok = False
        return ok

    def close_persistence(self) -> None:
        for address, durability in self.durability.items():
            try:
                durability.close()
            except Exception as exc:
                self.hub.errors.append(
                    f"WAL close failed for {address}: {exc!r}"
                )

    async def run(self) -> LiveReport:
        """The measured lifecycle: warmup → measure → quiesce → report."""
        await self.start()
        if not self.drivers:
            raise ReproError("this LiveCluster hosts no drivers to run")
        stagger = min(self.config.workload.think_time_s or 0.01, 0.02)
        for driver in self.drivers:
            driver.start(stagger_s=stagger)
        await asyncio.sleep(self.config.warmup_s)
        self.metrics.arm(self.hub.now)
        # Latency histograms restart with the window: warmup ramp-up ops
        # must not dilute the reported percentiles (completions after
        # the window keep recording — they are the window's own tail).
        for driver in self.drivers:
            driver.reset_latency()
        await asyncio.sleep(self.config.duration_s)
        self.metrics.disarm(self.hub.now)
        for driver in self.drivers:
            driver.stop()
        clean = await self._quiesce()
        clean = self.flush_persistence() and clean
        # A final flush can release acknowledgements held behind the last
        # group-commit sync; drain once more so they reach the wire.
        await self.hub.drain()
        report = self._report(clean and self.hub.clean)
        await self.stop_telemetry()
        await self.hub.close()
        self.close_persistence()
        return report

    async def _quiesce(self, timeout_s: float = SETTLE_TIMEOUT_S) -> bool:
        """Wait for in-flight operations, then flush outgoing queues."""
        deadline = self.hub.now + timeout_s
        while any(client.has_pending for client in self.clients):
            if self.hub.now >= deadline:
                self.hub.errors.append(
                    "quiesce timeout: operations still in flight after "
                    f"{timeout_s}s (blocked forever?)"
                )
                return False
            await asyncio.sleep(0.05)
        await self.hub.drain()
        return True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, clean: bool) -> LiveReport:
        metrics = self.metrics
        if self.checker is not None:
            verification = self.checker.summary()
            violations = [v.describe() for v in self.checker.violations]
            history_events = (
                len(self.checker.history) if self.checker.history else 0
            )
        else:
            verification = {"violations": 0, "reads_checked": 0,
                            "tx_reads_checked": 0, "writes_seen": 0,
                            "unknown_dependency_reads": 0,
                            "session_resets": 0}
            violations = []
            history_events = 0
        persistence_stats = {}
        for address, durability in self.durability.items():
            recovered = self.recovered.get(address)
            wal = durability.wal
            persistence_stats[f"dc{address.dc}-p{address.partition}"] = {
                "recovered_versions": (len(recovered.versions)
                                       if recovered else 0),
                "recovered_wal_records": (recovered.wal_records
                                          if recovered else 0),
                "torn_bytes_truncated": (recovered.torn_bytes_truncated
                                         if recovered else 0),
                "wal_records_appended": (wal.stats.records_appended
                                         if wal else 0),
                "wal_bytes_appended": (wal.stats.bytes_appended
                                       if wal else 0),
                "wal_syncs": wal.stats.syncs if wal else 0,
                "wal_group_commits": (wal.stats.group_commits
                                      if wal else 0),
                "wal_max_batch_records": (wal.stats.max_batch_records
                                          if wal else 0),
                "snapshots_written": durability.snapshots_written,
            }
        latency = self._merged_latency()
        dropped = sum(getattr(d, "dropped_arrivals", 0)
                      for d in self.drivers)
        stats = self.hub.stats
        visibility = metrics.visibility_lag.summary()
        if not visibility.get("count"):
            # Explicit "measured, zero samples" marker: an all-zero
            # summary downstream reads as "zero latency", which is a very
            # different claim from "no remote update was read".
            visibility = {"samples": 0}
        faults: dict[str, Any] = {}
        if (stats.chaos_dropped or stats.chaos_delayed
                or self.hub._link_faults):
            dropped_by_type: dict[str, int] = {}
            for fault in self.hub._link_faults.values():
                for kind, count in fault.dropped_by_type.items():
                    dropped_by_type[kind] = (dropped_by_type.get(kind, 0)
                                             + count)
            faults = {
                "chaos_dropped": stats.chaos_dropped,
                "chaos_delayed": stats.chaos_delayed,
                "dropped_by_type": dropped_by_type,
                "messages_expired": stats.messages_dropped,
            }
        return LiveReport(
            protocol=self.config.cluster.protocol,
            num_dcs=self.topology.num_dcs,
            num_partitions=self.topology.num_partitions,
            duration_s=metrics.window_duration_s,
            total_ops=metrics.total_ops(),
            throughput_ops_s=metrics.throughput_ops_s(),
            op_stats={
                op.value: op_stats.latency.summary()
                for op, op_stats in metrics.ops.items()
            },
            verification=verification,
            violations=violations,
            history_events=history_events,
            messages_sent=stats.messages_sent,
            messages_delivered=stats.messages_delivered,
            bytes_sent=stats.bytes_sent,
            clean_shutdown=clean,
            arrival=self.config.workload.arrival,
            latency=latency,
            dropped_arrivals=dropped,
            visibility=visibility,
            batches_sent=stats.batches_sent,
            batched_frames=stats.batched_frames,
            errors=list(self.hub.errors),
            persistence=persistence_stats,
            faults=faults,
            metrics_port=self.metrics_port,
        )

    def merged_latency_histograms(self) -> dict[str, LogHistogram]:
        """Per-kind driver histograms folded across this process's
        drivers, still as mergeable histograms — the multi-process load
        generator ships these to the parent, which folds the workers'
        shards exactly as :meth:`_merged_latency` folds drivers."""
        merged: dict[str, LogHistogram] = {}
        for driver in self.drivers:
            for kind, hist in driver.latency.items():
                into = merged.get(kind)
                if into is None:
                    merged[kind] = into = LogHistogram()
                into.merge(hist)
        return merged

    def _merged_latency(self) -> dict[str, dict[str, float]]:
        """Fold every driver's per-kind histograms into p50/p90/p99.

        Driver histograms measure from the *intended* arrival, so under
        the open loop these percentiles include queueing delay — the
        number a latency-vs-throughput comparison must report.
        """
        merged = self.merged_latency_histograms()
        overall = LogHistogram()
        for hist in merged.values():
            overall.merge(hist)
        if overall.count:
            merged["all"] = overall
        return {
            kind: {
                "count": hist.count,
                "mean": hist.mean,
                "p50": hist.percentile(50),
                "p90": hist.percentile(90),
                "p99": hist.percentile(99),
                "max": hist.max_seen,
            }
            for kind, hist in merged.items()
        }


def run_live_experiment(
    config: ExperimentConfig,
    host: str = "127.0.0.1",
    base_port: int = 0,
) -> LiveReport:
    """Boot a full live cluster in-process, run it, and report.

    The live-mode smoke experiment: the same protocol cores as the
    simulation serve a seeded workload over real TCP, and the recorded
    history is verified by the causal checker.  ``base_port=0`` uses
    ephemeral ports (collision-free; the default for tests).
    """
    cluster = LiveCluster(config, host=host, base_port=base_port)
    return asyncio.run(cluster.run())
