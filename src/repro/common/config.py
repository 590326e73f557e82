"""Configuration dataclasses for clusters, protocols, workloads, experiments.

Every tunable in the reproduction lives here, with defaults chosen to mirror
the paper's testbed (Section V-A) where the value is protocol-level (heartbeat
interval, stabilization period, think time, zipf parameter, GET:PUT ratios)
and scaled-down laptop defaults where the value is testbed-level (number of
partitions, keys per partition, service times).  ``paper_scale()`` helpers
return the full-size settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.common.errors import ConfigError

#: Default one-way inter-DC latencies in seconds, indexed [src][dst], for the
#: paper's three regions in order: 0=Oregon (us-west-2), 1=Virginia
#: (us-east-1), 2=Ireland (eu-west-1).  Values approximate public AWS
#: inter-region RTT/2 measurements circa 2017.
DEFAULT_GEO_LATENCY_S: tuple[tuple[float, ...], ...] = (
    (0.0, 0.036, 0.070),
    (0.036, 0.0, 0.040),
    (0.070, 0.040, 0.0),
)

DEFAULT_REGION_NAMES: tuple[str, ...] = ("oregon", "virginia", "ireland")


@dataclass(frozen=True, slots=True)
class LatencyConfig:
    """Network latency model parameters.

    ``inter_dc_s[i][j]`` is the mean one-way latency between DC ``i`` and DC
    ``j``; ``intra_dc_s`` the mean one-way latency between nodes of the same
    DC; ``client_local_s`` the latency between a client and its collocated
    server (clients are collocated per Section V-A, so this is tiny).
    ``jitter_ratio`` scales a lognormal jitter term (0 disables jitter).
    """

    inter_dc_s: tuple[tuple[float, ...], ...] = DEFAULT_GEO_LATENCY_S
    intra_dc_s: float = 0.00025
    client_local_s: float = 0.00005
    jitter_ratio: float = 0.05

    def validate(self, num_dcs: int) -> None:
        if len(self.inter_dc_s) < num_dcs:
            raise ConfigError(
                f"latency matrix covers {len(self.inter_dc_s)} DCs, "
                f"cluster has {num_dcs}"
            )
        for row in self.inter_dc_s[:num_dcs]:
            if len(row) < num_dcs:
                raise ConfigError("latency matrix is not square")
        if self.intra_dc_s < 0 or self.client_local_s < 0:
            raise ConfigError("latencies must be non-negative")
        if self.jitter_ratio < 0:
            raise ConfigError("jitter_ratio must be non-negative")


@dataclass(frozen=True, slots=True)
class ClockConfig:
    """Loosely synchronized physical clocks (Section IV).

    Each node draws a constant offset uniformly from
    ``[-max_offset_us, +max_offset_us]`` and a drift rate uniformly from
    ``[-max_drift_ppm, +max_drift_ppm]`` parts per million.  POCC's
    correctness must not depend on these values (only its waiting times do),
    which the test suite verifies.
    """

    max_offset_us: int = 500
    max_drift_ppm: float = 20.0

    def validate(self) -> None:
        if self.max_offset_us < 0:
            raise ConfigError("max_offset_us must be >= 0")
        if self.max_drift_ppm < 0:
            raise ConfigError("max_drift_ppm must be >= 0")


@dataclass(frozen=True, slots=True)
class ServiceTimeConfig:
    """Per-operation CPU costs (seconds) on the 2-core server model.

    These set the saturation point of the simulated cluster.  They are not
    taken from the paper (which reports aggregate Mops/s on c4.large nodes)
    but chosen so a laptop-scale simulation saturates with a manageable
    number of closed-loop clients while preserving the relative costs the
    paper argues about: Cure* pays chain traversal + stabilization; POCC
    pays blocked-operation resumption.
    """

    get_s: float = 0.00070
    put_s: float = 0.00090
    replicate_s: float = 0.00025
    heartbeat_s: float = 0.00005
    stabilization_msg_s: float = 0.00008
    chain_scan_per_version_s: float = 0.00005
    tx_coordinator_s: float = 0.00050
    tx_coordinator_per_slice_s: float = 0.00015
    slice_base_s: float = 0.00060
    slice_per_key_s: float = 0.00010
    resume_s: float = 0.00010
    gc_msg_s: float = 0.00008
    #: Processing one dependency-check query/ack (COPS* baseline).
    dep_check_s: float = 0.00003

    def validate(self) -> None:
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise ConfigError(f"service time {name} must be >= 0")


@dataclass(frozen=True, slots=True)
class ProtocolConfig:
    """Protocol-level knobs shared by POCC and Cure*.

    Defaults mirror Section V-A: heartbeats after 1 ms of write idleness,
    Cure* stabilization every 5 ms, PUT dependency waiting enabled
    (Algorithm 2 line 6, enabled in the paper's evaluation).
    """

    #: The paper's ∆: a partition that serves no PUT for this long
    #: broadcasts its clock to its replicas (Algorithm 2 lines 19-26).
    heartbeat_interval_s: float = 0.001
    #: Cure* GSS stabilization period (Section V-A: 5 ms).
    stabilization_interval_s: float = 0.005
    #: Transaction-aware garbage collection period (Section IV-B).
    gc_interval_s: float = 0.250
    #: Enable the optional wait at Algorithm 2 line 6 (the paper enables it).
    put_dependency_wait: bool = True
    #: HA-POCC: how long a request may stay blocked before the server
    #: suspects a network partition and closes the session (Section III-B).
    block_timeout_s: float = 1.0
    #: HA-POCC: background stabilization period during normal (optimistic)
    #: operation — "much less frequently than Cure" (Section IV-C).
    ha_stabilization_interval_s: float = 0.500
    #: HA-POCC: how long a demoted client runs pessimistically before it
    #: attempts to promote itself back to the optimistic protocol.
    ha_promotion_retry_s: float = 2.0
    #: Okapi*: how often each DC aggregator gossips its data-center stable
    #: time to the other DCs (the WAN half of universal stabilization; the
    #: intra-DC half reuses ``stabilization_interval_s``).
    ust_gossip_interval_s: float = 0.005

    def validate(self) -> None:
        if self.heartbeat_interval_s <= 0:
            raise ConfigError("heartbeat_interval_s must be > 0")
        if self.stabilization_interval_s <= 0:
            raise ConfigError("stabilization_interval_s must be > 0")
        if self.gc_interval_s <= 0:
            raise ConfigError("gc_interval_s must be > 0")
        if self.block_timeout_s <= 0:
            raise ConfigError("block_timeout_s must be > 0")
        if self.ha_stabilization_interval_s <= 0:
            raise ConfigError("ha_stabilization_interval_s must be > 0")
        if self.ha_promotion_retry_s <= 0:
            raise ConfigError("ha_promotion_retry_s must be > 0")
        if self.ust_gossip_interval_s <= 0:
            raise ConfigError("ust_gossip_interval_s must be > 0")


@dataclass(frozen=True, slots=True)
class ReplicationBatchConfig:
    """Protocol-level inter-DC replication batching (Okapi's amortization).

    When enabled, each partition server accumulates the versions it
    creates and ships them to its peer replicas as one
    :class:`~repro.protocols.messages.ReplicateBatch` per flush instead
    of one ``Replicate`` per write.  A flush happens when the buffer
    reaches ``max_versions`` or ``max_bytes``, or ``flush_ms`` after the
    first buffered version — whichever comes first.  Every batch carries
    the source's clock read at flush time, doubling as a heartbeat (the
    explicit heartbeat is suppressed while batches keep the remote
    ``VV`` entries fresh), and Okapi* aggregators additionally piggyback
    their data-center stable time on outgoing batches, amortizing the
    UST gossip the same way.

    Default **off**: with batching disabled the replication path is the
    per-write fan-out, bit-for-bit, so per-seed simulation reports stay
    byte-identical to the pre-batching engine.
    """

    enabled: bool = False
    #: Flush once this many versions are buffered.  ``1`` degenerates to
    #: one single-version batch per write (the equivalence tests' knob).
    max_versions: int = 64
    #: Flush once the buffered versions' modeled wire size reaches this.
    max_bytes: int = 65536
    #: Flush this long after the first buffered version (the visibility
    #: latency each batched write pays at most, on top of the WAN hop).
    flush_ms: float = 5.0

    def validate(self) -> None:
        if self.max_versions < 1:
            raise ConfigError("repl_batch.max_versions must be >= 1")
        if self.max_bytes < 1:
            raise ConfigError("repl_batch.max_bytes must be >= 1")
        if self.flush_ms <= 0:
            raise ConfigError("repl_batch.flush_ms must be > 0")


@dataclass(frozen=True, slots=True)
class AntiEntropyConfig:
    """Anti-entropy backfill between sibling replicas (off by default).

    Replication is fire-and-forget; the paper's lossless channels make
    that safe, injected message loss does not.  When enabled, every
    partition server periodically sends each peer replica a digest — its
    version vector plus the update times it actually received from that
    peer inside ``window_s`` below the watermark — and the peer re-ships
    exactly the missing versions.  Disabled, no timer is ever scheduled
    and per-seed simulation reports stay byte-identical.
    """

    enabled: bool = False
    #: Digest period.  Repair latency for a dropped update is roughly
    #: one period + one WAN round trip.
    interval_s: float = 0.05
    #: How far below the per-source watermark the digest enumerates
    #: received update times.  Must comfortably exceed ``interval_s``
    #: plus the WAN round trip so a hole stays inside the window across
    #: several digest rounds (a repair can itself be lost).
    window_s: float = 0.5
    #: Versions per AeRepair message.
    chunk: int = 256

    def validate(self) -> None:
        if self.interval_s <= 0:
            raise ConfigError("anti_entropy.interval_s must be > 0")
        if self.window_s <= self.interval_s:
            raise ConfigError(
                "anti_entropy.window_s must exceed interval_s"
            )
        if self.chunk < 1:
            raise ConfigError("anti_entropy.chunk must be >= 1")


@dataclass(frozen=True, slots=True)
class TelemetryConfig:
    """Live observability: metrics endpoint and causal event tracing.

    This block is live-only — the simulation backend never consults it,
    so per-seed sim reports are independent of every field here.  Both
    halves default **off**; a disabled block costs one ``None`` check on
    the hot paths and adds no bytes to any wire frame (trace ids reuse
    the version identity ``(sr, ut)`` that replication already carries).

    * ``enabled`` — maintain the :class:`repro.obs.telemetry.Telemetry`
      registry and serve ``/metrics`` + ``/vars.json`` over HTTP.
    * ``metrics_base_port`` — first port of the deterministic metrics
      port map (one endpoint per hosted server, assigned in
      ``Topology.all_servers()`` order, mirroring ``AddressBook``).
      ``0`` binds an ephemeral port (single-process runs only).
    * ``trace`` — emit sampled causal-lifecycle spans
      (``put → wal_synced → replicate_sent → installed → visible``)
      as JSONL under ``trace_dir``.
    * ``trace_sample_every`` — sample a write iff its update time
      satisfies ``ut % trace_sample_every == 0``: deterministic and
      coordination-free, so origin and remote processes sample the
      same writes without exchanging any state.
    """

    enabled: bool = False
    metrics_base_port: int = 0
    trace: bool = False
    trace_dir: str = ""
    trace_sample_every: int = 64

    def validate(self) -> None:
        if self.metrics_base_port < 0 or self.metrics_base_port > 65535:
            raise ConfigError(
                "telemetry.metrics_base_port must be in [0, 65535]"
            )
        if self.trace and not self.trace_dir:
            raise ConfigError("telemetry.trace requires a trace_dir")
        if self.trace_sample_every < 1:
            raise ConfigError("telemetry.trace_sample_every must be >= 1")


@dataclass(frozen=True, slots=True)
class MembershipConfig:
    """Elastic membership: epoch-versioned views over a consistent-hash
    ring (see docs/membership.md).

    Off by default, and off means *off*: with ``enabled=False`` no view
    is built, no gossip timer is armed, key placement stays the seed's
    ``crc32 % num_partitions``, and per-seed sim reports are
    byte-identical to a build that never heard of this block (pinned by
    ``tests/cluster/test_membership_off.py``).

    * ``initial_members`` — partition ids on the epoch-0 ring; ``None``
      puts every partition of the address space on it.  A subset leaves
      the rest booted but empty, ready to join via ``repro-reshard``.
    * ``vnodes`` — virtual nodes per member (placement determinism and
      the ≈K/S movement bound both ride on this; see cluster/ring.py).
    * ``gossip_interval_s`` — period of the view gossip that lets a
      server which missed a commit (crashed bystander) adopt the
      current epoch.
    * ``handoff_chunk_versions`` — versions per ``MigrateChunk`` frame.
    * ``commit_delay_s`` — drain window between the last donor's
      ``MigrateDone`` and the ``ViewCommit`` broadcast, covering
      replication frames still in flight toward a donor.
    * ``retry_interval_s`` — reshard-driver re-send period; crashed
      participants are re-driven idempotently until they answer.
    * ``redirect_backoff_s`` — base client backoff before retrying an
      op answered with ``NotOwner`` (jittered deterministically from
      the op id).
    """

    enabled: bool = False
    initial_members: tuple[int, ...] | None = None
    vnodes: int = 64
    gossip_interval_s: float = 0.5
    handoff_chunk_versions: int = 128
    commit_delay_s: float = 0.25
    retry_interval_s: float = 0.5
    redirect_backoff_s: float = 0.05

    def validate(self) -> None:
        if self.vnodes < 1:
            raise ConfigError("membership.vnodes must be >= 1")
        if self.gossip_interval_s <= 0:
            raise ConfigError("membership.gossip_interval_s must be > 0")
        if self.handoff_chunk_versions < 1:
            raise ConfigError(
                "membership.handoff_chunk_versions must be >= 1"
            )
        if self.commit_delay_s < 0:
            raise ConfigError("membership.commit_delay_s must be >= 0")
        if self.retry_interval_s <= 0:
            raise ConfigError("membership.retry_interval_s must be > 0")
        if self.redirect_backoff_s < 0:
            raise ConfigError(
                "membership.redirect_backoff_s must be >= 0"
            )
        if self.initial_members is not None and not self.initial_members:
            raise ConfigError(
                "membership.initial_members must be None or non-empty"
            )


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Shape and physical parameters of one simulated deployment."""

    num_dcs: int = 3
    num_partitions: int = 4
    cores_per_node: int = 2
    keys_per_partition: int = 1000
    protocol: str = "pocc"
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    clocks: ClockConfig = field(default_factory=ClockConfig)
    service: ServiceTimeConfig = field(default_factory=ServiceTimeConfig)
    protocol_config: ProtocolConfig = field(default_factory=ProtocolConfig)
    repl_batch: ReplicationBatchConfig = field(
        default_factory=ReplicationBatchConfig
    )
    anti_entropy: AntiEntropyConfig = field(
        default_factory=AntiEntropyConfig
    )
    #: Live observability (metrics endpoint + tracing); ignored by the
    #: simulation.
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    #: Elastic membership (consistent-hash ring + online resharding);
    #: off by default on both backends.
    membership: MembershipConfig = field(default_factory=MembershipConfig)

    def validate(self) -> None:
        if self.num_dcs < 2:
            raise ConfigError("need at least 2 DCs for geo-replication")
        if self.num_partitions < 1:
            raise ConfigError("need at least 1 partition")
        if self.cores_per_node < 1:
            raise ConfigError("need at least 1 core per node")
        if self.keys_per_partition < 1:
            raise ConfigError("need at least 1 key per partition")
        self.latency.validate(self.num_dcs)
        self.clocks.validate()
        self.service.validate()
        self.protocol_config.validate()
        self.repl_batch.validate()
        self.anti_entropy.validate()
        self.telemetry.validate()
        self.membership.validate()
        if self.membership.initial_members is not None:
            for partition in self.membership.initial_members:
                if not 0 <= partition < self.num_partitions:
                    raise ConfigError(
                        f"membership.initial_members: partition "
                        f"{partition} outside [0, {self.num_partitions})"
                    )

    @property
    def num_nodes(self) -> int:
        return self.num_dcs * self.num_partitions

    def with_protocol(self, protocol: str) -> "ClusterConfig":
        """A copy of this config running a different protocol."""
        return replace(self, protocol=protocol)


@dataclass(frozen=True, slots=True)
class WorkloadConfig:
    """Workload parameters (Sections V-B and V-C).

    ``arrival`` selects the driver model:

    * ``"closed"`` — the paper's closed loop: each session issues, waits
      for the reply, thinks ``think_time_s``, repeats.  Throughput is
      capped at ``sessions / think_time``.
    * ``"open"`` — the pipelined load generator: each session *schedules*
      arrivals at ``rate_ops_s`` regardless of completions.  The session
      itself stays sequential (causal session guarantees are per-session,
      so at most one operation is in flight per session); arrivals that
      find it busy queue, and latency is measured from the **intended**
      arrival time — queueing delay counts, so overload shows up in the
      tail percentiles instead of being coordinated-omitted away.
      Client concurrency is ``clients_per_partition`` (each client is an
      independent session endpoint).

    ``kind`` is one of:

    * ``"get_put"`` — N GETs on distinct partitions, then one PUT on a
      uniformly random partition (the paper's Section V-B family);
    * ``"ro_tx"`` — one RO-TX spanning ``tx_partitions`` distinct
      partitions, then one PUT (Section V-C);
    * ``"mixed"`` — each operation drawn independently: a RO-TX with
      probability ``tx_ratio``, else a GET with probability
      ``read_ratio / (1 - tx_ratio)``, else a PUT.  Models production
      mixes (YCSB A/B/C, Facebook-like read-heavy traffic; see
      :mod:`repro.workload.presets`).
    """

    kind: str = "get_put"
    #: GETs per PUT for the get_put workload (the paper's N:1 ratio).
    gets_per_put: int = 8
    #: Partitions contacted by each RO-TX for the ro_tx workload.
    tx_partitions: int = 2
    clients_per_partition: int = 4
    #: Section V-A: 25 ms think time between operations.
    think_time_s: float = 0.025
    #: Zipf parameter for key choice within a partition (Section V-A: 0.99).
    zipf_theta: float = 0.99
    #: mixed only: fraction of *all* operations that are GETs.
    read_ratio: float = 0.95
    #: mixed only: fraction of all operations that are RO-TXs.
    tx_ratio: float = 0.0
    #: mixed only: probability that a GET re-reads the client's most
    #: recent write (read-own-writes locality; stresses the session
    #: guarantees without changing the op mix).
    rmw_locality: float = 0.0
    #: Key popularity shape: "zipf" (paper default), "uniform", "hotspot".
    key_distribution: str = "zipf"
    #: hotspot only: fraction of operations aimed at the hot set.
    hotspot_ops: float = 0.9
    #: hotspot only: fraction of each partition's keys forming the hot set.
    hotspot_keys: float = 0.1
    #: Driver model: "closed" (think-time loop) or "open" (target-rate
    #: arrivals with queueing; see class docstring).
    arrival: str = "closed"
    #: open only: target arrivals per second *per session*.  The offered
    #: load is ``rate_ops_s * clients_per_partition * partitions * dcs``.
    rate_ops_s: float = 0.0

    def validate(self, cluster: ClusterConfig) -> None:
        if self.kind not in ("get_put", "ro_tx", "mixed"):
            raise ConfigError(f"unknown workload kind {self.kind!r}")
        if self.arrival not in ("closed", "open"):
            raise ConfigError(f"unknown arrival model {self.arrival!r}")
        if self.arrival == "open" and self.rate_ops_s <= 0:
            raise ConfigError("open-loop arrivals need rate_ops_s > 0")
        if self.rate_ops_s < 0:
            raise ConfigError("rate_ops_s must be >= 0")
        if self.kind == "get_put" and self.gets_per_put < 0:
            raise ConfigError("gets_per_put must be >= 0")
        if self.kind in ("ro_tx", "mixed") and not (
            1 <= self.tx_partitions <= cluster.num_partitions
        ):
            raise ConfigError(
                f"tx_partitions must be in [1, {cluster.num_partitions}]"
            )
        if self.kind == "mixed":
            if not 0.0 <= self.read_ratio <= 1.0:
                raise ConfigError("read_ratio must be in [0, 1]")
            if not 0.0 <= self.tx_ratio <= 1.0:
                raise ConfigError("tx_ratio must be in [0, 1]")
            if self.read_ratio + self.tx_ratio > 1.0:
                raise ConfigError("read_ratio + tx_ratio must be <= 1")
            if not 0.0 <= self.rmw_locality <= 1.0:
                raise ConfigError("rmw_locality must be in [0, 1]")
        if self.key_distribution not in ("zipf", "uniform", "hotspot"):
            raise ConfigError(
                f"unknown key_distribution {self.key_distribution!r}"
            )
        if self.key_distribution == "hotspot":
            if not 0.0 < self.hotspot_ops <= 1.0:
                raise ConfigError("hotspot_ops must be in (0, 1]")
            if not 0.0 < self.hotspot_keys <= 1.0:
                raise ConfigError("hotspot_keys must be in (0, 1]")
        if self.clients_per_partition < 1:
            raise ConfigError("clients_per_partition must be >= 1")
        if self.think_time_s < 0:
            raise ConfigError("think_time_s must be >= 0")
        if self.zipf_theta < 0:
            raise ConfigError("zipf_theta must be >= 0")


@dataclass(frozen=True, slots=True)
class PersistenceConfig:
    """Durability of the *live* backend (ignored by the simulation).

    When enabled, every partition server hosted by a live process keeps a
    per-partition write-ahead log plus periodic snapshots under
    ``data_dir`` (:mod:`repro.persistence`), and a restarted process
    recovers its version chains and clock state from them.

    ``fsync`` trades acknowledgement durability against throughput:

    * ``"always"`` — fsync before every acknowledgement; an acknowledged
      write survives SIGKILL (what the crash-recovery chaos test pins);
    * ``"interval"`` — write-through to the OS on every append, fsync at
      most every ``fsync_interval_s``; a crash can lose the last interval;
    * ``"off"`` — buffered writes, fsync only on clean shutdown.
    """

    enabled: bool = False
    data_dir: str = ""
    fsync: str = "interval"
    fsync_interval_s: float = 0.05
    #: Seconds between version-chain snapshots (with WAL truncation).
    #: ``0`` disables periodic snapshots (the WAL then grows until a
    #: clean shutdown or an explicit ``repro-recover`` inspection).
    snapshot_interval_s: float = 30.0

    def validate(self) -> None:
        if self.fsync not in ("always", "interval", "off"):
            raise ConfigError(
                f"fsync must be 'always', 'interval' or 'off', "
                f"not {self.fsync!r}"
            )
        if self.enabled and not self.data_dir:
            raise ConfigError("persistence.enabled requires a data_dir")
        if self.fsync_interval_s <= 0:
            raise ConfigError("fsync_interval_s must be > 0")
        if self.snapshot_interval_s < 0:
            raise ConfigError("snapshot_interval_s must be >= 0")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """One runnable experiment: a cluster, a workload and a schedule."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    warmup_s: float = 0.5
    duration_s: float = 2.0
    seed: int = 42
    #: Record full operation histories and run the independent causal
    #: consistency checker after the run (slower; used by tests/examples).
    verify: bool = False
    name: str = ""
    #: Worker processes used when this config fans out into multiple
    #: independent runs (replicates, sweeps, figures).  ``None`` means
    #: ``os.cpu_count()``; ``1`` forces the exact legacy serial path.
    #: Excluded from :meth:`describe` so reports are independent of it.
    parallelism: int | None = None
    #: Live-backend durability (WAL + snapshots).  The simulation ignores
    #: this block entirely; like ``parallelism`` it is excluded from
    #: :meth:`describe` so simulated reports stay byte-identical.
    persistence: PersistenceConfig = field(default_factory=PersistenceConfig)

    def validate(self) -> None:
        self.cluster.validate()
        self.workload.validate(self.cluster)
        self.persistence.validate()
        if self.warmup_s < 0:
            raise ConfigError("warmup_s must be >= 0")
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be > 0")
        if self.parallelism is not None and self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1 (or None for auto)")

    def describe(self) -> dict[str, Any]:
        """A flat summary used in reports and log lines."""
        return {
            "name": self.name,
            "protocol": self.cluster.protocol,
            "dcs": self.cluster.num_dcs,
            "partitions": self.cluster.num_partitions,
            "workload": self.workload.kind,
            "gets_per_put": self.workload.gets_per_put,
            "tx_partitions": self.workload.tx_partitions,
            "clients_per_partition": self.workload.clients_per_partition,
            "think_time_s": self.workload.think_time_s,
            "warmup_s": self.warmup_s,
            "duration_s": self.duration_s,
            "seed": self.seed,
        }


def paper_scale_cluster(protocol: str = "pocc") -> ClusterConfig:
    """The paper's deployment shape: 3 DCs x 32 partitions (Section V-A).

    Keys per partition stays below the paper's 1 M (memory), which is a
    documented substitution: with zipf(0.99) the head of the key ranking
    dominates traffic either way.
    """
    return ClusterConfig(
        num_dcs=3,
        num_partitions=32,
        keys_per_partition=10_000,
        protocol=protocol,
    )


def smoke_scale_cluster(protocol: str = "pocc") -> ClusterConfig:
    """A tiny deployment for unit/integration tests."""
    return ClusterConfig(
        num_dcs=3,
        num_partitions=2,
        keys_per_partition=100,
        protocol=protocol,
    )
