"""The benchmark as data: six workloads, the end-to-end metrics with their
bounds, and the per-layer metrics.

``run.py`` executes this table, ``BENCHMARK.json`` is generated from it
(``run.py --print-benchmark-json``) and ``test_lab.py`` checks that the
committed ``BENCHMARK.json`` and ``README.md`` still agree with it.  There
are no per-workload functions: a workload is a row, and the two runners
(``live.py``, ``simrun.py``) interpret rows.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one run measures (the ``run_seconds`` of ``BENCHMARK.json``).
RUN_SECONDS = 10
#: Wall-clock warm-up before a live window opens (excluded from set-up).
WARMUP_S = 1.5
#: Seed of a plain ``run.py``; claims are re-checked on the held-out one.
DEFAULT_SEED = 7
HELD_OUT_SEED = 20177
#: How many times a run sets its cluster up; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The latency limit of the rate ladder: all-op p95, milliseconds.
SLO_P95_MS = 10.0
#: Simulated seconds per protocol per measured wall second, sized so the
#: ``sim_mixed`` pair takes about ``--seconds`` on the reference host.
SIM_S_PER_RUN_S = 0.2
SIM_WARMUP_S = 0.5
#: One-way delay between the two DCs of the non-geo live workloads.  With
#: none at all, update visibility is a few event-loop turns (~0.3 ms) whose
#: length depends on how the arrival grid happens to sit against the 1 ms
#: heartbeat timers: its p95 spread 24% over ten seeds.  A millisecond of
#: "same metro" delay leaves every other metric where it was and brings
#: that spread to 2%.
METRO_DELAY_S = 0.001
#: Every N-th write carries PUT-lifecycle spans in the traced run.
TRACE_SAMPLE_EVERY = 4

BLOCK_CAUSES = ("get_vv", "put_deps", "slice_vv", "gss_wait")
BUDGET_LAYERS = ("driver", "client_core", "codec_encode", "transport_post",
                 "codec_decode", "server_core", "storage", "wal",
                 "loop_other")


@dataclass(frozen=True)
class Workload:
    """One row of the benchmark: a cluster, a traffic mix, a load model."""

    name: str
    why: str
    backend: str                      # "live" (asyncio TCP) or "sim"
    protocols: tuple[str, ...]
    dcs: int
    partitions: int
    clients_per_partition: int
    keys_per_partition: int
    mix: tuple[float, float, float]   # GET / PUT / RO-TX shares
    tx_partitions: int
    arrival: str                      # "closed" or "open"
    rate_ops_s: float = 0.0           # open loop: offered, whole cluster
    think_time_s: float = 0.0         # closed loop
    link_delay_s: float = 0.0         # injected one-way, every DC pair
    durable: bool = False             # WAL, fsync=always, group commit
    ladder: tuple[float, ...] = ()    # extra probe rates (traced run only)
    #: The checker replay covers every N-th session in full (1 = all):
    #: with 2,000-key causal pasts a full replay of a saturated window
    #: takes twice as long as the window itself.
    replay_every: int = 1

    @property
    def sessions(self) -> int:
        return self.dcs * self.partitions * self.clients_per_partition

    def experiment_config(self, seed: int, protocol: str | None = None, *,
                          rate_ops_s: float | None = None,
                          data_dir: str = "", trace_dir: str = "",
                          warmup_s: float = 0.0, duration_s: float = 1.0,
                          verify: bool = False):
        """The program's own config object for this row.  The program
        sees the generated config, never the meaning of the seed."""
        from repro.common.config import (
            ClockConfig, ClusterConfig, ExperimentConfig, PersistenceConfig,
            TelemetryConfig, WorkloadConfig,
        )
        get, _put, rotx = self.mix
        rate = self.rate_ops_s if rate_ops_s is None else rate_ops_s
        cluster = ClusterConfig(
            num_dcs=self.dcs, num_partitions=self.partitions,
            keys_per_partition=self.keys_per_partition,
            protocol=protocol or self.protocols[0],
            # Live nodes share the host's clock.  The sampled per-node
            # offsets (up to 500 us either way) would add a seed-dependent
            # error of that size to every visibility sample, which is
            # stamped on the source's clock and read on the hub's.
            clocks=(ClockConfig(max_offset_us=0) if self.backend == "live"
                    else ClockConfig()),
            telemetry=TelemetryConfig(
                enabled=bool(trace_dir), trace=bool(trace_dir),
                trace_dir=trace_dir,
                trace_sample_every=TRACE_SAMPLE_EVERY),
        )
        workload = WorkloadConfig(
            kind="mixed", read_ratio=get, tx_ratio=rotx,
            tx_partitions=self.tx_partitions,
            clients_per_partition=self.clients_per_partition,
            think_time_s=self.think_time_s, arrival=self.arrival,
            rate_ops_s=rate / self.sessions if self.arrival == "open"
            else 0.0,
        )
        persistence = PersistenceConfig(
            enabled=self.durable, data_dir=data_dir, fsync="always",
            snapshot_interval_s=5.0,
        ) if self.durable else PersistenceConfig()
        return ExperimentConfig(
            cluster=cluster, workload=workload, warmup_s=warmup_s,
            duration_s=duration_s, seed=seed, verify=verify,
            name=self.name, persistence=persistence,
        )


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="mixed_sat",
        why="Capacity: closed loop with zero think time saturates every "
            "request-path layer while WAL, link delay (1 ms) and "
            "stabilization do next to nothing.",
        backend="live", protocols=("pocc",), dcs=2, partitions=2,
        clients_per_partition=4, keys_per_partition=1000,
        mix=(0.85, 0.05, 0.10), tx_partitions=2, arrival="closed",
        replay_every=4, link_delay_s=METRO_DELAY_S,
    ),
    Workload(
        name="mixed_open",
        why="User-felt latency at a fixed 2,400 ops/s (the loop about 55% "
            "busy): a change that only helps under overload predicts no "
            "change here.",
        backend="live", protocols=("pocc",), dcs=2, partitions=2,
        clients_per_partition=4, keys_per_partition=1000,
        mix=(0.85, 0.05, 0.10), tx_partitions=2, arrival="open",
        rate_ops_s=2400.0, ladder=(1600.0, 4800.0), replay_every=4,
        link_delay_s=METRO_DELAY_S,
    ),
    Workload(
        name="write_durable",
        why="The write path: WAL append, group commit and fsync, "
            "replication fan-out, remote install and deep hot chains do "
            "most of the work here and none in mixed_*.",
        backend="live", protocols=("pocc",), dcs=2, partitions=2,
        clients_per_partition=4, keys_per_partition=100,
        mix=(0.45, 0.45, 0.10), tx_partitions=2, arrival="open",
        rate_ops_s=1200.0, durable=True, link_delay_s=METRO_DELAY_S,
    ),
    Workload(
        name="geo_tx_pocc",
        why="The paper's comparison, optimistic side: 3 DCs, 20 ms "
            "one-way delay, 30% RO-TXs; wait-queue blocking and heartbeats "
            "dominate, codec cost is secondary.",
        backend="live", protocols=("pocc",), dcs=3, partitions=2,
        clients_per_partition=2, keys_per_partition=1000,
        mix=(0.60, 0.10, 0.30), tx_partitions=2, arrival="open",
        rate_ops_s=600.0, link_delay_s=0.020,
    ),
    Workload(
        name="geo_tx_cure",
        why="Same as geo_tx_pocc but Cure*: visibility waits for "
            "stabilization, so the two rows show optimistic against "
            "pessimistic visibility on identical load.",
        backend="live", protocols=("cure",), dcs=3, partitions=2,
        clients_per_partition=2, keys_per_partition=1000,
        mix=(0.60, 0.10, 0.30), tx_partitions=2, arrival="open",
        rate_ops_s=600.0, link_delay_s=0.020,
    ),
    Workload(
        name="sim_mixed",
        why="The simulator, pocc then cure: no codec, transport or WAL, "
            "so live-path work predicts no change; engine, network model, "
            "protocol cores and store do.",
        backend="sim", protocols=("pocc", "cure"), dcs=3, partitions=6,
        clients_per_partition=16, keys_per_partition=300,
        mix=(0.85, 0.05, 0.10), tx_partitions=3, arrival="closed",
        think_time_s=0.010,
    ),
)

WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str            # "lower" or "higher"
    what: str              # definition, one line
    bound: float = 0.0     # end-to-end only: allowed worsening of the median
    source: str = ""       # per-layer only: "micro", "in_situ" or "traced"


E2E_METRICS: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "imports plus median of %d cluster set-ups, each until every "
           "session has its first reply (sim: cluster built)"
           % SETUP_REPEATS, 0.25),
    Metric("throughput_ops_s", "ops/s", "higher",
           "operations completed in the window / window (sim: simulated "
           "ops of both protocols / their wall time)", 0.08),
    Metric("cpu_s_per_kop", "s", "lower",
           "process CPU seconds in the window per 1,000 completed ops",
           0.10),
    Metric("get_p50_ms", "ms", "lower", "GET latency, median", 0.25),
    Metric("put_p50_ms", "ms", "lower", "PUT latency, median", 0.25),
    Metric("rotx_p50_ms", "ms", "lower", "RO-TX latency, median", 0.25),
    Metric("get_p95_ms", "ms", "lower", "GET latency, 95th percentile",
           0.20),
    Metric("put_p95_ms", "ms", "lower", "PUT latency, 95th percentile",
           0.25),
    Metric("rotx_p95_ms", "ms", "lower", "RO-TX latency, 95th percentile",
           0.20),
    Metric("visibility_p50_ms", "ms", "lower",
           "remote update creation -> readable locally, median", 0.20),
    Metric("visibility_p95_ms", "ms", "lower",
           "remote update creation -> readable locally, 95th percentile",
           0.20),
    Metric("rss_mb", "MB", "lower",
           "peak resident set of the measuring process after shutdown, "
           "before the checker replay", 0.10),
)


def _per_layer() -> tuple[Metric, ...]:
    rows: list[Metric] = []
    source = "micro"

    def add(name, unit, better, what):
        rows.append(Metric(name, unit, better, what, source=source))

    # 1. isolated micro-benches (micro.py), same in every traced run
    add("codec.encode_us", "us", "lower",
        "encode_frame per message, mixed_sat frame mix")
    add("codec.decode_us", "us", "lower", "codec.loads per frame payload")
    add("codec.feed_us", "us", "lower",
        "FrameDecoder.feed per frame, 64 KiB chunks")
    add("codec.bytes_per_frame", "B", "lower", "mean frame size of the mix")
    add("transport.oneway_us", "us", "lower",
        "per frame, burst between two LiveRuntimes over loopback TCP")
    add("transport.rtt_p50_us", "us", "lower",
        "ping-pong round trip between two LiveRuntimes, median")
    add("transport.burst_frames_per_write", "count", "higher",
        "frames coalesced per socket write in the burst")
    for proto in ("pocc", "cure"):
        for op in ("get", "put", "replicate", "heartbeat", "slice"):
            add(f"protocols.{proto}.{op}_us", "us", "lower",
                f"{proto} server core handling one {op} message on a stub "
                "runtime")
    add("protocols.cure.stab_round_us", "us", "lower",
        "one full stabilization round at the aggregator (2 partitions)")
    add("storage.insert_us", "us", "lower", "PartitionStore.insert at head")
    add("storage.read_head_us", "us", "lower", "PartitionStore.freshest")
    add("storage.read_deep_us", "us", "lower",
        "find_freshest scanning a depth-40 chain to its end")
    add("storage.gc_us_per_version", "us", "lower",
        "PartitionStore.collect per version removed")
    add("wal.append_us", "us", "lower", "append_version, fsync off")
    add("wal.commit_us_per_record.b1", "us", "lower",
        "group commit of 1 record, fsync always")
    add("wal.commit_us_per_record.b64", "us", "lower",
        "group commit of 64 records, fsync always, per record")
    add("wal.fsync_ms", "ms", "lower", "one WAL fsync, median")
    add("wal.bytes_per_record", "B", "lower", "WAL bytes per version")
    add("wal.recover_records_per_s", "1/s", "higher",
        "recover_directory over a 4,000-record log")
    add("sim.engine_events_per_s", "1/s", "higher",
        "bare Simulator, chained timer events")
    add("sim.network_msgs_per_s", "1/s", "higher",
        "Network send+deliver between sink endpoints, 3 DCs")
    add("sim.cpu_submit_us", "us", "lower", "CpuScheduler.submit + complete")
    add("workload.next_op_us", "us", "lower", "MixedWorkload.next_op")
    add("clocks.vec_op_us", "us", "lower",
        "mean of vec_max / vec_leq / vec_covers on 3-entry vectors")
    add("checker.read_us", "us", "lower", "CausalChecker.on_read")
    add("checker.tx_read_us", "us", "lower",
        "CausalChecker.on_tx_read, 2 items")
    add("metrics.hist_record_us", "us", "lower", "LogHistogram.record")
    # 2. in-situ counts of the untraced window (public counters)
    source = "in_situ"
    add("transport.frames_per_op", "count", "lower",
        "hub.stats.messages_sent per completed op")
    add("transport.bytes_per_op", "B", "lower",
        "hub.stats.bytes_sent per completed op")
    add("transport.frames_per_write", "count", "higher",
        "frames per socket write (messages_sent / batches_sent)")
    add("wal.records_per_put", "count", "lower",
        "WAL records appended per completed PUT (local + remote installs)")
    add("wal.syncs_per_put", "count", "lower", "fsyncs per completed PUT")
    add("wal.records_per_commit", "count", "higher",
        "records per group commit")
    for cause in BLOCK_CAUSES:
        add(f"protocols.block_prob.{cause}", "ratio", "lower",
            f"blocked / attempts for {cause} (cluster.metrics.blocking)")
        add(f"protocols.block_mean_ms.{cause}", "ms", "lower",
            f"mean stall of a blocked {cause} wait")
        add(f"protocols.block_attempts_per_kop.{cause}", "count", "lower",
            f"{cause} wait attempts per 1,000 completed ops")
    add("loop.lag_p95_ms", "ms", "lower",
        "lateness of the lab's 10 ms event-loop probe, p95")
    add("driver.backlog_max", "count", "lower",
        "largest summed open-loop backlog seen by the probe")
    add("driver.dropped_arrivals", "count", "lower",
        "arrivals discarded at the drivers' backlog cap")
    add("driver.ladder.r1600.p95_ms", "ms", "lower",
        "mixed_open probe step at 1,600 ops/s: all-op p95")
    add("driver.ladder.r4800.p95_ms", "ms", "lower",
        "mixed_open probe step at 4,800 ops/s: all-op p95")
    add("driver.slo_rate_ops_s", "ops/s", "higher",
        "highest probed rate with all-op p95 <= %g ms and no growing "
        "backlog" % SLO_P95_MS)
    for kind in ("get", "put", "rotx"):
        add(f"tail.{kind}_p99_ms", "ms", "lower",
            f"{kind} latency p99 (reported, never gated)")
    add("sim.events", "count", "lower", "engine events, both protocols")
    add("sim.ops", "count", "higher", "simulated ops, both protocols")
    add("sim.messages", "count", "lower", "simulated messages sent")
    add("sim.block_prob", "ratio", "lower",
        "combined get_vv/put_deps/slice_vv blocking probability, pocc")
    add("sim.events_per_s", "1/s", "higher",
        "engine events of both runs / their wall time, in situ")
    # 3. the traced run (spans.py)
    source = "traced"
    for layer in BUDGET_LAYERS:
        add(f"budget.{layer}.self_us_per_op", "us", "lower",
            f"CPU self time of {layer} per completed op, traced run")
        add(f"budget.{layer}.calls_per_op", "count", "lower",
            f"entries into {layer} per completed op, traced run")
    add("budget.sum_us_per_op", "us", "lower",
        "sum of the budget rows including loop_other")
    add("budget.cpu_us_per_op", "us", "lower",
        "process CPU per completed op in the traced window")
    add("trace.overhead_ratio", "ratio", "lower",
        "traced / untraced cpu_s_per_kop")
    add("repl.put_to_synced_ms", "ms", "lower",
        "PUT stamped -> WAL batch synced, p50 (0 with persistence off)")
    add("repl.synced_to_sent_ms", "ms", "lower",
        "synced -> replicate frames handed to the transport, p50")
    add("repl.sent_to_installed_ms", "ms", "lower",
        "sent -> installed at a remote replica, p50")
    add("repl.installed_to_visible_ms", "ms", "lower",
        "installed -> readable at that replica, p50")
    add("repl.put_to_visible_ms", "ms", "lower",
        "whole replication path per write and remote replica, p50")
    add("repl.visibility_p50_ms", "ms", "lower",
        "visibility p50 of the traced run, to reconcile the stages with")
    return tuple(rows)


PER_LAYER_METRICS: tuple[Metric, ...] = _per_layer()


def benchmark_json() -> dict:
    """The contract file at the repository root, generated from the table."""
    return {
        "command": ["python3", "benchmarks/lab/run.py"],
        "paths": ["benchmarks/lab"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in E2E_METRICS
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER_METRICS
        ],
    }
