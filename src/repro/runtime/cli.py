"""Shared argument plumbing for the live-backend CLIs.

``repro-serve`` and ``repro-bench-live`` describe the same deployment —
a JSON config file (:mod:`repro.runtime.configfile`) plus command-line
overrides for the knobs people actually turn (protocol, shape, duration,
seed) — so the parser wiring lives here once.
"""

from __future__ import annotations

import argparse
import dataclasses

from repro.common.config import ExperimentConfig
from repro.protocols.registry import list_protocols
from repro.runtime.configfile import load_experiment_config


def add_deployment_args(parser: argparse.ArgumentParser) -> None:
    """Options describing the cluster being booted/driven."""
    parser.add_argument("--config", metavar="PATH",
                        help="JSON deployment description "
                             "(see repro.runtime.configfile); omitted "
                             "fields take the library defaults")
    parser.add_argument("--protocol", choices=list_protocols(),
                        help="protocol override")
    parser.add_argument("--dcs", type=int, metavar="N",
                        help="number of data centers override")
    parser.add_argument("--partitions", type=int, metavar="N",
                        help="partitions per DC override")
    parser.add_argument("--clients", type=int, metavar="N",
                        help="clients per partition override")
    parser.add_argument("--keys", type=int, metavar="N",
                        help="keys per partition override")
    parser.add_argument("--think-time", type=float, metavar="S",
                        help="client think time override (seconds)")
    parser.add_argument("--arrival", choices=("closed", "open"),
                        help="driver model override: 'closed' (think-time "
                             "loop) or 'open' (target-rate arrivals; "
                             "latency measured from intended arrival)")
    parser.add_argument("--rate", type=float, metavar="OPS",
                        help="open loop: target arrivals per second per "
                             "client session (implies --arrival open)")
    parser.add_argument("--seed", type=int, help="workload seed override")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind/dial host (default: 127.0.0.1)")
    parser.add_argument("--base-port", type=int, default=7400,
                        metavar="PORT",
                        help="first port of the deterministic port map; "
                             "0 = ephemeral ports (single-process only; "
                             "default: 7400)")
    parser.add_argument("--repl-batch", type=int, metavar="N",
                        help="enable protocol-level replication batching: "
                             "up to N versions per inter-DC ReplicateBatch "
                             "(see docs/protocols.md; N=1 is wire-"
                             "equivalent to batching off)")
    parser.add_argument("--repl-flush-ms", type=float, metavar="MS",
                        help="replication batch flush deadline in ms "
                             "(default: 5.0; enables batching when given "
                             "without --repl-batch)")
    parser.add_argument("--data-dir", metavar="PATH",
                        help="enable durability: per-partition WAL + "
                             "snapshots under PATH, crash recovery on "
                             "boot (see docs/persistence.md)")
    parser.add_argument("--fsync", choices=("always", "interval", "off"),
                        help="WAL fsync policy (default: config file, "
                             "else 'interval'); 'always' makes every "
                             "acknowledged write SIGKILL-durable")
    parser.add_argument("--snapshot-interval", type=float, metavar="S",
                        help="seconds between chain snapshots + WAL "
                             "truncation (0 disables; default: config)")
    parser.add_argument("--metrics-port", type=int, metavar="PORT",
                        help="enable live telemetry: serve /metrics and "
                             "/vars.json, one endpoint per hosted server "
                             "at PORT + server index (Topology order; "
                             "0 = ephemeral, single-process only; see "
                             "docs/observability.md)")
    parser.add_argument("--trace-dir", metavar="PATH",
                        help="enable causal event tracing: sampled "
                             "write-lifecycle spans as JSONL under PATH "
                             "(implies telemetry on)")
    parser.add_argument("--trace-sample", type=int, metavar="N",
                        help="trace one write per N update-time ticks "
                             "(ut %% N == 0; default: 64)")


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The deployment's ExperimentConfig: file (or defaults) + overrides."""
    if args.config:
        config = load_experiment_config(args.config)
    else:
        config = ExperimentConfig()
    cluster = config.cluster
    cluster_overrides = {}
    if args.protocol is not None:
        cluster_overrides["protocol"] = args.protocol
    if args.dcs is not None:
        cluster_overrides["num_dcs"] = args.dcs
    if args.partitions is not None:
        cluster_overrides["num_partitions"] = args.partitions
    if args.keys is not None:
        cluster_overrides["keys_per_partition"] = args.keys
    if args.repl_batch is not None or args.repl_flush_ms is not None:
        repl_overrides: dict = {"enabled": True}
        if args.repl_batch is not None:
            repl_overrides["max_versions"] = args.repl_batch
        if args.repl_flush_ms is not None:
            repl_overrides["flush_ms"] = args.repl_flush_ms
        cluster_overrides["repl_batch"] = dataclasses.replace(
            cluster.repl_batch, **repl_overrides
        )
    telemetry_overrides: dict = {}
    if args.metrics_port is not None:
        telemetry_overrides.update(enabled=True,
                                   metrics_base_port=args.metrics_port)
    if args.trace_dir is not None:
        telemetry_overrides.update(enabled=True, trace=True,
                                   trace_dir=args.trace_dir)
    if args.trace_sample is not None:
        telemetry_overrides["trace_sample_every"] = args.trace_sample
    if telemetry_overrides:
        cluster_overrides["telemetry"] = dataclasses.replace(
            cluster.telemetry, **telemetry_overrides
        )
    if cluster_overrides:
        cluster = dataclasses.replace(cluster, **cluster_overrides)
    workload = config.workload
    workload_overrides = {}
    if args.clients is not None:
        workload_overrides["clients_per_partition"] = args.clients
    if args.think_time is not None:
        workload_overrides["think_time_s"] = args.think_time
    if args.rate is not None:
        workload_overrides["rate_ops_s"] = args.rate
        if args.arrival is None:
            workload_overrides["arrival"] = "open"
    if args.arrival is not None:
        workload_overrides["arrival"] = args.arrival
    if workload_overrides:
        workload = dataclasses.replace(workload, **workload_overrides)
    persistence = config.persistence
    persistence_overrides = {}
    if args.data_dir is not None:
        persistence_overrides.update(enabled=True, data_dir=args.data_dir)
    if args.fsync is not None:
        persistence_overrides["fsync"] = args.fsync
    if args.snapshot_interval is not None:
        persistence_overrides["snapshot_interval_s"] = args.snapshot_interval
    if persistence_overrides:
        persistence = dataclasses.replace(persistence,
                                          **persistence_overrides)
    overrides = {"cluster": cluster, "workload": workload,
                 "persistence": persistence}
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = dataclasses.replace(config, **overrides)
    config.validate()
    return config
