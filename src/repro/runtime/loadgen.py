"""Multi-process load generation for the live backend.

A single Python process tops out well below what the servers can absorb:
the GIL serialises every client coroutine, the JSON frame codec and
the checker onto one core.  This module shards the *exact* client set a
single-process run would host across N worker processes — worker ``i``
hosts the client sessions whose deterministic position ``% N == i``
(see ``LiveCluster(client_shard=...)``) — so the sharded workload is the
unsharded workload, split.  Same client addresses, same per-address
workload/driver seeds, same port map.

Each worker runs a client-only :class:`LiveCluster` against external
servers (hosted by this process, by ``repro-serve`` processes, or by a
``repro-supervise`` tree), measures its own window, and ships back its
:class:`LiveReport` plus its raw per-kind latency histograms.  The
parent merges: ops and transport counters sum, throughput sums (each
worker's window is the same wall-clock span, started together),
histograms fold with :meth:`LogHistogram.merge` so the merged
percentiles are exact, verification counters sum, and the gate is the
conjunction — one dirty worker fails the run.

Cross-worker reads: each worker's checker sees only its shard's writes,
so a read returning another shard's version counts as an
``unknown_dependency_reads`` (a coverage counter, never a violation);
per-key causality within each session is still fully checked.

Workers are spawned (not forked): a fork would duplicate the parent's
running event loop and sockets.  That also means the deployment must use
a fixed ``base_port`` — every process derives the same port map
independently, nothing is coordinated at runtime.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.common.config import ExperimentConfig
from repro.common.errors import ConfigError
from repro.metrics.histogram import LogHistogram
from repro.runtime.cluster import LiveCluster, LiveReport
from repro.runtime.configfile import (
    experiment_config_from_dict,
    experiment_config_to_dict,
)


@dataclass(slots=True)
class WorkerResult:
    """What one load worker ships back to the parent (picklable)."""

    index: int
    pid: int
    report: LiveReport
    #: Raw mergeable per-kind histograms — the parent folds these, so
    #: merged percentiles are exact, not averages of percentiles.
    histograms: dict[str, LogHistogram]


def _worker_main(config_data: dict[str, Any], host: str, base_port: int,
                 index: int, total: int) -> WorkerResult:
    """Entry point of one spawned load worker (module-level: spawn
    pickles the reference, not the function)."""
    config = experiment_config_from_dict(config_data)
    cluster = LiveCluster(
        config,
        host=host,
        base_port=base_port,
        serve_addresses=[],            # clients only; servers run elsewhere
        client_shard=(index, total),
    )
    report = asyncio.run(cluster.run())
    return WorkerResult(
        index=index,
        pid=os.getpid(),
        report=report,
        histograms=cluster.merged_latency_histograms(),
    )


def _total_client_sessions(config: ExperimentConfig) -> int:
    cluster = config.cluster
    return (cluster.num_dcs * cluster.num_partitions
            * config.workload.clients_per_partition)


def _summarize(merged: dict[str, LogHistogram]) -> dict[str, dict]:
    overall = LogHistogram()
    for hist in merged.values():
        overall.merge(hist)
    out = dict(merged)
    if overall.count:
        out["all"] = overall
    return {
        kind: {
            "count": hist.count,
            "mean": hist.mean,
            "p50": hist.percentile(50),
            "p90": hist.percentile(90),
            "p99": hist.percentile(99),
            "max": hist.max_seen,
        }
        for kind, hist in out.items()
    }


def merge_worker_reports(results: list[WorkerResult],
                         extra_errors: list[str] | None = None,
                         clean_servers: bool = True) -> LiveReport:
    """Fold worker shards into one :class:`LiveReport`.

    Counters sum; throughput sums (the workers measured concurrent
    same-length windows); latency percentiles come from merged raw
    histograms; the verdict is the conjunction of every worker's.
    """
    if not results:
        raise ConfigError("no worker results to merge")
    reports = [r.report for r in results]
    merged_hists: dict[str, LogHistogram] = {}
    for result in results:
        for kind, hist in result.histograms.items():
            into = merged_hists.get(kind)
            if into is None:
                merged_hists[kind] = into = LogHistogram()
            into.merge(hist)
    verification: dict[str, int] = {}
    for report in reports:
        for key, value in report.verification.items():
            verification[key] = verification.get(key, 0) + value
    violations = [v for report in reports for v in report.violations]
    errors = [f"worker {r.index} (pid {r.pid}): {e}"
              for r in results for e in r.report.errors]
    errors.extend(extra_errors or [])
    faults: dict = {}
    for report in reports:
        for key, value in report.faults.items():
            if isinstance(value, dict):
                into = faults.setdefault(key, {})
                for kind, count in value.items():
                    into[kind] = into.get(kind, 0) + count
            else:
                faults[key] = faults.get(key, 0) + value
    first = reports[0]
    return LiveReport(
        protocol=first.protocol,
        num_dcs=first.num_dcs,
        num_partitions=first.num_partitions,
        duration_s=max(r.duration_s for r in reports),
        total_ops=sum(r.total_ops for r in reports),
        throughput_ops_s=sum(r.throughput_ops_s for r in reports),
        # Per-kind op summaries cannot be merged from summaries; the
        # driver-side ``latency`` block (merged from raw histograms) is
        # the authoritative per-kind view of a sharded run.
        op_stats={},
        verification=verification,
        violations=violations,
        history_events=sum(r.history_events for r in reports),
        messages_sent=sum(r.messages_sent for r in reports),
        messages_delivered=sum(r.messages_delivered for r in reports),
        bytes_sent=sum(r.bytes_sent for r in reports),
        clean_shutdown=(all(r.clean_shutdown for r in reports)
                        and clean_servers),
        arrival=first.arrival,
        latency=_summarize(merged_hists),
        dropped_arrivals=sum(r.dropped_arrivals for r in reports),
        # Worker shards host no servers, so no visibility samples exist
        # to merge; the explicit marker keeps "not measured" distinct
        # from "zero latency" for bench consumers.
        visibility={"samples": 0},
        faults=faults,
        batches_sent=sum(r.batches_sent for r in reports),
        batched_frames=sum(r.batched_frames for r in reports),
        errors=errors,
    )


@dataclass(slots=True)
class ShardedRunResult:
    """A merged report plus the per-worker shards behind it."""

    report: LiveReport
    worker_reports: list[LiveReport] = field(default_factory=list)
    driver_processes: int = 0
    #: True when this process hosted the servers (no external cluster).
    hosted_servers: bool = False


async def _run_sharded(config: ExperimentConfig, host: str, base_port: int,
                       processes: int,
                       external_servers: bool) -> ShardedRunResult:
    servers: LiveCluster | None = None
    server_errors: list[str] = []
    clean_servers = True
    if not external_servers:
        servers = LiveCluster(config, host=host, base_port=base_port,
                              serve_addresses=None, with_clients=False)
        await servers.start()
    loop = asyncio.get_running_loop()
    payload = experiment_config_to_dict(config)
    context = multiprocessing.get_context("spawn")
    try:
        with ProcessPoolExecutor(max_workers=processes,
                                 mp_context=context) as pool:
            futures = [
                loop.run_in_executor(
                    pool, _worker_main, payload, host, base_port,
                    index, processes,
                )
                for index in range(processes)
            ]
            results = list(await asyncio.gather(*futures))
    finally:
        if servers is not None:
            clean_servers = servers.flush_persistence()
            await servers.stop_telemetry()
            await servers.hub.close()
            servers.close_persistence()
            clean_servers = clean_servers and servers.hub.clean
            server_errors = [f"server host: {e}" for e in servers.hub.errors]
    merged = merge_worker_reports(results, extra_errors=server_errors,
                                  clean_servers=clean_servers)
    return ShardedRunResult(
        report=merged,
        worker_reports=[r.report for r in results],
        driver_processes=processes,
        hosted_servers=servers is not None,
    )


def run_sharded_load(
    config: ExperimentConfig,
    host: str = "127.0.0.1",
    base_port: int = 7400,
    processes: int = 2,
    external_servers: bool = False,
) -> ShardedRunResult:
    """Drive a live cluster with ``processes`` load worker processes.

    Servers are hosted in this process unless ``external_servers`` (then
    the deployment's ``repro-serve``/``repro-supervise`` tree must
    already be listening on the shared port map).  ``processes`` is
    clamped to the number of client sessions — an idle shard would have
    no drivers to run.
    """
    if processes < 1:
        raise ConfigError(f"processes must be >= 1, not {processes}")
    if base_port == 0:
        raise ConfigError(
            "multi-process load generation needs a fixed --base-port: "
            "every worker derives the shared port map independently, "
            "which ephemeral ports cannot provide"
        )
    sessions = _total_client_sessions(config)
    processes = min(processes, sessions)
    return asyncio.run(
        _run_sharded(config, host, base_port, processes, external_servers)
    )
