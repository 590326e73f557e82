"""Live observability end to end: a telemetry-enabled cluster serves
``/metrics`` mid-run, reports its port, and writes causal trace spans.

One short localhost run covers the whole wiring: registry creation at
build time, per-server gauge registration, the scrape endpoint on the
cluster's own event loop, the continuous visibility sink, and the
sampled span lifecycle joined across origin and remote replicas.
"""

import asyncio
import json

import pytest

from repro.common.config import (
    ClusterConfig,
    ExperimentConfig,
    PersistenceConfig,
    TelemetryConfig,
    WorkloadConfig,
)
from repro.obs.tracing import group_by_trace, read_spans
from repro.runtime import cluster as live_cluster
from repro.runtime.cluster import LiveCluster

#: Families every server-hosting endpoint must expose (the CI scrape
#: gate checks the same list).
EXPECTED_FAMILIES = (
    "repro_client_ops_total",
    "repro_messages_total",
    "repro_visibility_lag_seconds",
    "repro_wal_fsync_seconds",
    "repro_stable_lag_seconds",
    "repro_wait_queue_depth",
    "repro_repl_batch_occupancy",
    "repro_event_loop_lag_seconds",
    "repro_link_fault_drops_total",
    "repro_transport_frames_sent_total",
)


def _config(tmp_path, trace: bool) -> ExperimentConfig:
    telemetry = TelemetryConfig(
        enabled=True,
        trace=trace,
        trace_dir=str(tmp_path / "traces") if trace else "",
        trace_sample_every=1,  # sample everything: short window
    )
    return ExperimentConfig(
        cluster=ClusterConfig(num_dcs=2, num_partitions=2,
                              keys_per_partition=40, protocol="pocc",
                              telemetry=telemetry),
        workload=WorkloadConfig(kind="mixed", read_ratio=0.7, tx_ratio=0.1,
                                tx_partitions=2, clients_per_partition=2,
                                think_time_s=0.004),
        # Persistence on: WAL fsync summaries and ``wal_synced`` spans
        # need a real log to observe.
        persistence=PersistenceConfig(enabled=True,
                                      data_dir=str(tmp_path / "data"),
                                      fsync="interval",
                                      fsync_interval_s=0.02,
                                      snapshot_interval_s=0.0),
        warmup_s=0.2,
        duration_s=0.8,
        seed=29,
        verify=True,
        name="live-telemetry-smoke",
    )


async def _http_get(port: int, path: str) -> str:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    data = await reader.read(-1)
    writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    assert b"200 OK" in head.split(b"\r\n", 1)[0], head
    return body.decode("utf-8")


async def _run_and_scrape(cluster: LiveCluster):
    """The LiveCluster.run() lifecycle with two mid-run scrapes."""
    await cluster.start()
    assert cluster.metrics_port, "telemetry enabled but no endpoint"
    for driver in cluster.drivers:
        driver.start(stagger_s=0.01)
    await asyncio.sleep(cluster.config.warmup_s)
    cluster.metrics.arm(cluster.hub.now)
    first = await _http_get(cluster.metrics_port, "/metrics")
    await asyncio.sleep(cluster.config.duration_s)
    second = await _http_get(cluster.metrics_port, "/metrics")
    vars_doc = json.loads(
        await _http_get(cluster.metrics_port, "/vars.json"))
    cluster.metrics.disarm(cluster.hub.now)
    for driver in cluster.drivers:
        driver.stop()
    await cluster._quiesce()
    clean = cluster.flush_persistence()
    await cluster.hub.drain()
    report = cluster._report(clean and cluster.hub.clean)
    await cluster.stop_telemetry()
    await cluster.hub.close()
    cluster.close_persistence()
    return first, second, vars_doc, report


def _ops_total(text: str) -> float:
    return sum(float(line.rsplit(" ", 1)[1])
               for line in text.splitlines()
               if line.startswith("repro_client_ops_total{"))


@pytest.fixture(scope="module")
def scraped(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("live-telemetry")
    cluster = LiveCluster(_config(tmp_path, trace=True))
    with pytest.MonkeyPatch.context() as patch:
        # Probe often enough to fire many times in the short window.
        patch.setattr(live_cluster, "LOOP_PROBE_INTERVAL_S", 0.05)
        out = asyncio.run(_run_and_scrape(cluster))
    return (*out, tmp_path)


def test_endpoint_exposes_every_family_mid_run(scraped):
    first, second, _, _ = scraped[:4]
    for family in EXPECTED_FAMILIES:
        assert f"# TYPE {family}" in first, f"{family} missing"
        assert f"# TYPE {family}" in second, f"{family} missing"


def test_throughput_counters_are_live_and_monotone(scraped):
    first, second = scraped[:2]
    assert _ops_total(first) > 0, "no client ops counted by mid-run"
    assert _ops_total(second) >= _ops_total(first)


def test_vars_json_carries_process_identity(scraped):
    vars_doc = scraped[2]
    assert vars_doc["protocol"] == "pocc"
    servers = set(vars_doc["servers"])
    assert servers == {"dc0-p0", "dc0-p1", "dc1-p0", "dc1-p1"}
    metrics = vars_doc["metrics"]
    # Visibility flowed into the always-on sink: remote writes became
    # readable during the window.
    visibility = metrics["repro_visibility_lag_seconds"]["_"]
    assert visibility["count"] > 0
    assert visibility["p99"] >= 0
    # Per-partition WAL fsync summaries observed real syncs.
    fsyncs = metrics["repro_wal_fsync_seconds"]
    assert any(cell["count"] > 0 for cell in fsyncs.values()
               if isinstance(cell, dict))


def test_report_records_the_endpoint_and_passes(scraped):
    report = scraped[3]
    assert report.metrics_port
    assert report.passed, report.summary_text()
    assert report.total_ops > 0
    assert report.violations == []
    # The silent-empty fix: visibility is a real summary here, never {}.
    assert report.visibility.get("count", 0) > 0


def test_trace_spans_cover_the_write_lifecycle(scraped):
    tmp_path = scraped[4]
    trace_dir = tmp_path / "traces"
    files = sorted(trace_dir.glob("trace-*.jsonl"))
    assert files, "tracing enabled but no span files written"
    spans = [span for path in files for span in read_spans(str(path))]
    assert spans
    events = {span["event"] for span in spans}
    # The full origin-side lifecycle plus remote install/visibility.
    assert {"put", "wal_synced", "replicate_sent", "installed",
            "visible"} <= events
    groups = group_by_trace(spans)
    # At least one sampled write completed the whole journey.
    complete = [
        trace for trace, group in groups.items()
        if {"put", "replicate_sent", "installed"}
        <= {s["event"] for s in group}
    ]
    assert complete, "no write's lifecycle joined across span points"
    # Span timestamps share one time axis: put precedes install.
    for trace in complete:
        by_event = {}
        for span in groups[trace]:
            by_event.setdefault(span["event"], span)
        assert by_event["put"]["t"] <= by_event["installed"]["t"]
