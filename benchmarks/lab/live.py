"""Run one live workload row in this process and measure it from outside.

Servers, clients and the load generator share this process and one
event-loop thread.  Every cluster gets its own ``asyncio.run`` so that a
finished cluster's timers die with its loop instead of ticking under the
next measurement.  All numbers come from public entry points and
attributes of the program; the only hook is the drivers' latency-record
method, replaced per instance by a raw-sample recorder.
"""

from __future__ import annotations

import asyncio
import resource
import shutil
import tempfile
import time
from pathlib import Path
from statistics import median

from . import audit, spans
from .stats import LAB_DIR, percentile
from .workloads import (
    BLOCK_CAUSES, SETUP_REPEATS, SLO_P95_MS, WARMUP_S, Workload,
)

OUT_DIR = LAB_DIR / "out"
PROBE_INTERVAL_S = 0.010
QUIESCE_TIMEOUT_S = 10.0
FIRST_REPLY_TIMEOUT_S = 30.0
KINDS = ("get", "put", "ro_tx")


class Samples:
    """Raw latency samples per op kind plus raw visibility samples.

    Installed as each driver's latency hook and as the registry's
    ``visibility_sink`` (which only needs ``record``)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.latency: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.visibility: list[float] = []

    def record_latency(self, kind: str, seconds: float) -> None:
        self.latency[kind].append(seconds)

    def record(self, seconds: float) -> None:
        self.visibility.append(seconds)


class LoopProbe:
    """A 10 ms timer that records how late it fired and the open-loop
    backlog it saw — how late the load generator itself ran."""

    def __init__(self, loop, drivers) -> None:
        self._loop = loop
        self._drivers = [d for d in drivers if hasattr(d, "backlog")]
        self._handle = None
        self._due = 0.0
        self.lags: list[float] = []
        self.backlogs: list[int] = []

    def start(self) -> None:
        self._due = self._loop.time() + PROBE_INTERVAL_S
        self._handle = self._loop.call_at(self._due, self._tick)

    def _tick(self) -> None:
        now = self._loop.time()
        self.lags.append(max(now - self._due, 0.0))
        self.backlogs.append(sum(d.backlog for d in self._drivers))
        self._due = now + PROBE_INTERVAL_S
        self._handle = self._loop.call_at(self._due, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def backlog_growing(self, slack: int) -> bool:
        """Mean backlog of the last third against the first third."""
        third = len(self.backlogs) // 3
        if third == 0:
            return False
        first = sum(self.backlogs[:third]) / third
        last = sum(self.backlogs[-third:]) / third
        return last > first + slack


def _dropped(drivers) -> int:
    return sum(getattr(d, "dropped_arrivals", 0) for d in drivers)


def _issued(drivers) -> int:
    return sum(d.ops_issued for d in drivers)


def _counters(cluster) -> dict[str, int]:
    stats = cluster.hub.stats
    out = {"frames": stats.messages_sent, "bytes": stats.bytes_sent,
           "writes": stats.batches_sent,
           "delivered": stats.messages_delivered,
           "wal_records": 0, "wal_syncs": 0, "wal_commits": 0}
    for durability in cluster.durability.values():
        wal = durability.wal.stats
        out["wal_records"] += wal.records_appended
        out["wal_syncs"] += wal.syncs
        out["wal_commits"] += wal.group_commits
    return out


async def _measure_window(cluster, samples: Samples, row: Workload,
                          window_s: float, tracer) -> dict:
    """Everything read between the window's first and last instant."""
    probe = LoopProbe(asyncio.get_running_loop(), cluster.drivers)
    samples.reset()
    if tracer is not None:
        tracer.reset()
        tracer.enabled = True
    before = _counters(cluster)
    cluster.metrics.arm(cluster.hub.now)
    probe.start()
    cpu0, t0 = time.process_time(), time.perf_counter()
    await asyncio.sleep(window_s)
    cpu1, t1 = time.process_time(), time.perf_counter()
    if tracer is not None:
        tracer.enabled = False
    probe.stop()
    cluster.metrics.disarm(cluster.hub.now)
    after = _counters(cluster)
    return dict(
        seconds=t1 - t0, cpu_s=cpu1 - cpu0,
        latency={k: list(v) for k, v in samples.latency.items()},
        visibility=list(samples.visibility),
        counters={k: after[k] - before[k] for k in after},
        blocking={
            cause: (stats.attempts, stats.blocked, stats.mean_block_time_s)
            for cause, stats in cluster.metrics.blocking.items()
        },
        lags=probe.lags, backlog_max=max(probe.backlogs, default=0),
        backlog_growing=probe.backlog_growing(slack=row.sessions),
    )


async def _cluster_run(row: Workload, config, warmup_s: float,
                       window_s: float, tracer) -> dict:
    """Boot one cluster; optionally measure one window; shut down."""
    from repro.runtime.cluster import LiveCluster
    started = time.perf_counter()
    cluster = LiveCluster(config)
    recorder = audit.HistoryRecorder()
    cluster.checker = recorder           # before start(): drivers take it
    for src in range(row.dcs if row.link_delay_s else 0):
        for dst in range(row.dcs):
            if src != dst:
                cluster.hub.set_link_fault(src, dst,
                                           delay_s=row.link_delay_s)
    await cluster.start()
    samples = Samples()
    cluster.metrics.visibility_sink = samples
    drivers, clients = cluster.drivers, cluster.clients
    for driver in drivers:
        driver._record_latency = samples.record_latency
    if row.arrival == "open":
        # Each session fires on a fixed period, so the sessions' relative
        # phases — which arrivals collide — last the whole run.  Left to
        # the drivers' seeded stagger they move the median latency by
        # +-10% from seed to seed; started one aggregate inter-arrival gap
        # apart, the offered stream is the same evenly spaced one on
        # every seed.
        loop = asyncio.get_running_loop()
        gap = 1.0 / config.workload.rate_ops_s / len(drivers)
        first = loop.time()
        for index, driver in enumerate(drivers):
            while loop.time() < first + index * gap:
                await asyncio.sleep(0)
            driver.start(stagger_s=0.0)
    else:
        for driver in drivers:
            driver.start(stagger_s=0.01)
    deadline = started + FIRST_REPLY_TIMEOUT_S
    while not all(client.ops_completed for client in clients):
        if time.perf_counter() > deadline:
            raise RuntimeError(f"{row.name}: a session got no first reply")
        await asyncio.sleep(0.001)
    out: dict = {"setup_s": time.perf_counter() - started,
                 "recorder": recorder, "topology": cluster.topology}

    if window_s:
        await asyncio.sleep(warmup_s)
        issued, dropped = _issued(drivers), _dropped(drivers)
        out.update(await _measure_window(cluster, samples, row, window_s,
                                         tracer))

    for driver in drivers:
        driver.stop()
    deadline = time.perf_counter() + QUIESCE_TIMEOUT_S
    while (any(c.has_pending for c in clients)
           and time.perf_counter() < deadline):
        await asyncio.sleep(0.02)
    unanswered = sum(1 for c in clients if c.has_pending)
    await cluster.hub.drain()
    flushed = cluster.flush_persistence()
    await cluster.hub.drain()
    await cluster.stop_telemetry()
    await cluster.hub.close()
    cluster.close_persistence()
    if window_s:
        out["dropped"] = _dropped(drivers) - dropped
        out["attempted"] = _issued(drivers) - issued + out["dropped"]
    out.update(unanswered=unanswered, errors=list(cluster.hub.errors),
               clean=flushed and not unanswered and cluster.hub.clean,
               rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return out


def run_cluster(row: Workload, seed: int, *, window_s: float,
                warmup_s: float = WARMUP_S, rate_ops_s: float | None = None,
                tracer=None, drops_fail: bool = True) -> dict:
    """One cluster from boot to audited shutdown.

    ``window_s == 0`` boots, waits for every session's first reply and
    shuts down (a set-up repetition).  With ``tracer`` the span wrappers
    are live during the window and the program's PUT-lifecycle trace is
    switched on in its config.  ``drops_fail=False`` is for a probe step
    above capacity: arrivals dropped there are its finding, not a failed
    operation of the benchmark."""
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{row.name}-", dir=OUT_DIR))
    try:
        config = row.experiment_config(
            seed, rate_ops_s=rate_ops_s,
            data_dir=str(scratch / "data") if row.durable else "",
            trace_dir=str(scratch / "trace") if tracer is not None else "",
        )
        out = asyncio.run(
            _cluster_run(row, config, warmup_s, window_s, tracer))
        recorder = out.pop("recorder")
        topology = out.pop("topology")
        out["violations"] = out["unrecovered"] = 0
        if window_s:
            checker = audit.replay(recorder, row.replay_every)
            out["violations"] = len(checker.violations)
            out["errors"] += [v.describe() for v in checker.violations[:5]]
            if row.durable:
                lost = audit.unrecovered_puts(
                    scratch / "data", topology, config.persistence,
                    recorder.acknowledged_puts())
                out["unrecovered"] = len(lost)
                out["errors"] += [f"acknowledged PUT {put} not recovered"
                                  for put in lost[:5]]
            if tracer is not None:
                out["repl"] = spans.replication_stages(scratch / "trace")
                tracer.dump(OUT_DIR / f"spans-{row.name}.bin")
            if not drops_fail:
                out["attempted"] -= out["dropped"]
            out["failed"] = (out["dropped"] * drops_fail + out["unanswered"]
                             + out["violations"] + out["unrecovered"])
            out["correct"] = (out["failed"] == 0 and out["clean"]
                              and not out["errors"])
        return out
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def ms(values: list[float], p: float) -> float | None:
    return percentile(values, p) * 1e3 if values else None


def latency_metrics(latency: dict, visibility: list[float]) -> dict:
    """The percentile part of the end-to-end metrics (live and sim)."""
    out = {}
    for p in (50, 95):
        for kind, name in zip(KINDS, ("get", "put", "rotx")):
            out[f"{name}_p{p}_ms"] = ms(latency[kind], p)
        out[f"visibility_p{p}_ms"] = ms(visibility, p)
    return out


def end_to_end(run: dict, setups: list[float], import_s: float) -> dict:
    """The end-to-end metrics of one measured window."""
    ops = _ops(run)
    return {
        "setup_s": import_s + median(setups),
        "throughput_ops_s": ops / run["seconds"],
        "cpu_s_per_kop": run["cpu_s"] / ops * 1e3,
        **latency_metrics(run["latency"], run["visibility"]),
        "rss_mb": run["rss_kb"] / 1024.0,
    }


def _ops(run: dict) -> int:
    return sum(len(v) for v in run["latency"].values())


def _all_ops_p95_ms(run: dict) -> float:
    return ms([s for v in run["latency"].values() for s in v], 95)


def in_situ(run: dict) -> dict:
    """Per-layer counts of one untraced window, from public counters."""
    ops = _ops(run)
    puts = len(run["latency"]["put"])
    counters = run["counters"]
    out = {
        "transport.frames_per_op": counters["frames"] / ops,
        "transport.bytes_per_op": counters["bytes"] / ops,
        "transport.frames_per_write":
            counters["frames"] / max(counters["writes"], 1),
        "wal.records_per_put": counters["wal_records"] / max(puts, 1),
        "wal.syncs_per_put": counters["wal_syncs"] / max(puts, 1),
        "wal.records_per_commit":
            counters["wal_records"] / max(counters["wal_commits"], 1),
        "loop.lag_p95_ms": ms(run["lags"], 95),
        "driver.backlog_max": run["backlog_max"],
        "driver.dropped_arrivals": run["dropped"],
        "tail.get_p99_ms": ms(run["latency"]["get"], 99),
        "tail.put_p99_ms": ms(run["latency"]["put"], 99),
        "tail.rotx_p99_ms": ms(run["latency"]["ro_tx"], 99),
    }
    for cause in BLOCK_CAUSES:
        attempts, blocked, mean_s = run["blocking"][cause]
        out[f"protocols.block_prob.{cause}"] = (
            blocked / attempts if attempts else 0.0)
        out[f"protocols.block_mean_ms.{cause}"] = mean_s * 1e3
        out[f"protocols.block_attempts_per_kop.{cause}"] = (
            attempts / ops * 1e3)
    return out


def _merge_verdict(runs: list[dict]) -> dict:
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]],
    }


def run_untraced(row: Workload, seed: int, seconds: float, import_s: float,
                 quick: bool) -> dict:
    """The ``--trace 0`` run: set up several times, measure one window."""
    warmup = 0.3 if quick else WARMUP_S
    repeats = 1 if quick else SETUP_REPEATS
    setups = [run_cluster(row, seed, window_s=0)["setup_s"]
              for _ in range(repeats - 1)]
    run = run_cluster(row, seed, window_s=seconds, warmup_s=warmup)
    setups.append(run["setup_s"])
    out = _merge_verdict([run])
    out["metrics"] = end_to_end(run, setups, import_s)
    out["detail"] = {
        "setups_s": setups,
        "window_s": run["seconds"], "ops": _ops(run),
        "samples": {k: len(v) for k, v in run["latency"].items()}
        | {"visibility": len(run["visibility"])},
        "violations": run["violations"], "clean_shutdown": run["clean"],
        "backlog_growing": run["backlog_growing"],
        "offered_ops_s": row.rate_ops_s or None,
        "link_delay_s": row.link_delay_s,
        "flush_policy": ("fsync=always, group commit, snapshot every 5 s"
                         if row.durable else "persistence off"),
    }
    return out


def run_traced(row: Workload, seed: int, seconds: float,
               quick: bool) -> dict:
    """The ``--trace 1`` run: half the time untraced (in-situ counts and
    the reference CPU cost), half traced (budget and replication stages);
    ``mixed_open`` adds its two probe rates in between."""
    warmup = 0.3 if quick else WARMUP_S
    half = seconds / 2.0
    untraced = run_cluster(row, seed, window_s=half, warmup_s=warmup)
    runs = [untraced]
    metrics = in_situ(untraced)
    detail: dict = {"backlog_growing": untraced["backlog_growing"]}

    if row.ladder:
        steps = {row.rate_ops_s: untraced}
        for rate in row.ladder:
            steps[rate] = run_cluster(
                row, seed, window_s=half / 2.0, warmup_s=min(warmup, 1.0),
                rate_ops_s=rate, drops_fail=False)
        runs += [steps[rate] for rate in row.ladder]
        p95 = {rate: _all_ops_p95_ms(step) for rate, step in steps.items()}
        for rate in row.ladder:
            metrics[f"driver.ladder.r{int(rate)}.p95_ms"] = p95[rate]
        metrics["driver.slo_rate_ops_s"] = max(
            (rate for rate, step in steps.items()
             if p95[rate] <= SLO_P95_MS and not step["backlog_growing"]
             and not step["dropped"]), default=0.0)
        detail["ladder"] = {
            str(int(rate)): {"p95_ms": p95[rate],
                             "backlog_growing": step["backlog_growing"],
                             "dropped": step["dropped"],
                             "throughput_ops_s": _ops(step) / step["seconds"]}
            for rate, step in sorted(steps.items())
        }

    tracer = spans.Tracer()
    spans.install(tracer)
    traced = run_cluster(row, seed, window_s=half, warmup_s=warmup,
                         tracer=tracer)
    runs.append(traced)
    ops = _ops(traced)
    metrics.update(tracer.budget(traced["cpu_s"], ops))
    # feed() is entered once per socket read; the unit the isolated
    # per-frame cost multiplies with is frames decoded.
    metrics["budget.codec_decode.calls_per_op"] = (
        traced["counters"]["delivered"] / ops)
    metrics["trace.overhead_ratio"] = (
        (traced["cpu_s"] / ops) / (untraced["cpu_s"] / _ops(untraced)))
    repl = traced["repl"]
    detail["repl_samples"] = repl.pop("repl.samples")
    metrics.update(repl)
    metrics["repl.visibility_p50_ms"] = ms(traced["visibility"], 50)
    detail["spans"] = len(tracer.layer)
    out = _merge_verdict(runs)
    out["metrics"] = metrics
    out["detail"] = detail
    return out
