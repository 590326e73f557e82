"""The experiment lifecycle: build -> warmup -> measure -> (drain) -> report.

``run_experiment`` is the single entry point used by examples, tests and all
figure benches.  The measurement window opens after ``warmup_s`` of
simulated time and closes ``duration_s`` later; when verification is on the
drivers are then stopped, replication is drained and the convergence checker
runs over the quiesced stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.config import ExperimentConfig
from repro.common.types import OpType
from repro.harness.builders import BuiltCluster, build_cluster
from repro.metrics.collectors import (
    BLOCK_GET_VV,
    BLOCK_PUT_DEPS,
    BLOCK_SLICE_VV,
)
from repro.verification.convergence import check_convergence

#: Extra simulated seconds to let replication quiesce before convergence
#: checks: enough for any WAN hop plus heartbeat and stabilization rounds.
DRAIN_S = 2.0


@dataclass(slots=True)
class ExperimentResult:
    """Everything measured in one run, in plain-data form."""

    name: str
    protocol: str
    config: dict[str, Any]
    duration_s: float
    total_ops: int
    throughput_ops_s: float
    op_stats: dict[str, dict[str, float]]
    blocking: dict[str, dict[str, float]]
    get_staleness: dict[str, float]
    tx_staleness: dict[str, float]
    gss_lag: dict[str, float]
    visibility_lag: dict[str, float]
    network_messages: int
    network_bytes: int
    inter_dc_bytes: int
    bytes_per_op: float
    cpu_utilization_mean: float
    cpu_utilization_max: float
    sim_events: int
    verification: dict[str, int] | None = None
    divergences: int | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    # -- convenience views used by the figure benches ---------------------
    @property
    def mean_response_time_s(self) -> float:
        """Mean response time across all operation types."""
        total = 0.0
        count = 0
        for stats in self.op_stats.values():
            total += stats["mean"] * stats["count"]
            count += stats["count"]
        return total / count if count else 0.0

    def op_mean_s(self, op: str) -> float:
        stats = self.op_stats.get(op)
        return stats["mean"] if stats else 0.0

    @property
    def blocking_probability(self) -> float:
        """Combined probability that a GET / PUT-dependency / slice wait
        actually blocked (the paper's Figures 2a and 3c)."""
        return self.extras.get("blocking_probability", 0.0)

    @property
    def mean_block_time_s(self) -> float:
        return self.extras.get("mean_block_time_s", 0.0)

    def summary_text(self) -> str:
        lines = [
            f"experiment {self.name or '(unnamed)'} [{self.protocol}]",
            f"  throughput      : {self.throughput_ops_s:,.0f} ops/s "
            f"({self.total_ops} ops in {self.duration_s:.2f}s)",
            f"  mean resp. time : {self.mean_response_time_s * 1000:.3f} ms",
            f"  blocking        : p={self.blocking_probability:.2e}, "
            f"mean stall={self.mean_block_time_s * 1000:.3f} ms",
            f"  GET staleness   : {self.get_staleness['pct_old']:.2f}% old, "
            f"{self.get_staleness['pct_unmerged']:.2f}% unmerged",
            f"  TX staleness    : {self.tx_staleness['pct_old']:.2f}% old, "
            f"{self.tx_staleness['pct_unmerged']:.2f}% unmerged",
            f"  network         : {self.network_messages:,} msgs, "
            f"{self.bytes_per_op:.0f} B/op",
            f"  CPU utilization : mean {self.cpu_utilization_mean:.2f}, "
            f"max {self.cpu_utilization_max:.2f}",
        ]
        if self.verification is not None:
            lines.append(
                f"  verification    : {self.verification['violations']} "
                f"violations over {self.verification['reads_checked']} reads"
                f" / {self.verification['tx_reads_checked']} tx-reads; "
                f"{self.divergences} diverged keys"
            )
        return "\n".join(lines)


def run_experiment(
    config: ExperimentConfig, built: BuiltCluster | None = None
) -> ExperimentResult:
    """Run one experiment to completion and aggregate its metrics.

    Pass a pre-built cluster (e.g. with scheduled fault injection) via
    ``built``; otherwise one is constructed from ``config``.
    """
    if built is None:
        built = build_cluster(config)
    sim = built.sim
    metrics = built.metrics

    built.start_drivers()

    # Arm the metrics window at the warmup boundary.
    bytes_at_arm = {"bytes": 0, "messages": 0, "busy": {}}

    def arm() -> None:
        metrics.arm(sim.now)
        bytes_at_arm["bytes"] = built.network.stats.bytes_sent
        bytes_at_arm["messages"] = built.network.stats.messages_sent
        bytes_at_arm["inter_dc"] = built.network.stats.inter_dc_bytes()
        bytes_at_arm["busy"] = {
            addr: server.cpu.busy_time_s
            for addr, server in built.servers.items()
        }

    sim.schedule(config.warmup_s, arm)
    end_at = config.warmup_s + config.duration_s
    sim.run(until=end_at)
    metrics.disarm(sim.now)

    window = metrics.window_duration_s
    messages = built.network.stats.messages_sent - bytes_at_arm["messages"]
    total_bytes = built.network.stats.bytes_sent - bytes_at_arm["bytes"]
    inter_dc = built.network.stats.inter_dc_bytes() - bytes_at_arm.get(
        "inter_dc", 0
    )
    utilizations = []
    for addr, server in built.servers.items():
        busy_before = bytes_at_arm["busy"].get(addr, 0.0)
        busy_delta = server.cpu.busy_time_s - busy_before
        utilizations.append(
            min(1.0, busy_delta / (window * server.cpu.cores))
            if window > 0 else 0.0
        )

    verification = None
    divergences = None
    if built.checker is not None:
        built.stop_drivers()
        sim.run(until=sim.now + DRAIN_S)
        verification = built.checker.summary()
        divergences = len(check_convergence(
            built.servers,
            config.cluster.num_dcs,
            config.cluster.num_partitions,
        ))

    total_ops = metrics.total_ops()
    combined = metrics.combined_blocking(
        (BLOCK_GET_VV, BLOCK_PUT_DEPS, BLOCK_SLICE_VV)
    )
    result = ExperimentResult(
        name=config.name,
        protocol=config.cluster.protocol,
        config=config.describe(),
        duration_s=window,
        total_ops=total_ops,
        throughput_ops_s=metrics.throughput_ops_s(),
        op_stats={
            op.value: stats.latency.summary()
            for op, stats in metrics.ops.items()
        },
        blocking={
            cause: {
                "attempts": stats.attempts,
                "blocked": stats.blocked,
                "probability": stats.probability,
                "mean_block_time_s": stats.mean_block_time_s,
            }
            for cause, stats in metrics.blocking.items()
        },
        get_staleness=metrics.get_staleness.summary(),
        tx_staleness=metrics.tx_staleness.summary(),
        gss_lag=metrics.gss_lag.summary(),
        visibility_lag=metrics.visibility_lag.summary(),
        network_messages=messages,
        network_bytes=total_bytes,
        inter_dc_bytes=inter_dc,
        bytes_per_op=total_bytes / total_ops if total_ops else 0.0,
        cpu_utilization_mean=(
            sum(utilizations) / len(utilizations) if utilizations else 0.0
        ),
        cpu_utilization_max=max(utilizations, default=0.0),
        sim_events=sim.events_executed,
        verification=verification,
        divergences=divergences,
        extras={
            "blocking_probability": combined.probability,
            "mean_block_time_s": combined.mean_block_time_s,
            "blocking_attempts": combined.attempts,
            "blocking_blocked": combined.blocked,
        },
    )
    _sanity_check(result)
    return result


def _sanity_check(result: ExperimentResult) -> None:
    """Cheap internal invariants every run must satisfy."""
    for cause, stats in result.blocking.items():
        assert stats["blocked"] <= stats["attempts"], (
            f"{cause}: blocked > attempts"
        )
    assert result.total_ops >= 0
    assert result.throughput_ops_s >= 0.0


#: Operation-type labels used in op_stats keys.
OP_GET = OpType.GET.value
OP_PUT = OpType.PUT.value
OP_RO_TX = OpType.RO_TX.value
