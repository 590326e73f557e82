"""One experiment definition per figure of the paper's evaluation.

Every public ``figure_*`` function runs the sweep behind the corresponding
figure of Section V and returns a :class:`FigureData` with the same series
the paper plots.  Absolute values are simulator-scale; EXPERIMENTS.md
records them next to the paper's numbers and compares shapes.

All figures share the Section V-A setup: 3 DCs, clients collocated with
servers in closed loop, zipf(0.99) keys, heartbeats after 1 ms, Cure*
stabilization every 5 ms, last-writer-wins, and POCC's PUT dependency wait
enabled.

Execution: each figure first *builds* its full grid of experiment
configurations, then runs them all through
:func:`repro.harness.parallel.run_experiments` (``parallelism=None`` uses
every core, ``1`` is the legacy serial path) and finally aggregates the
results in grid order — so the returned ``FigureData`` is byte-identical
at any parallelism.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable

from repro.common.config import ClusterConfig, ExperimentConfig, WorkloadConfig
from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import run_experiments
from repro.harness.scales import FigureScale, get_scale
from repro.metrics.collectors import BLOCK_PUT_DEPS, BLOCK_SLICE_VV

POCC = "pocc"
CURE = "cure"
OKAPI = "okapi"
_LABEL = {POCC: "POCC", CURE: "Cure*", OKAPI: "Okapi*",
          "gentlerain": "GentleRain*", "occ_scalar": "OCC-scalar",
          "cops": "COPS*", "ha_pocc": "HA-POCC", "eventual": "eventual"}

#: The paper's two systems — the default comparison every figure runs.
DEFAULT_PROTOCOLS = (CURE, POCC)


def _label(protocol: str) -> str:
    return _LABEL.get(protocol, protocol)


@dataclass(slots=True)
class FigureData:
    """The series behind one reproduced figure."""

    figure_id: str
    title: str
    x_label: str
    series: dict[str, list[tuple[float, float]]]
    notes: str = ""
    results: list[ExperimentResult] = field(default_factory=list)

    def add(self, series_name: str, x: float, y: float) -> None:
        self.series.setdefault(series_name, []).append((x, y))

    def ys(self, series_name: str) -> list[float]:
        return [y for _, y in self.series[series_name]]

    def xs(self, series_name: str) -> list[float]:
        return [x for x, _ in self.series[series_name]]

    def table_text(self) -> str:
        """A plain-text table: one row per x, one column per series."""
        names = list(self.series)
        xs = sorted({x for points in self.series.values() for x, _ in points})
        header = [self.x_label] + names
        widths = [max(12, len(h) + 2) for h in header]
        lines = [
            f"Figure {self.figure_id}: {self.title}",
            "".join(h.ljust(w) for h, w in zip(header, widths)),
        ]
        lookup = {
            name: dict(points) for name, points in self.series.items()
        }
        for x in xs:
            row = [f"{x:g}".ljust(widths[0])]
            for name, w in zip(names, widths[1:]):
                y = lookup[name].get(x)
                row.append(("-" if y is None else f"{y:.4g}").ljust(w))
            lines.append("".join(row))
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


ProgressFn = Callable[[str], None]


def _progress(verbose: bool) -> ProgressFn:
    if verbose:
        return lambda text: print(f"  [figures] {text}", file=sys.stderr)
    return lambda text: None


def _live_log(grid, log: ProgressFn, format_point) -> Callable:
    """A per-run progress callback that logs ``format_point(point, result)``.

    ``run_experiments`` invokes progress in input order on both paths —
    live after each run when serial, all at once (still in order) when
    parallel — so walking the grid alongside the callbacks is safe.
    """
    points = iter(grid)

    def on_run(config, result) -> None:
        log(format_point(next(points), result))

    return on_run


def _experiment(
    scale: FigureScale,
    protocol: str,
    workload: WorkloadConfig,
    partitions: int | None = None,
    name: str = "",
) -> ExperimentConfig:
    cluster = ClusterConfig(
        num_dcs=scale.num_dcs,
        num_partitions=partitions if partitions is not None else scale.partitions,
        keys_per_partition=scale.keys_per_partition,
        protocol=protocol,
    )
    return ExperimentConfig(
        cluster=cluster,
        workload=workload,
        warmup_s=scale.warmup_s,
        duration_s=scale.duration_s,
        seed=scale.seed,
        name=name,
    )


def _getput(scale: FigureScale, gets_per_put: int, clients: int) -> WorkloadConfig:
    return WorkloadConfig(
        kind="get_put",
        gets_per_put=gets_per_put,
        clients_per_partition=clients,
        think_time_s=scale.think_time_s,
    )


def _rotx(scale: FigureScale, tx_partitions: int, clients: int) -> WorkloadConfig:
    return WorkloadConfig(
        kind="ro_tx",
        tx_partitions=tx_partitions,
        clients_per_partition=clients,
        think_time_s=scale.think_time_s,
    )


# ----------------------------------------------------------------------
# Figure 1: GET/PUT workloads
# ----------------------------------------------------------------------


def figure_1a(scale: str = "bench", verbose: bool = False,
              protocols: tuple[str, ...] = DEFAULT_PROTOCOLS,
              parallelism: int | None = None) -> FigureData:
    """Throughput while varying the number of partitions (GET:PUT = p:1).

    Paper: POCC and Cure* achieve basically the same throughput at every
    deployment size — optimism costs no throughput.
    """
    s = get_scale(scale)
    log = _progress(verbose)
    data = FigureData(
        figure_id="1a",
        title="Throughput vs number of partitions (GET:PUT = p:1, saturated)",
        x_label="partitions",
        series={},
        notes="paper: the two systems overlap across all sizes",
    )
    grid = [(partitions, protocol)
            for partitions in s.partition_sweep
            for protocol in protocols]
    configs = [
        _experiment(s, protocol,
                    _getput(s, gets_per_put=partitions,
                            clients=s.saturating_clients),
                    partitions=partitions,
                    name=f"fig1a-{protocol}-p{partitions}")
        for partitions, protocol in grid
    ]
    results = run_experiments(
        configs, parallelism=parallelism,
        progress=_live_log(grid, log, lambda point, r: (
            f"1a p={point[0]} {point[1]}: {r.throughput_ops_s:,.0f} ops/s")))
    for (partitions, protocol), result in zip(grid, results):
        data.add(_label(protocol), partitions, result.throughput_ops_s)
        data.results.append(result)
    return data


def figure_1b(scale: str = "bench", verbose: bool = False,
              protocols: tuple[str, ...] = DEFAULT_PROTOCOLS,
              parallelism: int | None = None) -> FigureData:
    """Average response time vs throughput (client-count sweep).

    Paper: POCC is slightly faster below saturation (no stabilization, no
    chain traversal) and slightly slower at extreme load (blocking).
    """
    s = get_scale(scale)
    log = _progress(verbose)
    data = FigureData(
        figure_id="1b",
        title="Avg response time vs throughput "
              f"(GET:PUT = {s.getput_ratio}:1)",
        x_label="throughput (ops/s)",
        series={},
        notes="paper: POCC at or below Cure* until the saturation knee",
    )
    grid = [(clients, protocol)
            for clients in s.client_sweep
            for protocol in protocols]
    configs = [
        _experiment(s, protocol, _getput(s, s.getput_ratio, clients),
                    name=f"fig1b-{protocol}-c{clients}")
        for clients, protocol in grid
    ]
    results = run_experiments(
        configs, parallelism=parallelism,
        progress=_live_log(grid, log, lambda point, r: (
            f"1b c={point[0]} {point[1]}: {r.throughput_ops_s:,.0f} ops/s, "
            f"{r.mean_response_time_s * 1000:.3f} ms")))
    for (clients, protocol), result in zip(grid, results):
        data.add(_label(protocol), result.throughput_ops_s,
                 result.mean_response_time_s * 1000.0)
        data.results.append(result)
    return data


def figure_1c(scale: str = "bench", verbose: bool = False,
              protocols: tuple[str, ...] = DEFAULT_PROTOCOLS,
              parallelism: int | None = None) -> FigureData:
    """Throughput vs GET:PUT ratio at saturation.

    Paper: throughput decreases with write intensity for both systems;
    POCC degrades slightly more (max ~10% behind, at 2:1).
    """
    s = get_scale(scale)
    log = _progress(verbose)
    data = FigureData(
        figure_id="1c",
        title="Throughput vs GET:PUT ratio (saturated)",
        x_label="gets per put",
        series={},
        notes="paper: POCC within ~10% of Cure* even at write-heavy ratios",
    )
    grid = [(ratio, protocol)
            for ratio in s.ratio_sweep
            for protocol in protocols]
    configs = [
        _experiment(s, protocol, _getput(s, ratio, s.saturating_clients),
                    name=f"fig1c-{protocol}-r{ratio}")
        for ratio, protocol in grid
    ]
    results = run_experiments(
        configs, parallelism=parallelism,
        progress=_live_log(grid, log, lambda point, r: (
            f"1c {point[0]}:1 {point[1]}: {r.throughput_ops_s:,.0f} ops/s")))
    for (ratio, protocol), result in zip(grid, results):
        data.add(_label(protocol), ratio, result.throughput_ops_s)
        data.results.append(result)
    return data


# ----------------------------------------------------------------------
# Figure 2: blocking (POCC) vs staleness (Cure*)
# ----------------------------------------------------------------------


def figure_2a(scale: str = "bench", verbose: bool = False,
              parallelism: int | None = None) -> FigureData:
    """POCC blocking probability and blocking time vs throughput.

    Paper: blocking probability below 1e-3 until the saturation point; the
    blocking time is microseconds at moderate load and grows near
    saturation.
    """
    s = get_scale(scale)
    log = _progress(verbose)
    data = FigureData(
        figure_id="2a",
        title=f"POCC blocking behaviour (GET:PUT = {s.getput_ratio}:1)",
        x_label="throughput (ops/s)",
        series={},
        notes="paper: negligible blocking until the last ~10% of load",
    )
    configs = [
        _experiment(s, POCC, _getput(s, s.getput_ratio, clients),
                    name=f"fig2a-c{clients}")
        for clients in s.client_sweep
    ]
    results = run_experiments(
        configs, parallelism=parallelism,
        progress=_live_log(s.client_sweep, log, lambda clients, r: (
            f"2a c={clients}: thr={r.throughput_ops_s:,.0f}, "
            f"p={r.blocking_probability:.2e}, "
            f"t={r.mean_block_time_s * 1000:.4f} ms")))
    for result in results:
        data.add("blocking probability", result.throughput_ops_s,
                 result.blocking_probability)
        data.add("blocking time (ms)", result.throughput_ops_s,
                 result.mean_block_time_s * 1000.0)
        data.results.append(result)
    return data


def figure_2b(scale: str = "bench", verbose: bool = False,
              parallelism: int | None = None) -> FigureData:
    """Cure* data staleness vs throughput.

    Paper: % old and % unmerged GETs grow with load (towards ~15%/10% near
    saturation and ~30% overloaded), as do the numbers of fresher/unmerged
    versions behind a stale read.
    """
    s = get_scale(scale)
    log = _progress(verbose)
    data = FigureData(
        figure_id="2b",
        title=f"Cure* data staleness (GET:PUT = {s.getput_ratio}:1)",
        x_label="throughput (ops/s)",
        series={},
        notes="paper: staleness grows with load; stabilization slows "
              "under CPU contention",
    )
    configs = [
        _experiment(s, CURE, _getput(s, s.getput_ratio, clients),
                    name=f"fig2b-c{clients}")
        for clients in s.client_sweep
    ]
    results = run_experiments(
        configs, parallelism=parallelism,
        progress=_live_log(s.client_sweep, log, lambda clients, r: (
            f"2b c={clients}: thr={r.throughput_ops_s:,.0f}, "
            f"old={r.get_staleness['pct_old']:.2f}%, "
            f"unmerged={r.get_staleness['pct_unmerged']:.2f}%")))
    for result in results:
        stale = result.get_staleness
        thr = result.throughput_ops_s
        data.add("% old", thr, stale["pct_old"])
        data.add("% unmerged", thr, stale["pct_unmerged"])
        data.add("# fresher versions", thr, stale["avg_fresher_versions"])
        data.add("# unmerged versions", thr, stale["avg_unmerged_versions"])
        data.results.append(result)
    return data


# ----------------------------------------------------------------------
# Figure 3: transactional workloads
# ----------------------------------------------------------------------


def figure_3a(scale: str = "bench", verbose: bool = False,
              protocols: tuple[str, ...] = DEFAULT_PROTOCOLS,
              parallelism: int | None = None) -> FigureData:
    """Throughput vs partitions contacted per RO-TX.

    Paper: comparable at small transactions, POCC up to ~15% ahead when
    transactions span most partitions (resource efficiency).

    "Maximum achievable throughput" is the peak over client counts, not a
    single overload point: POCC's throughput *drops* past its peak
    (Figure 3b), so a fixed deep-overload client count would understate it.
    """
    s = get_scale(scale)
    log = _progress(verbose)
    data = FigureData(
        figure_id="3a",
        title="Throughput vs contacted partitions per RO-TX (saturated)",
        x_label="partitions per RO-TX",
        series={},
        notes="paper: POCC >= Cure*, gap widens with transaction size",
    )
    client_points = s.tx_client_sweep[-2:]
    grid = [(tx_partitions, protocol)
            for tx_partitions in s.tx_partition_sweep
            for protocol in protocols]
    configs = [
        _experiment(s, protocol, _rotx(s, tx_partitions, clients),
                    name=f"fig3a-{protocol}-p{tx_partitions}-c{clients}")
        for tx_partitions, protocol in grid
        for clients in client_points
    ]
    run_points = [(tx_partitions, protocol, clients)
                  for tx_partitions, protocol in grid
                  for clients in client_points]
    results = iter(run_experiments(
        configs, parallelism=parallelism,
        progress=_live_log(run_points, log, lambda point, r: (
            f"3a p={point[0]} {point[1]} c={point[2]}: "
            f"{r.throughput_ops_s:,.0f} ops/s"))))
    for tx_partitions, protocol in grid:
        best = 0.0
        for _clients in client_points:
            result = next(results)
            best = max(best, result.throughput_ops_s)
            data.results.append(result)
        data.add(_label(protocol), tx_partitions, best)
        log(f"3a p={tx_partitions} {protocol}: {best:,.0f} ops/s (max "
            f"over {list(client_points)} clients/partition)")
    return data


def _tx_partitions_for(s: FigureScale) -> int:
    """Figures 3b-3d read half of the partitions per transaction."""
    return max(1, s.partitions // 2)


def figure_3b(scale: str = "bench", verbose: bool = False,
              protocols: tuple[str, ...] = DEFAULT_PROTOCOLS,
              parallelism: int | None = None) -> FigureData:
    """Throughput and RO-TX response time vs clients per partition.

    Paper: both reach a similar maximum; POCC's throughput *drops* past its
    peak (blocking under overload) while Cure*'s plateaus.
    """
    s = get_scale(scale)
    log = _progress(verbose)
    half = _tx_partitions_for(s)
    data = FigureData(
        figure_id="3b",
        title=f"RO-TX workload over {half} partitions: load sweep",
        x_label="clients per partition",
        series={},
        notes="paper: POCC throughput peaks then drops; Cure* plateaus",
    )
    grid = [(clients, protocol)
            for clients in s.tx_client_sweep
            for protocol in protocols]
    configs = [
        _experiment(s, protocol, _rotx(s, half, clients),
                    name=f"fig3b-{protocol}-c{clients}")
        for clients, protocol in grid
    ]
    results = run_experiments(
        configs, parallelism=parallelism,
        progress=_live_log(grid, log, lambda point, r: (
            f"3b c={point[0]} {point[1]}: {r.throughput_ops_s:,.0f} ops/s, "
            f"{r.op_mean_s('ro_tx') * 1000:.2f} ms")))
    for (clients, protocol), result in zip(grid, results):
        label = _label(protocol)
        data.add(f"{label} throughput", clients,
                 result.throughput_ops_s)
        data.add(f"{label} RO-TX resp (ms)", clients,
                 result.op_mean_s("ro_tx") * 1000.0)
        data.results.append(result)
    return data


def figure_3c(scale: str = "bench", verbose: bool = False,
              parallelism: int | None = None) -> FigureData:
    """POCC blocking (PUT or transactional read) vs clients per partition.

    Paper: non-monotonic — blocking *time* is heartbeat-bound at low load,
    dips at the throughput peak, then explodes under overload; blocking
    probability peaks at the throughput peak.
    """
    s = get_scale(scale)
    log = _progress(verbose)
    half = _tx_partitions_for(s)
    data = FigureData(
        figure_id="3c",
        title=f"POCC blocking on RO-TX workload over {half} partitions",
        x_label="clients per partition",
        series={},
        notes="paper: blocking time high at low load (heartbeat waits), "
              "dips, then grows under overload",
    )
    configs = [
        _experiment(s, POCC, _rotx(s, half, clients),
                    name=f"fig3c-c{clients}")
        for clients in s.tx_client_sweep
    ]
    results = run_experiments(
        configs, parallelism=parallelism,
        progress=_live_log(s.tx_client_sweep, log, lambda clients, r: (
            "3c c={}: p={:.2e}, t={:.3f} ms".format(
                clients, *_combined_tx_blocking(r)))))
    for clients, result in zip(s.tx_client_sweep, results):
        probability, mean_ms = _combined_tx_blocking(result)
        data.add("blocking probability", clients, probability)
        data.add("blocking time (ms)", clients, mean_ms)
        data.results.append(result)
    return data


def _combined_tx_blocking(result: ExperimentResult) -> tuple[float, float]:
    """Blocking probability and mean time over the slice + PUT causes."""
    slice_block = result.blocking[BLOCK_SLICE_VV]
    put_block = result.blocking[BLOCK_PUT_DEPS]
    attempts = slice_block["attempts"] + put_block["attempts"]
    blocked = slice_block["blocked"] + put_block["blocked"]
    total_time = (
        slice_block["mean_block_time_s"] * slice_block["blocked"]
        + put_block["mean_block_time_s"] * put_block["blocked"]
    )
    probability = blocked / attempts if attempts else 0.0
    mean_ms = (total_time / blocked * 1000.0) if blocked else 0.0
    return probability, mean_ms


def figure_3d(scale: str = "bench", verbose: bool = False,
              protocols: tuple[str, ...] = DEFAULT_PROTOCOLS,
              parallelism: int | None = None) -> FigureData:
    """Staleness of transactional reads: POCC vs Cure*.

    Paper: POCC's % old items is about two orders of magnitude below
    Cure*'s (received-items snapshots vs stable-items snapshots); POCC has
    no separate unmerged series (old == unmerged for POCC).
    """
    s = get_scale(scale)
    log = _progress(verbose)
    half = _tx_partitions_for(s)
    data = FigureData(
        figure_id="3d",
        title=f"RO-TX staleness over {half} partitions",
        x_label="clients per partition",
        series={},
        notes="paper: POCC-Old roughly two orders of magnitude below "
              "Cure*-Old",
    )
    grid = [(clients, protocol)
            for clients in s.tx_client_sweep
            for protocol in protocols]
    configs = [
        _experiment(s, protocol, _rotx(s, half, clients),
                    name=f"fig3d-{protocol}-c{clients}")
        for clients, protocol in grid
    ]
    results = run_experiments(
        configs, parallelism=parallelism,
        progress=_live_log(grid, log, lambda point, r: (
            f"3d c={point[0]} {point[1]}: "
            f"old={r.tx_staleness['pct_old']:.4f}%")))
    for (clients, protocol), result in zip(grid, results):
        stale = result.tx_staleness
        label = _label(protocol)
        data.add(f"{label} % old", clients, stale["pct_old"])
        if protocol != POCC:
            # POCC has no separate unmerged series (old == unmerged).
            data.add(f"{label} % unmerged", clients,
                     stale["pct_unmerged"])
        data.results.append(result)
    return data


#: Figure id -> callable, in paper order.
FIGURES: dict[str, Callable[..., FigureData]] = {
    "1a": figure_1a,
    "1b": figure_1b,
    "1c": figure_1c,
    "2a": figure_2a,
    "2b": figure_2b,
    "3a": figure_3a,
    "3b": figure_3b,
    "3c": figure_3c,
    "3d": figure_3d,
}
