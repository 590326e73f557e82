"""Multi-seed experiment replication with confidence intervals.

A single simulated run is deterministic given its seed, so run-to-run
variance comes entirely from the seeded randomness (clock skew draws,
latency jitter, workload key choices).  To report a defensible number for
a configuration, run it across several seeds and aggregate:

>>> from repro.harness.replicates import run_replicates
>>> agg = run_replicates(config, num_seeds=5)
>>> agg.stat("throughput_ops_s").mean
>>> print(agg.summary_table())

The benches use this to assert on *means with error bars* instead of
single-seed point estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.common.config import ExperimentConfig
from repro.common.errors import ConfigError
from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import run_seeded

#: Default headline metrics extracted from every run.
DEFAULT_METRICS: dict[str, Callable[[ExperimentResult], float]] = {
    "throughput_ops_s": lambda r: r.throughput_ops_s,
    "mean_response_time_s": lambda r: r.mean_response_time_s,
    "blocking_probability": lambda r: r.blocking_probability,
    "mean_block_time_s": lambda r: r.mean_block_time_s,
    "get_pct_old": lambda r: r.get_staleness["pct_old"],
    "get_pct_unmerged": lambda r: r.get_staleness["pct_unmerged"],
    "tx_pct_old": lambda r: r.tx_staleness["pct_old"],
    "visibility_lag_mean_s": lambda r: r.visibility_lag["mean"],
    "bytes_per_op": lambda r: r.bytes_per_op,
    "cpu_utilization_mean": lambda r: r.cpu_utilization_mean,
}


@dataclass(frozen=True, slots=True)
class AggregateStat:
    """Mean / spread of one metric across replicate runs."""

    name: str
    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / self.n if self.n else 0.0

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1); 0 for fewer than 2 runs."""
        if self.n < 2:
            return 0.0
        mean = self.mean
        variance = sum((v - mean) ** 2 for v in self.values) / (self.n - 1)
        return math.sqrt(variance)

    @property
    def ci95_half_width(self) -> float:
        """Half-width of the 95% confidence interval on the mean
        (Student's t); 0 for fewer than 2 runs."""
        if self.n < 2:
            return 0.0
        from scipy import stats

        t = stats.t.ppf(0.975, self.n - 1)
        return t * self.std / math.sqrt(self.n)

    @property
    def minimum(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else 0.0

    def describe(self) -> str:
        return (
            f"{self.name}: {self.mean:.6g} ± {self.ci95_half_width:.2g} "
            f"(n={self.n}, min={self.minimum:.6g}, max={self.maximum:.6g})"
        )


@dataclass(slots=True)
class ReplicatedResult:
    """All replicate runs of one configuration, plus their aggregates."""

    name: str
    protocol: str
    seeds: tuple[int, ...]
    results: list[ExperimentResult]
    stats: dict[str, AggregateStat] = field(default_factory=dict)

    def stat(self, metric: str) -> AggregateStat:
        try:
            return self.stats[metric]
        except KeyError:
            raise ConfigError(
                f"metric {metric!r} was not aggregated; "
                f"available: {sorted(self.stats)}"
            ) from None

    def mean(self, metric: str) -> float:
        return self.stat(metric).mean

    def summary_table(self) -> str:
        header = (f"{self.name or '(unnamed)'} [{self.protocol}] — "
                  f"{len(self.results)} replicates, seeds {list(self.seeds)}")
        lines = [header]
        width = max((len(name) for name in self.stats), default=0)
        for name in sorted(self.stats):
            stat = self.stats[name]
            lines.append(
                f"  {name:<{width}} : {stat.mean:>12.6g} "
                f"± {stat.ci95_half_width:<10.3g}"
                f" [{stat.minimum:.6g}, {stat.maximum:.6g}]"
            )
        return "\n".join(lines)


def run_replicates(
    config: ExperimentConfig,
    num_seeds: int = 5,
    seeds: Sequence[int] | None = None,
    metrics: dict[str, Callable[[ExperimentResult], float]] | None = None,
    parallelism: int | None = None,
) -> ReplicatedResult:
    """Run ``config`` once per seed and aggregate the headline metrics.

    Seeds default to ``config.seed, config.seed + 1, ...`` so two
    replicated runs of the same config are themselves reproducible.
    Custom ``metrics`` extractors replace (not extend) the default set.

    The per-seed runs are independent and fan out across worker processes;
    ``parallelism`` overrides ``config.parallelism`` (``None`` = all
    cores, ``1`` = the legacy serial loop).  Results are aggregated in
    seed order either way, so the output is identical.
    """
    if seeds is None:
        if num_seeds < 1:
            raise ConfigError("num_seeds must be >= 1")
        seeds = tuple(config.seed + i for i in range(num_seeds))
    else:
        seeds = tuple(seeds)
        if not seeds:
            raise ConfigError("need at least one seed")
    extractors = metrics if metrics is not None else DEFAULT_METRICS

    results = run_seeded(config, seeds, parallelism=parallelism)
    stats = {
        name: AggregateStat(
            name=name, values=tuple(extract(r) for r in results)
        )
        for name, extract in extractors.items()
    }
    return ReplicatedResult(
        name=config.name,
        protocol=config.cluster.protocol,
        seeds=seeds,
        results=results,
        stats=stats,
    )
